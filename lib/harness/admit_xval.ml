open Hrt_engine
open Hrt_hw
open Hrt_core
open Hrt_analysis

type outcome = {
  sets : int;
  admitted : int;
  infeasible : int;
  middle : int;
  disagreements : string list;
}

(* Period palette for the randomized corpus: all well above the
   granularity bound, with a 10 ms hyperperiod. *)
let palette = [| Time.us 500; Time.ms 1; Time.ms 2; Time.ms 5; Time.ms 10 |]

(* One set per index: 1-4 periodic tasks whose total utilization spans
   ~0.3 to ~1.1 — straddling both corridor edges (capacity 0.79 with
   overhead on one side, raw feasibility at 1.0 on the other). *)
let gen_tasks ~seed ~index =
  let rng = Rng.create Int64.(add seed (mul 1_000_003L (of_int index))) in
  let n = 1 + Rng.int rng 4 in
  let target = 0.3 +. (0.8 *. Rng.float rng) in
  List.init n (fun _ ->
      let period = palette.(Rng.int rng (Array.length palette)) in
      let share = target /. float_of_int n in
      let slice =
        Time.min period
          (Time.max (Time.us 10)
             (Int64.of_float (Int64.to_float period *. share)))
      in
      Constraints.periodic ~period ~slice ())

let horizon = function
  | Exp.Quick -> Time.ms 103
  | Exp.Full -> Time.ms 503

(* Run the set through the simulator with admission control off, all
   tasks re-anchored to one synchronous release at 3 ms (the critical
   instant — the pattern the exact tests are about; staggered releases
   would let an infeasible set dodge its misses). *)
let simulate ~ctx tasks =
  let config =
    {
      Config.default with
      Config.admission_control = false;
      policy = ctx.Exp.Ctx.policy;
    }
  in
  let sys =
    Scheduler.create ~seed:ctx.Exp.Ctx.seed ~num_cpus:2 ~config
      ~obs:ctx.Exp.Ctx.sink Platform.phi
  in
  let phase = Time.ms 5 in
  let threads =
    List.map
      (fun c ->
        match c with
        | Constraints.Periodic { period; slice; _ } ->
          Exp.periodic_thread sys ~cpu:1 ~phase ~period ~slice ()
        | _ -> invalid_arg "Admit_xval.simulate: periodic tasks only")
      tasks
  in
  ignore
    (Engine.schedule (Scheduler.engine sys) ~at:(Time.ms 2) (fun _ ->
         List.iter
           (fun t -> Scheduler.reanchor sys t ~first_arrival:(Time.ms 3))
           threads));
  Scheduler.run ~until:(horizon ctx.Exp.Ctx.scale) sys;
  Account.misses (Local_sched.account (Scheduler.sched sys 1))

(* The runtime ledger's answer for the whole set, requested one task at
   a time against the given config. *)
let ledger_admits ~config ~overhead_ns tasks =
  let a = Admission.create config ~overhead_ns in
  let old = Constraints.aperiodic () in
  List.for_all
    (fun c -> Admission.admitted (Admission.request a ~now:0L ~old_constr:old c))
    tasks

type classification = Admitted_default | Infeasible_stress | Middle

let check_one ~ctx ~index =
  let policy = ctx.Exp.Ctx.policy in
  let tasks = gen_tasks ~seed:ctx.Exp.Ctx.seed ~index in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf
      (fun s -> problems := Printf.sprintf "set %d [%s]: %s" index
            (Config.policy_name policy) s :: !problems)
      fmt
  in
  let overhead_ns = Taskset.overhead_of_platform Platform.phi in
  let default_cfg = { Config.default with Config.policy } in
  let stress_cfg =
    {
      Config.default with
      Config.policy;
      util_limit = 1.0;
      strict_reservations = false;
    }
  in
  let ts_default = Taskset.make ~config:default_cfg ~overhead_ns tasks in
  let ts_stress = Taskset.make ~config:stress_cfg ~overhead_ns:0L tasks in
  let r_default = Oracle.analyze ts_default in
  let r_stress = Oracle.analyze ts_stress in
  (* Certificates must replay independently. *)
  (match Oracle.check ts_default r_default with
  | Ok () -> ()
  | Error msg -> problem "default certificate fails replay: %s" msg);
  (match Oracle.check ts_stress r_stress with
  | Ok () -> ()
  | Error msg -> problem "stress certificate fails replay: %s" msg);
  let misses = simulate ~ctx tasks in
  let cls =
    if Admission.admitted r_default.Oracle.verdict then Admitted_default
    else if Oracle.exact_infeasible ts_stress r_stress then Infeasible_stress
    else Middle
  in
  (match cls with
  | Admitted_default ->
    if misses > 0 then
      problem "oracle-admitted (headroom %s) but simulator missed %d deadlines"
        (match Admission.headroom r_default.Oracle.verdict with
        | Some h -> Printf.sprintf "%.4f" h
        | None -> "?")
        misses
  | Infeasible_stress ->
    if misses = 0 then
      problem "oracle proved infeasibility but the simulator never missed"
  | Middle -> ());
  (* Ledger agreement. EDF: the oracle and the ledger's Hyperperiod_sim
     mode both decide through Demand.edf — verdicts must match
     exactly. RM: the ledger's Liu-Layland bound is sufficient only, so
     ledger admission (at zero overhead) must imply exact-test
     admission. *)
  (match policy with
  | Config.Edf ->
    let sim_cfg =
      { default_cfg with Config.admission = Config.Hyperperiod_sim }
    in
    let ledger = ledger_admits ~config:sim_cfg ~overhead_ns tasks in
    let ts_sim = Taskset.make ~config:sim_cfg ~overhead_ns tasks in
    let oracle = Admission.admitted (Oracle.analyze ts_sim).Oracle.verdict in
    if ledger <> oracle then
      problem "EDF ledger (%b) disagrees with oracle (%b)" ledger oracle
  | Config.Rm ->
    let ledger = ledger_admits ~config:default_cfg ~overhead_ns:0L tasks in
    let ts_rm = Taskset.make ~config:default_cfg ~overhead_ns:0L tasks in
    let oracle = Admission.admitted (Oracle.analyze ts_rm).Oracle.verdict in
    if ledger && not oracle then
      problem "RM Liu-Layland admission not confirmed by the exact test");
  (cls, List.rev !problems)

let run ?ctx ?(sets = 200) ~policy () =
  let ctx = { (Exp.or_default ctx) with Exp.Ctx.policy } in
  let results =
    Exp.parallel_map ctx
      (fun jctx index -> check_one ~ctx:jctx ~index)
      (List.init sets Fun.id)
  in
  List.fold_left
    (fun acc (cls, problems) ->
      {
        acc with
        admitted = (acc.admitted + match cls with Admitted_default -> 1 | _ -> 0);
        infeasible =
          (acc.infeasible + match cls with Infeasible_stress -> 1 | _ -> 0);
        middle = (acc.middle + match cls with Middle -> 1 | _ -> 0);
        disagreements = acc.disagreements @ problems;
      })
    { sets; admitted = 0; infeasible = 0; middle = 0; disagreements = [] }
    results

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%d sets: %d admitted / %d infeasible / %d middle; %d \
     disagreements%a@]"
    o.sets o.admitted o.infeasible o.middle
    (List.length o.disagreements)
    (fun fmt -> function
      | [] -> ()
      | ds ->
        Format.fprintf fmt "@,%a"
          (Format.pp_print_list Format.pp_print_string)
          ds)
    o.disagreements
