open Hrt_engine
open Hrt_core

type rm_response = {
  period : Time.ns;
  slice : Time.ns;
  point : Time.ns;
  demand : Time.ns;
}

type blocking_link = { hp_period : Time.ns; hp_cost : Time.ns; jobs : int64 }

type cert =
  | Edf_demand of { horizon : Time.ns; demand : Time.ns }
  | Util of { util : float; bound : float }
  | Rm_points of rm_response list
  | Rm_blocking of {
      period : Time.ns;
      slice : Time.ns;
      chain : blocking_link list;
    }
  | Density of { density : float; bound : float }

type result = { verdict : Admission.verdict; certs : cert list }

(* ---- task extraction ---- *)

let periodics tasks =
  List.filter_map
    (function
      | Constraints.Periodic { period; slice; _ } -> Some (period, slice)
      | _ -> None)
    tasks

(* Sporadic (size, laxity window) pairs, anchored at analysis time zero. *)
let sporadics tasks =
  List.filter_map
    (function
      | Constraints.Sporadic { phase; size; deadline; _ } ->
        Some (size, Time.(deadline - phase))
      | _ -> None)
    tasks

let structural_failure (ts : Taskset.t) =
  let cfg = ts.Taskset.config in
  let rec go = function
    | [] -> None
    | c :: rest -> (
      match Constraints.validate c with
      | Error msg -> Some (Admission.Rejection.Invalid { msg })
      | Ok () -> (
        match c with
        | Constraints.Periodic { period; slice; _ }
          when Time.(period < cfg.Config.min_period)
               || Time.(slice < cfg.Config.min_slice) ->
          Some (Admission.Rejection.Granularity { period; slice })
        | Constraints.Sporadic { phase; deadline; _ }
          when Time.(deadline <= phase) ->
          Some (Admission.Rejection.Past_deadline { arrival = phase; deadline })
        | _ -> go rest))
  in
  go ts.Taskset.tasks

(* ---- EDF: processor-demand criterion, closed form at the hyperperiod ---- *)

let edf_cert ~capacity = function
  | Demand.Hyperperiod { horizon; demand } -> Edf_demand { horizon; demand }
  | Demand.Utilization { util } -> Util { util; bound = capacity }

let edf_analysis ~ovh ~capacity set =
  let d = Demand.edf ~ovh ~capacity set in
  let cert = edf_cert ~capacity d.Demand.witness in
  if d.Demand.admitted then Ok (d.Demand.headroom, cert)
  else Error (Admission.Rejection.of_edf ~capacity d.Demand.witness, cert)

(* ---- RM: Lehoczky-Sha-Ding scheduling-point criterion ---- *)

(* [hp_of set task] — every other task of [set] whose period is <=
   [task]'s (one instance of [task] itself dropped from the multiset):
   with equal periods each peer counts as higher priority for both
   tasks, which is conservative under any dispatcher tie-break. *)
let hp_of set (period, slice) =
  let dropped = ref false in
  List.filter
    (fun (p, s) ->
      if (not !dropped) && Int64.equal p period && Int64.equal s slice then begin
        dropped := true;
        false
      end
      else Int64.compare p period <= 0)
    set

let rm_points ~p hp =
  let per_task =
    List.concat_map
      (fun (pj, _) ->
        let count = Int64.to_int (Int64.div p pj) in
        List.init count (fun k -> Int64.mul pj (Int64.of_int (k + 1))))
      hp
  in
  List.sort_uniq Int64.compare (p :: per_task)

(* Synchronous demand at point [t]: one job of the task under test plus
   every higher-priority arrival in [0, t). [None] on Int64 overflow,
   which fails the point. *)
let rm_demand_at ~ovh ~slice hp t =
  Option.bind (Demand.cost ~ovh slice) (fun own ->
      Option.bind
        (Demand.demand ~ovh ~jobs:(fun pj -> Demand.ceil_div t pj) hp)
        (Demand.add own))

(* Overflowed quantities in a rejection saturate at Int64.max_int. *)
let saturate = Option.value ~default:Int64.max_int

let rm_chain ~ovh ~period hp =
  List.map
    (fun (pj, sj) ->
      {
        hp_period = pj;
        hp_cost = saturate (Demand.cost ~ovh sj);
        jobs = Demand.ceil_div period pj;
      })
    hp

(* Scheduling points are enumerated only while no period exceeds
   [deadline_cap] times another; past that, Liu-Layland decides. *)
let deadline_cap = 4096

(* The feasible point with the most slack for one task, if any. *)
let rm_best_point ~ovh ~capacity ~slice hp p =
  List.fold_left
    (fun best t ->
      match rm_demand_at ~ovh ~slice hp t with
      | Some demand when Demand.fits ~capacity ~interval:t (Some demand) -> (
        let s = Demand.slack ~capacity ~interval:t demand in
        match best with
        | Some (_, _, s') when s' >= s -> best
        | _ -> Some (t, demand, s))
      | _ -> best)
    None (rm_points ~p hp)

let rm_analysis ~ovh ~capacity set =
  let sorted = List.sort compare set in
  let p_min = fst (List.hd sorted) in
  let p_max = fst (List.nth sorted (List.length sorted - 1)) in
  if Int64.compare (Int64.div p_max p_min) (Int64.of_int deadline_cap) > 0
  then begin
    (* Scheduling-point set too large to enumerate exactly: Liu-Layland
       sufficient bound, scaled by the capacity. *)
    let util = Demand.utilization ~ovh set in
    let bound = Demand.liu_layland (List.length set) *. capacity in
    let cert = Util { util; bound } in
    if util <= bound then Ok (bound -. util, cert)
    else Error (Admission.Rejection.Utilization_bound { util; bound }, cert)
  end
  else begin
    let rec go responses min_slack = function
      | [] -> Ok (min_slack, Rm_points (List.rev responses))
      | ((period, slice) as task) :: rest -> (
        let hp = hp_of sorted task in
        match rm_best_point ~ovh ~capacity ~slice hp period with
        | Some (point, demand, s) ->
          go
            ({ period; slice; point; demand } :: responses)
            (if s < min_slack then s else min_slack)
            rest
        | None ->
          let demand = saturate (rm_demand_at ~ovh ~slice hp period) in
          Error
            ( Admission.Rejection.Hyperperiod_demand { interval = period; demand },
              Rm_blocking { period; slice; chain = rm_chain ~ovh ~period hp } ))
    in
    go [] infinity sorted
  end

(* ---- sporadic: density against the reservation ---- *)

let density_bound (cfg : Config.t) =
  cfg.Config.sporadic_reservation *. cfg.Config.util_limit

let total_density sp =
  List.fold_left
    (fun acc (size, window) ->
      acc +. (Int64.to_float size /. Int64.to_float window))
    0. sp

let density_analysis ~cfg sp =
  let bound = density_bound cfg in
  let density = total_density sp in
  let cert = Density { density; bound } in
  if density <= bound then Ok (bound -. density, cert)
  else Error (Admission.Rejection.Density_bound { density; bound }, cert)

(* ---- analyze ---- *)

let analyze (ts : Taskset.t) =
  let cfg = ts.Taskset.config in
  let ovh = ts.Taskset.overhead_ns in
  match structural_failure ts with
  | Some reason ->
    { verdict = Admission.Rejected { reason }; certs = [] }
  | None ->
    let capacity = Config.periodic_capacity cfg in
    let periodic = periodics ts.Taskset.tasks in
    let sporadic = sporadics ts.Taskset.tasks in
    let sp = if sporadic = [] then None else Some (density_analysis ~cfg sporadic) in
    let pe =
      if periodic = [] then None
      else
        Some
          (match cfg.Config.policy with
          | Config.Edf -> edf_analysis ~ovh ~capacity periodic
          | Config.Rm -> rm_analysis ~ovh ~capacity periodic)
    in
    let cert_of = function Ok (_, c) | Error (_, c) -> c in
    let certs = List.filter_map (Option.map cert_of) [ sp; pe ] in
    let verdict =
      match (sp, pe) with
      | Some (Error (reason, _)), _ | _, Some (Error (reason, _)) ->
        Admission.Rejected { reason }
      | _ ->
        let headroom_of = function
          | Some (Ok (h, _)) -> h
          | _ -> infinity
        in
        let h = Float.min (headroom_of sp) (headroom_of pe) in
        let h = if h = infinity then capacity else h in
        Admission.Admitted { headroom = h }
    in
    { verdict; certs }

(* ---- certificate checking ---- *)

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let feq a b = Float.abs (a -. b) <= 1e-9

(* Re-derive one certificate from the task set and report whether it
   witnesses feasibility ([true]) or infeasibility ([false]). Stored
   arithmetic that does not reproduce raises. *)
let check_cert ~cfg ~ovh ~capacity ~periodic ~sporadic = function
  | Util { util; bound } ->
    let u = Demand.utilization ~ovh periodic in
    if not (feq u util) then
      failf "util certificate: stored %.9f, recomputed %.9f" util u;
    let expected =
      match cfg.Config.policy with
      | Config.Edf -> capacity
      | Config.Rm -> Demand.liu_layland (List.length periodic) *. capacity
    in
    if not (feq bound expected) then
      failf "util certificate: stored bound %.9f, expected %.9f" bound expected;
    util <= bound
  | Edf_demand { horizon; demand } -> (
    if cfg.Config.policy <> Config.Edf then
      failf "EDF demand certificate under non-EDF policy";
    match Demand.hyperperiod periodic with
    | None -> failf "EDF certificate: the hyperperiod overflows"
    | Some h ->
      if not (Int64.equal h horizon) then
        failf "EDF certificate: stored horizon %Ld, recomputed %Ld" horizon h;
      let d = Demand.demand ~ovh ~jobs:(fun p -> Int64.div h p) periodic in
      if not (Option.equal Int64.equal d (Some demand)) then
        failf "EDF certificate: demand at the hyperperiod %Ld does not \
               recompute" demand;
      Demand.fits ~capacity ~interval:horizon d)
  | Rm_points responses ->
    if cfg.Config.policy <> Config.Rm then
      failf "RM points certificate under non-RM policy";
    let key (p, s) = (p, s) in
    let claimed =
      List.sort compare (List.map (fun r -> key (r.period, r.slice)) responses)
    in
    let actual = List.sort compare (List.map key periodic) in
    if claimed <> actual then
      failf "RM certificate does not cover the periodic tasks exactly";
    List.for_all
      (fun r ->
        if Time.(r.point <= 0L) || Time.(r.point > r.period) then
          failf "RM certificate: point %Ld outside (0, %Ld]" r.point r.period;
        let hp = hp_of periodic (r.period, r.slice) in
        let d = rm_demand_at ~ovh ~slice:r.slice hp r.point in
        if not (Option.equal Int64.equal d (Some r.demand)) then
          failf "RM certificate: demand at %Ld stored %Ld does not recompute"
            r.point r.demand;
        Demand.fits ~capacity ~interval:r.point d)
      responses
  | Rm_blocking { period; slice; chain } ->
    if cfg.Config.policy <> Config.Rm then
      failf "RM blocking certificate under non-RM policy";
    if not (List.exists (fun (p, s) -> Int64.equal p period && Int64.equal s slice) periodic)
    then failf "RM blocking certificate names a task not in the set";
    let hp = hp_of periodic (period, slice) in
    let expected_chain = rm_chain ~ovh ~period hp in
    let sort_chain =
      List.sort (fun a b -> compare (a.hp_period, a.hp_cost) (b.hp_period, b.hp_cost))
    in
    if sort_chain chain <> sort_chain expected_chain then
      failf "RM blocking chain does not match the higher-priority set";
    (* The chain names the overload at the deadline; infeasibility under
       the point criterion needs every point to fail. *)
    List.iter
      (fun t ->
        let d = rm_demand_at ~ovh ~slice hp t in
        if Demand.fits ~capacity ~interval:t d then
          failf
            "RM blocking certificate refuted: point %Ld absorbs demand %Ld"
            t (saturate d))
      (rm_points ~p:period hp);
    false
  | Density { density; bound } ->
    let d = total_density sporadic in
    if not (feq d density) then
      failf "density certificate: stored %.9f, recomputed %.9f" density d;
    let b = density_bound cfg in
    if not (feq b bound) then
      failf "density certificate: stored bound %.9f, expected %.9f" bound b;
    density <= bound

(* Headroom one certificate implies, mirroring [analyze]'s combine. *)
let cert_headroom ~capacity = function
  | Util { util; bound } -> bound -. util
  | Edf_demand { horizon; demand } ->
    Demand.slack ~capacity ~interval:horizon demand
  | Rm_points responses ->
    List.fold_left
      (fun acc r ->
        Float.min acc (Demand.slack ~capacity ~interval:r.point r.demand))
      infinity responses
  | Rm_blocking _ -> neg_infinity
  | Density { density; bound } -> bound -. density

let check (ts : Taskset.t) (r : result) =
  let cfg = ts.Taskset.config in
  let ovh = ts.Taskset.overhead_ns in
  let capacity = Config.periodic_capacity cfg in
  let periodic = periodics ts.Taskset.tasks in
  let sporadic = sporadics ts.Taskset.tasks in
  try
    (match (structural_failure ts, r.verdict) with
    | Some reason, Admission.Rejected { reason = claimed } ->
      if reason <> claimed then
        failf "structural rejection mismatch: claimed %s, found %s"
          (Admission.Rejection.describe claimed)
          (Admission.Rejection.describe reason);
      if r.certs <> [] then
        failf "structural rejection must not carry certificates"
    | Some reason, Admission.Admitted _ ->
      failf "admitted a structurally invalid set (%s)"
        (Admission.Rejection.describe reason)
    | None, _ ->
      let statuses =
        List.map
          (fun c -> (c, check_cert ~cfg ~ovh ~capacity ~periodic ~sporadic c))
          r.certs
      in
      (match r.verdict with
      | Admission.Admitted { headroom } ->
        List.iter
          (fun (_, ok) ->
            if not ok then failf "admitted verdict carries a failing certificate")
          statuses;
        if periodic <> [] && not (List.exists (fun (c, _) ->
               match c with
               | Edf_demand _ | Util _ | Rm_points _ -> true
               | _ -> false) statuses)
        then failf "admitted verdict lacks a periodic certificate";
        if sporadic <> []
           && not (List.exists (fun (c, _) ->
                  match c with Density _ -> true | _ -> false) statuses)
        then failf "admitted verdict lacks a density certificate";
        let expected =
          match statuses with
          | [] -> capacity
          | _ ->
            List.fold_left
              (fun acc (c, _) -> Float.min acc (cert_headroom ~capacity c))
              infinity statuses
        in
        let expected = if expected = infinity then capacity else expected in
        if not (feq headroom expected) then
          failf "headroom %.9f does not match certificates (%.9f)" headroom
            expected
      | Admission.Rejected { reason } ->
        let failing = List.filter (fun (_, ok) -> not ok) statuses in
        if failing = [] then
          failf "rejected verdict but every certificate passes";
        let consistent =
          List.exists
            (fun (c, _) ->
              match (reason, c) with
              | ( Admission.Rejection.Density_bound { density; bound },
                  Density { density = d; bound = b } ) ->
                feq density d && feq bound b
              | ( Admission.Rejection.Utilization_bound { util; bound },
                  Util { util = u; bound = b } ) ->
                feq util u && feq bound b
              | ( Admission.Rejection.Hyperperiod_demand { interval; demand },
                  Edf_demand { horizon; demand = d } ) ->
                Int64.equal interval horizon && Int64.equal demand d
              | ( Admission.Rejection.Hyperperiod_demand { interval; demand },
                  Rm_blocking { period; slice; chain = _ } ) ->
                Int64.equal interval period
                && Int64.equal demand
                     (saturate
                        (rm_demand_at ~ovh ~slice
                           (hp_of periodic (period, slice))
                           period))
              | _ -> false)
            failing
        in
        if not consistent then
          failf "rejection reason (%s) is not backed by a failing certificate"
            (Admission.Rejection.describe reason)));
    Ok ()
  with Check_failed msg -> Error msg

let exact_infeasible (ts : Taskset.t) (r : result) =
  match r.verdict with
  | Admission.Admitted _ -> false
  | Admission.Rejected { reason } -> (
    match reason with
    | Admission.Rejection.Hyperperiod_demand _ -> true
    | Admission.Rejection.Past_deadline _ -> true
    | Admission.Rejection.Utilization_bound { util; _ } -> (
      match ts.Taskset.config.Config.policy with
      | Config.Edf -> true
      | Config.Rm -> util > Config.periodic_capacity ts.Taskset.config)
    | _ -> false)

(* ---- printing ---- *)

let pp_cert fmt = function
  | Edf_demand { horizon; demand } ->
    Format.fprintf fmt "EDF demand: %Ldns over the hyperperiod [0,%Ldns]"
      demand horizon
  | Util { util; bound } ->
    Format.fprintf fmt "utilization %.6f against bound %.6f" util bound
  | Rm_points responses ->
    Format.fprintf fmt "@[<v>RM scheduling points:@,%a@]"
      (Format.pp_print_list (fun fmt r ->
           Format.fprintf fmt
             "  task(period=%Ldns slice=%Ldns) completes %Ldns demand by \
              %Ldns"
             r.period r.slice r.demand r.point))
      responses
  | Rm_blocking { period; slice; chain } ->
    Format.fprintf fmt
      "@[<v>RM blocking of task(period=%Ldns slice=%Ldns):@,%a@]" period slice
      (Format.pp_print_list (fun fmt l ->
           Format.fprintf fmt "  %Ld jobs of period %Ldns cost %Ldns each"
             l.jobs l.hp_period l.hp_cost))
      chain
  | Density { density; bound } ->
    Format.fprintf fmt "sporadic density %.6f against reservation %.6f"
      density bound

let pp_result fmt r =
  Format.fprintf fmt "@[<v>%a@,%a@]" Admission.pp_verdict r.verdict
    (Format.pp_print_list pp_cert)
    r.certs
