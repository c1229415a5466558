open Hrt_engine

module Rejection = struct
  type t =
    | Invalid of { msg : string }
    | Granularity of { period : Time.ns; slice : Time.ns }
    | Utilization_bound of { util : float; bound : float }
    | Density_bound of { density : float; bound : float }
    | Hyperperiod_demand of { interval : Time.ns; demand : Time.ns }
    | Past_deadline of { arrival : Time.ns; deadline : Time.ns }
    | Overload_shed of { boundary : int }

  let name = function
    | Invalid _ -> "invalid"
    | Granularity _ -> "granularity"
    | Utilization_bound _ -> "utilization-bound"
    | Density_bound _ -> "density-bound"
    | Hyperperiod_demand _ -> "hyperperiod-demand"
    | Past_deadline _ -> "past-deadline"
    | Overload_shed _ -> "overload-shed"

  let describe = function
    | Invalid { msg } -> Printf.sprintf "invalid constraints: %s" msg
    | Granularity { period; slice } ->
      Printf.sprintf "below scheduler granularity (period=%Ldns slice=%Ldns)"
        period slice
    | Utilization_bound { util; bound } ->
      Printf.sprintf "utilization %.6f exceeds bound %.6f" util bound
    | Density_bound { density; bound } ->
      Printf.sprintf "sporadic density %.6f exceeds reservation %.6f" density
        bound
    | Hyperperiod_demand { interval; demand } ->
      Printf.sprintf "demand %Ldns exceeds supply in interval [0,%Ldns]" demand
        interval
    | Past_deadline { arrival; deadline } ->
      Printf.sprintf "deadline %Ldns not after arrival %Ldns" deadline arrival
    | Overload_shed { boundary } ->
      Printf.sprintf "overload mode: criticality below shed boundary %d"
        boundary

  let pp fmt t = Format.pp_print_string fmt (describe t)

  let of_edf ~capacity = function
    | Demand.Hyperperiod { horizon; demand } ->
      Hyperperiod_demand { interval = horizon; demand }
    | Demand.Utilization { util } -> Utilization_bound { util; bound = capacity }
end

type verdict =
  | Admitted of { headroom : float }
  | Rejected of { reason : Rejection.t }

let admitted = function Admitted _ -> true | Rejected _ -> false
let headroom = function Admitted { headroom } -> Some headroom | Rejected _ -> None

let worse a b =
  match (a, b) with
  | Rejected _, _ -> a
  | _, Rejected _ -> b
  | Admitted { headroom = ha }, Admitted { headroom = hb } ->
    if ha <= hb then a else b

let pp_verdict fmt = function
  | Admitted { headroom } -> Format.fprintf fmt "admitted (headroom %.6f)" headroom
  | Rejected { reason } -> Format.fprintf fmt "rejected: %a" Rejection.pp reason

type t = {
  config : Config.t;
  overhead_ns : Time.ns;
  mutable periodic_util : float;
  mutable periodic_count : int;
  mutable periodic_set : (Time.ns * Time.ns) list;  (* (period, slice) *)
  mutable sporadic : (Time.ns * float) list;  (* (deadline, density) *)
  mutable rejections : int;
  mutable shed_boundary : int;  (* overload mode: min admitted crit rank *)
}

let create ?(overhead_ns = 0L) config =
  {
    config;
    overhead_ns;
    periodic_util = 0.;
    periodic_count = 0;
    periodic_set = [];
    sporadic = [];
    rejections = 0;
    shed_boundary = 0;
  }

(* Two invocations per arrival (the arrival and the timeout), each the
   mean cost of interrupt dispatch, one scheduler pass, residual
   bookkeeping and a context switch. *)
let overhead_of_platform (plat : Hrt_hw.Platform.t) =
  let open Hrt_hw in
  let per_invocation =
    plat.Platform.irq_dispatch.Platform.mean_cycles
    +. plat.Platform.sched_pass.Platform.mean_cycles
    +. plat.Platform.sched_other.Platform.mean_cycles
    +. plat.Platform.ctx_switch.Platform.mean_cycles
  in
  Platform.cycles_to_ns plat (2. *. per_invocation)

let periodic_util t = t.periodic_util
let overhead_ns t = t.overhead_ns

let set_overload t ~boundary = t.shed_boundary <- Stdlib.max 0 boundary
let clear_overload t = t.shed_boundary <- 0
let shed_boundary t = t.shed_boundary

let purge t ~now =
  t.sporadic <- List.filter (fun (d, _) -> Time.(d > now)) t.sporadic

let sporadic_density t ~now =
  purge t ~now;
  List.fold_left (fun acc (_, d) -> acc +. d) 0. t.sporadic

let remove_from_set t period slice =
  let rec go = function
    | [] -> []
    | (p, s) :: rest when Int64.equal p period && Int64.equal s slice -> rest
    | x :: rest -> x :: go rest
  in
  t.periodic_set <- go t.periodic_set

let release_one t = function
  | Constraints.Aperiodic _ -> ()
  | Constraints.Periodic { period; slice; _ } as c ->
    t.periodic_util <- Float.max 0. (t.periodic_util -. Constraints.utilization c);
    t.periodic_count <- Stdlib.max 0 (t.periodic_count - 1);
    remove_from_set t period slice
  | Constraints.Sporadic { deadline; _ } -> (
    (* Drop one entry with this deadline; densities of distinct admissions
       with equal deadlines are interchangeable. *)
    match List.partition (fun (d, _) -> Int64.equal d deadline) t.sporadic with
    | [], _ -> ()
    | _ :: rest_same, others -> t.sporadic <- rest_same @ others)

let release t c = release_one t c

let admit_periodic t ~period ~slice =
  let cfg = t.config in
  if Time.(period < cfg.Config.min_period) || Time.(slice < cfg.Config.min_slice)
  then Error (Rejection.Granularity { period; slice })
  else begin
    let u = Int64.to_float slice /. Int64.to_float period in
    let capacity = Config.periodic_capacity cfg in
    (* The admission bound follows the scheduling policy: a bound is only a
       guarantee when the dispatcher runs the discipline it was proved
       for. The hyperperiod simulation is an EDF processor-demand test
       (Config.validate rejects it combined with RM). *)
    match (cfg.Config.admission, cfg.Config.policy) with
    | Config.Hyperperiod_sim, _ ->
      (* The paper's prototype: processor demand over one hyperperiod,
         each arrival charged its scheduler overhead. *)
      let d =
        Demand.edf ~ovh:t.overhead_ns ~capacity ((period, slice) :: t.periodic_set)
      in
      if d.Demand.admitted then Ok d.Demand.headroom
      else Error (Rejection.of_edf ~capacity d.Demand.witness)
    | Config.Policy_bound, Config.Edf ->
      let total = t.periodic_util +. u in
      if total <= capacity then Ok (capacity -. total)
      else Error (Rejection.Utilization_bound { util = total; bound = capacity })
    | Config.Policy_bound, Config.Rm ->
      let bound = Demand.liu_layland (t.periodic_count + 1) *. capacity in
      let total = t.periodic_util +. u in
      if total <= bound then Ok (bound -. total)
      else Error (Rejection.Utilization_bound { util = total; bound })
  end

let admit_sporadic t ~now ~phase ~size ~deadline =
  let arrival = Time.(now + phase) in
  if Time.(deadline <= arrival) then
    Error (Rejection.Past_deadline { arrival; deadline })
  else begin
    let density = Int64.to_float size /. Int64.to_float Time.(deadline - arrival) in
    let total = sporadic_density t ~now +. density in
    let bound =
      t.config.Config.sporadic_reservation *. t.config.Config.util_limit
    in
    if total <= bound then Ok (bound -. total)
    else Error (Rejection.Density_bound { density = total; bound })
  end

(* Informational headroom for runs with admission control disabled: the
   verdict is always [Admitted], but callers still see how far past (or
   inside) the bound the accepted set sits — negative past the edge. *)
let unchecked_headroom t ~now c =
  let capacity = Config.periodic_capacity t.config in
  match c with
  | Constraints.Aperiodic _ -> capacity -. t.periodic_util
  | Constraints.Periodic _ ->
    capacity -. (t.periodic_util +. Constraints.utilization c)
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    let arrival = Time.(now + phase) in
    let density =
      Int64.to_float size /. Int64.to_float (Time.max 1L Time.(deadline - arrival))
    in
    t.config.Config.sporadic_reservation *. t.config.Config.util_limit
    -. (sporadic_density t ~now +. density)

let commit t ~now = function
  | Constraints.Aperiodic _ -> ()
  | Constraints.Periodic { period; slice; _ } as c ->
    t.periodic_util <- t.periodic_util +. Constraints.utilization c;
    t.periodic_count <- t.periodic_count + 1;
    t.periodic_set <- (period, slice) :: t.periodic_set
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    let arrival = Time.(now + phase) in
    let density =
      Int64.to_float size /. Int64.to_float (Time.max 1L Time.(deadline - arrival))
    in
    t.sporadic <- (deadline, density) :: t.sporadic

let request t ~now ?(crit = Constraints.High) ~old_constr c =
  (* Snapshot the full accounting state before releasing [old_constr]:
     on rejection it is restored verbatim. Re-committing [old_constr]
     here would recompute a sporadic entry's density at the current
     [now], so each rejected re-request would silently shift the stored
     density away from what was admitted. *)
  let snap_util = t.periodic_util in
  let snap_count = t.periodic_count in
  let snap_set = t.periodic_set in
  let snap_sporadic = t.sporadic in
  release_one t old_constr;
  let overload_blocked =
    (* Overload mode is orthogonal to [admission_control]: once the
       scheduler has shed threads, real-time guarantees below the shed
       boundary stay revoked until recovery even in runs that disable
       the feasibility tests. *)
    t.shed_boundary > 0
    && Constraints.is_realtime c
    && Constraints.crit_rank crit < t.shed_boundary
  in
  let result =
    match Constraints.validate c with
    | Error msg -> Error (Rejection.Invalid { msg })
    | Ok () ->
      if overload_blocked then
        Error (Rejection.Overload_shed { boundary = t.shed_boundary })
      else if not t.config.Config.admission_control then
        Ok (unchecked_headroom t ~now c)
      else begin
        match c with
        | Constraints.Aperiodic _ ->
          Ok (Config.periodic_capacity t.config -. t.periodic_util)
        | Constraints.Periodic { period; slice; _ } ->
          admit_periodic t ~period ~slice
        | Constraints.Sporadic { phase; size; deadline; _ } ->
          admit_sporadic t ~now ~phase ~size ~deadline
      end
  in
  match result with
  | Ok headroom ->
    commit t ~now c;
    Admitted { headroom }
  | Error reason ->
    t.rejections <- t.rejections + 1;
    t.periodic_util <- snap_util;
    t.periodic_count <- snap_count;
    t.periodic_set <- snap_set;
    t.sporadic <- snap_sporadic;
    Rejected { reason }

let rejections t = t.rejections
