open Hrt_engine
open Hrt_core
open Hrt_hw

type t = {
  config : Config.t;
  overhead_ns : Time.ns;
  tasks : Constraints.t list;
}

let make ?(config = Config.default) ?(overhead_ns = 0L) tasks =
  { config; overhead_ns; tasks }

(* Mirrors the admission ledger the scheduler boots with: each arrival is
   charged two scheduler invocations, an invocation being the mean cost of
   interrupt dispatch, one scheduler pass, residual bookkeeping, and a
   context switch (Local_sched.create). *)
let overhead_of_platform (plat : Platform.t) =
  let per_invocation =
    plat.Platform.irq_dispatch.Platform.mean_cycles
    +. plat.Platform.sched_pass.Platform.mean_cycles
    +. plat.Platform.sched_other.Platform.mean_cycles
    +. plat.Platform.ctx_switch.Platform.mean_cycles
  in
  Platform.cycles_to_ns plat (2. *. per_invocation)

(* The two analysis views the CLI and the serving daemon expose. The
   production view mirrors the ledger a scheduler boots with (periodic
   capacity limit, measured per-arrival overhead); the raw view asks the
   pure feasibility question (full CPU, zero overhead) — a rejection
   there with an exact certificate means no schedule exists at all. *)
let production_view ~policy ~platform tasks =
  make
    ~config:{ Config.default with Config.policy }
    ~overhead_ns:(overhead_of_platform platform)
    tasks

let raw_view ~policy tasks =
  make
    ~config:
      {
        Config.default with
        Config.policy;
        util_limit = 1.0;
        strict_reservations = false;
        sporadic_reservation = 1.0;
      }
    ~overhead_ns:0L tasks

(* Analysis-relevant view of one task as (kind, a, b). Periodic phases are
   dropped: every test assumes the synchronous (critical-instant) release
   pattern, which dominates any phasing. Sporadic deadlines are folded to
   the laxity window so two requests with equal demand shape hit the same
   cache line regardless of wall-clock anchoring. *)
type task_key = { kind : int; a : Time.ns; b : Time.ns }

let task_key = function
  | Constraints.Aperiodic _ -> { kind = 0; a = 0L; b = 0L }
  | Constraints.Periodic { period; slice; _ } ->
    { kind = 1; a = period; b = slice }
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    { kind = 2; a = size; b = Time.(deadline - phase) }

let compare_key x y =
  match Int.compare x.kind y.kind with
  | 0 -> (
    match Int64.compare x.a y.a with 0 -> Int64.compare x.b y.b | c -> c)
  | c -> c

(* Fixed-width binary encoding: the analysis-relevant config fields (the
   policy name length-prefixed, floats as their exact bits), then the
   sorted task keys at 17 bytes each. It is injective, so it is itself
   the cache key: two sets share it only when they agree on every field
   the analysis reads. *)
let fingerprint t =
  let cfg = t.config in
  let keys = List.sort compare_key (List.map task_key t.tasks) in
  let policy = Config.policy_name cfg.Config.policy in
  let b = Buffer.create (64 + (17 * List.length keys)) in
  let byte n = Buffer.add_uint8 b n in
  let flag v = byte (Bool.to_int v) in
  let bits f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  byte (String.length policy);
  Buffer.add_string b policy;
  byte
    (match cfg.Config.admission with
    | Config.Policy_bound -> 0
    | Config.Hyperperiod_sim -> 1);
  bits cfg.Config.util_limit;
  bits cfg.Config.sporadic_reservation;
  bits cfg.Config.aperiodic_reservation;
  flag cfg.Config.admission_control;
  flag cfg.Config.strict_reservations;
  Buffer.add_int64_le b cfg.Config.min_period;
  Buffer.add_int64_le b cfg.Config.min_slice;
  Buffer.add_int64_le b t.overhead_ns;
  List.iter
    (fun k ->
      byte k.kind;
      Buffer.add_int64_le b k.a;
      Buffer.add_int64_le b k.b)
    keys;
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "@[<v>%d tasks under %s (overhead %Ldns):@,%a@]"
    (List.length t.tasks)
    (Config.policy_name t.config.Config.policy)
    t.overhead_ns
    (Format.pp_print_list Constraints.pp)
    t.tasks
