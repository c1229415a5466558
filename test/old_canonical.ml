(* The textual canonical form the task-set fingerprint hashed before the
   binary key, kept verbatim as the reference the fingerprint's
   equivalence classes are property-tested against. Float fields are
   rendered to 9 decimals, so values that differ only past the ninth
   decimal render equal here but hash apart in the binary key. *)

open Hrt_engine
open Hrt_core
open Hrt_analysis

(* Analysis-relevant view of one task. Periodic phases are dropped: every
   test assumes the synchronous (critical-instant) release pattern, which
   dominates any phasing. Sporadic deadlines are folded to the laxity
   window so two requests with equal demand shape hit the same cache
   line regardless of wall-clock anchoring. *)
let task_token = function
  | Constraints.Aperiodic _ -> "A"
  | Constraints.Periodic { period; slice; _ } ->
    Printf.sprintf "P:%Ld:%Ld" period slice
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    Printf.sprintf "S:%Ld:%Ld" size Time.(deadline - phase)

let canonical (t : Taskset.t) =
  let cfg = t.Taskset.config in
  let admission_tag =
    match cfg.Config.admission with
    | Config.Policy_bound -> "bound"
    | Config.Hyperperiod_sim -> "sim"
  in
  let header =
    Printf.sprintf "%s:%s:%.9f:%.9f:%.9f:%b:%b:%Ld:%Ld:%Ld"
      (Config.policy_name cfg.Config.policy)
      admission_tag cfg.Config.util_limit cfg.Config.sporadic_reservation
      cfg.Config.aperiodic_reservation cfg.Config.admission_control
      cfg.Config.strict_reservations cfg.Config.min_period
      cfg.Config.min_slice t.Taskset.overhead_ns
  in
  let tokens = List.sort String.compare (List.map task_token t.Taskset.tasks) in
  String.concat ";" (header :: tokens)
