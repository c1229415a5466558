open Hrt_engine

type kind = Config.policy = Edf | Rm

module type POLICY = sig
  val kind : kind
  val name : string
  val run_key : Thread.t -> Time.ns
  val missed : now:Time.ns -> Thread.t -> bool
  val latest_start : slack:Time.ns -> Thread.t -> Time.ns
end

(* The miss criterion and the latest feasible start are properties of the
   *constraint* (finish the slice by the deadline), not of the dispatch
   order, so every deadline-constrained policy shares them. They stay in
   the signature because a policy with a different contract (e.g. a soft
   or firm discipline) redefines exactly these. *)

let missed_deadline ~now (th : Thread.t) =
  Time.(th.Thread.slice_left > 0L) && Time.(th.Thread.deadline <= now)

let latest_feasible_start ~slack (th : Thread.t) =
  Time.(th.Thread.deadline - th.Thread.slice_left - slack)

module Edf = struct
  let kind = Edf
  let name = Config.policy_name Config.Edf
  let run_key (th : Thread.t) = th.Thread.deadline
  let missed = missed_deadline
  let latest_start = latest_feasible_start
end

module Rm = struct
  let kind = Rm
  let name = Config.policy_name Config.Rm

  (* Fixed priority: shorter period first (rate monotonic); sporadic
     threads rank by relative deadline (deadline monotonic), which
     coincides with RM when deadline = period. Aperiodic threads never
     enter the RT run queue; give them the weakest possible key so a
     mis-filed one cannot starve real-time work. *)
  let run_key (th : Thread.t) =
    match th.Thread.constr with
    | Constraints.Periodic { period; _ } -> period
    | Constraints.Sporadic _ ->
      Time.max 1L Time.(th.Thread.deadline - th.Thread.arrival)
    | Constraints.Aperiodic _ -> Int64.max_int

  let missed = missed_deadline
  let latest_start = latest_feasible_start
end

type t = (module POLICY)

let of_kind : kind -> t = function
  | Edf -> (module Edf)
  | Rm -> (module Rm)

let kind (module P : POLICY) = P.kind
let name (module P : POLICY) = P.name
let run_key (module P : POLICY) th = P.run_key th
let missed (module P : POLICY) ~now th = P.missed ~now th
let latest_start (module P : POLICY) ~slack th = P.latest_start ~slack th
