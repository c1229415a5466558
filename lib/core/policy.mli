(** Pluggable real-time scheduling policies.

    The local scheduler ({!Local_sched}) is a staged pipeline
    (charge, pump, settle, pick, program-timer) whose stages are
    policy-agnostic: every decision that distinguishes one real-time
    discipline from another is delegated to a [POLICY] module —

    - the {e run-queue key}: what the RT {!Prio_queue} orders by (ties
      break FIFO by insertion, preserving determinism);
    - the {e deadline-miss check}: has a thread failed its current
      arrival;
    - the {e lazy-dispatch horizon}: the latest instant the queue head may
      start and still meet its deadline (used by the [Lazy] dispatch
      baseline for both the dispatch decision and the one-shot timer
      target).

    Two policies are provided. {!Edf} reproduces the paper's eager
    earliest-deadline-first scheduler bit-for-bit. {!Rm} is fixed-priority
    rate-monotonic (deadline-monotonic for sporadic threads), paired with
    the Liu-Layland admission bound in {!Admission}.

    Admission and dispatch must agree: {!Config.t}'s single [policy] field
    selects both, so a constraint set admitted under a bound is always
    dispatched by the discipline that bound is valid for. Adding a policy
    means implementing this signature and extending {!Config.policy} — no
    scheduler surgery. *)

open Hrt_engine

type kind = Config.policy = Edf | Rm

module type POLICY = sig
  val kind : kind

  val name : string
  (** Stable lowercase label ({!Config.policy_name}). *)

  val run_key : Thread.t -> Time.ns
  (** Priority key for the RT run queue; the smallest key runs first.
      Must be stable for the lifetime of one arrival (threads are re-keyed
      whenever they re-enter the queue). *)

  val missed : now:Time.ns -> Thread.t -> bool
  (** Has this thread missed the deadline of its current arrival: the
      deadline passed while slice time was still owed. *)

  val latest_start : slack:Time.ns -> Thread.t -> Time.ns
  (** Lazy dispatch: the latest instant this thread can start running and
      still finish its remaining slice by its deadline, minus [slack]. *)
end

module Edf : POLICY
(** Earliest deadline first: the run queue orders by absolute deadline.
    The paper's policy (Section 3), and the default. *)

module Rm : POLICY
(** Rate monotonic: fixed priority by period for periodic threads,
    relative deadline for sporadic threads (deadline-monotonic). Pairs
    with the Liu-Layland admission bound. *)

type t = (module POLICY)

val of_kind : kind -> t
val kind : t -> kind
val name : t -> string

(** Convenience wrappers over a first-class policy value (what
    {!Local_sched} calls on its hot paths). *)

val run_key : t -> Thread.t -> Time.ns
val missed : t -> now:Time.ns -> Thread.t -> bool
val latest_start : t -> slack:Time.ns -> Thread.t -> Time.ns
