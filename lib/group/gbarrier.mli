(** Group-scoped barrier with release-order detection (paper Section 4.4).

    Arrivals pay a small serialized cost (cache-line contention on the
    shared counter); the last arriver releases everyone, with the [k]-th
    waiter (in arrival order) departing [k * delta] after the release —
    the measured per-thread delay delta that phase correction later
    cancels. The barrier is reusable across rounds (sense reversal is
    implicit: state resets at release). *)

open Hrt_engine
open Hrt_core

type t

val create :
  ?arrive_cost:Hrt_hw.Platform.cost ->
  ?serialized_arrivals:bool ->
  Scheduler.t ->
  parties:int ->
  t
(** A barrier for [parties] threads. [arrive_cost] defaults to the
    platform's lean spin-barrier arrival cost. With [serialized_arrivals]
    (the kernel's group-admission barriers, which take the group lock per
    arrival), the [p]-th arriver pays [(p+1)] holdings — this produces the
    linear per-member costs of Figs 10(c,d) while departures stay aligned
    to within the release stagger. *)

val set_parties : t -> int -> unit
val parties : t -> int

val id : t -> int
(** Process-unique creation-ordered identifier, stamped on the barrier's
    trace events so the verifier can separate interleaved barriers. *)

val release_delta : t -> Time.ns
(** The mean per-thread departure stagger (the delta of Section 4.4),
    derived from the platform's barrier-release cost. *)

val rounds : t -> int
(** Completed rounds. *)

val last_release_time : t -> Hrt_engine.Time.ns option
(** Instant the last round was released (the group-common anchor that
    phase correction aligns schedules to). *)

val cross :
  ?on_release:(unit -> unit) ->
  ?record_order:(Thread.t -> int -> unit) ->
  t ->
  Thread.body
(** Fragment: one barrier crossing. [on_release] runs once per round, at
    the instant the last thread arrives (before anyone departs) — used by
    reductions to freeze their accumulator. [record_order] tells each
    thread its release index (0 = first out). *)

(** {1 Reusable crossings}

    A thread that crosses the same barrier every iteration keeps one
    {!crossing} and re-arms it, instead of building a fresh {!cross}
    fragment (a closure and its state) per iteration. *)

type crossing

val crossing :
  ?on_release:(unit -> unit) ->
  ?record_order:(Thread.t -> int -> unit) ->
  t ->
  crossing
(** One thread's crossing state, armed; arguments as for {!cross}. *)

val step : crossing -> Thread.body
(** Advance the crossing: [step c] behaves exactly like the body [cross]
    returns, and answers [Exit] once the crossing is complete. *)

val rearm : crossing -> unit
(** Make a completed crossing ready to cross the barrier again. *)
