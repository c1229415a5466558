(** Cyclic executives: real-time behaviour by static construction.

    The paper's future work (Section 8) proposes "compiling parallel
    programs directly into cyclic executives, providing real-time behavior
    by static construction". This module implements the classic
    frame-based cyclic executive of Liu's textbook on top of the same
    simulated node:

    - given a set of periodic jobs [(period, slice)], compute the
      hyperperiod and pick a frame size [f] that (a) divides the
      hyperperiod, (b) fits the largest slice, and (c) satisfies the
      frame/deadline constraint [2f - gcd(f, T_i) <= T_i] for every job;
    - statically pack every job instance into a frame between its release
      and its deadline (earliest-deadline-first-fit);
    - at run time, a single periodic "executive" thread per CPU executes
      each frame's jobs back to back — one admission, one timer stream,
      no per-job scheduling decisions ever again.

    The static table is validated at construction, so deadline misses are
    impossible by construction (the EDF scheduler underneath only sees one
    perfectly feasible periodic thread). *)

open Hrt_engine

type job = { name : string; period : Time.ns; slice : Time.ns }

type table
(** A validated static schedule. *)

type error =
  | Empty_job_set
  | Invalid_job of string  (** non-positive period/slice or slice > period *)
  | Utilization_too_high of float
  | No_valid_frame
      (** the hyperperiod overflows Int64 or exceeds 100 s, or no divisor
          of it satisfies the frame-size constraints *)
  | Unschedulable of string  (** packing failed for this job *)

val pp_error : Format.formatter -> error -> unit

val plan : job list -> (table, error) result
(** Build the static schedule. Deterministic. *)

val hyperperiod : table -> Time.ns
val frame_size : table -> Time.ns
val frames : table -> (string * Time.ns) list array
(** For each frame, the (job, slice) pieces executed in order. A job
    instance may be split across frames only never — instances are packed
    whole; [plan] fails instead of splitting. *)

val utilization : table -> float

val validate : table -> (unit, string) result
(** Re-check the invariants: every job has hyperperiod/period instances,
    each placed between release and deadline, and no frame overflows. Used
    by the test suite (and callers that build tables by other means). *)

val spawn :
  Scheduler.t ->
  cpu:int ->
  ?on_job:(string -> Time.ns -> unit) ->
  table ->
  Thread.t
(** Start the executive on a CPU: one periodic thread with period = frame
    size and slice = the largest frame's load, executing each frame's jobs
    in order. [on_job] is called with (job, completion time) after each
    job piece. The executive negotiates its constraints through normal
    admission control. Raises [Failure] if admission is rejected (the
    caller sized the system wrong). *)
