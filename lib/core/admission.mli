(** Local admission control (paper Section 3.2).

    Admission is entirely per-CPU: each local scheduler accounts its own
    utilization, which is what makes communication-free group scheduling
    possible (Section 4.1). The classic single-CPU tests are used:

    - periodic threads: the bound matching [Config.policy] — utilization
      test against the periodic capacity (EDF) or the Liu-Layland bound
      scaled by the capacity (rate monotonic) — or the hyperperiod
      processor-demand test when [Config.admission] selects it (EDF
      only; {!Demand.edf} decides it in closed form at the hyperperiod);
    - sporadic threads: density test ([size / (deadline - arrival)])
      against the sporadic reservation, with expired sporadics purged;
    - aperiodic threads: always admitted.

    Every request is answered with a typed {!verdict}: admitted requests
    carry the remaining headroom under the governing bound, rejections
    carry a {!Rejection.t} naming the exact test that failed. The
    utilization limit leaves headroom for the scheduler itself, SMIs, and
    interrupts (Section 3.6). *)

open Hrt_engine

(** Why a request was refused — one constructor per admission test. *)
module Rejection : sig
  type t =
    | Invalid of { msg : string }
        (** Structural validation failed ({!Constraints.validate}). *)
    | Granularity of { period : Time.ns; slice : Time.ns }
        (** Period or slice below the scheduler's minimum granularity. *)
    | Utilization_bound of { util : float; bound : float }
        (** Total utilization [util] would exceed the policy bound
            (periodic capacity for EDF, Liu-Layland-scaled capacity for
            RM), or — for the hyperperiod test — the set's hyperperiod
            or demand overflows Int64 and its effective utilization
            exceeds the capacity. *)
    | Density_bound of { density : float; bound : float }
        (** Total sporadic density would exceed the sporadic
            reservation. *)
    | Hyperperiod_demand of { interval : Time.ns; demand : Time.ns }
        (** The processor-demand test found an interval [[0, interval]]
            whose demand exceeds the supplied capacity — the witness the
            analytical oracle re-checks. For EDF the interval is the
            hyperperiod; for the oracle's RM test it is the blocked
            task's period, with [demand] saturated at [Int64.max_int]
            when it overflows. *)
    | Past_deadline of { arrival : Time.ns; deadline : Time.ns }
        (** Sporadic deadline not strictly after its arrival. *)
    | Overload_shed of { boundary : int }
        (** Overload mode: the request's criticality rank sits below the
            current shed boundary (DESIGN §8). *)

  val name : t -> string
  (** Stable kebab-case tag ("utilization-bound", "overload-shed", ...)
      used as the [reason] of the Obs admission-reject event. *)

  val describe : t -> string
  (** One-line human-readable explanation with the numbers that failed. *)

  val pp : Format.formatter -> t -> unit

  val of_edf : capacity:float -> Demand.edf_witness -> t
  (** The rejection a failed {!Demand.edf} test reports:
      [Hyperperiod_demand] at the hyperperiod, or [Utilization_bound]
      against [capacity] when the exact arithmetic overflows. *)
end

type verdict =
  | Admitted of { headroom : float }
      (** Remaining slack under the governing bound: utilization slack for
          the policy-bound tests, normalized slack at the hyperperiod
          for the hyperperiod test, density slack for sporadics. With
          [admission_control] off the verdict is always [Admitted] but the
          headroom still reports the distance to the bound (negative past
          the feasibility edge — Figs 6-9 runs). *)
  | Rejected of { reason : Rejection.t }

val admitted : verdict -> bool
val headroom : verdict -> float option
val worse : verdict -> verdict -> verdict
(** Pessimistic combine for gang admission (Group Algorithm 1): a
    rejection beats any admission (first rejection wins), two admissions
    keep the smaller headroom. Associative; deterministic for arrival
    order. *)

val pp_verdict : Format.formatter -> verdict -> unit

type t

val create : ?overhead_ns:Time.ns -> Config.t -> t
(** [overhead_ns] is the scheduler's per-arrival overhead (two invocations)
    charged by the hyperperiod test; 0 by default. *)

val periodic_util : t -> float
(** Committed periodic utilization. *)

val overhead_ns : t -> Time.ns
(** The per-arrival overhead this controller charges (see {!create}). *)

val sporadic_density : t -> now:Time.ns -> float
(** Committed density of still-live sporadic admissions. *)

val request :
  t ->
  now:Time.ns ->
  ?crit:Constraints.criticality ->
  old_constr:Constraints.t ->
  Constraints.t ->
  verdict
(** Test-and-commit: releases [old_constr]'s contribution, tests the new
    constraints, commits them on success and restores the accounting
    state byte-for-byte on failure (a sporadic [old_constr] keeps the
    density computed at its original commit, not one recomputed at the
    current [now]). Always succeeds for aperiodic constraints, and for
    any constraints when [admission_control] is off in the config (Figs
    6-9 turn it off to drive the scheduler past the feasibility edge) —
    except in overload mode: real-time requests with [crit] (default
    [High]) ranked below {!shed_boundary} are rejected with
    [Overload_shed] regardless of [admission_control]. *)

val set_overload : t -> boundary:int -> unit
(** Enter overload mode: real-time requests below criticality rank
    [boundary] are rejected until {!clear_overload}. *)

val clear_overload : t -> unit
val shed_boundary : t -> int
(** Current boundary; 0 when not in overload mode. *)

val release : t -> Constraints.t -> unit
(** Remove a thread's contribution (thread exit). *)

val rejections : t -> int
