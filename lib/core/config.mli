(** Scheduler configuration.

    Defaults mirror the paper's evaluation setup (Section 5.1): 99 %
    utilization limit, 10 % sporadic reservation, 10 % aperiodic
    reservation, aperiodic round-robin at 10 Hz. *)

open Hrt_engine

(** The scheduling policy: one coherent knob that drives {e both} the
    admission test and the dispatch order (see {!Policy}). Admission and
    dispatch must agree — admitting against the EDF utilization bound but
    dispatching fixed-priority (or vice versa) voids the schedulability
    guarantee either test provides. *)
type policy =
  | Edf  (** earliest deadline first; utilization-bound admission *)
  | Rm
      (** rate monotonic: fixed priority by period (deadline-monotonic for
          sporadic threads); Liu-Layland bound n(2^{1/n} - 1) admission *)

val policy_name : policy -> string
(** Stable lowercase label ("edf" / "rm") used by the CLI and the
    observability layer. *)

val policy_of_string : string -> policy option

(** How periodic admission is tested. The per-policy utilization bound is
    the default; the hyperperiod simulation is the paper's prototype and
    only sound under EDF dispatch ({!validate} rejects it with {!Rm}).

    This type replaces the former [admission_policy] enum
    ([Edf_utilization | Rate_monotonic | Hyperperiod_sim]), which let the
    admission test contradict the (then hardwired EDF) dispatch order; the
    bound is now derived from {!policy}. *)
type admission_mode =
  | Policy_bound
      (** the utilization-bound test matching {!policy}: sum of
          utilizations against the limit (EDF), or the Liu-Layland bound
          scaled by the capacity (RM) *)
  | Hyperperiod_sim
      (** the paper's prototype (Section 3.2): a processor-demand test
          over one hyperperiod that charges each arrival its two
          scheduler invocations, so it admits more than the RM bound
          while rejecting constraint sets that only fail because of
          scheduler overhead (the Fig 6 edge). Periodic deadlines equal
          periods, so the demand at the hyperperiod alone decides it
          ({!Demand.edf}); a hyperperiod or demand that overflows Int64
          falls back to the equivalent effective-utilization test. *)

type dispatch_policy =
  | Eager
      (** work-conserving: never delay switching to a runnable RT thread —
          start early to end early despite missing time (§3.6) *)
  | Lazy
      (** classic: delay the switch to the latest start time that still
          meets the deadline (the baseline the paper argues against) *)

type t = {
  util_limit : float;  (** fraction of each CPU schedulable at all *)
  sporadic_reservation : float;
  aperiodic_reservation : float;
  aperiodic_quantum : Time.ns;  (** round-robin quantum, default 100 ms *)
  min_period : Time.ns;  (** granularity bound on constraints (§3.3) *)
  min_slice : Time.ns;
  max_threads : int;  (** fixed system-wide thread limit (§3.3) *)
  policy : policy;  (** drives both admission and dispatch *)
  admission : admission_mode;
  dispatch : dispatch_policy;
  admission_control : bool;  (** off to reproduce Figs 6-9 *)
  strict_reservations : bool;
      (** subtract the sporadic/aperiodic reservations from the capacity
          available to periodic threads; turn off to admit the paper's
          90 %-utilization BSP constraints (Figs 13-16) *)
  work_stealing : bool;
  steal_interval : Time.ns;  (** idle-thread probe cadence *)
  lazy_slack : Time.ns;  (** safety margin for the Lazy policy *)
  degradation : bool;
      (** graceful degradation (DESIGN §8): on a deadline miss, raise the
          shed boundary above the missing thread's criticality, shed
          lower-criticality real-time threads to aperiodic, and throttle
          missed arrivals instead of letting them steal others' slack.
          Off by default — the baseline experiments measure raw miss
          behavior past the feasibility edge. *)
  shed_recovery : Time.ns;
      (** quiet time (no deadline miss) after which shed threads are
          re-admitted, default 20 ms *)
}

val default : t

val periodic_capacity : t -> float
(** Utilization available to periodic threads:
    [util_limit - sporadic_reservation - aperiodic_reservation]. *)

val validate : t -> (unit, string) result
