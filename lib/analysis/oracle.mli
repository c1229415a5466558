(** Analytical schedulability oracle (exact tests + checkable certificates).

    Where the runtime {!Hrt_core.Admission} ledger answers one request at a
    time with a policy-matched {e sufficient} test, the oracle analyzes a
    whole {!Taskset} offline with the {e exact} test for its policy:

    - {e EDF}: the processor-demand criterion, decided in closed form
      at the hyperperiod H by {!Hrt_core.Demand.edf} — the same test as
      the runtime's [Hyperperiod_sim] admission mode (each arrival
      charged its two scheduler invocations, supply scaled by the
      periodic capacity). Deadlines equal periods, so no deadline below
      H has less slack than H itself and one O(n) evaluation replaces
      the scan. Only when H or the demand over it overflows Int64 does
      the effective-utilization test take over — exact in both
      directions for implicit-deadline periodic sets.
    - {e RM}: the Lehoczky–Sha–Ding scheduling-point criterion — task
      [i] is schedulable iff {e some} point in the multiples of
      higher-priority periods up to its own deadline absorbs the
      synchronous-release demand. Exact for synchronous periodic sets
      with deadline = period; admits above the Liu–Layland bound.
      Equal-period peers are all counted as higher priority
      (conservative under any tie-break). Pathological period ratios
      (> 4096 jobs of one task per period of another) fall back to the
      Liu–Layland bound, which is sufficient only.
    - {e Sporadic} demand is bounded by the density test against the
      sporadic reservation, anchored at analysis time zero.

    Every verdict ships a {!cert} that {!check} re-derives from the task
    set alone — feasibility witnesses name the binding interval or
    scheduling points, infeasibility witnesses name the overloaded
    interval and the blocking chain that fills it. *)

open Hrt_engine
open Hrt_core

type rm_response = {
  period : Time.ns;  (** the task under test (deadline = period) *)
  slice : Time.ns;
  point : Time.ns;  (** scheduling point witnessing completion *)
  demand : Time.ns;  (** synchronous demand at [point], overhead charged *)
}

type blocking_link = {
  hp_period : Time.ns;  (** a (conservatively) higher-priority task *)
  hp_cost : Time.ns;  (** its slice plus the per-arrival overhead *)
  jobs : int64;  (** arrivals in the blocked task's deadline interval *)
}

type cert =
  | Edf_demand of { horizon : Time.ns; demand : Time.ns }
      (** The hyperperiod and the demand over it — the binding interval
          on admission, the overloaded one on rejection. *)
  | Util of { util : float; bound : float }
      (** Utilization-bound fallback: EDF sets whose hyperperiod or
          demand overflows Int64, or RM sets past the scheduling-point
          cap. [util] has overhead folded in. *)
  | Rm_points of rm_response list
      (** One feasible scheduling point per task, sorted by period. *)
  | Rm_blocking of {
      period : Time.ns;
      slice : Time.ns;
      chain : blocking_link list;
    }
      (** The first unschedulable task and the higher-priority arrivals
          that overfill its deadline interval; {!check} verifies that
          {e every} scheduling point is overloaded, not just the one the
          chain is drawn at. *)
  | Density of { density : float; bound : float }
      (** Aggregate sporadic density against the reservation. *)

type result = {
  verdict : Admission.verdict;
  certs : cert list;  (** empty only for structural rejections *)
}

val analyze : Taskset.t -> result
(** Pure and deterministic: equal {!Taskset.fingerprint}s give equal
    results (the {!Service} memoization contract). Structural problems
    (invalid constraints, granularity, sporadic windows that end before
    they start) reject before any test runs, mirroring the runtime
    ledger's ordering. [admission_control = false] is ignored: the oracle
    always analyzes. *)

val check : Taskset.t -> result -> (unit, string) Result.t
(** Independently re-derive the certificates from the task set: recompute
    every stored hyperperiod, demand, point, utilization, and density;
    confirm feasibility witnesses satisfy their inequalities (for RM
    blocking, that every point fails); and confirm the verdict, its
    headroom, and its rejection reason agree with the certificates.
    O(n) for an EDF certificate. [Error] describes the first
    inconsistency. *)

val exact_infeasible : Taskset.t -> result -> bool
(** Whether a rejection is backed by an exact-necessity argument — the
    set is genuinely unschedulable under its policy at the configured
    capacity, not merely past a sufficient bound. True for EDF demand or
    utilization overruns, RM blocking chains, and structurally impossible
    sporadic windows; false for admitted verdicts and for rejections by
    sufficient-only bounds (Liu–Layland fallback, density reservation,
    granularity). The cross-validation harness uses this to decide when
    a rejection must force simulator misses. *)

val pp_cert : Format.formatter -> cert -> unit
val pp_result : Format.formatter -> result -> unit
