(** Period arithmetic for processor-demand tests (paper Section 3.2).

    The one place that computes gcds, lcms, hyperperiods, per-arrival
    costs, and utilization bounds — shared by the runtime
    {!Admission} ledger, the analytical oracle, and the {!Cyclic}
    planner. Every Int64 sum and product is overflow-checked: [None]
    means the exact value does not fit in Int64 nanoseconds, never a
    silently wrapped one.

    A task set is a list of [(period, slice)] pairs that have passed
    {!Constraints.validate}; overheads are non-negative charges. *)

open Hrt_engine

val add : int64 -> int64 -> int64 option
(** Checked [a + b]. *)

val ceil_div : int64 -> int64 -> int64
(** [ceil_div a b] = ⌈a/b⌉ for [a >= 0], [b > 0], without forming
    [a + b - 1]. *)

val gcd : int64 -> int64 -> int64

val hyperperiod : (Time.ns * Time.ns) list -> Time.ns option
(** The lcm of the periods; [Some 1L] for the empty set. *)

val cost : ovh:Time.ns -> Time.ns -> Time.ns option
(** One arrival's charge: [slice + ovh]. *)

val demand :
  ovh:Time.ns -> jobs:(Time.ns -> int64) -> (Time.ns * Time.ns) list ->
  Time.ns option
(** Σ [jobs period] · [cost slice] over the set. *)

val utilization : ovh:Time.ns -> (Time.ns * Time.ns) list -> float
(** Effective utilization Σ (slice + ovh) / period, in floats: defined
    for every set, exact enough for the bound tests. *)

val liu_layland : int -> float
(** The rate-monotonic bound n(2^{1/n} − 1); 1 for n ≤ 0. *)

val fits : capacity:float -> interval:Time.ns -> Time.ns option -> bool
(** Whether a demand fits [interval · capacity] of supply; an
    overflowed demand never fits. *)

val slack : capacity:float -> interval:Time.ns -> Time.ns -> float
(** Normalized slack [(interval · capacity − demand) / interval]. *)

(** What decided an EDF test. *)
type edf_witness =
  | Hyperperiod of { horizon : Time.ns; demand : Time.ns }
      (** Exact: the hyperperiod H and the demand Σ (H/pᵢ)(sᵢ + ovh)
          of synchronous releases with deadlines in [[0, H]]. *)
  | Utilization of { util : float }
      (** That arithmetic overflows Int64: the float effective
          utilization, which decides the same question. *)

type edf = { witness : edf_witness; admitted : bool; headroom : float }

val edf :
  ovh:Time.ns -> capacity:float -> (Time.ns * Time.ns) list -> edf
(** The EDF processor-demand test for implicit-deadline periodic tasks,
    decided in closed form at the hyperperiod H. Every deadline [d <= H]
    has demand(d) ≤ d · U_eff with equality at H (Baruah, Rosier and
    Howell 1990), so the set is admitted iff demand(H) ≤ H · capacity,
    and the headroom is the slack at H — the smallest slack over every
    deadline. O(n), no enumeration. Only when H or demand(H) overflows
    Int64 does [U_eff ≤ capacity] decide instead, with headroom
    [capacity − U_eff]. *)
