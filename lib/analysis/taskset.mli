(** Immutable constraint sets for offline schedulability analysis.

    A task set pairs a list of {!Hrt_core.Constraints.t} with the scheduler
    configuration and per-arrival overhead charge they would be admitted
    under. Unlike the runtime {!Hrt_core.Admission} ledger — which admits
    one request at a time against mutable accounting state — a task set is
    a pure value: the {!Oracle} analyzes it as a whole, and the {!Service}
    memoizes analyses keyed by its {!fingerprint}.

    Sporadic constraints are interpreted relative to analysis time zero:
    the arrival is the constraint's [phase] and the laxity window is
    [deadline - phase], matching a runtime request issued at [now = 0]. *)

open Hrt_engine
open Hrt_core

type t = private {
  config : Config.t;
  overhead_ns : Time.ns;  (** charged per arrival, twice per invocation *)
  tasks : Constraints.t list;
}

val make : ?config:Config.t -> ?overhead_ns:Time.ns -> Constraints.t list -> t
(** Defaults: {!Hrt_core.Config.default} and zero overhead. *)

val production_view :
  policy:Config.policy -> platform:Hrt_hw.Platform.t -> Constraints.t list -> t
(** The task set a runtime admission request would be judged against:
    default configuration under [policy] with the platform's measured
    per-arrival overhead ({!Hrt_core.Admission.overhead_of_platform})
    charged. Shared by [hrt_sim admit] and the serving daemon so both
    answer from the same view. *)

val raw_view : policy:Config.policy -> Constraints.t list -> t
(** The pure feasibility question: full CPU (utilization limit 1.0,
    reservations off) and zero overhead. A rejection with an exact
    certificate under this view means no schedule exists at all. *)

val fingerprint : t -> string
(** The {!Service} cache key: a fixed-width binary encoding of the
    analysis-relevant configuration fields (policy name length-prefixed,
    floats by their exact bits; [52 + String.length policy_name] bytes)
    followed by the per-task [(kind, a, b)] keys in sorted order, 17
    bytes each — periodic [(period, slice)], sporadic
    [(size, deadline - phase)], aperiodic zeros. Two task sets that
    differ only by task order, by periodic phases, or by sporadic
    anchoring (same size and laxity window) share a fingerprint. The
    encoding is injective and not hashed, so equal fingerprints mean
    equal analyses. *)

val key_prefix : t -> string
(** The first bytes of [fingerprint t]: every field but the task
    records. It depends on the configuration and overhead alone, so a
    caller that keys many sets under one view computes it once. *)

val key_of_us : prefix:string -> int array -> int -> string
(** [key_of_us ~prefix recs n] is the fingerprint of a set under the
    view whose {!key_prefix} is [prefix], read from the [n] task
    records [(kind, a, b)] at [recs.(3i)], [recs.(3i+1)],
    [recs.(3i+2)] in microseconds: [(1, period, slice)] for periodic,
    [(2, size, deadline)] for sporadic (phase 0), [(0, 0, 0)] for
    aperiodic. Every field must lie in [0, Int64.max_int / 1000], so
    that it converts to nanoseconds without wrapping. Sorts the first
    [n] records in place (an insertion sort: the caller bounds [n]). *)

val pp : Format.formatter -> t -> unit
