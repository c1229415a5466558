(** The observability sink: where instrumented code sends events.

    A sink bundles a {!Metrics} registry, an optional {!Tracer}, and a list
    of subscribers. The {!null} sink is disabled: {!emit} on it is a no-op,
    and instrumentation sites are expected to guard event construction with
    {!enabled} so that a run without observability costs nothing beyond a
    predictable branch. *)

open Hrt_engine

type t

type subscriber = time:Time.ns -> cpu:int -> Event.t -> unit

val null : t
(** The disabled sink (the default everywhere). *)

val create : ?trace:bool -> unit -> t
(** An enabled sink. [trace] (default true) also buffers every event in a
    {!Tracer} for later export; metrics are always derived. *)

val enabled : t -> bool

val metrics : t -> Metrics.t
val tracer : t -> Tracer.t option

val emit : t -> time:Time.ns -> cpu:int -> Event.t -> unit
(** Record an event: updates the derived metrics, appends to the trace
    buffer (if any), and notifies subscribers. No-op on a disabled sink. *)

val subscribe : t -> subscriber -> unit
(** Add a callback invoked synchronously on every event (enabled sinks
    only). Used for legacy probe shims and custom harness instruments. *)

val add_probe : t -> name:string -> (unit -> float) -> unit
(** Register a pull gauge: [sample_probes] reads the callback and stores
    the value in the metrics registry under [name]. Used for state that is
    cheap to read but wasteful to push on every change — e.g. the
    admission cache's counters or the daemon's queue depth. No-op on a
    disabled sink. *)

val sample_probes : t -> unit
(** Read every registered probe into its gauge, in registration order.
    Called by the scheduler at snapshot points (end of run, trace flush). *)

val child : t -> t
(** A fresh sink for one parallel job. Disabled parents yield {!null};
    enabled parents yield an enabled sink with its own metrics registry
    and — whenever the parent traces or has subscribers — its own tracer,
    so everything the job records can later be folded back with
    {!absorb}. Child sinks have no subscribers of their own: a sink is
    used by exactly one domain, and subscriber callbacks (e.g. the live
    verifier) are replayed on the parent's domain at absorb time. *)

val absorb : t -> t -> unit
(** [absorb parent ch] folds a child sink back into its parent, on the
    parent's domain: merges the metrics ({!Metrics.merge}), appends the
    child's trace to the parent's tracer, and replays every recorded
    event to the parent's subscribers, in the order the child recorded
    them. Absorbing children in submission order therefore yields the
    same metric, trace, and subscriber streams as running the jobs
    sequentially on the parent — the parallel-sweep determinism
    guarantee. No-op when either sink is disabled. *)
