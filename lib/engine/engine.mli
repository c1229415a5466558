(** Discrete-event simulation engine.

    The engine owns simulated wall-clock time and a cancellable event queue
    (a hierarchical timing wheel, {!Event_queue}). It also implements the one
    hardware behaviour that cuts across every subsystem: SMI-style
    {e freezes}, during which all CPUs stop but time keeps advancing
    ("missing time", paper Section 3.6). A freeze defers every event that
    would fire inside the frozen window to the end of the window, preserving
    relative order, and records the window so that thread progress accounting
    can subtract it.

    {2 Actions}

    An event's payload is an {!action}. Hot subsystems (APIC timers, SMI
    generators, IRQ devices, scheduler kicks, fault injectors) register a
    handler once ({!register_source}), cache the single action value naming
    it, and schedule that value over and over: together with the queue's
    entry pool this makes steady-state event traffic allocation-free. The
    [Callback] constructor keeps the classic closure interface for cold
    paths and tests. *)

type t

(** What to run when an event fires. The [int] carried by every
    constructor except [Callback] is a key from {!register_source}; the
    constructors are distinct only so traces and debuggers can tell event
    kinds apart — the engine dispatches them identically. *)
type action =
  | Callback of (t -> unit)
  | Timer_fire of int  (** one-shot APIC timer expiry *)
  | Soft_invoke of int  (** software-requested scheduler pass *)
  | Complete of int  (** thread completion bookkeeping *)
  | Wake of int  (** thread wake: cross-CPU kick (IPI), barrier departure *)
  | Smi_fire of int  (** SMI generator expiry *)
  | Irq_pull of int  (** device interrupt arrival *)
  | Fault_tick of int  (** fault-injection plan step *)

type handle = Event_queue.handle
(** Handle to a scheduled event, usable for cancellation. Immediate and
    generation-checked: after the event fires or is cancelled the handle
    goes stale and {!cancel} on it is a no-op. *)

val no_handle : handle
(** A handle that never names a live event; {!cancel} ignores it. *)

val create : ?seed:int64 -> unit -> t
(** A fresh engine at time 0. [seed] defaults to 42. *)

val now : t -> Time.ns
val rng : t -> Rng.t

val register_source : t -> (t -> unit) -> int
(** Register a long-lived event handler; returns the key to embed in a
    (cached) non-[Callback] action. Sources are never unregistered. *)

val schedule_action : t -> at:Time.ns -> action -> handle
(** Schedule an action at absolute time [at]. Raises [Invalid_argument]
    if [at] is earlier than {!now}. *)

val schedule_action_after : t -> after:Time.ns -> action -> handle
(** Schedule relative to {!now}. *)

val schedule : t -> at:Time.ns -> (t -> unit) -> handle
(** [schedule t ~at f] = [schedule_action t ~at (Callback f)]. *)

val schedule_after : t -> after:Time.ns -> (t -> unit) -> handle
(** Schedule a callback relative to {!now}. *)

val cancel : t -> handle -> unit
(** Idempotent; cancelling an already-fired event is a no-op. *)

val defer_current : t -> at:Time.ns -> unit
(** From inside an event handler: park the event being dispatched back
    into the queue to re-fire at [at] (with a fresh sequence number, so
    it queues behind events already scheduled there — identical ordering
    to cancelling and re-scheduling, but allocation-free). The entry's
    handle remains valid. Raises [Invalid_argument] outside a handler,
    if already deferred, or if [at] is in the past. *)

val freeze : t -> until:Time.ns -> unit
(** Enter (or extend) a frozen window ending at [until]. While frozen, no
    event executes; events due earlier are deferred to the window end. *)

val frozen_overlap : t -> Time.ns -> Time.ns -> Time.ns
(** [frozen_overlap t a b] is the total frozen time inside [\[a, b)]. Used to
    compute how much real progress a thread made while nominally running. *)

val total_frozen : t -> Time.ns
(** Total missing time injected so far. *)

val run : ?until:Time.ns -> ?max_events:int -> t -> unit
(** Execute events in order until the queue is empty, [until] is reached, or
    [max_events] callbacks have run. When stopping at [until], {!now} is set
    to [until]. *)

val stop : t -> unit
(** Stop the current {!run} after the in-flight callback returns. *)

val events_executed : t -> int
(** Number of callbacks executed so far (a cheap progress/perf metric). *)

val pending : t -> int
(** Number of live events still queued, O(1). *)

val pending_events : t -> int
(** Alias of {!pending} (the name the observability gauge uses). *)

val max_queue_depth : t -> int
(** High-water mark of {!pending} over the engine's lifetime (an event-loop
    health metric; exported by the observability layer). *)
