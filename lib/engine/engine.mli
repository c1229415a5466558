(** Discrete-event simulation engine.

    The engine owns simulated wall-clock time and a cancellable event queue
    (an indexed binary heap, {!Event_queue}). It also implements the one
    hardware behaviour that cuts across every subsystem: SMI-style
    {e freezes}, during which all CPUs stop but time keeps advancing
    ("missing time", paper Section 3.6). A freeze defers every event that
    would fire inside the frozen window to the end of the window, preserving
    relative order, and records the window so that thread progress accounting
    can subtract it.

    {2 Events}

    An event is the closure [t -> unit] it runs when it fires. Hot
    subsystems (APIC timers, SMI generators, IRQ devices, scheduler
    kicks, barrier departures, fault injectors) build their closure once
    and schedule that same value over and over: together with the
    queue's entry pool this makes steady-state event traffic
    allocation-free. *)

type t

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

val schedule : t -> at:Time.ns -> (t -> unit) -> handle
(** Schedule an event at absolute time [at]. The closure is stored as
    given: scheduling a cached closure allocates nothing. Raises
    [Invalid_argument] if [at] is earlier than {!now}. *)

val schedule_after : t -> after:Time.ns -> (t -> unit) -> handle
(** Schedule an event relative to {!now}. *)

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

val max_queue_depth : t -> int
(** High-water mark of {!pending} over the engine's lifetime (an event-loop
    health metric; exported by the observability layer). *)
