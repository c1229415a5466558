(** Indexed binary min-heap event queue.

    Events are ordered by (time, sequence number): two events at the same
    simulated instant fire in insertion order, and a {!defer_inflight}
    counts as a fresh insertion. The order is total, so the pop sequence
    is bit-identical to the reference binary heap the engine started with
    (kept in [test/heap_queue.ml] and property-tested against this queue);
    the representation differs only in cost:

    - One binary heap of pool indices. Each entry records its heap
      position, so add, cancel and take are O(log n) in the live entries
      and a cancel frees its entry at once: the queue holds only live
      entries and the one in flight, at any distance in time, and a time
      below the last one popped (the engine permits past adds at queue
      level) needs no special case.
    - Entries live in a structure-of-arrays pool recycled through a free
      list, so steady-state traffic performs no heap allocation. Handles
      are immediate ints packing the pool index with a generation
      counter; cancelling a stale handle is a safe no-op.

    The engine drives the queue through the zero-allocation hot-path API
    ({!next_tick} / {!take} / {!finish} / {!defer_inflight}); [add],
    [pop] and friends are the classic interface, used by tests and
    lower-traffic callers. *)

type 'a t

type handle = int
(** Handle to a scheduled event. Handles are immediate (no allocation)
    and generation-checked: once the event fires or is cancelled, the
    old handle goes stale and {!cancel} on it is a no-op. *)

val none : handle
(** A handle that never names a live event ([-1]). *)

val create : dummy:'a -> 'a t
(** [create ~dummy] makes an empty queue. [dummy] fills vacated payload
    slots so the pool never retains dead payloads (closures can capture
    large state). *)

val add : 'a t -> time:Time.ns -> 'a -> handle
(** Schedule a payload. [time] may be below the cursor (the caller — the
    engine — enforces monotonicity of dispatch times). Raises
    [Invalid_argument] if [time] exceeds the +-2^61 ns tick range. *)

val cancel : 'a t -> handle -> unit
(** Idempotent; a no-op on stale handles. A cancelled event is never
    returned by {!pop} or {!take}, and its payload slot is released
    immediately. *)

val is_live : 'a t -> handle -> bool
(** Whether the handle still names a scheduled (not fired, not cancelled,
    not in-flight) event. *)

val entry_time : 'a t -> handle -> Time.ns
(** Scheduled time behind a live handle. Raises [Invalid_argument] on a
    stale one. *)

val pop : 'a t -> (Time.ns * 'a) option
(** Remove and return the earliest live event. *)

val peek_time : 'a t -> Time.ns option
(** Time of the earliest live event without removing it. *)

val size : 'a t -> int
(** Number of live events, O(1). *)

val is_empty : 'a t -> bool

(** {1 Zero-allocation hot path}

    The engine's run loop avoids every boxed intermediate: times are
    compared as int ticks, the minimum is taken while staying pooled
    ("in flight"), its payload is read in place, and the entry is either
    released ({!finish}) or re-inserted at a later time
    ({!defer_inflight}) without a fresh allocation. *)

val no_tick : int
(** Sentinel returned by {!next_tick} on an empty queue ([min_int]). *)

val next_tick : 'a t -> int
(** Tick (int nanoseconds) of the earliest live event, or {!no_tick}: a
    read of the heap's root, O(1). *)

val take : 'a t -> handle
(** Remove the earliest live event from the queue but keep its entry
    pooled in-flight; returns {!none} if the queue is empty. The entry
    MUST subsequently be released with {!finish} or re-inserted with
    {!defer_inflight}. In-flight entries are invisible to {!size},
    {!cancel} and the heap order. *)

val inflight_tick : 'a t -> handle -> int
(** Tick of an in-flight entry (undefined on anything else). *)

val payload : 'a t -> handle -> 'a
(** Payload of an in-flight entry (undefined on anything else). *)

val finish : 'a t -> handle -> unit
(** Release an in-flight entry back to the pool. *)

val defer_inflight : 'a t -> handle -> time:Time.ns -> unit
(** Re-insert an in-flight entry at [time] with a fresh sequence number
    but the {e same} generation: the handle its owner holds stays valid,
    so a later precise {!cancel} still reaches the deferred event. *)
