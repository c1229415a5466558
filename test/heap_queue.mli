(** Reference binary-heap event queue.

    This is the engine's original event queue, kept verbatim as the
    {e reference implementation} for the pooled, indexed heap that
    replaced it ([Hrt_engine.Event_queue]): the differential property test
    drives both with the same operation stream and demands identical
    (time, seq, payload) pop sequences. It boxes every entry and cancels
    lazily, so it shares none of the pooled queue's mechanics.

    Events are ordered by (time, sequence number): two events at the same
    simulated instant fire in insertion order. Cancellation is lazy: a
    cancelled entry stays in the heap until popped, then is skipped — but its
    payload is released immediately, and popped slots are overwritten with a
    sentinel, so the queue never retains dead payloads across long runs. *)

open Hrt_engine

type 'a t

type 'a entry
(** Handle to a scheduled event, usable for cancellation. *)

val create : unit -> 'a t

val add : 'a t -> time:Time.ns -> 'a -> 'a entry
(** Schedule a payload. [time] may be in the past relative to previously
    popped events; the caller (the engine) enforces monotonicity. *)

val cancel : 'a t -> 'a entry -> unit
(** Idempotent. A cancelled event is never returned by {!pop}. *)

val is_live : 'a entry -> bool
val entry_time : 'a entry -> Time.ns

val pop : 'a t -> (Time.ns * 'a) option
(** Remove and return the earliest live event. *)

val peek_time : 'a t -> Time.ns option
(** Time of the earliest live event without removing it. *)

val size : 'a t -> int
(** Number of live events. *)

val is_empty : 'a t -> bool
