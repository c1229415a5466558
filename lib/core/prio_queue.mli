(** Fixed-capacity priority queue keyed by [int64].

    The local scheduler's pending and real-time run queues are fixed-size
    priority queues so that every scheduler pass has bounded cost (paper
    Section 3.3). Ties break by insertion order, keeping the simulation
    deterministic. Elements can be removed from the middle (a thread
    changing class or being stolen). *)

type 'a t

val create : capacity:int -> 'a t
(** Requires [capacity > 0]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val capacity : 'a t -> int

val add : 'a t -> key:int64 -> 'a -> bool
(** [false] when the queue is full (admission should prevent this). *)

val peek : 'a t -> (int64 * 'a) option
(** Smallest key (earliest deadline / arrival). *)

val pop : 'a t -> (int64 * 'a) option

(** {1 Allocation-free access to the minimum}

    The scheduler pass reads the head of its queues several times per
    invocation; these read it without building [peek]'s option and
    tuple. Each raises [Invalid_argument] on an empty queue. *)

val min_key : 'a t -> int64
(** The smallest key, as {!peek} would return it. *)

val min_value : 'a t -> 'a
(** The element {!peek} would return. *)

val drop_min : 'a t -> unit
(** Remove the element {!pop} would return. *)

val remove : 'a t -> ('a -> bool) -> 'a option
(** Remove the first (heap-order scan) element satisfying the predicate. *)

val mem : 'a t -> ('a -> bool) -> bool
val iter : 'a t -> (int64 -> 'a -> unit) -> unit
val to_list : 'a t -> (int64 * 'a) list
(** Sorted by (key, insertion order). *)

val clear : 'a t -> unit
