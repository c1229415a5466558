(** Exact percentiles over a sliding window: the latest [capacity]
    samples. Storage starts small and doubles, like {!Percentile}'s, until
    it holds [capacity] samples; from then on each sample overwrites the
    oldest, so memory stays bounded however many samples arrive. *)

type t

val create : capacity:int -> t
(** [capacity] is clamped to at least 1. *)

val add : t -> float -> unit
(** Raises [Invalid_argument] on NaN, as {!Percentile.add}. *)

val count : t -> int
(** Samples held: the number added, up to [capacity]. *)

val value : t -> float -> float
(** [value t p] is {!Percentile.value} over the samples held. The sorted
    copy it builds is kept until the next {!add}. Raises
    [Invalid_argument] when empty or [p] out of range. *)
