(** Batched, memoized admission analysis.

    A service front-ends {!Oracle.analyze} with a sharded cache keyed by
    {!Taskset.fingerprint} itself, compared with [String.equal]:
    permutations of the same constraint multiset hit the same entry, and
    because the key is the injective encoding (no digest), a hit is
    exact — two sets share an entry only when they agree on every field
    the analysis reads. The shard is a fixed function of the key's
    bytes, and each shard evicts its oldest key first.

    A service belongs to one domain at a time: its tables and counters
    are plain mutable state, with no lock and no atomic. Only
    [batch ?pool] reaches other domains, and they run nothing but the
    pure analysis of the batch's distinct misses; the calling domain
    does every lookup, insert and count. *)

open Hrt_par

type t

val create : ?shards:int -> ?capacity:int -> unit -> t
(** [shards] (default 8, clamped to [1 .. 64]) splits the cache;
    [capacity] (default 1024, at least 1) bounds entries {e per shard},
    evicted FIFO. *)

val query : t -> Taskset.t -> Oracle.result
(** One analysis, served from cache when an equivalent set (same
    fingerprint) was analyzed before. A miss runs {!Oracle.analyze} and
    inserts its result. *)

val find : t -> string -> Oracle.result option
(** The resident analysis of the set whose {!Taskset.fingerprint} is
    the key, if any. A resident key counts a hit; a key that is not
    resident counts nothing and inserts nothing, so a caller that
    misses and then hands the set to {!batch} or {!query} counts one
    miss, as if it had called that alone. *)

val batch : ?pool:Par.Pool.t -> t -> Taskset.t list -> Oracle.result list
(** Results for the list, in submission order. Hits are answered first,
    on the calling domain; then each distinct missed fingerprint is
    analyzed once — across the [pool]'s domains ({!Hrt_par.Par.map})
    when a pool is given and at least two misses remain, so an all-hit
    batch spawns no domain — and the calling domain inserts the results
    in the order the batch first named them. A repeat of a missed
    fingerprint within the batch is served the same analysis and counts
    a hit. Results, hits, misses, entries, evictions and which keys stay
    resident are identical with and without a pool. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
(** Lifetime counters plus current population across all shards. *)

val register_probes : t -> Hrt_obs.Sink.t -> unit
(** Register pull gauges ["admit.cache.hits"], ["admit.cache.misses"],
    ["admit.cache.evictions"], and ["admit.cache.entries"] on the sink
    ({!Hrt_obs.Sink.add_probe}). *)
