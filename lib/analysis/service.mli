(** Batched, memoized admission analysis.

    A service front-ends {!Oracle.analyze} with a sharded cache keyed by
    {!Taskset.fingerprint} itself: permutations of the same constraint
    multiset hit the same entry, and because the key is the injective
    encoding (no digest), a hit is exact — two sets share an entry only
    when they agree on every field the analysis reads. The shard is a
    fixed function of the key's bytes. Shards are mutex-guarded and the
    counters are atomic, so one service may be shared by the domains of
    a {!Hrt_par.Par} fan-out; because the oracle is deterministic,
    results are identical for any interleaving — a batch at [jobs = n]
    returns byte-identical verdicts to the same batch at [jobs = 1]. *)

open Hrt_par

type t

val create : ?shards:int -> ?capacity:int -> unit -> t
(** [shards] (default 8, clamped to [1 .. 64]) bounds lock contention;
    [capacity] (default 1024, at least 1) bounds entries {e per shard},
    evicted FIFO. *)

val query : t -> Taskset.t -> Oracle.result
(** One analysis, served from cache when an equivalent set (same
    fingerprint) was analyzed before. Concurrent misses on one key are
    single-flight: the first domain runs {!Oracle.analyze} while peers
    block on the in-flight entry and are handed the same result — the
    oracle runs exactly once per distinct computation, one miss is
    counted for the computing domain, and every waiter counts a hit, so
    cache statistics are identical at any job count. *)

val batch : ?pool:Par.Pool.t -> t -> Taskset.t list -> Oracle.result list
(** Results for the list, in submission order. Hits are answered first,
    on the calling domain (fingerprint, shard, one locked lookup); only
    the distinct missed fingerprints then go through [query]'s
    single-flight path, fanned across the [pool]'s domains
    ({!Hrt_par.Par.map}) when at least two remain — an all-hit batch
    spawns no domain. A repeat of a missed fingerprint within the batch
    is served the same analysis and counts a hit. Results, hits, misses,
    entries and evictions are identical at any job count. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
(** Lifetime counters plus current population across all shards. *)

val register_probes : t -> Hrt_obs.Sink.t -> unit
(** Register pull gauges ["admit.cache.hits"], ["admit.cache.misses"],
    ["admit.cache.evictions"], and ["admit.cache.entries"] on the sink
    ({!Hrt_obs.Sink.add_probe}). *)
