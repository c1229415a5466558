(** Serving-throughput benchmark behind [hrt_sim servebench].

    Boots a real {!Server} on a private Unix-domain socket in a spawned
    domain, then drives it with the {!Client} over a randomized corpus of
    analysis-heavy task sets (the same near-harmonic shape as
    [admitbench], rendered as protocol specs):

    - {e cold}: every set queried once against the fresh service — each
      round trip pays for a full oracle analysis;
    - {e warm}: the same corpus repeated — each round trip is framing,
      a fingerprint, and a cache hit;
    - {e batch}: warm passes again, [batch_size] sets per frame — the
      amortized serving ceiling.

    The warm replies are compared byte-for-byte to the cold ones
    ([identical]); the headline [warm_queries_per_sec] backs the CI
    regression gate ([BENCH_serve.json]); [warm_speedup_vs_cold] is
    reported, not gated. *)

type result = {
  sets : int;
  repeats : int;
  jobs : int;
  cold_seconds : float;
  warm_seconds : float;  (** one warm pass over the corpus *)
  cold_qps : float;
  warm_qps : float;
  warm_speedup : float;  (** warm_qps / cold_qps *)
  batch_qps : float;  (** warm passes, [batch_size] sets per frame *)
  batch_size : int;
  identical : bool;  (** warm replies byte-identical to cold replies *)
  shed : int;  (** sets the server answered [overloaded] (expect 0) *)
  hits : int;
  misses : int;
}

val measure :
  ?seed:int64 -> ?batch_size:int -> sets:int -> repeats:int -> jobs:int ->
  unit -> result

val to_json : result -> string
val write : result -> path:string -> unit

val baseline_warm_qps : path:string -> (float, string) Result.t
(** The [warm_queries_per_sec] field of a committed artifact. *)

val check_against :
  result -> path:string -> tolerance:float -> (float, string) Result.t
(** Compare warm serving throughput to the committed baseline:
    [Ok baseline] when within [tolerance] (a fraction), [Error message]
    on regression or unreadable baseline. *)
