(** Admission-service benchmark behind [hrt_sim admitbench].

    Measures the memoized {!Hrt_analysis.Service} on a randomized corpus
    of analysis-heavy task sets (6-12 tasks, near-harmonic periods with a
    252 ms hyperperiod, EDF and RM alternating):

    - {e cold}: every query distinct against a fresh service — each pays
      for a full oracle analysis;
    - {e warm}: the same batch repeated — every query is a fingerprint
      plus a cache hit;
    - {e par}: the warm batch fanned across a {!Hrt_par.Par} pool,
      verifying the results stay identical to the sequential run.

    The headline [warm_queries_per_sec] backs the CI regression gate
    ([BENCH_admit.json]); [warm_speedup_vs_cold] is reported, not
    gated. *)

type result = {
  sets : int;
  repeats : int;
  jobs : int;
  cold_seconds : float;
  warm_seconds : float;  (** one warm pass over the corpus *)
  cold_qps : float;
  warm_qps : float;
  warm_speedup : float;  (** warm_qps / cold_qps *)
  par_qps : float;  (** warm passes at [jobs] domains *)
  identical : bool;  (** parallel results byte-identical to sequential *)
  hits : int;
  misses : int;
}

val measure : ?seed:int64 -> sets:int -> repeats:int -> jobs:int -> unit -> result

val to_json : result -> string
val write : result -> path:string -> unit

val baseline_warm_qps : path:string -> (float, string) Result.t
(** The [warm_queries_per_sec] field of a committed artifact. *)

val check_against : result -> path:string -> tolerance:float -> (float, string) Result.t
(** Compare warm-cache throughput to the committed baseline: [Ok baseline]
    when within [tolerance] (a fraction), [Error message] on regression
    or unreadable baseline. *)
