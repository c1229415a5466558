(** Deterministic fork-join parallelism over OCaml 5 domains.

    The harness fans independent, fully deterministic simulations across
    domains with {!map}. Results are merged by submission index — never by
    completion order — so output is bit-identical to a sequential run.
    Jobs must not share mutable state (each experiment job builds its own
    simulated system); the library gives no other guarantee about how they
    interleave. *)

module Pool : sig
  type t
  (** A parallelism capability: an upper bound on how many domains one
      {!map} call may use. Creating a pool allocates nothing and spawns
      nothing; domains are forked per [map] call and joined before it
      returns, so a pool can be kept or rebuilt freely. *)

  val create : jobs:int -> t
  (** [create ~jobs] allows up to [jobs] concurrent workers (the calling
      domain counts as one). Clamped to [1 .. 64]. *)

  val jobs : t -> int
end

val map : Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] applies [f] to every element, running up to
    [Pool.jobs pool] applications concurrently, and returns the results in
    submission (index) order. With [jobs = 1] (or fewer than two elements)
    no domain is spawned and this is exactly [Array.map f arr] — same
    order, same exceptions.

    If any [f] raises, remaining unstarted jobs are abandoned, all workers
    are joined, and the failure of the lowest failing index is re-raised
    with its backtrace — the exception [Array.map] would raise, whatever
    the job count and however the jobs interleave. *)
