(** Shared experiment plumbing for the figure-reproduction harness. *)

open Hrt_engine
open Hrt_core

type scale =
  | Quick  (** scaled-down CPU counts / sweeps / durations (seconds of wall time) *)
  | Full  (** paper-scale parameters (minutes of wall time) *)

val scale_of_env : unit -> scale
(** [Full] when the environment variable [HRT_FULL] is set, else [Quick]. *)

val cpus : scale -> int -> int -> int
(** [cpus scale quick full] picks a worker count. *)

val jobs_of_env : unit -> int
(** Parallel sweep width from the [HRT_JOBS] environment variable;
    [1] (sequential) when unset or unparsable. *)

(** The run context: everything an experiment needs to be self-contained.

    A context replaces the process-wide mutable defaults the harness used
    to lean on (the default observability sink, the ambient [--policy]).
    Every harness entry point takes [?ctx] and threads it into each
    simulated system it builds — engine seed, scale, scheduling policy,
    sink — so two runs with equal contexts are bit-identical, and
    independent jobs can execute on parallel domains without sharing any
    ambient state. *)
module Ctx : sig
  type t = {
    seed : int64;  (** engine seed for every system the experiment boots *)
    scale : scale;
    policy : Config.policy;  (** the CLI's [--policy], explicit *)
    sink : Hrt_obs.Sink.t;  (** where instrumented code reports *)
    jobs : int;  (** parallel sweep width (1 = sequential) *)
    fault : Hrt_fault.Fault.Plan.t option;
        (** fault plan armed on every system the experiment boots *)
    degrade : bool;  (** enable graceful degradation (DESIGN §8) *)
  }

  val make :
    ?seed:int64 ->
    ?scale:scale ->
    ?policy:Config.policy ->
    ?sink:Hrt_obs.Sink.t ->
    ?jobs:int ->
    ?fault:Hrt_fault.Fault.Plan.t ->
    ?degrade:bool ->
    unit ->
    t
  (** Defaults — the documented behavior of every [?ctx]-taking entry
      point when no context is passed: seed 42 (the repo-wide golden
      seed), scale from [HRT_FULL], EDF policy, the disabled
      {!Hrt_obs.Sink.null} sink, jobs from [HRT_JOBS] (else 1), no fault
      plan, degradation off. *)

  val default : unit -> t
  (** [make ()]. *)

  val quick : unit -> t
  (** [make ~scale:Quick ()] — the test suite's context. *)

  val with_sink : t -> Hrt_obs.Sink.t -> t
  val with_jobs : t -> int -> t
  val with_fault : t -> Hrt_fault.Fault.Plan.t option -> t
  val with_degrade : t -> bool -> t
end

val or_default : Ctx.t option -> Ctx.t
(** Resolve an optional [?ctx] argument. *)

val parallel_map : Ctx.t -> (Ctx.t -> 'a -> 'b) -> 'a list -> 'b list
(** Run one job per list element, fanned across [ctx.jobs] domains
    ({!Hrt_par.Par}), results in submission order. Each job gets its own
    context: the parent's seed/scale/policy, plus a private child sink
    when the parent sink is enabled (absorbed back in submission order
    afterwards, so observability output matches a sequential run —
    {!Hrt_obs.Sink.absorb}). Jobs must be independent: each builds its
    own simulated system and touches nothing shared. Output is therefore
    bit-identical for any [jobs] value. *)

val periodic_thread :
  Scheduler.t ->
  cpu:int ->
  ?phase:Time.ns ->
  period:Time.ns ->
  slice:Time.ns ->
  ?on_admit:(Admission.verdict -> unit) ->
  unit ->
  Thread.t
(** Spawn a CPU-burning thread that requests the given periodic
    constraints through the normal admission path. [on_admit] receives the
    typed admission verdict. *)

type spread_collector

val make_spread_collector :
  Scheduler.t -> workers:int -> period:Time.ns -> settle:Time.ns -> spread_collector
(** Installs a dispatch hook measuring, for every arrival period, the
    cross-CPU spread (max - min, in cycles) of the instants the group
    members were context-switched in — the Fig 11/12 instrument. Workers
    are assumed to live on CPUs 1..workers with aligned periods. *)

val spreads : spread_collector -> float array
(** Per-period spreads (cycles), in time order. *)

val run_group_admission :
  ?phase_correction:bool ->
  ?probe:(string -> Thread.t -> Time.ns -> unit) ->
  ?after:(Thread.ctx -> Thread.op) ->
  Scheduler.t ->
  workers:int ->
  Constraints.t ->
  unit ->
  Hrt_group.Group.t
(** Spawn [workers] threads (CPUs 1..workers), have them join one group and
    collectively adopt the constraints (Algorithm 1), then continue with
    [after] (default: burn CPU forever). Does not run the engine. Returns
    the group, which the caller holds to inspect its members: nothing
    else refers to it. *)
