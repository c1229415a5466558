(** A miniature fork-join parallel run-time ("OpenMP-like") fused with the
    kernel.

    The paper's closing direction (Section 8) is "adding real-time and
    barrier removal support to Nautilus-internal implementations of OpenMP
    and NESL run-times". This module is that idea in miniature: a team of
    worker threads executes a sequence of [parallel_for] loops with static
    block scheduling, and loop-end synchronization is either

    - [`Barrier]: the conventional join — every loop ends in a group
      barrier; works under any scheduling; or
    - [`Timed]: no synchronization at all — valid only for a team admitted
      as a hard real-time group, whose members stay in lock-step purely by
      time (Section 6.4).

    Loop bodies are split into per-worker chunks; the chunk's simulated
    compute time comes from a per-iteration cost model, while the visible
    side effects (the [body] function applied to each index) execute at
    chunk boundaries. *)

open Hrt_engine
open Hrt_hw
open Hrt_core

type team

type mode =
  | Aperiodic  (** conventional non-real-time workers *)
  | Realtime of { period : Time.ns; slice : Time.ns }
      (** workers collectively admitted as a hard real-time group (with
          phase correction) before the first loop runs *)

val create_team : Scheduler.t -> cpus:int list -> mode:mode -> team
(** Spawn one worker per CPU. Raises [Invalid_argument] on an empty CPU
    list. Workers idle until loops are submitted. *)

val parallel_for :
  team ->
  ?sync:[ `Barrier | `Timed ] ->
  iterations:int ->
  cost_per_iteration:Platform.cost ->
  (int -> unit) ->
  unit
(** Enqueue a loop: [body i] runs exactly once for every
    [i in 0..iterations-1]. [sync] defaults to [`Barrier]. Raises
    [Invalid_argument] for [`Timed] on an aperiodic team (without the
    time-synchronized schedules, dropping the barrier is unsound). *)

val loops_submitted : team -> int
val loops_completed : team -> int

val run_to_completion : ?until:Time.ns -> team -> unit
(** Drive the simulation until every submitted loop has completed (or the
    [until] safety horizon, default 100 simulated seconds). *)

val last_completion : team -> Time.ns
(** Instant the most recently completed loop finished its last chunk. *)

val admitted : team -> bool
(** Whether real-time group admission succeeded (always true for
    aperiodic teams; meaningful after the first run). *)

val total_misses : team -> int

val shutdown : team -> unit
(** Ask the workers to exit after the current loop sequence. *)
