(** The per-CPU hard real-time scheduler (paper Section 3).

    A local scheduler is a staged pipeline around three queues: a pending
    queue (admitted real-time threads waiting for their next arrival), a
    real-time run queue ordered by the configured {!Policy} — absolute
    deadline under EDF (the paper's discipline and the default), period
    under rate-monotonic — and a non-real-time run queue (round-robin
    within priority). It is invoked only by a timer interrupt, a kick IPI
    from another local scheduler, a device interrupt, or an action of the
    current thread (op completion, yield, block, exit, constraint change).

    Every invocation runs the pipeline stages in order:
    + {b charge} — charge the interrupted thread's progress (subtracting
      any SMI "missing time"),
    + {b pump} — move newly arrived threads from the pending queue into
      the RT run queue (keyed by the policy's run key) and flag deadline
      misses,
    + {b settle} — resolve the current thread (slice exhaustion, op
      completion, class transitions), then run size-tagged tasks if there
      is room before the next arrival,
    + {b pick} — select the next thread (preferring runnable RT work,
      subject to the dispatch mode) and charge the scheduler's own
      overhead (IRQ entry + pass + other + context switch),
    + {b program-timer} — reprogram the APIC one-shot timer for the next
      scheduling event.

    The stages are policy-agnostic: every discipline-specific decision
    (run-queue order, miss test, lazy-dispatch horizon) goes through the
    {!Policy.t} carried in [shared]. The scheduler is driven entirely by
    wall-clock time; its only cross-CPU interactions are kick IPIs and
    (optional) work stealing. *)

open Hrt_engine
open Hrt_hw
open Hrt_kernel

type shared = {
  machine : Machine.t;
  config : Config.t;
  policy : Policy.t;
      (** first-class scheduling policy; must match [config.policy]
          ({!Policy.of_kind} of it) so admission and dispatch agree *)
  pool : Thread_pool.t;
  workload_rng : Rng.t;  (** stream for thread-body randomness *)
  obs : Hrt_obs.Sink.t;
      (** observability sink shared by every local scheduler; the null sink
          disables all instrumentation at the cost of one branch per site *)
  mutable scheds : t array;
  mutable total_aper_queued : int;
      (** machine-wide count of queued aperiodic threads (steal signal) *)
  mutable dispatch_hook : (int -> Thread.t -> Time.ns -> unit) option;
      (** called with (cpu, thread, time) on every context switch to a
          thread — the instrument behind Figs 11/12 *)
}

and t

val create : shared -> Machine.cpu -> t
(** Build the local scheduler for one CPU and install its APIC timer
    vector. [shared.scheds] must be set by the caller once all local
    schedulers exist. *)

val shared : t -> shared

val set_task_thread : t -> Thread.t -> unit
(** Register the helper thread that drains untagged tasks on this CPU. *)

val task_thread : t -> Thread.t option

val account : t -> Account.t
val admission : t -> Admission.t
val tasks : t -> Task.t

val obs : t -> Hrt_obs.Sink.t
(** The shared observability sink (possibly {!Hrt_obs.Sink.null}). *)

val set_clock_skew : t -> Time.ns -> unit
(** Residual TSC error after calibration: how far ahead (ns) this CPU's
    notion of wall-clock time runs. Absolute timer targets are reached when
    the {e local} clock says so, which is what limits cross-CPU
    synchronization (Section 4.4, Figs 11/12). *)

val clock_skew : t -> Time.ns

val enroll : t -> Thread.t -> unit
(** Add a new (aperiodic) thread to this CPU's run queue and request a
    scheduling pass. *)

val wake : t -> Thread.t -> unit
(** Transition a Blocked thread of this CPU to the appropriate queue and
    request a scheduling pass. No-op for non-blocked threads. *)

val request_invoke : t -> unit
(** Ask for a scheduling pass (soft, coalesced). *)

val rephase : t -> Thread.t -> delta:Time.ns -> unit
(** Shift a real-time thread's arrival schedule by [delta] (the phase
    correction of Section 4.4). Takes effect from the next arrival. *)

val reanchor : t -> Thread.t -> first_arrival:Time.ns -> unit
(** Re-anchor a real-time thread's arrival schedule at an absolute time
    (group admission re-anchors every member at its final-barrier
    departure, Section 4.4). *)

val on_device_irq : t -> handler_ns:Time.ns -> unit
(** Entry point for a steered external interrupt: charges the handler cost
    and runs a scheduling pass (paper: bounded interrupt handler time). *)

val sync_accounting : t -> unit
(** Charge the running thread's progress up to the current instant, so
    [cpu_time] reads are exact between invocations (measurement only). *)

val idle_time : t -> Time.ns
(** Total time this CPU spent with no thread dispatched. *)

val shed_boundary : t -> int
(** The current shed boundary of the graceful-degradation state machine
    (DESIGN §8): 0 when not overloaded, otherwise the lowest
    {!Constraints.crit_rank} still entitled to real-time service on this
    CPU. Only moves when [Config.degradation] is on. *)

val degradation_stats : t -> int * int * int
(** [(sheds, recovers, demotes)]: cumulative counts of threads shed to
    aperiodic, re-admitted after recovery, and throttled (late arrival
    retired at its deadline). *)
