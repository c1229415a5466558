(** Per-CPU advanced programmable interrupt controller.

    Models the three APIC behaviours the scheduler depends on (paper
    Sections 3.3 and 3.5):

    - a one-shot timer with tick-granularity {e conservative} programming
      (resolution mismatch fires the interrupt earlier, never later), or
      cycle-exact "TSC-deadline" mode where supported;
    - a hardware task/processor priority register (PPR): interrupts at or
      below the current priority are held pending and delivered when the
      priority drops — this is how interrupts are steered {e away} from hard
      real-time threads;
    - interrupt delivery latency, modelled as a small uniform jitter.

    Priorities are 0..15; scheduling interrupts (timer, kick IPI) use
    {!sched_prio} = 15 and are never masked by the scheduler, which sets the
    PPR to at most {!rt_ppr} = 14 while a real-time thread runs. *)

open Hrt_engine

type t

val sched_prio : int
(** Priority of scheduling-related interrupts (timer, kick). *)

val rt_ppr : int
(** PPR installed while a hard real-time thread runs: only scheduling
    interrupts get through. *)

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  tick_ns:int ->
  tsc_deadline:bool ->
  jitter_max_cycles:float ->
  ghz:float ->
  t

val set_timer_handler : t -> (Engine.t -> unit) -> unit
(** Install the timer-interrupt vector (the local scheduler entry). *)

val set_timer_jitter : t -> ?rng:Rng.t -> max_ns:Time.ns -> unit -> unit
(** Add a fault-injected uniform [0, max_ns) delivery latency on top of
    the platform's own jitter (zero [max_ns] clears it). Draws come from
    [rng] when given — fault plans pass a plan-seeded stream so the
    platform's jitter sequence is untouched. *)

val arm : t -> at:Time.ns -> unit
(** Program the one-shot to fire at wall-clock [at] (cancelling any earlier
    programming). Without TSC-deadline mode the countdown is rounded down to
    whole ticks so the interrupt never fires later than [at] minus delivery
    latency; a minimum of one tick applies. Delivery latency is then added. *)

val cancel_timer : t -> unit

val timer_armed : t -> bool
(** Whether a one-shot is currently programmed. Allocation-free; this is
    the check scheduler hot paths use. *)

val timer_armed_at : t -> Time.ns option
(** The wall-clock instant the one-shot will fire (post-quantization,
    pre-latency), if armed. Builds an option: tests and diagnostics
    only. *)

val ppr : t -> int

val set_ppr : t -> Engine.t -> int -> unit
(** Change the processor priority; lowering it delivers any pending
    interrupts that are now unmasked, highest priority first. *)

val deliver : t -> Engine.t -> prio:int -> (Engine.t -> unit) -> unit
(** Present an interrupt to this CPU. Schedules the handler (as a fresh
    engine event at the current instant plus delivery latency) if
    [prio > ppr], otherwise holds it pending. Callers on hot paths pass a
    cached closure so delivery allocates nothing. *)

val pending_count : t -> int
