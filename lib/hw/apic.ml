open Hrt_engine

(* Interrupt delivery and one-shot timer reprogramming run once per
   scheduler decision: hot. Masked-delivery queueing and the pending
   flush are the cold slow path. *)
[@@@hrt.hot]

let sched_prio = 15
let rt_ppr = 14

type pending = { prio : int; seq : int; event : Engine.t -> unit }

(* Sentinel for "timer disarmed": arming the one-shot then stores a plain
   int64 deadline, no option box per reprogram. *)
let no_deadline = Int64.min_int

type t = {
  engine : Engine.t;
  rng : Rng.t;
  tick_ns : int;
  tsc_deadline : bool;
  jitter_max_cycles : float;
  ghz : float;
  mutable ppr : int;
  mutable timer_handler : Engine.t -> unit;
  mutable timer_ev : Engine.handle;
  mutable timer_at : Time.ns; (* [no_deadline] when disarmed *)
  mutable timer_gen : int;
      (* Bumped on every arm/cancel. A one-shot timer holds exactly one
         shot in flight; the fire event validates its generation at
         delivery so a reprogrammed-away shot is dropped even if its
         queue entry could not be cancelled precisely. *)
  mutable armed_gen : int; (* generation of the armed shot, if any *)
  mutable fire_event : Engine.t -> unit;
      (* The single cached timer-expiry closure: every arm schedules this
         same value, so reprogramming the one-shot allocates nothing. *)
  mutable pending : pending list; (* unsorted; flushed by priority *)
  mutable pending_seq : int;
  mutable extra_jitter_ns : Time.ns; (* fault-injected latency, uniform max *)
  mutable extra_rng : Rng.t option;
}

(* Timer expiry: drop stale generations (reprogrammed or cancelled shots
   whose queue entry outlived them), otherwise disarm and enter the
   installed vector. *)
let fire t eng =
  if t.armed_gen = t.timer_gen && t.timer_at <> no_deadline then begin
    t.timer_ev <- Engine.no_handle;
    t.timer_at <- no_deadline;
    t.timer_handler eng
  end

let[@hrt.cold] create ~engine ~rng ~tick_ns ~tsc_deadline ~jitter_max_cycles ~ghz =
  let t =
    {
      engine;
      rng;
      tick_ns;
      tsc_deadline;
      jitter_max_cycles;
      ghz;
      ppr = 0;
      timer_handler = (fun _ -> ());
      timer_ev = Engine.no_handle;
      timer_at = no_deadline;
      timer_gen = 0;
      armed_gen = -1;
      fire_event = ignore;
      pending = [];
      pending_seq = 0;
      extra_jitter_ns = 0L;
      extra_rng = None;
    }
  in
  t.fire_event <- fire t;
  t

let set_timer_handler t f = t.timer_handler <- f

let set_timer_jitter t ?rng ~max_ns () =
  t.extra_jitter_ns <- Time.max 0L max_ns;
  t.extra_rng <- rng

let[@inline] delivery_latency t =
  let base =
    if t.jitter_max_cycles <= 0. then 0L
    else begin
      let cycles = Rng.float t.rng *. t.jitter_max_cycles in
      Time.ns_of_cycles ~ghz:t.ghz (Int64.of_float cycles)
    end
  in
  (* Injected latency draws from its own stream so arming/clearing a fault
     plan never shifts the hardware jitter sequence. *)
  if Time.(t.extra_jitter_ns <= 0L) then base
  else
    let rng = match t.extra_rng with Some r -> r | None -> t.rng in
    Time.(base + Rng.range_ns rng 0L t.extra_jitter_ns)

let cancel_timer t =
  t.timer_gen <- t.timer_gen + 1;
  Engine.cancel t.engine t.timer_ev;
  t.timer_ev <- Engine.no_handle;
  t.timer_at <- no_deadline

let arm t ~at =
  cancel_timer t;
  let now = Engine.now t.engine in
  let fire_at =
    if t.tsc_deadline then Time.max at now
    else begin
      (* Round the countdown down to whole ticks: conservative (early). *)
      let delta = Time.max Time.(at - now) 0L in
      let ticks = Int64.div delta (Int64.of_int t.tick_ns) in
      let ticks = if Int64.compare ticks 1L < 0 then 1L else ticks in
      Time.(now + Int64.mul ticks (Int64.of_int t.tick_ns))
    end
  in
  let fire_at = Time.(fire_at + delivery_latency t) in
  t.timer_at <- fire_at;
  t.armed_gen <- t.timer_gen;
  t.timer_ev <- Engine.schedule t.engine ~at:fire_at t.fire_event

let timer_armed t = t.timer_at <> no_deadline

(* Option-building accessor for tests and diagnostics; the scheduler's
   per-decision check is [timer_armed]. *)
let[@hrt.cold] timer_armed_at t =
  if t.timer_at = no_deadline then None else Some t.timer_at

let ppr t = t.ppr

let[@hrt.cold] flush t eng =
  let deliverable, still =
    List.partition (fun p -> p.prio > t.ppr) t.pending
  in
  t.pending <- still;
  let ordered =
    List.sort
      (fun a b ->
        if a.prio <> b.prio then compare b.prio a.prio else compare a.seq b.seq)
      deliverable
  in
  List.iter
    (fun p -> ignore (Engine.schedule_after eng ~after:0L p.event))
    ordered

let set_ppr t eng prio =
  let old = t.ppr in
  t.ppr <- prio;
  if prio < old then flush t eng

let deliver t eng ~prio event =
  if prio > t.ppr then
    ignore (Engine.schedule_after eng ~after:(delivery_latency t) event)
  else begin
    t.pending <-
      ({ prio; seq = t.pending_seq; event } :: t.pending
      [@hrt.alloc_ok "masked delivery is the slow path; one record per \
                      deferred interrupt"]);
    t.pending_seq <- t.pending_seq + 1
  end

let pending_count t = List.length t.pending
