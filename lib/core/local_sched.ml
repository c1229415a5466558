open Hrt_engine
open Hrt_hw
open Hrt_kernel
module Obs = Hrt_obs

type shared = {
  machine : Machine.t;
  config : Config.t;
  policy : Policy.t;
  pool : Thread_pool.t;
  workload_rng : Rng.t;
  obs : Obs.Sink.t;
  mutable scheds : t array;
  mutable total_aper_queued : int;
  mutable dispatch_hook : (int -> Thread.t -> Time.ns -> unit) option;
}

and t = {
  shared : shared;
  cpu : Machine.cpu;
  pending : Thread.t Prio_queue.t;
  rt_run : Thread.t Prio_queue.t;
  aper_run : Thread.t Deque.t;
  task_queue : Task.t;
  admission : Admission.t;
  account : Account.t;
  services : Thread.services;
  mutable last_ctx : Thread.ctx option;
  mutable current : Thread.t option;
  mutable completion_ev : Engine.handle;
  mutable completion_gen : int;
  mutable completion_armed_gen : int;
  (* Cached engine events for the recurring per-CPU events (scheduler
     pass requests, op completions, kick IPIs, steal polls, recovery
     ticks), each a closure built once at [create]; scheduling them
     allocates nothing. *)
  mutable soft_event : Engine.t -> unit;
  mutable complete_event : Engine.t -> unit;
  mutable kick_event : Engine.t -> unit;
  mutable kick_inner : Engine.t -> unit;
  mutable steal_event : Engine.t -> unit;
  mutable recover_event : Engine.t -> unit;
  mutable steal_armed : bool;
  mutable busy_until : Time.ns;
  mutable clock_skew : Time.ns;
  mutable soft_pending : bool;
  mutable idle_since : Time.ns option;
  mutable idle_total : Time.ns;
  mutable task_thread : Thread.t option;
  (* Graceful-degradation state (only touched when [Config.degradation]):
     threads currently shed (with their pre-shed [bound] flag, since shed
     threads are pinned home so recovery can find them), the shed
     boundary (criticality ranks below it hold no RT guarantee; 0 = not
     in overload), and the quiet-time clock for recovery. *)
  mutable shed_list : (Thread.t * bool) list;
  mutable boundary : int;
  mutable last_miss : Time.ns;
  mutable recover_armed : bool;
  mutable sheds : int;
  mutable recovers : int;
  mutable demotes : int;
}

let shared t = t.shared
let cpu_id t = t.cpu.Machine.id
let account t = t.account
let admission t = t.admission
let tasks t = t.task_queue
let set_clock_skew t s = t.clock_skew <- s
let clock_skew t = t.clock_skew
let set_task_thread t th = t.task_thread <- Some th
let task_thread t = t.task_thread
let shed_boundary t = t.boundary
let degradation_stats t = (t.sheds, t.recovers, t.demotes)

let engine t = t.shared.machine.Machine.engine
let platform t = t.shared.machine.Machine.platform
let config t = t.shared.config
let policy t = t.shared.policy
let obs t = t.shared.obs

(* Every policy decision below goes through these: what the RT run queue
   orders by, whether a deadline was missed, and the lazy-dispatch
   horizon. The pipeline stages themselves are policy-agnostic. *)
let rt_key t th = Policy.run_key t.shared.policy th

(* Instrumentation sites call [obs_on] first so a disabled sink costs one
   predictable branch and no event allocation. *)
let obs_on t = Obs.Sink.enabled t.shared.obs

let obs_emit t ~time ev = Obs.Sink.emit t.shared.obs ~time ~cpu:(cpu_id t) ev

let cls_of_constr = function
  | Constraints.Aperiodic _ -> Obs.Event.Cls_aperiodic
  | Constraints.Periodic _ -> Obs.Event.Cls_periodic
  | Constraints.Sporadic _ -> Obs.Event.Cls_sporadic

(* The retirement of a real-time arrival, wherever it happens (slice
   consumed, sporadic degrade, abandoned by a re-anchor or re-admission,
   exit mid-arrival). The verifier pairs these with [Arrival] events to
   reconstruct the runnable RT set. *)
let emit_complete t (th : Thread.t) now =
  if obs_on t then
    obs_emit t ~time:now (Obs.Event.Complete { tid = th.id; thread = th.name })

let emit_block t (th : Thread.t) now =
  if obs_on t then
    obs_emit t ~time:now (Obs.Event.Block { tid = th.id; thread = th.name })

let emit_wake t (th : Thread.t) now =
  if obs_on t then
    obs_emit t ~time:now (Obs.Event.Wake { tid = th.id; thread = th.name })

let[@inline] sample t cost = Machine.sample t.shared.machine t.cpu cost

(* Aperiodic-queue wrappers maintain the machine-wide stealable count used
   as the cheap "is there anything to steal" signal. *)
let aper_push_back t th =
  Deque.push_back t.aper_run th;
  t.shared.total_aper_queued <- t.shared.total_aper_queued + 1

let aper_push_front t th =
  Deque.push_front t.aper_run th;
  t.shared.total_aper_queued <- t.shared.total_aper_queued + 1

let aper_taken t = t.shared.total_aper_queued <- t.shared.total_aper_queued - 1

(* ------------------------------------------------------------------ *)
(* Serialization of the CPU: any event landing inside a busy window is
   deferred to the end of the window (interrupts are effectively off while
   the scheduler or an interrupt handler runs). *)

let run_gated t f =
  (* One closure per [run_gated] call, reused across every bounce off the
     busy window (each bounce is still a fresh engine event with a fresh
     sequence number, exactly as before). *)
  let rec g eng =
    let now = Engine.now eng in
    if Time.(now < t.busy_until) then
      ignore (Engine.schedule eng ~at:t.busy_until g)
    else f eng
  in
  g

(* ------------------------------------------------------------------ *)
(* Pipeline stage 1 — charge: account the interrupted thread's progress
   (subtracting SMI "missing time") before any queue surgery. *)

let[@hrt.hot] charge_current t now =
  match t.current with
  | Some th when th.Thread.state = Thread.Running ->
    let start = th.Thread.run_since in
    if Time.(now > start) then begin
      let frozen = Engine.frozen_overlap (engine t) start now in
      let progress = Time.max 0L Time.(now - start - frozen) in
      th.cpu_time <- Time.(th.cpu_time + progress);
      if th.has_op then th.work_left <- Time.max 0L Time.(th.work_left - progress);
      if Constraints.is_realtime th.constr then
        th.slice_left <- Time.max 0L Time.(th.slice_left - progress)
      else th.quantum_left <- Time.max 0L Time.(th.quantum_left - progress);
      th.run_since <- now
    end
  | Some _ | None -> ()

(* The generation also invalidates a completion that was deferred past a
   busy window or frozen stretch before the cancel landed: the deferred
   entry keeps its handle, so [Engine.cancel] usually reaches it, but the
   handler re-checks the generation as the authoritative test. *)
let cancel_completion t =
  t.completion_gen <- t.completion_gen + 1;
  Engine.cancel (engine t) t.completion_ev;
  t.completion_ev <- Engine.no_handle

(* ------------------------------------------------------------------ *)
(* Pipeline stage 2 — pump: move due arrivals from the pending queue into
   the RT run queue, keyed by the policy's run key, and flag deadline
   misses the policy detects. *)

let[@hrt.hot] process_arrival t (th : Thread.t) now =
  th.arrivals <- th.arrivals + 1;
  Account.record_arrival t.account;
  (match th.constr with
  | Constraints.Periodic { period; slice; _ } ->
    th.arrival <- th.next_arrival;
    th.deadline <- Time.(th.arrival + period);
    th.slice_left <- slice;
    th.next_arrival <- th.deadline;
    th.missed_current <- false
  | Constraints.Sporadic { size; deadline; _ } ->
    th.arrival <- th.next_arrival;
    th.deadline <- deadline;
    th.slice_left <- size;
    th.missed_current <- false
  | Constraints.Aperiodic _ ->
    (* An aperiodic thread can never sit in the pending queue. *)
    assert false);
  th.state <- Thread.Ready;
  (if obs_on t then
     let period =
       match th.constr with
       | Constraints.Periodic { period; _ } -> period
       | Constraints.Sporadic _ -> Time.max 1L Time.(th.deadline - th.arrival)
       | Constraints.Aperiodic _ -> assert false
     in
     obs_emit t ~time:now
       (Obs.Event.Arrival
          {
            tid = th.id;
            thread = th.name;
            arrival = th.arrival;
            deadline = th.deadline;
            period;
          }));
  if not (Prio_queue.add t.rt_run ~key:(rt_key t th) th) then
    failwith "local_sched: real-time run queue overflow"

(* Task-level fault hooks (Hrt_fault): a WCET-overrun fault inflates
   every compute the thread issues beyond its declared cost; a
   release-jitter fault delays each release by a uniform draw while the
   deadline stays nominal. Both are inert (and draw nothing from the
   workload stream) at their zero defaults. *)
let inflate (th : Thread.t) w =
  if th.Thread.wcet_overrun_pct <= 0 then w
  else
    Time.(
      w + Int64.div (Int64.mul w (Int64.of_int th.Thread.wcet_overrun_pct)) 100L)

let release_jitter t (th : Thread.t) =
  if Time.(th.Thread.release_jitter_ns <= 0L) then 0L
  else Rng.range_ns t.shared.workload_rng 0L th.Thread.release_jitter_ns

(* The one way into the pending queue: keyed by the (possibly jittered)
   release instant. *)
let[@hrt.hot] pend t (th : Thread.t) =
  let key = Time.(th.Thread.next_arrival + release_jitter t th) in
  if not (Prio_queue.add t.pending ~key th) then
    failwith "local_sched: pending queue overflow"

let[@hrt.hot] rec pump t now =
  if
    (not (Prio_queue.is_empty t.pending))
    && Time.(Prio_queue.min_key t.pending <= now)
  then begin
    let th = Prio_queue.min_value t.pending in
    Prio_queue.drop_min t.pending;
    process_arrival t th now;
    pump t now
  end

(* Miss detection: a runnable RT thread whose deadline passed while it was
   still owed slice time has missed. The miss *time* is recorded when the
   late slice finally completes. *)

let missed_now t (th : Thread.t) now =
  Constraints.is_realtime th.constr
  && (not th.missed_current)
  && Policy.missed (policy t) ~now th

let flag_miss t (th : Thread.t) now =
  if missed_now t th now then begin
    th.missed_current <- true;
    th.miss_deadline <- th.deadline;
    th.misses <- th.misses + 1;
    if obs_on t then
      obs_emit t ~time:now
        (Obs.Event.Deadline_miss
           {
             tid = th.id;
             thread = th.name;
             lateness_ns = Time.(now - th.deadline);
             crit = Constraints.crit_name th.crit;
           })
  end

(* The baseline (no-degradation) miss pass; with [Config.degradation] the
   invoke pipeline runs [degrade_on_misses] instead. *)
let flag_misses t now =
  (match t.current with Some th -> flag_miss t th now | None -> ());
  (* Guarded so the common empty queue builds no iteration closure. *)
  if not (Prio_queue.is_empty t.rt_run) then
    Prio_queue.iter t.rt_run (fun _ th -> flag_miss t th now)

let record_miss_completion t (th : Thread.t) now =
  if th.missed_current then begin
    let miss_time = Time.max 0L Time.(now - th.miss_deadline) in
    th.miss_time_total <- Time.(th.miss_time_total + miss_time);
    Account.record_miss t.account ~miss_time_ns:miss_time;
    (if obs_on t then
       Obs.Metrics.observe
         (Obs.Metrics.histo
            (Obs.Sink.metrics t.shared.obs)
            ~cpu:(cpu_id t) "sched.miss_time_us")
         (Int64.to_float miss_time /. 1_000.));
    th.missed_current <- false
  end

(* The end of a real-time arrival, whether its slice ran out (settle) or
   degradation throttled it: a periodic thread waits for its next
   arrival, a sporadic one continues as an aperiodic thread. *)
let end_rt_arrival t (th : Thread.t) now =
  record_miss_completion t th now;
  emit_complete t th now;
  match th.constr with
  | Constraints.Periodic { period; _ } ->
    (* Skip only arrivals whose whole period has already elapsed: a small
       overrun still gets (what remains of) the next period. *)
    while Time.(th.next_arrival + period <= now) do
      th.next_arrival <- Time.(th.next_arrival + period)
    done;
    th.state <- Thread.Pending_arrival;
    pend t th
  | Constraints.Sporadic { aper_prio; _ } ->
    (* The guaranteed size is consumed: continue as an aperiodic thread. *)
    Admission.release t.admission th.constr;
    th.constr <- Constraints.Aperiodic { prio = aper_prio };
    th.quantum_left <- (config t).Config.aperiodic_quantum;
    th.state <- Thread.Ready;
    aper_push_back t th
  | Constraints.Aperiodic _ -> assert false

(* ------------------------------------------------------------------ *)
(* Wakes. [wake_enqueue] places a blocked thread back in the right queue
   without requesting a pass (the cross-CPU path lets the kick IPI do
   that); [wake_sched] is the local path. *)

let request_invoke t =
  if not t.soft_pending then begin
    t.soft_pending <- true;
    ignore (Engine.schedule_after (engine t) ~after:0L t.soft_event)
  end

let wake_enqueue t (th : Thread.t) =
  if th.Thread.state = Thread.Blocked && th.cpu = cpu_id t then begin
    let now = Engine.now (engine t) in
    (* Spin-wait semantics: a real thread polls the flag, burning its
       guaranteed time, so the blocked interval is charged against the
       slice (capped). Pure sleeps are not charged. *)
    (if th.spin_block && Constraints.is_realtime th.constr then begin
       let waited = Time.max 0L Time.(now - th.block_start) in
       th.slice_left <- Time.max 0L Time.(th.slice_left - waited)
     end);
    match th.constr with
    | Constraints.Aperiodic _ ->
      emit_wake t th now;
      th.state <- Thread.Ready;
      if Time.(th.quantum_left <= 0L) then
        th.quantum_left <- (config t).Config.aperiodic_quantum;
      aper_push_back t th
    | Constraints.Periodic { period; _ }
      when Time.(th.slice_left <= 0L || th.deadline <= now) ->
      (* Rejoin the arrival schedule at the latest arrival point <= now
         (or the already-pending future arrival). The pending pump turns
         it into a proper arrival; the blocked-through arrival is over.
         Like the wake itself, this can run at a remote waker's clock,
         inside this CPU's busy window — stamp the completion at the
         serialization point so the per-CPU trace stays monotone. *)
      emit_complete t th (Time.max now t.busy_until);
      while Time.(th.next_arrival + period <= now) do
        th.next_arrival <- Time.(th.next_arrival + period)
      done;
      th.missed_current <- false;
      th.slice_left <- 0L;
      th.state <- Thread.Pending_arrival;
      pend t th
    | Constraints.Periodic _ | Constraints.Sporadic _ ->
      (* Resume the current arrival (a sporadic thread always does). *)
      emit_wake t th now;
      th.state <- Thread.Ready;
      ignore (Prio_queue.add t.rt_run ~key:(rt_key t th) th)
  end

let wake_sched t (th : Thread.t) =
  if th.Thread.state = Thread.Blocked then begin
    wake_enqueue t th;
    request_invoke t
  end

(* ------------------------------------------------------------------ *)
(* Thread body advancement: pull ops until the thread has CPU work to do or
   leaves the runnable set. Side effects inside bodies are instantaneous. *)

let do_set_constraints t (th : Thread.t) c cb now =
  (* Whether the thread is abandoning an in-flight real-time arrival: it is
     executing this op, so an RT constraint implies an active arrival. *)
  let was_rt = Constraints.is_realtime th.constr in
  let verdict =
    Admission.request t.admission ~now ~crit:th.crit ~old_constr:th.constr c
  in
  let ok = Admission.admitted verdict in
  (if obs_on t then
     let cls = cls_of_constr c in
     obs_emit t ~time:now
       (match verdict with
       | Admission.Admitted _ -> Obs.Event.Admission_accept { tid = th.id; cls }
       | Admission.Rejected { reason } ->
         Obs.Event.Admission_reject
           { tid = th.id; cls; reason = Admission.Rejection.name reason }));
  let effective = if ok then c else th.constr in
  if ok then begin
    th.constr <- c;
    th.admit_time <- now
  end;
  (match effective with
  | Constraints.Aperiodic _ ->
    if was_rt then emit_complete t th now;
    th.quantum_left <- (config t).Config.aperiodic_quantum;
    th.state <- Thread.Ready;
    aper_push_back t th
  | (Constraints.Periodic { phase; _ } | Constraints.Sporadic { phase; _ })
    when ok ->
    if was_rt then emit_complete t th now;
    th.next_arrival <- Time.(now + phase);
    th.slice_left <- 0L;
    th.missed_current <- false;
    th.state <- Thread.Pending_arrival;
    pend t th;
    (* A zero-phase first arrival is due immediately; pump here because
       this can run after the invocation's own pumps (pick phase). *)
    pump t now
  | Constraints.Periodic _ | Constraints.Sporadic _ ->
    (* Admission failed mid-arrival: the thread keeps its old (admitted)
       real-time constraints and resumes its current arrival, or waits for
       the next one. *)
    if Time.(th.slice_left > 0L) && Time.(th.deadline > now) then begin
      th.state <- Thread.Ready;
      ignore (Prio_queue.add t.rt_run ~key:(rt_key t th) th)
    end
    else begin
      emit_complete t th now;
      th.state <- Thread.Pending_arrival;
      pend t th
    end);
  cb verdict

let exit_thread t (th : Thread.t) =
  Admission.release t.admission th.constr;
  th.state <- Thread.Exited;
  th.has_op <- false;
  Thread_pool.free t.shared.pool th.id

(* The context a body is called with. Bodies only read it, so the last
   one built is reused while the same thread runs here: with one thread
   per CPU (every paper workload) a body call builds no record. *)
let body_ctx t (th : Thread.t) =
  match t.last_ctx with
  | Some c when c.Thread.self == th && c.Thread.svc == t.services -> c
  | Some _ | None ->
    let c = { Thread.svc = t.services; self = th } in
    t.last_ctx <- Some c;
    c

(* [n] counts the ops pulled by this [advance], the livelock guard. *)
let rec advance_ops t (th : Thread.t) now ctx n =
  if th.has_op then true
  else begin
    if n > 1024 then
      failwith
        (Printf.sprintf "thread %s: livelock: 1024 zero-cost ops" th.name);
    let op =
      match th.stashed_op with
      | Some op ->
        th.stashed_op <- None;
        op
      | None -> th.body ctx
    in
    match op with
    | Thread.Compute w ->
      if Time.(w <= 0L) then advance_ops t th now ctx (n + 1)
      else begin
        th.has_op <- true;
        th.work_left <- inflate th w;
        true
      end
    | Thread.Yield ->
      th.state <- Thread.Ready;
      (if Constraints.is_realtime th.constr then
         ignore (Prio_queue.add t.rt_run ~key:(rt_key t th) th)
       else begin
         th.quantum_left <- (config t).Config.aperiodic_quantum;
         aper_push_back t th
       end);
      false
    | Thread.Block ->
      emit_block t th now;
      th.state <- Thread.Blocked;
      th.block_start <- now;
      th.spin_block <- true;
      th.wake_token <- th.wake_token + 1;
      false
    | Thread.Sleep_until tm ->
      emit_block t th now;
      th.state <- Thread.Blocked;
      th.block_start <- now;
      th.spin_block <- false;
      th.wake_token <- th.wake_token + 1;
      let token = th.wake_token in
      let at = Time.max tm Time.(now + 1L) in
      ignore
        (Engine.schedule (engine t) ~at (fun _eng ->
             if th.state = Thread.Blocked && th.wake_token = token then
               wake_sched t th));
      false
    | Thread.Set_constraints (c, cb) ->
      do_set_constraints t th c cb now;
      false
    | Thread.Exit ->
      if Constraints.is_realtime th.constr then emit_complete t th now;
      exit_thread t th;
      false
  end

(* Returns true when the thread is runnable with CPU work in hand. *)
let advance t (th : Thread.t) now = advance_ops t th now (body_ctx t th) 1

(* ------------------------------------------------------------------ *)
(* Graceful degradation (DESIGN §8). With [Config.degradation] on, the
   miss pass becomes a state machine: a flagged miss raises this CPU's
   shed boundary to one rank above the highest criticality that missed
   (capped at High — High is never shed, so a High miss is a contract
   violation the verifier flags), sheds every queued lower-criticality
   RT thread to aperiodic, and throttles the missed arrivals themselves
   (retired at the deadline instead of running late into others' slack).
   After [Config.shed_recovery] of miss-free time, shed threads are
   re-admitted under their saved constraints, highest criticality first.

   Event order within one instant is part of the contract the offline
   checker relies on: Overload first (so misses are judged against the
   raised boundary), then the Deadline_miss events (while each arrival
   is still in flight), then Shed/Demote with their retiring Completes. *)

let crit_rank_of (th : Thread.t) = Constraints.crit_rank th.Thread.crit

let emit_overload t now rank =
  if obs_on t then
    obs_emit t ~time:now
      (Obs.Event.Overload
         {
           boundary =
             (if rank <= 0 then "none"
              else Constraints.crit_name (Constraints.crit_of_rank rank));
         })

let emit_shed t (th : Thread.t) now =
  if obs_on t then
    obs_emit t ~time:now
      (Obs.Event.Shed
         {
           tid = th.id;
           thread = th.name;
           crit = Constraints.crit_name th.crit;
         })

let shed_thread t (th : Thread.t) now ~in_flight =
  (* Revoke the RT constraints (remembering them, and the stealability
     the thread had, for recovery) and continue it as a priority-0
     aperiodic thread pinned to its home CPU. *)
  record_miss_completion t th now;
  if in_flight then emit_complete t th now;
  Admission.release t.admission th.constr;
  th.shed_constr <- Some th.constr;
  t.shed_list <- (th, th.bound) :: t.shed_list;
  th.bound <- true;
  th.constr <- Constraints.Aperiodic { prio = 0 };
  th.slice_left <- 0L;
  th.missed_current <- false;
  th.quantum_left <- (config t).Config.aperiodic_quantum;
  t.sheds <- t.sheds + 1;
  emit_shed t th now

let shed_below t now =
  let b = t.boundary in
  (* The run queue first (an arrival is in flight there: retire it), then
     the pending queue (waiting for its next arrival: nothing to retire). *)
  let rec drain q ~in_flight =
    match Prio_queue.remove q (fun th -> crit_rank_of th < b) with
    | Some th ->
      shed_thread t th now ~in_flight;
      th.state <- Thread.Ready;
      aper_push_back t th;
      drain q ~in_flight
    | None -> ()
  in
  drain t.rt_run ~in_flight:true;
  drain t.pending ~in_flight:false;
  match t.current with
  | Some th when Constraints.is_realtime th.constr && crit_rank_of th < b ->
    (* The interrupted thread itself: revoke in place — the settle stage
       sees an aperiodic thread and requeues it accordingly. *)
    shed_thread t th now ~in_flight:true
  | Some _ | None -> ()

let throttle t (th : Thread.t) now =
  (* A missed thread at or above the boundary keeps its guarantee going
     forward but forfeits the late arrival: budget enforcement means an
     overrun is cut off at its deadline, not allowed to steal slack. *)
  if Constraints.is_realtime th.constr && th.missed_current then begin
    t.demotes <- t.demotes + 1;
    if obs_on t then
      obs_emit t ~time:now (Obs.Event.Demote { tid = th.id; thread = th.name });
    match th.state with
    | Thread.Ready -> (
      match Prio_queue.remove t.rt_run (fun x -> x == th) with
      | Some _ -> end_rt_arrival t th now
      | None -> ())
    | Thread.Running ->
      (* Zero the remaining slice; this invocation's settle stage retires
         the arrival (emitting its Complete). *)
      th.slice_left <- 0L
    | Thread.Blocked | Thread.Pending_arrival | Thread.Exited -> ()
  end

let arm_recovery t =
  if not t.recover_armed then begin
    t.recover_armed <- true;
    ignore
      (Engine.schedule_after (engine t)
         ~after:(config t).Config.shed_recovery t.recover_event)
  end

let degrade_on_misses t now =
  let missed = ref [] in
  let consider th = if missed_now t th now then missed := th :: !missed in
  (match t.current with Some th -> consider th | None -> ());
  Prio_queue.iter t.rt_run (fun _ th -> consider th);
  match !missed with
  | [] -> ()
  | misses ->
    t.last_miss <- now;
    let top = List.fold_left (fun acc th -> max acc (crit_rank_of th)) 0 misses in
    let want = min (top + 1) (Constraints.crit_rank Constraints.High) in
    if want > t.boundary then begin
      t.boundary <- want;
      Admission.set_overload t.admission ~boundary:want;
      emit_overload t now want
    end;
    List.iter (fun th -> flag_miss t th now) misses;
    shed_below t now;
    List.iter (fun th -> throttle t th now) misses;
    arm_recovery t

let recover_shed t now =
  (* Highest criticality first, so contention for the freed capacity
     resolves in favor of the threads that matter most. Only threads
     parked in this CPU's aperiodic queue can be re-anchored cleanly;
     Running/Blocked ones are retried on a later tick. Sporadic saved
     constraints are dropped — their absolute deadline has passed, which
     is exactly the existing degrade-to-aperiodic semantics. *)
  let ordered =
    List.stable_sort
      (fun (a, _) (b, _) -> compare (crit_rank_of b) (crit_rank_of a))
      t.shed_list
  in
  let still = ref [] in
  List.iter
    (fun ((th : Thread.t), was_bound) ->
      match th.shed_constr with
      | None -> ()
      | Some (Constraints.Aperiodic _) | Some (Constraints.Sporadic _) ->
        th.shed_constr <- None;
        th.bound <- was_bound
      | Some (Constraints.Periodic { phase; _ } as c) ->
        if th.state = Thread.Exited then th.shed_constr <- None
        else begin
          (* A shed thread sits either parked in this CPU's aperiodic
             queue (Ready) or asleep inside its polling loop (Blocked);
             both re-anchor cleanly. A Running one is retried on a later
             tick. *)
          let was_blocked = th.state = Thread.Blocked in
          let taken =
            if Constraints.is_realtime th.constr then false
            else if was_blocked then true
            else
              th.state = Thread.Ready
              && Deque.remove t.aper_run (fun x -> x == th) <> None
              && begin
                   aper_taken t;
                   true
                 end
          in
          if not taken then still := (th, was_bound) :: !still
          else if
            Admission.admitted
              (Admission.request t.admission ~now ~crit:th.crit
                 ~old_constr:th.constr c)
          then begin
            (* Orphan any pending sleep wake-up: the thread restarts its
               arrival loop from scratch (the stale event also checks the
               token before waking). *)
            if was_blocked then th.wake_token <- th.wake_token + 1;
            th.shed_constr <- None;
            th.bound <- was_bound;
            th.constr <- c;
            th.admit_time <- now;
            th.slice_left <- 0L;
            th.missed_current <- false;
            th.next_arrival <- Time.(now + phase);
            th.state <- Thread.Pending_arrival;
            pend t th;
            t.recovers <- t.recovers + 1;
            if obs_on t then begin
              obs_emit t ~time:now
                (Obs.Event.Admission_accept
                   { tid = th.id; cls = cls_of_constr c });
              obs_emit t ~time:now
                (Obs.Event.Recover
                   {
                     tid = th.id;
                     thread = th.name;
                     crit = Constraints.crit_name th.crit;
                   })
            end
          end
          else begin
            (* Capacity moved elsewhere meanwhile: park it back where it
               came from (a Blocked one just keeps sleeping). *)
            if not was_blocked then begin
              th.state <- Thread.Ready;
              aper_push_back t th
            end;
            still := (th, was_bound) :: !still
          end
        end)
    ordered;
  t.shed_list <- List.rev !still

(* ------------------------------------------------------------------ *)
(* Pipeline stage 3 — settle: resolve the interrupted thread — op
   completion, slice exhaustion, class transitions. Afterwards
   [t.current] is [None] and any still-runnable previous thread sits in
   the proper queue (re-keyed by the policy). *)

let settle_current t now =
  match t.current with
  | None -> ()
  | Some th ->
    t.current <- None;
    if th.Thread.state = Thread.Running then begin
      if th.has_op && Time.(th.work_left <= 0L) then th.has_op <- false;
      if Constraints.is_realtime th.constr && Time.(th.slice_left <= 0L) then begin
        (* Slice/size consumed for this arrival. *)
        th.state <- Thread.Ready;
        end_rt_arrival t th now
      end
      else begin
        th.state <- Thread.Ready;
        if advance t th now then begin
          (* Still runnable: requeue for the picker. *)
          if Constraints.is_realtime th.constr then begin
            if th.state = Thread.Ready then
              ignore (Prio_queue.add t.rt_run ~key:(rt_key t th) th)
          end
          else begin
            th.state <- Thread.Ready;
            if Time.(th.quantum_left <= 0L) then begin
              (* Quantum expired: rotate to the back (round robin). *)
              th.quantum_left <- (config t).Config.aperiodic_quantum;
              aper_push_back t th
            end
            else aper_push_front t th
          end
        end
        (* else: advance already placed/parked it *)
      end
    end
[@@hrt.hot]

(* ------------------------------------------------------------------ *)
(* Size-tagged task execution (only when no RT thread wants the CPU, and
   only while the next RT arrival leaves room — §3.1). *)

(* Run sized tasks while they fit before the next arrival; [consumed] is
   the busy time used so far. *)
let rec run_fitting_tasks t now consumed =
  let fits =
    if Prio_queue.is_empty t.pending then Time.sec 1
    else Time.(Prio_queue.min_key t.pending - now - consumed)
  in
  if Time.(fits <= 0L) then consumed
  else
    match Task.take_sized t.task_queue ~fits with
    | Some task ->
      let consumed = Time.(consumed + task.Task.duration) in
      task.Task.run ();
      Task.complete t.task_queue task ~now:Time.(now + consumed);
      run_fitting_tasks t now consumed
    | None -> consumed

(* Returns the busy time consumed. *)
let run_sized_tasks t now =
  if not (Prio_queue.is_empty t.rt_run) then 0L
  else begin
    let consumed =
      if Task.sized_pending t.task_queue = 0 then 0L
      else run_fitting_tasks t now 0L
    in
    (* Untagged tasks must go through the helper thread. *)
    (if Task.unsized_pending t.task_queue > 0 then
       match t.task_thread with
       | Some helper when helper.Thread.state = Thread.Blocked ->
         wake_sched t helper
       | Some _ | None -> ());
    consumed
  end

(* ------------------------------------------------------------------ *)
(* Pipeline stage 4 — pick: next-thread selection. The RT run queue head
   (already policy-ordered) wins, subject to the dispatch mode's
   lazy-start test; then priority round-robin over aperiodics; else
   idle. *)

let take_best_aper t =
  (* Highest priority wins; FIFO (deque order) within a priority. The scan
     is bounded by the compile-time thread limit, preserving the bounded-
     pass-cost argument. *)
  (let best = ref None in
   Deque.iter t.aper_run (fun th ->
       match !best with
       | None -> best := Some th
       | Some b -> if Thread.aper_prio th > Thread.aper_prio b then best := Some th);
   match !best with
   | None -> None
   | Some th ->
     let found = Deque.remove t.aper_run (fun x -> x == th) in
     assert (found != None);
     aper_taken t;
     Some th)
  [@hrt.alloc_ok "bounded aperiodic scan, once per scheduler decision \
                  (not per event): two iteration closures and a boxed \
                  result"]
[@@hrt.hot]

(* A candidate with no CPU work in hand is advanced; one that leaves the
   runnable set instead sends the pick round again. [depth] bounds the
   rounds, the livelock guard. *)
let rec pick_from t now depth =
  if depth > (2 * (config t).Config.max_threads) + 16 then
    failwith
      "local_sched: livelock: a thread body re-issues a non-Compute op \
       without making progress (use Program.of_thunks for one-shot ops)";
  let rt_ready =
    (not (Prio_queue.is_empty t.rt_run))
    &&
    match (config t).Config.dispatch with
    | Config.Eager -> true
    | Config.Lazy ->
      let th = Prio_queue.min_value t.rt_run in
      let latest =
        Policy.latest_start (policy t) ~slack:(config t).Config.lazy_slack th
      in
      Time.(now >= latest) || th.missed_current
  in
  let next =
    if rt_ready then begin
      let th = Prio_queue.min_value t.rt_run in
      Prio_queue.drop_min t.rt_run;
      (Some th [@hrt.alloc_ok "one boxed pick result per scheduler decision"])
    end
    else take_best_aper t
  in
  match next with
  | Some th when not (th.Thread.has_op || advance t th now) ->
    pick_from t now (depth + 1)
  | Some _ | None -> next
[@@hrt.hot]

let pick t now = pick_from t now 0 [@@hrt.hot]

(* ------------------------------------------------------------------ *)
(* Pipeline stage 5 — program-timer: one one-shot armed at the earliest
   future scheduling event (next arrival, current thread's slice end or
   deadline, or the policy's lazy-start horizon). Absolute wall-clock
   targets are reached when the local (skewed) clock says so; durations
   are unaffected by clock skew. *)

let program_timer t now resume_at =
  let cfg = config t in
  (* Fold the candidate targets straight into a running minimum: this
     runs once per scheduler decision and builds no intermediate lists.
     Absolute targets already in the past were handled by this very
     invocation (arrivals pumped, misses flagged); arming for them again
     would only re-enter the scheduler without letting the thread run.
     Absolute wall-clock targets are skew-adjusted; durations are not. *)
  let best = Int64.max_int in
  let best =
    if Prio_queue.is_empty t.pending then best
    else
      let k = Prio_queue.min_key t.pending in
      if Time.(k > now) then Time.min best Time.(k - t.clock_skew) else best
  in
  let best =
    match t.current with
    | Some th when Constraints.is_realtime th.constr ->
      let best =
        if Time.(th.deadline > now) then
          Time.min best Time.(th.deadline - t.clock_skew)
        else best
      in
      Time.min best Time.(resume_at + th.slice_left)
    | Some th ->
      if not (Deque.is_empty t.aper_run) then
        Time.min best Time.(resume_at + th.Thread.quantum_left)
      else best
    | None -> best
  in
  let best =
    match cfg.Config.dispatch with
    | Config.Lazy when not (Prio_queue.is_empty t.rt_run) ->
      let th = Prio_queue.min_value t.rt_run in
      let a = Policy.latest_start (policy t) ~slack:cfg.Config.lazy_slack th in
      if Time.(a > now) then Time.min best Time.(a - t.clock_skew) else best
    | Config.Eager | Config.Lazy -> best
  in
  if Int64.equal best Int64.max_int then Apic.cancel_timer t.cpu.Machine.apic
  else Apic.arm t.cpu.Machine.apic ~at:(Time.max best Time.(now + 1L))
[@@hrt.hot]

let schedule_completion t resume_at =
  match t.current with
  | Some th when th.Thread.has_op && Time.(th.work_left > 0L) ->
    let at = Time.(resume_at + th.work_left) in
    t.completion_gen <- t.completion_gen + 1;
    t.completion_armed_gen <- t.completion_gen;
    t.completion_ev <- Engine.schedule (engine t) ~at t.complete_event
  | Some _ | None -> ()
[@@hrt.hot]

(* ------------------------------------------------------------------ *)
(* Work stealing (the idle thread's job, §3.4). *)

let arm_steal t =
  (* The idle thread polls for stealable work: fast when the machine has
     queued aperiodic threads, slow (1 ms) otherwise so quiescent systems
     stay cheap to simulate. *)
  let cfg = config t in
  if cfg.Config.work_stealing && not t.steal_armed then begin
    let interval =
      if t.shared.total_aper_queued > 0 then cfg.Config.steal_interval
      else Time.ms 1
    in
    t.steal_armed <- true;
    ignore (Engine.schedule_after (engine t) ~after:interval t.steal_event)
  end

(* Stealable aperiodic threads queued here: the victim-choice load. *)
let aper_load t =
  let n = ref 0 in
  Deque.iter t.aper_run (fun th -> if not th.Thread.bound then incr n);
  !n

(* Remove the oldest unbound ready aperiodic thread, for a thief. *)
let try_steal_from t =
  match
    Deque.remove t.aper_run (fun (th : Thread.t) ->
        (not th.bound) && th.state = Thread.Ready)
  with
  | Some th ->
    aper_taken t;
    Some th
  | None -> None

let attempt_steal t eng =
  let n = Array.length t.shared.scheds in
  let victim =
    Worksteal.pick_victim t.cpu.Machine.rng ~self:(cpu_id t) ~n ~load:(fun i ->
        aper_load t.shared.scheds.(i))
  in
  let cost = sample t (platform t).Platform.steal_check in
  t.busy_until <- Time.max t.busy_until Time.(Engine.now eng + cost);
  let emit_attempt victim success =
    if obs_on t then
      obs_emit t ~time:(Engine.now eng)
        (Obs.Event.Steal_attempt { victim; success })
  in
  match victim with
  | Some v -> (
    match try_steal_from t.shared.scheds.(v) with
    | Some th ->
      emit_attempt (Some v) true;
      th.Thread.cpu <- cpu_id t;
      aper_push_back t th;
      Account.record_steal t.account;
      request_invoke t
    | None ->
      emit_attempt (Some v) false;
      arm_steal t)
  | None ->
    emit_attempt None false;
    arm_steal t

(* The handler behind [t.steal_event]. Gated like every other
   scheduler entry: the idle thread cannot poll while the CPU is
   serialized in a pass or handler, and gating keeps steal-attempt events
   inside the CPU's monotone timeline. *)
let steal_entry t eng =
  if Time.(Engine.now eng < t.busy_until) then
    Engine.defer_current eng ~at:t.busy_until
  else begin
    t.steal_armed <- false;
    if t.current = None then
      if t.shared.total_aper_queued > 0 then attempt_steal t eng
      else arm_steal t
  end

(* ------------------------------------------------------------------ *)
(* The invocation itself: the staged pipeline in order —
   charge -> pump -> settle -> pick -> program-timer. Each stage is
   policy-agnostic; policy decisions happen through the [Policy.t] the
   shared state carries (run-queue keys, miss checks, lazy horizons). *)

let invoke t eng ~irq_ns ~handler_ns =
  let now = Engine.now eng in
  let prev = t.current in
  cancel_completion t;
  (* charge *)
  charge_current t now;
  (* pump *)
  pump t now;
  if (config t).Config.degradation then degrade_on_misses t now
  else flag_misses t now;
  (* settle *)
  settle_current t now;
  (* Settling can enqueue an arrival due immediately (e.g. a constraint
     change with zero phase) — pump again so it is not stranded. *)
  pump t now;
  let task_ns = run_sized_tasks t now in
  (* pick *)
  let next = pick t now in
  let switching =
    match (prev, next) with
    | None, None -> false
    | Some a, Some b -> not (a == b)
    | None, Some _ | Some _, None -> true
  in
  (match (prev, next) with
  | Some p, Some n when (not (p == n)) && Thread.runnable p ->
    p.preemptions <- p.preemptions + 1
  | _ -> ());
  let plat = platform t in
  let pass_ns = sample t plat.Platform.sched_pass in
  let other_ns =
    Time.(sample t plat.Platform.sched_other + sample t plat.Platform.timer_program)
  in
  let switch_ns = if switching then sample t plat.Platform.ctx_switch else 0L in
  Account.record_invocation t.account ~irq_ns ~other_ns ~pass_ns ~switch_ns;
  let overhead =
    Time.(irq_ns + handler_ns + task_ns + pass_ns + other_ns + switch_ns)
  in
  let resume_at = Time.(now + overhead) in
  (if obs_on t then begin
     if Time.(irq_ns > 0L) then
       obs_emit t ~time:now
         (Obs.Event.Irq { dur_ns = Time.(irq_ns + handler_ns) });
     (* Preempt (stamped at [now]) goes before the pass span (stamped at
        [now + irq]) so per-CPU trace timestamps stay non-decreasing — an
        invariant the verifier checks. *)
     (match (prev, next) with
     | Some p, Some n when (not (p == n)) && Thread.runnable p ->
       obs_emit t ~time:now
         (Obs.Event.Preempt { tid = p.Thread.id; thread = p.Thread.name })
     | _ -> ());
     obs_emit t
       ~time:Time.(now + irq_ns + handler_ns)
       (Obs.Event.Sched_pass { dur_ns = Time.(pass_ns + other_ns) });
     match next with
     | Some th ->
       obs_emit t ~time:resume_at
         (Obs.Event.Dispatch { tid = th.Thread.id; thread = th.Thread.name })
     | None -> if t.idle_since = None then obs_emit t ~time:resume_at Obs.Event.Idle
   end);
  t.busy_until <- resume_at;
  (match next with
  | Some th ->
    th.state <- Thread.Running;
    th.run_since <- resume_at;
    t.current <- (Some th [@hrt.alloc_ok "one box per dispatch"]);
    (match t.idle_since with
    | Some s ->
      t.idle_total <- Time.(t.idle_total + (now - s));
      t.idle_since <- None
    | None -> ());
    (match t.shared.dispatch_hook with
    | Some hook -> hook (cpu_id t) th resume_at
    | None -> ())
  | None ->
    t.current <- None;
    if t.idle_since = None then
      t.idle_since <- (Some resume_at [@hrt.alloc_ok "one box per idle transition"]);
    arm_steal t);
  Apic.set_ppr t.cpu.Machine.apic eng
    (match next with
    | Some th when Constraints.is_realtime th.constr -> Apic.rt_ppr
    | Some _ | None -> 0);
  schedule_completion t resume_at;
  (* program-timer *)
  program_timer t now resume_at
[@@hrt.hot]

(* ------------------------------------------------------------------ *)
(* Entry points: every way into [invoke]. *)

(* The handler behind [t.soft_event]: gated on the busy window like
   every scheduler entry, but by parking the event itself
   ([Engine.defer_current] — fresh sequence number, no allocation)
   instead of scheduling a bounce closure. *)
let soft_entry t eng =
  if Time.(Engine.now eng < t.busy_until) then
    Engine.defer_current eng ~at:t.busy_until
  else begin
    t.soft_pending <- false;
    invoke t eng ~irq_ns:0L ~handler_ns:0L
  end

(* Op completion is a thread-level transition, not an interrupt. When the
   thread simply continues computing (the common BSP inner loop) no
   scheduler pass happens at all — the thread never entered the kernel. A
   full invocation is only needed when the thread does something the
   scheduler must see, or when its budget ran out. *)
let on_completion t eng =
  let now = Engine.now eng in
  match t.current with
  | Some th when th.Thread.state = Thread.Running ->
    charge_current t now;
    if th.has_op && Time.(th.work_left > 0L) then
      (* An SMI (or interrupt) stole part of the run: keep going. *)
      schedule_completion t now
    else begin
      th.has_op <- false;
      let budget_ok =
        if Constraints.is_realtime th.constr then Time.(th.slice_left > 0L)
        else Time.(th.quantum_left > 0L)
      in
      if not budget_ok then invoke t eng ~irq_ns:0L ~handler_ns:0L
      else begin
        match th.body (body_ctx t th) with
        | Thread.Compute w when Time.(w > 0L) ->
          th.has_op <- true;
          th.work_left <- inflate th w;
          schedule_completion t now
        | op ->
          (* Anything else goes through the scheduler proper. *)
          th.stashed_op <-
            (Some op [@hrt.alloc_ok "stashes the non-compute op for the \
                                     pass; one box per kernel entry"]);
          invoke t eng ~irq_ns:0L ~handler_ns:0L
      end
    end
  | Some _ | None -> invoke t eng ~irq_ns:0L ~handler_ns:0L
[@@hrt.hot]

(* The handler behind [t.complete_event]: gate first, then drop the
   fire if a cancel/re-schedule happened while it sat deferred behind a
   busy window. *)
let complete_entry t eng =
  if Time.(Engine.now eng < t.busy_until) then
    Engine.defer_current eng ~at:t.busy_until
  else if t.completion_armed_gen = t.completion_gen then begin
    t.completion_ev <- Engine.no_handle;
    on_completion t eng
  end
[@@hrt.hot]

(* The handler behind [t.recover_event] (gated): after
   [Config.shed_recovery] of quiet time, re-admit what was shed. *)
let recovery_tick t eng =
  t.recover_armed <- false;
  if t.boundary > 0 then begin
    let now = Engine.now eng in
    let quiet_at = Time.(t.last_miss + (config t).Config.shed_recovery) in
    if Time.(now < quiet_at) then begin
      (* A miss happened since arming: wait out the rest of the quiet
         window. *)
      t.recover_armed <- true;
      ignore (Engine.schedule eng ~at:quiet_at t.recover_event)
    end
    else begin
      (* Lift the admission block while re-requesting; re-imposed below
         if some threads could not come back yet. *)
      Admission.clear_overload t.admission;
      recover_shed t now;
      if t.shed_list = [] then begin
        t.boundary <- 0;
        emit_overload t now 0
      end
      else begin
        Admission.set_overload t.admission ~boundary:t.boundary;
        arm_recovery t
      end;
      invoke t eng ~irq_ns:0L ~handler_ns:0L
    end
  end

(* An interrupt entry (timer, kick IPI, device): interrupt dispatch plus
   the handler's own cost, then a pass. *)
let[@hrt.hot] irq_entry t ~handler_ns eng =
  invoke t eng ~irq_ns:(sample t (platform t).Platform.irq_dispatch) ~handler_ns

let[@hrt.hot] on_timer t eng =
  (* A one-shot APIC holds exactly one shot in flight. If the timer is
     armed again by the time a fire is delivered, this fire left the APIC
     before a re-program and then sat deferred behind a busy window — on
     real hardware that shot no longer exists, so drop it. Without this,
     a slice remainder smaller than the pass overhead livelocks: each
     stale fire lands at the next dispatch instant, charges zero
     progress, and re-arms at the same relative offset. *)
  if not (Apic.timer_armed t.cpu.Machine.apic) then
    irq_entry t ~handler_ns:0L eng

let wake t th = wake_sched t th

(* A kick IPI to this CPU: it reaches the APIC after the wire latency
   ([kick_entry]); the APIC then delivers the cached [kick_inner] (gated
   scheduler entry) or holds it pending by PPR. *)
let kick t =
  Account.record_kick t.account;
  let latency = sample t (platform t).Platform.ipi_latency in
  ignore (Engine.schedule_after (engine t) ~after:latency t.kick_event)

let kick_entry t eng =
  Apic.deliver t.cpu.Machine.apic eng ~prio:Apic.sched_prio t.kick_inner

let on_device_irq t ~handler_ns =
  run_gated t (irq_entry t ~handler_ns) (engine t)

(* ------------------------------------------------------------------ *)
(* Arrival-schedule edits, enrolment, measurement. *)

let set_next_arrival t (th : Thread.t) arrival =
  match th.state with
  | Thread.Pending_arrival -> (
    match Prio_queue.remove t.pending (fun x -> x == th) with
    | Some _ ->
      th.next_arrival <- arrival;
      if not (Prio_queue.add t.pending ~key:th.next_arrival th) then
        failwith "local_sched: pending queue overflow";
      request_invoke t
    | None -> th.next_arrival <- arrival)
  | Thread.Ready | Thread.Running | Thread.Blocked ->
    (* The in-flight arrival is abandoned: the thread finishes its current
       computation step and then waits for the new schedule, rather than
       running an old-schedule slice into the new timeline (which would be
       charged as an administrative "miss"). *)
    th.next_arrival <- arrival;
    th.slice_left <- 0L;
    th.missed_current <- false
  | Thread.Exited -> ()

let rephase t (th : Thread.t) ~delta =
  if Constraints.is_realtime th.constr then
    set_next_arrival t th Time.(th.next_arrival + delta)

let reanchor t (th : Thread.t) ~first_arrival =
  if Constraints.is_realtime th.constr then set_next_arrival t th first_arrival

let enroll t (th : Thread.t) =
  th.cpu <- cpu_id t;
  th.quantum_left <- (config t).Config.aperiodic_quantum;
  th.state <- Thread.Ready;
  aper_push_back t th;
  request_invoke t

let sync_accounting t =
  let now = Engine.now (engine t) in
  if Time.(now >= t.busy_until) then charge_current t now

let idle_time t =
  match t.idle_since with
  | None -> t.idle_total
  | Some s -> Time.(t.idle_total + (Engine.now (engine t) - s))

(* The kernel services bodies on [cpu] are handed. *)
let make_services shared (cpu : Machine.cpu) =
  {
    Thread.now = (fun () -> Engine.now shared.machine.Machine.engine);
    wake =
      (fun th ->
        let target = shared.scheds.(th.Thread.cpu) in
        if th.Thread.state = Thread.Blocked then
          if cpu_id target = cpu.Machine.id then wake_sched target th
          else begin
            (* Shared memory: enqueue directly, then kick the remote local
               scheduler so it notices (the only IPI use, §3.5). *)
            wake_enqueue target th;
            kick target
          end);
    sample =
      (fun th cost ->
        let m = shared.machine in
        Machine.sample m (Machine.cpu m th.Thread.cpu) cost);
    rng = shared.workload_rng;
  }

let create shared cpu =
  let cfg = shared.config in
  let plat = shared.machine.Machine.platform in
  let t =
    {
      shared;
      cpu;
      pending = Prio_queue.create ~capacity:cfg.Config.max_threads;
      rt_run = Prio_queue.create ~capacity:cfg.Config.max_threads;
      aper_run = Deque.create ();
      task_queue = Task.create ();
      admission =
        Admission.create cfg ~overhead_ns:(Admission.overhead_of_platform plat);
      account = Account.create ~ghz:plat.Platform.ghz;
      services = make_services shared cpu;
      last_ctx = None;
      current = None;
      completion_ev = Engine.no_handle;
      completion_gen = 0;
      completion_armed_gen = 0;
      soft_event = ignore;
      complete_event = ignore;
      kick_event = ignore;
      kick_inner = ignore;
      steal_event = ignore;
      recover_event = ignore;
      steal_armed = false;
      busy_until = 0L;
      clock_skew = 0L;
      soft_pending = false;
      idle_since = None;
      idle_total = 0L;
      task_thread = None;
      shed_list = [];
      boundary = 0;
      last_miss = 0L;
      recover_armed = false;
      sheds = 0;
      recovers = 0;
      demotes = 0;
    }
  in
  (* Cache one closure per long-lived event source so the steady-state
     hot paths (soft-IRQ requests, completion timers, kick IPIs, steal
     polls) and the recovery tick schedule without allocating a closure
     per event. The timer vector stays a gated closure: [Apic.fire]
     disarms before entering the handler, so deferring from inside it
     would lose a re-armed shot. *)
  t.soft_event <- soft_entry t;
  t.complete_event <- complete_entry t;
  t.kick_event <- kick_entry t;
  t.kick_inner <- run_gated t (fun eng -> irq_entry t ~handler_ns:0L eng);
  t.steal_event <- steal_entry t;
  (* Only degradation ever arms the recovery tick. *)
  if cfg.Config.degradation then
    t.recover_event <- run_gated t (recovery_tick t);
  Apic.set_timer_handler cpu.Machine.apic (run_gated t (on_timer t));
  t
