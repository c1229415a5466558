open Hrt_engine
open Hrt_core
module Obs = Hrt_obs

(* One thread's pending departure, fired through a closure built the
   first time that thread crosses this barrier. A thread stays
   blocked until its departure fires, so it never has two pending at
   once and the slot is free to reuse for its next crossing. [wake] is
   the releasing thread's wake service. *)
type departure = {
  mutable th : Thread.t;
  mutable wake : Thread.t -> unit;
  mutable event : Engine.t -> unit;
}

type t = {
  sys : Scheduler.t;
  id : int;
      (* unique within the owning system, creation-ordered: lets trace
         events from distinct barriers be told apart by the verifier. Ids
         are allocated per system (Scheduler.fresh_id), never from global
         state, so a system's trace is identical whether it ran alone or
         alongside others on parallel domains. *)
  arrive_cost : Hrt_hw.Platform.cost;
  serialized : bool;
  mutable parties : int;
  mutable pre_arrived : int;
  mutable arrived : int;
  mutable waiters : Thread.t array; (* [0, arrived) in arrival order *)
  mutable departures : departure option array; (* by thread id *)
  mutable rounds : int;
  mutable last_release : Time.ns option;
  mutable first_arrive : Time.ns option;
      (* arrival time of the round's first thread, for the release-time
         wait-span event *)
  delta : Time.ns;
}

let create ?arrive_cost ?(serialized_arrivals = false) sys ~parties =
  if parties <= 0 then invalid_arg "Gbarrier.create";
  let id = Scheduler.fresh_id sys in
  let plat = Scheduler.platform sys in
  let arrive_cost =
    match arrive_cost with
    | Some c -> c
    | None -> plat.Hrt_hw.Platform.barrier_arrive
  in
  let delta =
    Hrt_hw.Platform.cycles_to_ns plat
      plat.Hrt_hw.Platform.barrier_release_step.Hrt_hw.Platform.mean_cycles
  in
  {
    sys;
    id;
    arrive_cost;
    serialized = serialized_arrivals;
    parties;
    pre_arrived = 0;
    arrived = 0;
    waiters = [||];
    departures = [||];
    rounds = 0;
    last_release = None;
    first_arrive = None;
    delta;
  }

let set_parties t n =
  if n <= 0 then invalid_arg "Gbarrier.set_parties";
  t.parties <- n

let id t = t.id

let parties t = t.parties
let release_delta t = t.delta
let rounds t = t.rounds
let last_release_time t = t.last_release

let add_waiter t self k =
  if k = Array.length t.waiters then begin
    let grown = Array.make (Stdlib.max t.parties (2 * k)) self in
    Array.blit t.waiters 0 grown 0 k;
    t.waiters <- grown
  end;
  t.waiters.(k) <- self

let departure t (th : Thread.t) =
  let id = th.Thread.id in
  if id >= Array.length t.departures then begin
    let grown = Array.make (Stdlib.max (id + 1) (2 * Array.length t.departures)) None in
    Array.blit t.departures 0 grown 0 (Array.length t.departures);
    t.departures <- grown
  end;
  match t.departures.(id) with
  | Some d -> d
  | None ->
    let d = { th; wake = ignore; event = ignore } in
    d.event <- (fun _ -> d.wake d.th);
    t.departures.(id) <- Some d;
    d

(* Departure order equals arrival order: the k-th thread to arrive leaves
   (k+1)*delta after the release instant. Everybody (including the last
   arriver) blocks and is woken on that staggered schedule, so the wake
   path cost is common to the whole group and cancels in cross-CPU
   comparisons; only the k*delta stagger differentiates members, and that
   is exactly what phase correction cancels. *)
let release t (svc : Thread.services) n =
  let eng = Scheduler.engine t.sys in
  for i = 0 to n - 1 do
    let th = t.waiters.(i) in
    let d = departure t th in
    d.th <- th;
    d.wake <- svc.Thread.wake;
    ignore
      (Engine.schedule_after eng
         ~after:(Int64.mul t.delta (Int64.of_int (i + 1)))
         d.event)
  done

type phase = Pre_arrive | Arriving | Waiting | Done

type crossing = {
  barrier : t;
  on_release : (unit -> unit) option;
  record_order : (Thread.t -> int -> unit) option;
  mutable phase : phase;
}

let crossing ?on_release ?record_order barrier =
  { barrier; on_release; record_order; phase = Pre_arrive }

let rearm c = c.phase <- Pre_arrive

(* Registration and blocking happen in the same body call, so there is no
   lost-wakeup window. *)
let step c { Thread.svc; self } =
  let t = c.barrier in
  match c.phase with
  | Done -> Thread.Exit
  | Waiting ->
    c.phase <- Done;
    Thread.Exit
  | Pre_arrive ->
    (* The contended counter/lock update, charged before registering so
       that registration and blocking stay atomic (no lost wakeup). *)
    c.phase <- Arriving;
    let p = t.pre_arrived in
    t.pre_arrived <- t.pre_arrived + 1;
    let one = svc.Thread.sample self t.arrive_cost in
    let cost = if t.serialized then Int64.mul one (Int64.of_int (p + 1)) else one in
    Thread.Compute cost
  | Arriving ->
    let k = t.arrived in
    t.arrived <- t.arrived + 1;
    (match c.record_order with Some f -> f self k | None -> ());
    let sink = Scheduler.obs t.sys in
    let now = svc.Thread.now () in
    if Obs.Sink.enabled sink then begin
      if t.first_arrive = None then t.first_arrive <- Some now;
      Obs.Sink.emit sink ~time:now ~cpu:self.Thread.cpu
        (Obs.Event.Barrier_arrive { barrier = t.id; tid = self.Thread.id; order = k })
    end;
    c.phase <- Waiting;
    add_waiter t self k;
    if t.arrived < t.parties then Thread.Block
    else begin
      t.last_release <- Some now;
      (if Obs.Sink.enabled sink then
         let wait_ns =
           match t.first_arrive with
           | Some first -> Int64.sub now first
           | None -> 0L
         in
         Obs.Sink.emit sink ~time:now ~cpu:self.Thread.cpu
           (Obs.Event.Barrier_release { barrier = t.id; parties = t.parties; wait_ns }));
      t.first_arrive <- None;
      (match c.on_release with Some f -> f () | None -> ());
      let n = t.arrived in
      t.arrived <- 0;
      t.pre_arrived <- 0;
      t.rounds <- t.rounds + 1;
      release t svc n;
      Thread.Block
    end

let cross ?on_release ?record_order t =
  let c = crossing ?on_release ?record_order t in
  fun ctx -> step c ctx
