type t = {
  mutable now : Time.ns;
  mutable now_tick : int;
  (* An event is the closure it runs. Long-lived subsystems build theirs
     once and schedule that same value, so firing them allocates
     nothing. *)
  queue : (t -> unit) Event_queue.t;
  rng : Rng.t;
  mutable freeze_until : Time.ns;
  mutable freeze_tick : int;
  (* Closed freeze windows, in increasing order, merged when adjacent.
     [open_freeze] is the start of the currently open window, if any. *)
  mutable windows : (Time.ns * Time.ns) list; (* reverse order *)
  mutable open_freeze : Time.ns option;
  mutable total_frozen_closed : Time.ns;
  mutable stopped : bool;
  mutable executed : int;
  mutable max_pending : int;
  (* Entry currently being dispatched, and whether its callback parked it
     back into the queue via [defer_current]. *)
  mutable current : Event_queue.handle;
  mutable deferred : bool;
}

type handle = Event_queue.handle

(* Event scheduling and the run loop are the per-event hot path; the
   allocating pieces (construction, freeze-window bookkeeping, error
   formatting) are cold or explicitly waived. *)
[@@@hrt.hot]

let no_handle = Event_queue.none

let nop (_ : t) = ()

let[@hrt.cold] create ?(seed = 42L) () =
  {
    now = 0L;
    now_tick = 0;
    queue = Event_queue.create ~dummy:nop;
    rng = Rng.create seed;
    freeze_until = Int64.min_int;
    freeze_tick = min_int;
    windows = [];
    open_freeze = None;
    total_frozen_closed = 0L;
    stopped = false;
    executed = 0;
    max_pending = 0;
    current = Event_queue.none;
    deferred = false;
  }

let now t = t.now
let rng t = t.rng

let track_depth t =
  let n = Event_queue.size t.queue in
  if n > t.max_pending then t.max_pending <- n

(* Out-of-line so the scheduling fast path performs no formatting. *)
let[@hrt.cold] schedule_past_error at now =
  invalid_arg
    (Format.asprintf "Engine.schedule: %a is in the past (now %a)" Time.pp at
       Time.pp now)

let schedule t ~at f =
  if Time.(at < t.now) then schedule_past_error at t.now;
  let h = Event_queue.add t.queue ~time:at f in
  track_depth t;
  h

let schedule_after t ~after f = schedule t ~at:Time.(t.now + after) f

let cancel t h = Event_queue.cancel t.queue h

let defer_current t ~at =
  if t.current = Event_queue.none then
    invalid_arg "Engine.defer_current: no event in flight";
  if t.deferred then invalid_arg "Engine.defer_current: already deferred";
  if Time.(at < t.now) then
    invalid_arg "Engine.defer_current: time is in the past";
  t.deferred <- true;
  Event_queue.defer_inflight t.queue t.current ~time:at

let close_open_window t =
  match t.open_freeze with
  | None -> ()
  | Some start ->
    let stop = t.freeze_until in
    t.windows <-
      ((start, stop) :: t.windows
      [@hrt.alloc_ok "one window record per freeze window, not per event"]);
    t.total_frozen_closed <- Time.(t.total_frozen_closed + (stop - start));
    t.open_freeze <- None

(* Ticks mirror the int64 times for the run loop's unboxed comparisons;
   see Event_queue for the range argument. *)
let tick_of u =
  if Int64.compare u (Int64.of_int max_int) >= 0 then max_int
  else Int64.to_int u

let freeze t ~until =
  if Time.(until <= t.now) then ()
  else begin
    (match t.open_freeze with
    | Some _ ->
      (* Extend the open window. *)
      if Time.(until > t.freeze_until) then begin
        t.freeze_until <- until;
        t.freeze_tick <- tick_of until
      end
    | None ->
      t.open_freeze <-
        (Some t.now [@hrt.alloc_ok "one option per freeze window open"]);
      t.freeze_until <- until;
      t.freeze_tick <- tick_of until)
  end

let overlap a b s e =
  let lo = Time.max a s and hi = Time.min b e in
  if Time.(hi > lo) then Time.(hi - lo) else 0L

let rec closed_overlap a b acc windows =
  match windows with
  | [] -> acc
  | (s, e) :: rest -> closed_overlap a b Time.(acc + overlap a b s e) rest

(* Called on every scheduler pass; a run that never froze pays two loads
   and allocates nothing. *)
let frozen_overlap t a b =
  if Time.(b <= a) then 0L
  else
    match (t.windows, t.open_freeze) with
    | [], None -> 0L
    | windows, None -> closed_overlap a b 0L windows
    | windows, Some s ->
      Time.(closed_overlap a b 0L windows + overlap a b s t.freeze_until)

let[@hrt.cold] total_frozen t =
  (* An open window is committed through [freeze_until]: count all of it. *)
  let open_part =
    match t.open_freeze with
    | None -> 0L
    | Some s -> Time.(t.freeze_until - s)
  in
  Time.(t.total_frozen_closed + Time.max open_part 0L)

let stop t = t.stopped <- true
let events_executed t = t.executed
let pending t = Event_queue.size t.queue
let max_queue_depth t = t.max_pending

let run ?until ?max_events t =
  t.stopped <- false;
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let horizon = match until with None -> max_int | Some u -> tick_of u in
  let continue = ref true in
  while !continue && not t.stopped && !budget > 0 do
    let tick = Event_queue.next_tick t.queue in
    if tick = Event_queue.no_tick || tick > horizon then continue := false
    else if t.open_freeze <> None && tick < t.freeze_tick then begin
      (* Defer events that fall inside a frozen window. The entry keeps
         its identity (handle, payload) but takes a fresh sequence
         number, exactly like the pop + re-add this replaces. *)
      let h = Event_queue.take t.queue in
      Event_queue.defer_inflight t.queue h ~time:t.freeze_until
    end
    else begin
      let h = Event_queue.take t.queue in
      let tick = Event_queue.inflight_tick t.queue h in
      if t.open_freeze <> None && tick >= t.freeze_tick then
        close_open_window t;
      if tick <> t.now_tick then begin
        t.now_tick <- tick;
        t.now <- Int64.of_int tick
      end;
      t.executed <- t.executed + 1;
      decr budget;
      t.current <- h;
      t.deferred <- false;
      (Event_queue.payload t.queue h) t;
      t.current <- Event_queue.none;
      if not t.deferred then Event_queue.finish t.queue h
    end
  done;
  (match until with
  | Some u when not t.stopped && Time.(t.now < u) ->
    t.now <- u;
    t.now_tick <- tick_of u
  | _ -> ());
  if t.open_freeze <> None && Time.(t.now >= t.freeze_until) then
    close_open_window t
