open Hrt_engine

type subscriber = time:Time.ns -> cpu:int -> Event.t -> unit
type probe = { p_name : string; read : unit -> float }

type t = {
  enabled : bool;
  metrics : Metrics.t;
  trace : Tracer.t option;
  mutable subscribers : subscriber list;
  mutable probes : probe list; (* registration order, oldest first *)
}

let null =
  {
    enabled = false;
    metrics = Metrics.create ();
    trace = None;
    subscribers = [];
    probes = [];
  }

let create ?(trace = true) () =
  {
    enabled = true;
    metrics = Metrics.create ();
    trace = (if trace then Some (Tracer.create ()) else None);
    subscribers = [];
    probes = [];
  }

let enabled t = t.enabled
let metrics t = t.metrics
let tracer t = t.trace
let subscribe t f = t.subscribers <- f :: t.subscribers

let add_probe t ~name read =
  if t.enabled then t.probes <- t.probes @ [ { p_name = name; read } ]

let sample_probes t =
  if t.enabled then
    List.iter
      (fun p -> Metrics.set (Metrics.gauge t.metrics p.p_name) (p.read ()))
      t.probes

let us ns = Int64.to_float ns /. 1_000.

(* Derive the standard per-CPU metrics from an event. Handle lookup is a
   hashtable hit; emit only runs on enabled sinks, so the disabled hot path
   never gets here. *)
let update_metrics t ~cpu ev =
  let m = t.metrics in
  let c name = Metrics.incr (Metrics.counter m ~cpu name) in
  let h name v = Metrics.observe (Metrics.histo m ~cpu name) v in
  match ev with
  | Event.Dispatch _ -> c "sched.dispatch"
  | Event.Preempt _ -> c "sched.preempt"
  | Event.Deadline_miss { lateness_ns; _ } ->
    c "sched.deadline_miss";
    h "sched.miss_lateness_us" (us lateness_ns)
  | Event.Admission_accept _ -> c "admission.accept"
  | Event.Admission_reject _ -> c "admission.reject"
  | Event.Arrival _ -> c "sched.arrival"
  | Event.Complete _ -> c "sched.complete"
  | Event.Block _ -> c "sched.block"
  | Event.Wake _ -> c "sched.wake"
  | Event.Irq { dur_ns } ->
    c "irq.count";
    h "irq.dur_us" (us dur_ns)
  | Event.Sched_pass { dur_ns } ->
    c "sched.pass";
    h "sched.pass_us" (us dur_ns)
  | Event.Steal_attempt { success; _ } ->
    c "steal.attempt";
    if success then c "steal.success"
  | Event.Barrier_arrive _ -> c "barrier.arrive"
  | Event.Barrier_release { wait_ns; _ } ->
    c "barrier.release";
    h "barrier.wait_us" (us wait_ns)
  | Event.Group_phase { phase; _ } -> c ("group.phase." ^ phase)
  | Event.Elected { leader; _ } ->
    c "group.election.decided";
    if leader then c "group.election.leader"
  | Event.Policy { policy } ->
    Metrics.set (Metrics.gauge m ~cpu ("sched.policy." ^ policy)) 1.
  | Event.Fault_plan _ -> c "fault.plan_armed"
  | Event.Overload { boundary } ->
    c "sched.overload_transition";
    Metrics.set
      (Metrics.gauge m ~cpu "sched.overload")
      (if String.equal boundary "none" then 0. else 1.)
  | Event.Shed _ -> c "sched.shed"
  | Event.Demote _ -> c "sched.demote"
  | Event.Recover _ -> c "sched.recover"
  | Event.Idle -> c "sched.idle_transition"

let emit t ~time ~cpu ev =
  if t.enabled then begin
    update_metrics t ~cpu ev;
    (match t.trace with
    | Some tr -> Tracer.record tr ~time ~cpu ev
    | None -> ());
    match t.subscribers with
    | [] -> ()
    | subs -> List.iter (fun f -> f ~time ~cpu ev) subs
  end

(* ---- per-job fan-out ---- *)

let child t =
  if not t.enabled then null
  else
    {
      enabled = true;
      metrics = Metrics.create ();
      (* Keep a tracer whenever the parent could want the events back:
         either it traces itself, or it has subscribers that [absorb] must
         replay to. *)
      trace =
        (if Option.is_some t.trace || t.subscribers <> [] then
           Some (Tracer.create ())
         else None);
      subscribers = [];
      (* Probes read live state owned by the parent's domain (e.g. a
         cache's counters); a job's child sink never samples them. *)
      probes = [];
    }

let absorb t ch =
  if t.enabled && ch.enabled && not (ch == t) then begin
    Metrics.merge t.metrics ch.metrics;
    match ch.trace with
    | None -> ()
    | Some ctr ->
      Tracer.iter ctr (fun { Tracer.time; cpu; event } ->
          (match t.trace with
          | Some ptr -> Tracer.record ptr ~time ~cpu event
          | None -> ());
          match t.subscribers with
          | [] -> ()
          | subs -> List.iter (fun f -> f ~time ~cpu event) subs)
  end
