open Hrt_engine
open Hrt_hw
open Hrt_kernel
module Obs = Hrt_obs

type t = {
  shared : Local_sched.shared;
  mutable calibration : Sync_cal.result option;
  mutable next_name : int;
  mutable next_obj_id : int;
  mutable threaded_devices : Irq.device list;
  irq_threads : (int, Thread.t * Time.ns Queue.t) Hashtbl.t;
  mutable threads : Thread.t list;  (** every spawn, newest first *)
}

let machine t = t.shared.Local_sched.machine
let engine t = (machine t).Machine.engine
let config t = t.shared.Local_sched.config
let platform t = (machine t).Machine.platform
let num_cpus t = Machine.num_cpus (machine t)
let sched t i = t.shared.Local_sched.scheds.(i)
let calibration t = t.calibration
let obs t = t.shared.Local_sched.obs

let fresh_id t =
  let id = t.next_obj_id in
  t.next_obj_id <- id + 1;
  id

let rec spawn t ?name ?(cpu = 0) ?(bound = false) ?(prio = 0)
    ?(crit = Constraints.Mid) body =
  if cpu < 0 || cpu >= num_cpus t then invalid_arg "Scheduler.spawn: bad CPU";
  match Thread_pool.alloc t.shared.Local_sched.pool with
  | None -> failwith "Scheduler.spawn: thread limit exceeded"
  | Some id ->
    let name =
      match name with
      | Some n -> n
      | None ->
        t.next_name <- t.next_name + 1;
        Printf.sprintf "thread-%d" t.next_name
    in
    let th = Thread.make ~id ~name ~cpu ~bound body in
    th.Thread.constr <- Constraints.aperiodic ~prio ();
    th.Thread.crit <- crit;
    t.threads <- th :: t.threads;
    Local_sched.enroll (sched t cpu) th;
    th

and irq_thread_body queue =
  let in_flight = ref None in
  fun (_ : Thread.ctx) ->
    match !in_flight with
    | Some () ->
      in_flight := None;
      (match Queue.take_opt queue with
      | Some d ->
        in_flight := Some ();
        Thread.Compute d
      | None -> Thread.Block)
    | None -> (
      match Queue.take_opt queue with
      | Some d ->
        in_flight := Some ();
        Thread.Compute d
      | None -> Thread.Block)

and ensure_irq_thread t ~cpu =
  match Hashtbl.find_opt t.irq_threads cpu with
  | Some entry -> entry
  | None ->
    let queue = Queue.create () in
    let th =
      spawn t ~name:(Printf.sprintf "irq-thread-%d" cpu) ~cpu ~bound:true
        ~prio:(max_int - 1) (irq_thread_body queue)
    in
    Hashtbl.replace t.irq_threads cpu (th, queue);
    (th, queue)

and enqueue_threaded_irq t ~cpu ~handler_ns =
  let th, queue = ensure_irq_thread t ~cpu in
  Queue.add handler_ns queue;
  (* The entry path itself: a bounded acknowledge, then a scheduling pass
     that wakes the interrupt thread. *)
  Local_sched.on_device_irq (sched t cpu) ~handler_ns:0L;
  Local_sched.wake (sched t cpu) th

let wake t th = Local_sched.wake (sched t th.Thread.cpu) th

let rephase t th ~delta = Local_sched.rephase (sched t th.Thread.cpu) th ~delta

let reanchor t th ~first_arrival =
  Local_sched.reanchor (sched t th.Thread.cpu) th ~first_arrival

let task_helper_body t cpu =
  let queue = Local_sched.tasks (sched t cpu) in
  let in_flight = ref None in
  fun _ctx ->
    match !in_flight with
    | Some task ->
      task.Task.run ();
      Task.complete queue task ~now:(Engine.now (engine t));
      in_flight := None;
      (match Task.take_unsized queue with
      | Some next ->
        in_flight := Some next;
        Thread.Compute next.Task.duration
      | None -> Thread.Block)
    | None -> (
      match Task.take_unsized queue with
      | Some task ->
        in_flight := Some task;
        Thread.Compute task.Task.duration
      | None -> Thread.Block)

let submit_task t ~cpu ?declared ~duration run =
  if cpu < 0 || cpu >= num_cpus t then invalid_arg "Scheduler.submit_task";
  let s = sched t cpu in
  let now = Engine.now (engine t) in
  Task.submit (Local_sched.tasks s) ?declared ~duration ~now run;
  (match declared with
  | Some _ -> ()
  | None ->
    (* Lazily create the per-CPU helper thread for untagged tasks. *)
    if Local_sched.task_thread s = None then begin
      (* The helper runs like a softIRQ thread: above ordinary aperiodic
         work, still below every real-time thread. *)
      let helper =
        spawn t ~name:(Printf.sprintf "task-exec-%d" cpu) ~cpu ~bound:true
          ~prio:max_int (task_helper_body t cpu)
      in
      Local_sched.set_task_thread s helper
    end);
  Local_sched.request_invoke s

let admission_ops t constr ~on_result =
  let plat = platform t in
  let cost =
    Int64.of_float
      (Float.ceil (plat.Platform.admission_cost.Platform.mean_cycles /. plat.Platform.ghz))
  in
  [ Thread.Compute cost; Thread.Set_constraints (constr, on_result) ]

let sync_accounting t =
  Array.iter Local_sched.sync_accounting t.shared.Local_sched.scheds

(* End-of-run scrape of the engine's and each CPU's native counters into
   the metrics registry, so every harness that calls [run] exports
   event-loop and accounting health for free. Gauges hold the latest run's
   value; event-derived counters/histograms keep accumulating. *)
let snapshot_metrics t =
  let obs = t.shared.Local_sched.obs in
  if Obs.Sink.enabled obs then begin
    let m = Obs.Sink.metrics obs in
    let eng = engine t in
    let setg ?cpu name v = Obs.Metrics.set (Obs.Metrics.gauge m ?cpu name) v in
    setg ("sched.policy." ^ Config.policy_name (config t).Config.policy) 1.;
    setg "engine.events_executed" (float_of_int (Engine.events_executed eng));
    setg "engine.pending" (float_of_int (Engine.pending eng));
    setg "engine.queue_depth_hwm" (float_of_int (Engine.max_queue_depth eng));
    setg "engine.sim_time_ns" (Int64.to_float (Engine.now eng));
    setg "engine.total_frozen_ns" (Int64.to_float (Engine.total_frozen eng));
    Obs.Sink.sample_probes obs;
    Array.iteri
      (fun i s ->
        let acc = Local_sched.account s in
        setg ~cpu:i "cpu.idle_ns" (Int64.to_float (Local_sched.idle_time s));
        setg ~cpu:i "account.invocations"
          (float_of_int (Account.invocations acc));
        setg ~cpu:i "account.arrivals" (float_of_int (Account.arrivals acc));
        setg ~cpu:i "account.misses" (float_of_int (Account.misses acc));
        setg ~cpu:i "account.kicks" (float_of_int (Account.kicks acc));
        setg ~cpu:i "account.steals" (float_of_int (Account.steals acc)))
      t.shared.Local_sched.scheds
  end

let run ?until t =
  Engine.run ?until (engine t);
  sync_accounting t;
  snapshot_metrics t

let set_dispatch_hook t hook = t.shared.Local_sched.dispatch_hook <- hook

let add_device t ~name ?(prio = 8) ?(threaded = false) ~mean_interval
    ~handler_cost () =
  let dev =
    Irq.add_device (machine t).Machine.irq ~name ~prio ~mean_interval
      ~handler_cost
  in
  if threaded then t.threaded_devices <- dev :: t.threaded_devices;
  dev

let steer_device t dev ~cpus = Irq.steer (machine t).Machine.irq dev ~cpus
let start_device t dev = Irq.start (machine t).Machine.irq dev
let stop_device t dev = Irq.stop (machine t).Machine.irq dev

let total_account t =
  let scheds = t.shared.Local_sched.scheds in
  let acc = ref (Local_sched.account scheds.(0)) in
  for i = 1 to Array.length scheds - 1 do
    acc := Account.merge !acc (Local_sched.account scheds.(i))
  done;
  !acc

let total_misses t =
  Array.fold_left
    (fun n s -> n + Account.misses (Local_sched.account s))
    0 t.shared.Local_sched.scheds

let total_arrivals t =
  Array.fold_left
    (fun n s -> n + Account.arrivals (Local_sched.account s))
    0 t.shared.Local_sched.scheds

let threads_alive t = Thread_pool.in_use t.shared.Local_sched.pool

let iter_threads t f = List.iter f (List.rev t.threads)

let find_thread t name =
  List.find_opt (fun th -> String.equal th.Thread.name name) t.threads

let create ?(seed = 42L) ?num_cpus ?(config = Config.default)
    ?(calibrate = true) ?obs platform =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scheduler.create: " ^ msg));
  let obs = match obs with Some s -> s | None -> Obs.Sink.null in
  let machine = Machine.create ~seed ?num_cpus platform in
  let shared =
    {
      Local_sched.machine;
      config;
      policy = Policy.of_kind config.Config.policy;
      pool = Thread_pool.create ~capacity:config.Config.max_threads;
      workload_rng = Rng.split machine.Machine.rng;
      obs;
      scheds = [||];
      total_aper_queued = 0;
      dispatch_hook = None;
    }
  in
  let scheds =
    Array.map (fun cpu -> Local_sched.create shared cpu) machine.Machine.cpus
  in
  shared.Local_sched.scheds <- scheds;
  (* Stamp every CPU's trace with the dispatch policy so exported traces
     and metric snapshots are self-describing. *)
  (if Obs.Sink.enabled obs then begin
     let policy = Config.policy_name config.Config.policy in
     Array.iteri
       (fun cpu _ ->
         Obs.Sink.emit obs ~time:0L ~cpu (Obs.Event.Policy { policy }))
       scheds
   end);
  let t =
    {
      shared;
      calibration = None;
      next_name = 0;
      next_obj_id = 0;
      threaded_devices = [];
      irq_threads = Hashtbl.create 8;
      threads = [];
    }
  in
  (if calibrate then begin
     let result = Sync_cal.calibrate machine in
     t.calibration <- Some result;
     Array.iteri
       (fun i skew -> Local_sched.set_clock_skew scheds.(i) skew)
       result.Sync_cal.residual_ns
   end);
  (* Boot: every local scheduler runs one pass (arming the idle work
     stealer on otherwise empty CPUs). *)
  Array.iter Local_sched.request_invoke scheds;
  (* Device interrupts enter through the local scheduler of the target CPU
     with the device's handler cost charged inline — unless the device is
     threaded, in which case the entry only queues work for the CPU's
     interrupt thread (§3.5). *)
  Irq.set_dispatch machine.Machine.irq (fun ~cpu dev _eng ->
      let s = scheds.(cpu) in
      let handler_ns =
        Machine.sample machine (Machine.cpu machine cpu) (Irq.handler_cost dev)
      in
      if List.exists (fun d -> d == dev) t.threaded_devices then
        enqueue_threaded_irq t ~cpu ~handler_ns
      else Local_sched.on_device_irq s ~handler_ns);
  t
