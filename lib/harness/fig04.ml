open Hrt_engine
open Hrt_core
open Hrt_hw
open Hrt_stats

let thread_pin = 0
let sched_pin = 1
let irq_pin = 2

let run ?ctx () =
  let ctx = Exp.or_default ctx in
  let horizon =
    match ctx.Exp.Ctx.scale with
    | Exp.Quick -> Time.ms 50
    | Exp.Full -> Time.ms 500
  in
  (* The scope pins are driven from the observability stream: the same
     Irq/Sched_pass/Dispatch/Idle events every consumer sees. The pin
     subscriber goes on a sink of this run's own — a child of the
     caller's, absorbed back after the run, or a private traceless one
     when the caller has none — so nothing of it outlives the run. *)
  let sink =
    if Hrt_obs.Sink.enabled ctx.Exp.Ctx.sink then
      Hrt_obs.Sink.child ctx.Exp.Ctx.sink
    else Hrt_obs.Sink.create ~trace:false ()
  in
  let sys = Scheduler.create ~seed:ctx.Exp.Ctx.seed ~num_cpus:2 ~obs:sink Platform.phi in
  let machine = Scheduler.machine sys in
  let gpio = machine.Machine.gpio in
  let eng = Scheduler.engine sys in
  let test =
    Exp.periodic_thread sys ~cpu:1 ~period:(Time.us 100) ~slice:(Time.us 50) ()
  in
  let set pin at level =
    (* One outb at each edge, at the instant the scheduler reaches it. *)
    ignore
      (Engine.schedule eng ~at:(Time.max at (Engine.now eng)) (fun _ ->
           Gpio.set gpio ~pin level))
  in
  let window pin ~start ~stop =
    set pin start true;
    set pin stop false
  in
  Hrt_obs.Sink.subscribe sink (fun ~time ~cpu ev ->
      if cpu = 1 then
        match ev with
        | Hrt_obs.Event.Irq { dur_ns } ->
          window irq_pin ~start:time ~stop:Time.(time + dur_ns)
        | Hrt_obs.Event.Sched_pass { dur_ns } ->
          window sched_pin ~start:time ~stop:Time.(time + dur_ns)
        | Hrt_obs.Event.Dispatch { tid; _ } ->
          set thread_pin time (tid = test.Thread.id)
        | Hrt_obs.Event.Idle -> set thread_pin time false
        | _ -> ());
  Scheduler.run ~until:horizon sys;
  Hrt_obs.Sink.absorb ctx.Exp.Ctx.sink sink;
  let settle = Time.ms 5 in
  let analyze name pin =
    let intervals =
      Array.of_list
        (List.filter
           (fun (a, _) -> Time.(a > settle))
           (Array.to_list (Gpio.high_intervals gpio ~pin)))
    in
    let durations = Summary.create () in
    let total_high = ref 0L in
    Array.iter
      (fun (a, b) ->
        Summary.add durations (Int64.to_float Time.(b - a));
        total_high := Time.(!total_high + (b - a)))
      intervals;
    let duty = Int64.to_float !total_high /. Int64.to_float Time.(horizon - settle) in
    let cov =
      if Summary.mean durations > 0. then
        Summary.stddev durations /. Summary.mean durations
      else 0.
    in
    (name, Array.length intervals, duty, Summary.mean durations /. 1000., cov)
  in
  let rows =
    [
      analyze "test thread" thread_pin;
      analyze "scheduler pass" sched_pin;
      analyze "interrupt handler" irq_pin;
    ]
  in
  (* ASCII rendering of a 600us window, like the scope photograph: one
     character per 2us, '#' = pin high. *)
  let waveform pin =
    let t0 = Time.ms 10 in
    let step = Time.us 2 in
    let samples = 150 in
    let trans = Gpio.transitions gpio ~pin in
    let buf = Bytes.make samples '.' in
    let level_at tm =
      let lvl = ref false in
      Array.iter (fun (t, v) -> if Time.(t <= tm) then lvl := v) trans;
      !lvl
    in
    for i = 0 to samples - 1 do
      if level_at Time.(t0 + (step * i)) then Bytes.set buf i '#'
    done;
    Bytes.to_string buf
  in
  let scope =
    Table.create
      ~title:
        "Fig 4: 600us scope window starting at t=10ms ('#' = pin high, 2us          per column)"
      ~columns:[ ("trace", Table.Left); ("waveform", Table.Left) ]
  in
  Table.row scope [ "test thread"; waveform thread_pin ];
  Table.row scope [ "scheduler pass"; waveform sched_pin ];
  Table.row scope [ "interrupt handler"; waveform irq_pin ];
  let table =
    Table.create
      ~title:
        "Fig 4: scope traces of a periodic 100us/50us thread (Phi). Sharp \
         thread trace = low CoV; fuzzy scheduler/IRQ traces = high CoV"
      ~columns:
        [
          ("trace", Table.Left);
          ("pulses", Table.Right);
          ("duty cycle", Table.Right);
          ("mean high (us)", Table.Right);
          ("duration CoV", Table.Right);
        ]
  in
  List.iter
    (fun (name, n, duty, mean_us, cov) ->
      Table.row table
        [
          name;
          string_of_int n;
          Printf.sprintf "%.1f%%" (100. *. duty);
          Printf.sprintf "%.2f" mean_us;
          Printf.sprintf "%.4f" cov;
        ])
    rows;
  [ table; scope ]
