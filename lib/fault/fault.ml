open Hrt_engine
open Hrt_hw
open Hrt_core
module Obs = Hrt_obs

module Plan = struct
  type action =
    | Smi_storm of Smi.config
    | Irq_burst of {
        mean_interval : Time.ns;
        handler_cycles : float;
        cpus : int list;
      }
    | Tsc_step of { cpu : int; delta_ns : Time.ns }
    | Timer_jitter of { max_ns : Time.ns }
    | Wcet_overrun of { thread : string option; pct : int }
    | Release_jitter of { thread : string option; max_ns : Time.ns }

  type item = { at : Time.ns; action : action }
  type t = { name : string; seed : int64; items : item list }

  (* Rates multiply by the intensity (inter-arrival means divide),
     magnitudes multiply. Guard rails: scaled inter-arrivals never drop
     below 1 ns, percentages and jitter bounds round toward zero. *)
  let scale_action i = function
    | Smi_storm cfg ->
      Smi_storm
        {
          cfg with
          Smi.mean_interval =
            Time.max 1L
              (Int64.of_float (Int64.to_float cfg.Smi.mean_interval /. i));
        }
    | Irq_burst b ->
      Irq_burst
        {
          b with
          mean_interval =
            Time.max 1L (Int64.of_float (Int64.to_float b.mean_interval /. i));
        }
    | Tsc_step s ->
      Tsc_step
        { s with delta_ns = Int64.of_float (Int64.to_float s.delta_ns *. i) }
    | Timer_jitter { max_ns } ->
      Timer_jitter { max_ns = Int64.of_float (Int64.to_float max_ns *. i) }
    | Wcet_overrun o ->
      Wcet_overrun { o with pct = int_of_float (float_of_int o.pct *. i) }
    | Release_jitter r ->
      Release_jitter
        { r with max_ns = Int64.of_float (Int64.to_float r.max_ns *. i) }

  let scale t ~intensity =
    let i = Float.max 0. intensity in
    if i = 0. then { t with items = [] }
    else if i = 1. then t
    else
      {
        t with
        items =
          List.map (fun it -> { it with action = scale_action i it.action }) t.items;
      }
end

open Plan

(* Builtin plans. Seeds are arbitrary but fixed: a plan's behaviour must
   not depend on which workload it is armed against. *)

let smi_storm =
  {
    name = "smi-storm";
    seed = 7001L;
    items =
      [
        {
          at = 0L;
          action =
            Smi_storm
              {
                Smi.mean_interval = Time.us 150;
                duration_mean = Time.us 50;
                duration_jitter = 0.25;
              };
        };
      ];
  }

let irq_burst =
  {
    name = "irq-burst";
    seed = 7002L;
    items =
      [
        {
          at = 0L;
          action =
            Irq_burst
              {
                mean_interval = Time.us 40;
                handler_cycles = 30_000.;
                cpus = [];
              };
        };
      ];
  }

let clock_step =
  {
    name = "clock-step";
    seed = 7003L;
    items =
      [
        { at = Time.ms 5; action = Tsc_step { cpu = 1; delta_ns = Time.us 50 } };
        {
          at = Time.ms 15;
          action = Tsc_step { cpu = 1; delta_ns = Time.us 100 };
        };
      ];
  }

let timer_jitter =
  {
    name = "timer-jitter";
    seed = 7004L;
    items = [ { at = 0L; action = Timer_jitter { max_ns = Time.us 20 } } ];
  }

let wcet_overrun =
  {
    name = "wcet-overrun";
    seed = 7005L;
    items = [ { at = 0L; action = Wcet_overrun { thread = None; pct = 60 } } ];
  }

let release_jitter =
  {
    name = "release-jitter";
    seed = 7006L;
    items =
      [ { at = 0L; action = Release_jitter { thread = None; max_ns = Time.us 100 } } ];
  }

let combined =
  {
    name = "combined";
    seed = 7007L;
    items =
      [
        {
          at = 0L;
          action =
            Smi_storm
              {
                Smi.mean_interval = Time.us 300;
                duration_mean = Time.us 40;
                duration_jitter = 0.25;
              };
        };
        {
          at = 0L;
          action =
            Irq_burst
              {
                mean_interval = Time.us 80;
                handler_cycles = 20_000.;
                cpus = [];
              };
        };
        { at = 0L; action = Wcet_overrun { thread = None; pct = 30 } };
      ];
  }

let builtins =
  [
    smi_storm;
    irq_burst;
    clock_step;
    timer_jitter;
    wcet_overrun;
    release_jitter;
    combined;
  ]

let names () = List.map (fun p -> p.name) builtins

let of_name ?(intensity = 1.0) name =
  List.find_opt (fun p -> String.equal p.name name) builtins
  |> Option.map (fun p -> Plan.scale p ~intensity)

let describe_action = function
  | Smi_storm cfg ->
    Printf.sprintf "SMI storm (mean every %Ldus, ~%Ldus each)"
      (Int64.div cfg.Smi.mean_interval 1000L)
      (Int64.div cfg.Smi.duration_mean 1000L)
  | Irq_burst b ->
    Printf.sprintf "IRQ burst (mean every %Ldus)" (Int64.div b.mean_interval 1000L)
  | Tsc_step s ->
    Printf.sprintf "TSC step on cpu %d (+%Ldus)" s.cpu (Int64.div s.delta_ns 1000L)
  | Timer_jitter { max_ns } ->
    Printf.sprintf "timer jitter (up to %Ldus)" (Int64.div max_ns 1000L)
  | Wcet_overrun { thread; pct } ->
    Printf.sprintf "WCET overrun +%d%% (%s)" pct
      (match thread with Some n -> n | None -> "all threads")
  | Release_jitter { thread; max_ns } ->
    Printf.sprintf "release jitter up to %Ldus (%s)"
      (Int64.div max_ns 1000L)
      (match thread with Some n -> n | None -> "all threads")

let describe p =
  match p.items with
  | [] -> "empty plan"
  | items -> String.concat "; " (List.map (fun it -> describe_action it.action) items)

(* ---- arming ---- *)

let on_threads sys thread f =
  match thread with
  | Some name -> (
    match Scheduler.find_thread sys name with Some th -> f th | None -> ())
  | None -> Scheduler.iter_threads sys f

let apply sys rng eng action =
  match action with
  | Smi_storm cfg -> ignore (Smi.install ~rng eng cfg)
  | Irq_burst { mean_interval; handler_cycles; cpus } ->
    let dev =
      Scheduler.add_device sys ~name:"fault-irq" ~mean_interval
        ~handler_cost:(Platform.cost handler_cycles (handler_cycles /. 5.))
        ()
    in
    if cpus <> [] then Scheduler.steer_device sys dev ~cpus;
    Scheduler.start_device sys dev
  | Tsc_step { cpu; delta_ns } ->
    if cpu >= 0 && cpu < Scheduler.num_cpus sys then begin
      let machine = Scheduler.machine sys in
      let hw = Machine.cpu machine cpu in
      Tsc.adjust hw.Machine.tsc (Tsc.reading_of_ns hw.Machine.tsc delta_ns);
      (* The scheduler's notion of local time jumps with the counter. *)
      let s = Scheduler.sched sys cpu in
      Local_sched.set_clock_skew s Time.(Local_sched.clock_skew s + delta_ns)
    end
  | Timer_jitter { max_ns } ->
    let machine = Scheduler.machine sys in
    Array.iter
      (fun (hw : Machine.cpu) ->
        Apic.set_timer_jitter hw.Machine.apic ~rng:(Rng.split rng) ~max_ns ())
      machine.Machine.cpus
  | Wcet_overrun { thread; pct } ->
    on_threads sys thread (fun th -> th.Thread.wcet_overrun_pct <- pct)
  | Release_jitter { thread; max_ns } ->
    on_threads sys thread (fun th -> th.Thread.release_jitter_ns <- max_ns)

let inject plan sys =
  let eng = Scheduler.engine sys in
  let rng = Rng.create plan.seed in
  let obs = Scheduler.obs sys in
  if Obs.Sink.enabled obs then
    Obs.Sink.emit obs ~time:(Engine.now eng) ~cpu:0
      (Obs.Event.Fault_plan { plan = plan.name });
  List.iter
    (fun it ->
      (* Split per item up front so an item's draws are independent of how
         many items precede it and of when they fire. *)
      let irng = Rng.split rng in
      let arm e = apply sys irng e it.action in
      if Time.(it.at <= Engine.now eng) then arm eng
      else ignore (Engine.schedule eng ~at:it.at arm))
    plan.items
