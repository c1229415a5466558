open Hrt_engine

(* Device arrivals run inside the event loop; the recurring arrival event
   reuses a cached closure, but per-delivery dispatch legitimately
   allocates one (see [pull]). *)
[@@@hrt.hot]

type device = {
  name : string;
  prio : int;
  mean_interval : Time.ns;
  handler_cost : Platform.cost;
  mutable targets : int list;
  mutable next_target : int; (* round-robin index *)
  mutable running : bool;
  mutable delivered : int;
  rng : Rng.t;
  mutable pull_event : Engine.t -> unit;
      (* Cached closure for the device's recurring arrival event. *)
}

type t = {
  engine : Engine.t;
  apic_of : int -> Apic.t;
  mutable dispatch : cpu:int -> device -> Engine.t -> unit;
  mutable devices : device list;
}

let[@hrt.cold] create ~engine ~apic_of =
  { engine; apic_of; dispatch = (fun ~cpu:_ _ _ -> ()); devices = [] }

let set_dispatch t f = t.dispatch <- f

let steer _t d ~cpus =
  if cpus = [] then invalid_arg "Irq.steer: empty CPU list";
  d.targets <- cpus;
  d.next_target <- 0

let pick_target d =
  let n = List.length d.targets in
  let cpu = List.nth d.targets (d.next_target mod n) in
  d.next_target <- (d.next_target + 1) mod n;
  cpu

(* An arrival: steer to the next target CPU and present the interrupt to
   its APIC, then draw the gap to the next arrival. The dispatch closure
   captures the chosen CPU, so it is allocated per delivery; the recurring
   arrival event itself reuses the device's cached closure. *)
let rec pull t d eng =
  if d.running then begin
    let cpu = pick_target d in
    d.delivered <- d.delivered + 1;
    Apic.deliver (t.apic_of cpu) eng ~prio:d.prio
      ((fun eng -> t.dispatch ~cpu d eng)
       [@hrt.alloc_ok "one closure per delivery: the handler must capture \
                       the steered CPU"]);
    arm t d
  end

and arm t d =
  let gap =
    Int64.of_float
      (Float.max 1. (Rng.exponential d.rng ~mean:(Int64.to_float d.mean_interval)))
  in
  ignore (Engine.schedule_after t.engine ~after:gap d.pull_event)

let[@hrt.cold] add_device t ~name ~prio ~mean_interval ~handler_cost =
  let d =
    {
      name;
      prio;
      mean_interval;
      handler_cost;
      targets = [ 0 ];
      next_target = 0;
      running = false;
      delivered = 0;
      rng = Rng.split (Engine.rng t.engine);
      pull_event = ignore;
    }
  in
  d.pull_event <- pull t d;
  t.devices <- d :: t.devices;
  d

let start t d =
  if not d.running then begin
    d.running <- true;
    arm t d
  end

let stop _t d = d.running <- false

let device_name d = d.name
let handler_cost d = d.handler_cost
let delivered d = d.delivered
