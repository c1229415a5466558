open Hrt_engine

type cpu = {
  id : int;
  core : int;
  tsc : Tsc.t;
  apic : Apic.t;
  rng : Rng.t;
}

type t = {
  engine : Engine.t;
  platform : Platform.t;
  cpus : cpu array;
  gpio : Gpio.t;
  irq : Irq.t;
  rng : Rng.t;
}

let create ?(seed = 42L) ?num_cpus platform =
  let engine = Engine.create ~seed () in
  let rng = Rng.split (Engine.rng engine) in
  let n =
    match num_cpus with
    | None -> platform.Platform.num_cpus
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Machine.create: num_cpus %d" n)
  in
  let threads_per_core =
    Stdlib.max 1 (platform.Platform.num_cpus / platform.Platform.cores)
  in
  let skew_rng = Rng.split rng in
  let cpus =
    Array.init n (fun id ->
        let start_skew =
          if id = 0 then 0L
          else Rng.range_ns skew_rng 0L (Time.ns platform.Platform.boot_skew_ns)
        in
        {
          id;
          core = id / threads_per_core;
          tsc = Tsc.create ~ghz:platform.Platform.ghz ~start_skew;
          apic =
            Apic.create ~engine ~rng:(Rng.split rng)
              ~tick_ns:platform.Platform.apic_tick_ns
              ~tsc_deadline:platform.Platform.tsc_deadline
              ~jitter_max_cycles:platform.Platform.timer_fire_jitter_max
              ~ghz:platform.Platform.ghz;
          rng = Rng.split rng;
        })
  in
  let gpio = Gpio.create engine in
  let irq = Irq.create ~engine ~apic_of:(fun i -> cpus.(i).apic) in
  { engine; platform; cpus; gpio; irq; rng }

let num_cpus t = Array.length t.cpus

let cpu t i = t.cpus.(i)

let[@inline] sample t (c : cpu) cost = Platform.sample t.platform c.rng cost

let read_tsc t (c : cpu) = Tsc.read c.tsc ~now:(Engine.now t.engine)
