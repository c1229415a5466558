open Hrt_engine

type cost = { mean_cycles : float; sigma_cycles : float }

let cost mean_cycles sigma_cycles = { mean_cycles; sigma_cycles }

type t = {
  name : string;
  ghz : float;
  num_cpus : int;
  cores : int;
  boot_skew_ns : int;
  cal_error_mu : float;
  cal_error_sigma : float;
  apic_tick_ns : int;
  tsc_deadline : bool;
  ipi_latency : cost;
  irq_dispatch : cost;
  sched_pass : cost;
  ctx_switch : cost;
  sched_other : cost;
  admission_cost : cost;
  timer_program : cost;
  group_join_step : cost;
  group_elect_step : cost;
  group_admit_step : cost;
  phase_correct_step : cost;
  barrier_arrive : cost;
  barrier_release_step : cost;
  timer_fire_jitter_max : float;
  flop_cost : cost;
  remote_write : cost;
  steal_check : cost;
}

(* Calibration notes (all figures refer to the paper):
   - Phi scheduler software overhead ~6000 cycles/invocation, about half in
     the scheduling pass (Fig 5a, Section 5.3); two invocations per period
     put the feasibility edge at ~10 us (Fig 6).
   - R415 overhead lower in cycles and much lower in time (Fig 5b); edge
     ~4 us at 2.2 GHz (Fig 7).
   - Group admission at 255 threads: join ~2.5e5, election ~4e4, distributed
     admission ~4.5e6, final barrier + phase correction ~2.5e6 cycles
     (Fig 10), ~8e6 cycles (~6.2 ms) total.
   - Barrier release stagger delta ~175 cycles/position reproduces the
     group-size-dependent bias of Figs 11/12 (~4.5e4 cycles at 255). *)

let phi =
  {
    name = "phi";
    ghz = 1.3;
    num_cpus = 256;
    cores = 64;
    boot_skew_ns = 2_000_000;
    cal_error_mu = 300.;
    cal_error_sigma = 180.;
    apic_tick_ns = 25;
    tsc_deadline = false;
    ipi_latency = cost 2_000. 300.;
    irq_dispatch = cost 1_500. 350.;
    sched_pass = cost 3_000. 300.;
    ctx_switch = cost 1_200. 120.;
    sched_other = cost 300. 40.;
    admission_cost = cost 300_000. 15_000.;
    timer_program = cost 300. 30.;
    group_join_step = cost 1_000. 100.;
    group_elect_step = cost 160. 20.;
    group_admit_step = cost 14_000. 1_400.;
    phase_correct_step = cost 9_500. 950.;
    barrier_arrive = cost 300. 30.;
    barrier_release_step = cost 175. 15.;
    timer_fire_jitter_max = 300.;
    flop_cost = cost 4. 0.2;
    remote_write = cost 250. 30.;
    steal_check = cost 800. 100.;
  }

let r415 =
  {
    name = "r415";
    ghz = 2.2;
    num_cpus = 8;
    cores = 8;
    boot_skew_ns = 400_000;
    cal_error_mu = 150.;
    cal_error_sigma = 80.;
    apic_tick_ns = 10;
    tsc_deadline = false;
    ipi_latency = cost 1_200. 200.;
    irq_dispatch = cost 900. 200.;
    sched_pass = cost 1_700. 180.;
    ctx_switch = cost 800. 90.;
    sched_other = cost 200. 30.;
    admission_cost = cost 220_000. 11_000.;
    timer_program = cost 200. 20.;
    group_join_step = cost 700. 70.;
    group_elect_step = cost 120. 15.;
    group_admit_step = cost 9_000. 900.;
    phase_correct_step = cost 6_000. 600.;
    barrier_arrive = cost 180. 20.;
    barrier_release_step = cost 120. 12.;
    timer_fire_jitter_max = 180.;
    flop_cost = cost 2. 0.1;
    remote_write = cost 120. 15.;
    steal_check = cost 500. 60.;
  }

(* [cycles_to_ns], [sample_cycles] and [sample] are inlined so that a cost
   draw reaches its caller as an unboxed int64 (the float and the int64 of
   every hop would otherwise be boxed). *)
let[@inline] cycles_to_ns t cycles =
  if cycles <= 0. then 0L
  else Int64.of_float (Float.max 1. (Float.ceil (cycles /. t.ghz)))

let ns_to_cycles t ns = Int64.to_float ns *. t.ghz

let[@inline] sample_cycles t rng c =
  ignore t;
  if c.sigma_cycles <= 0. then c.mean_cycles
  else begin
    let x = Rng.gaussian rng ~mu:c.mean_cycles ~sigma:c.sigma_cycles in
    Float.max (c.mean_cycles /. 4.) x
  end

let[@inline] sample t rng c = cycles_to_ns t (sample_cycles t rng c)

let pp fmt t =
  Format.fprintf fmt "%s: %d CPUs (%d cores) @ %.1f GHz" t.name t.num_cpus
    t.cores t.ghz
