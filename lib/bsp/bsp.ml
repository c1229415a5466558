open Hrt_engine
open Hrt_hw
open Hrt_core
open Hrt_group

type params = {
  cpus : int;
  ne : int;
  nc : int;
  nw : int;
  iters : int;
  barrier : bool;
}

(* Granularities calibrated so that, on the Phi platform, one iteration's
   work is ~8-12 us (finest) or ~500 us (coarsest), matching the regimes
   of Figs 13-16. *)
let fine_grain ~cpus ~barrier =
  { cpus; ne = 200; nc = 10; nw = 16; iters = 1000; barrier }

let coarse_grain ~cpus ~barrier =
  { cpus; ne = 2500; nc = 65; nw = 64; iters = 400; barrier }

type mode =
  | Aperiodic
  | Rt of { period : Time.ns; slice : Time.ns; phase_correction : bool }

type result = {
  exec_time : Time.ns;
  start_time : Time.ns;
  end_time : Time.ns;
  iterations_done : int;
  misses : int;
  checksum : float;
  admitted : bool;
}

let iteration_cost_model (plat : Platform.t) p =
  let flops = float_of_int (p.ne * p.nc) in
  let writes = float_of_int p.nw in
  let mean =
    (flops *. plat.Platform.flop_cost.Platform.mean_cycles)
    +. (writes *. plat.Platform.remote_write.Platform.mean_cycles)
  in
  let sigma =
    (sqrt flops *. plat.Platform.flop_cost.Platform.sigma_cycles)
    +. (sqrt writes *. plat.Platform.remote_write.Platform.sigma_cycles)
  in
  Platform.cost mean sigma

let work_per_iteration plat p =
  Platform.cycles_to_ns plat (iteration_cost_model plat p).Platform.mean_cycles

type shared_state = {
  domain : float array;  (* cpus * ne doubles *)
  mutable started : int;
  mutable finished : int;
  mutable first_start : Time.ns;
  mutable last_end : Time.ns;
  mutable iterations_done : int;
  mutable admitted_all : bool;
}

(* One worker's iteration loop as a hand-rolled state machine: compute,
   apply remote writes (ring pattern), optionally cross the barrier. The
   state lives in one record per worker and the barrier crossing is
   re-armed, not rebuilt, so a body call allocates only its op. *)
type worker = {
  sys : Scheduler.t;
  shared : shared_state;
  p : params;
  iter_cost : Platform.cost;
  my_base : int;
  neighbour_base : int;
  crossing : Gbarrier.crossing;
  mutable iter : int;
  mutable stage : [ `Compute | `Update | `Barrier ];
  mutable recorded_start : bool;
}

let rec worker_step w ({ Thread.svc; self } as ctx : Thread.ctx) =
  let shared = w.shared and p = w.p in
  if w.iter >= p.iters then begin
    let now = svc.Thread.now () in
    shared.finished <- shared.finished + 1;
    if Time.(now > shared.last_end) then shared.last_end <- now;
    if shared.finished = p.cpus then Engine.stop (Scheduler.engine w.sys);
    Thread.Exit
  end
  else begin
    match w.stage with
    | `Compute ->
      w.stage <- `Update;
      Thread.Compute (svc.Thread.sample self w.iter_cost)
    | `Update ->
      (* compute_local_element over the local region, then remote
         writes into the ring neighbour's region. *)
      for j = 0 to Stdlib.min (p.ne - 1) 63 do
        let idx = w.my_base + j in
        shared.domain.(idx) <-
          (shared.domain.(idx) *. 0.5) +. float_of_int ((w.iter + j) mod 7)
      done;
      for k = 0 to p.nw - 1 do
        let idx = w.neighbour_base + (k mod p.ne) in
        shared.domain.(idx) <- shared.domain.(idx) +. 1.0
      done;
      shared.iterations_done <- shared.iterations_done + 1;
      if p.barrier then begin
        Gbarrier.rearm w.crossing;
        w.stage <- `Barrier
      end
      else begin
        w.iter <- w.iter + 1;
        w.stage <- `Compute
      end;
      worker_step w ctx
    | `Barrier -> (
      match Gbarrier.step w.crossing ctx with
      | Thread.Exit ->
        w.iter <- w.iter + 1;
        w.stage <- `Compute;
        worker_step w ctx
      | op -> op)
  end

let worker_loop sys shared p ~index ~iter_cost ~barrier_for =
  let w =
    {
      sys;
      shared;
      p;
      iter_cost;
      my_base = index * p.ne;
      neighbour_base = (index + 1) mod p.cpus * p.ne;
      crossing = Gbarrier.crossing barrier_for;
      iter = 0;
      stage = `Compute;
      recorded_start = false;
    }
  in
  fun ({ Thread.svc; _ } as ctx : Thread.ctx) ->
    if not w.recorded_start then begin
      w.recorded_start <- true;
      let now = svc.Thread.now () in
      if shared.started = 0 then shared.first_start <- now;
      shared.started <- shared.started + 1
    end;
    worker_step w ctx

let run ?(seed = 42L) ?(platform = Platform.phi) ?(until = Time.sec 100)
    ?(policy = Config.Edf) ?obs p mode =
  if p.cpus < 1 then invalid_arg "Bsp.run: cpus < 1";
  let config =
    { Config.default with Config.strict_reservations = false; policy }
  in
  let sys =
    Scheduler.create ~seed ~num_cpus:(p.cpus + 1) ~config ?obs platform
  in
  let shared =
    {
      domain = Array.make (p.cpus * p.ne) 0.;
      started = 0;
      finished = 0;
      first_start = 0L;
      last_end = 0L;
      iterations_done = 0;
      admitted_all = true;
    }
  in
  let iter_cost = iteration_cost_model platform p in
  let barrier = Gbarrier.create sys ~parties:p.cpus in
  let start_barrier = Gbarrier.create sys ~parties:p.cpus in
  let group = Group.create sys ~name:"bsp" in
  let session = ref None in
  let prelude index =
    match mode with
    | Aperiodic -> [ Gbarrier.cross start_barrier ]
    | Rt { period; slice; phase_correction } ->
      [
        Group.join group;
        Gbarrier.cross start_barrier;
        (fun _ctx ->
          (if !session = None then
             session :=
               Some
                 (Group_sched.prepare ~phase_correction group
                    (Constraints.periodic ~period ~slice ())));
          ignore index;
          Thread.Exit);
        (let body = ref None in
         fun ctx ->
           let b =
             match !body with
             | Some b -> b
             | None ->
               let b =
                 Group_sched.change_constraints (Option.get !session)
                   ~on_result:(fun v ->
                     if not (Admission.admitted v) then
                       shared.admitted_all <- false)
               in
               body := Some b;
               b
           in
           b ctx);
      ]
  in
  for i = 0 to p.cpus - 1 do
    let cpu = i + 1 in
    ignore
      (Scheduler.spawn sys ~name:(Printf.sprintf "bsp-%d" i) ~cpu ~bound:true
         (Program.seq
            (prelude i
            @ [ worker_loop sys shared p ~index:i ~iter_cost ~barrier_for:barrier ])))
  done;
  let miss_before = Scheduler.total_misses sys in
  Scheduler.run ~until sys;
  let checksum = Array.fold_left ( +. ) 0. shared.domain in
  {
    exec_time =
      (if Time.(shared.last_end > shared.first_start) then
         Time.(shared.last_end - shared.first_start)
       else 0L);
    start_time = shared.first_start;
    end_time = shared.last_end;
    iterations_done = shared.iterations_done;
    misses = Scheduler.total_misses sys - miss_before;
    checksum;
    admitted = shared.admitted_all;
  }
