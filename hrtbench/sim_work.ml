(* The sim-* workloads: the paper's miss-rate grids (Figs 6/7) and the
   fine-grain BSP barrier sweep (Figs 13-16), fanned over domains with
   Exp.parallel_map and checked point by point against a jobs=1 pass. *)

open Hrt_engine
open Hrt_harness
open Hrt_bsp
open Common

type kind = Missrate | Bsp_sweep

type job =
  | Point of { platform : Hrt_hw.Platform.t; period_us : int; slice_pct : int }
  | Bsp_run of { period_us : int; slice_pct : int; barrier : bool }

type out = Pt of Miss_sweep.point | Run of Bsp.result

(* What one job did, measured around the call. Counters come from the
   job's own metrics-only sink and are zero when the sink is off. *)
type done_job = {
  out : out;
  start_ns : int64;
  stop_ns : int64;
  domain : int;
  minor_words : float;
  events : float;
  sim_ns : float;
  passes : int;
  misses : int;
  releases : int;
}

let grid platform periods =
  List.concat_map
    (fun period_us ->
      List.map
        (fun slice_pct -> Point { platform; period_us; slice_pct })
        Miss_sweep.slices)
    periods

let missrate_jobs =
  grid Hrt_hw.Platform.phi Miss_sweep.phi_periods
  @ grid Hrt_hw.Platform.r415 Miss_sweep.r415_periods

let bsp_jobs =
  List.concat_map
    (fun period_us ->
      List.concat_map
        (fun slice_pct ->
          [
            Bsp_run { period_us; slice_pct; barrier = true };
            Bsp_run { period_us; slice_pct; barrier = false };
          ])
        [ 30; 50; 70; 90 ])
    [ 100; 500; 1000 ]

let jobs_of = function Missrate -> missrate_jobs | Bsp_sweep -> bsp_jobs

(* Small slices of the other kind's grid, so a traced run of one sim
   workload still reports every layer (see README, "Probes"). *)
let probe_jobs = function
  | Missrate -> grid Hrt_hw.Platform.phi [ 1000 ]
  | Bsp_sweep ->
    [
      Bsp_run { period_us = 1000; slice_pct = 50; barrier = true };
      Bsp_run { period_us = 1000; slice_pct = 50; barrier = false };
    ]

let bsp_params scale ~barrier =
  let p = Bsp.fine_grain ~cpus:(Exp.cpus scale 24 255) ~barrier in
  { p with Bsp.iters = Exp.cpus scale 20 200 }

let sum_counter metrics name =
  List.fold_left
    (fun acc row ->
      match row with
      | n :: _ :: "counter" :: count :: _ when String.equal n name ->
        acc + int_of_string count
      | _ -> acc)
    0
    (Hrt_obs.Metrics.rows metrics)

let run_job ~traced (ctx : Exp.Ctx.t) job =
  let sink =
    if traced then Hrt_obs.Sink.create ~trace:false () else Hrt_obs.Sink.null
  in
  let ctx = Exp.Ctx.with_jobs (Exp.Ctx.with_sink ctx sink) 1 in
  let w0 = Gc.minor_words () in
  let start_ns = now_ns () in
  let out =
    match job with
    | Point { platform; period_us; slice_pct } -> (
      match
        Miss_sweep.sweep ~ctx ~platform ~periods_us:[ period_us ]
          ~slices_pct:[ slice_pct ] ()
      with
      | [ p ] -> Pt p
      | _ -> failwith "one-point sweep returned another shape")
    | Bsp_run { period_us; slice_pct; barrier } ->
      let period = Time.us period_us in
      let slice = Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L in
      Run
        (Bsp.run ~seed:ctx.Exp.Ctx.seed ~policy:ctx.Exp.Ctx.policy ~obs:sink
           (bsp_params ctx.Exp.Ctx.scale ~barrier)
           (Bsp.Rt { period; slice; phase_correction = true }))
  in
  let stop_ns = now_ns () in
  let minor_words = Gc.minor_words () -. w0 in
  let m = Hrt_obs.Sink.metrics sink in
  let gauge name =
    if traced then Hrt_obs.Metrics.gauge_value (Hrt_obs.Metrics.gauge m name)
    else 0.
  in
  let count name = if traced then sum_counter m name else 0 in
  {
    out;
    start_ns;
    stop_ns;
    domain = (Domain.self () :> int);
    minor_words;
    events = gauge "engine.events_executed";
    sim_ns = gauge "engine.sim_time_ns";
    passes = count "sched.pass";
    misses = count "sched.deadline_miss";
    releases = count "barrier.release";
  }

type sweep = { wall_s : float; results : done_job array }

let sweep ~scale ~seed ~jobs ~traced job_list =
  let ctx = Exp.Ctx.make ~seed ~scale ~jobs () in
  let t0 = now_ns () in
  let results = Exp.parallel_map ctx (run_job ~traced) job_list in
  { wall_s = seconds_since t0; results = Array.of_list results }

let job_s d = ns_between d.start_ns d.stop_ns /. 1e9

(* ---- correctness: byte-for-byte against the jobs=1 reference ---- *)

(* Every field that defines a result, floats in hex so equality is exact. *)
let key = function
  | Pt p ->
    Printf.sprintf "pt %Ld %d %d %d %h %h %h" p.Miss_sweep.period p.slice_pct
      p.arrivals p.misses p.miss_rate p.miss_mean_us p.miss_std_us
  | Run r ->
    Printf.sprintf "bsp %Ld %d %d %h %b" r.Bsp.exec_time r.iterations_done
      r.misses r.checksum r.admitted

let invariant scale = function
  | Pt p -> p.Miss_sweep.arrivals > 0 && p.misses <= p.arrivals
  | Run r ->
    let p = bsp_params scale ~barrier:true in
    r.Bsp.admitted && r.iterations_done = p.Bsp.cpus * p.Bsp.iters

let points outs = List.filter_map (function Pt p -> Some p | Run _ -> None) outs

(* The rendered output a user of the sweep sees: the figure tables for the
   miss-rate grids, one key line per run for BSP. *)
let render kind outs =
  match kind with
  | Missrate ->
    let pts = points outs in
    let n_phi = List.length (grid Hrt_hw.Platform.phi Miss_sweep.phi_periods) in
    let phi = List.filteri (fun i _ -> i < n_phi) pts in
    let r415 = List.filteri (fun i _ -> i >= n_phi) pts in
    String.concat "\n"
      (List.map Hrt_stats.Table.render
         [
           Miss_sweep.rate_table ~title:"Fig 6" phi;
           Miss_sweep.miss_time_table ~title:"Fig 6" phi;
           Miss_sweep.rate_table ~title:"Fig 7" r415;
           Miss_sweep.miss_time_table ~title:"Fig 7" r415;
         ])
  | Bsp_sweep -> String.concat "\n" (List.map key outs)

(* The reference goes through the library's own entry points at jobs=1:
   Miss_sweep.sweep over each whole grid, or Bsp.run job by job. *)
let reference kind ~scale ~seed =
  match kind with
  | Missrate ->
    let ctx = Exp.Ctx.make ~seed ~scale ~jobs:1 () in
    let full platform periods_us =
      Miss_sweep.sweep ~ctx ~platform ~periods_us
        ~slices_pct:Miss_sweep.slices ()
    in
    List.map
      (fun p -> Pt p)
      (full Hrt_hw.Platform.phi Miss_sweep.phi_periods
      @ full Hrt_hw.Platform.r415 Miss_sweep.r415_periods)
  | Bsp_sweep ->
    Array.to_list
      (Array.map
         (fun d -> d.out)
         (sweep ~scale ~seed ~jobs:1 ~traced:false bsp_jobs).results)

(* Points that differ from the reference or break an invariant, plus one
   if the rendered output differs anyway. *)
let mismatches kind ~scale ~reference s =
  let outs = Array.to_list (Array.map (fun d -> d.out) s.results) in
  let bad =
    List.fold_left2
      (fun n r o ->
        if String.equal (key r) (key o) && invariant scale o then n else n + 1)
      0 reference outs
  in
  if bad = 0 && not (String.equal (render kind reference) (render kind outs))
  then 1
  else bad

(* ---- timed run ---- *)

type timed = {
  setup_s : float;
  sweep_s : float;  (** fastest timed repeat *)
  job_ms : float array;  (** per job: fastest over the timed repeats *)
  repeats : int;
  rss_mb : float;
  digest : string;
  attempted : int;
  failed : int;
}

let setups = 3
let jobs = 2

let timed kind ~seed ~seconds ~quick =
  let scale = if quick then Exp.Quick else Exp.Full in
  let job_list = jobs_of kind in
  (* Set-up: the jobs=1 reference pass, which also warms the process; it
     is repeated and every pass must render identically. *)
  let refs =
    List.init (if quick then 1 else setups) (fun _ ->
        let t0 = now_ns () in
        let r = reference kind ~scale ~seed in
        (r, seconds_since t0))
  in
  let reference = fst (List.hd refs) in
  let rendered = render kind reference in
  let ref_failed =
    List.length
      (List.filter
         (fun (r, _) -> not (String.equal (render kind r) rendered))
         refs)
  in
  (* Peak RSS is read after the first timed sweep, a fixed amount of work;
     how many repeats fit in [seconds] depends on the machine. *)
  let t0 = now_ns () in
  let first = sweep ~scale ~seed ~jobs ~traced:false job_list in
  let rss_mb = vm_hwm_mb "self" in
  let rec repeat acc =
    if quick || seconds_since t0 >= seconds then List.rev acc
    else repeat (sweep ~scale ~seed ~jobs ~traced:false job_list :: acc)
  in
  let runs = first :: repeat [] in
  let failed =
    List.fold_left (fun n s -> n + mismatches kind ~scale ~reference s) 0 runs
  in
  (* Best of the repeats, per sweep and per job: interference from the
     host only ever makes a run slower. *)
  let best f =
    List.fold_left (fun acc s -> Float.min acc (f s)) infinity runs
  in
  let job_ms =
    Array.init (List.length job_list) (fun i ->
        best (fun s -> job_s s.results.(i) *. 1e3))
  in
  {
    setup_s = median (Array.of_list (List.map snd refs));
    sweep_s = best (fun s -> s.wall_s);
    job_ms;
    repeats = List.length runs;
    rss_mb;
    digest = Digest.to_hex (Digest.string rendered);
    attempted = (List.length runs * List.length job_list) + List.length refs;
    failed = failed + ref_failed;
  }

(* ---- traced run ---- *)

let zip job_list (s : sweep) = List.combine job_list (Array.to_list s.results)

(* Parallel efficiency (busy time over jobs x wall) and straggler ratio
   (slowest job over the mean job) of one fan-out. *)
let par_metrics (s : sweep) =
  let times = Array.map job_s s.results in
  let busy = Array.fold_left ( +. ) 0. times in
  let slowest = Array.fold_left Float.max 0. times in
  [
    m "par.efficiency" (busy /. (float_of_int jobs *. s.wall_s)) "ratio";
    m "par.straggler_ratio" (slowest /. mean times) "ratio";
  ]

let engine_metrics pairs =
  let xs =
    List.filter_map
      (fun (job, d) -> match job with Point _ -> Some d | Bsp_run _ -> None)
      pairs
  in
  let total f = List.fold_left (fun acc d -> acc +. f d) 0. xs in
  let events = total (fun d -> d.events) in
  let host_ns = total (fun d -> ns_between d.start_ns d.stop_ns) in
  let sim_ms = total (fun d -> d.sim_ns) /. 1e6 in
  [
    m "engine.events" events "count";
    m "engine.ns_per_event" (host_ns /. events) "ns";
    m "engine.minor_words_per_event"
      (total (fun d -> d.minor_words) /. events)
      "words";
    m "sched.passes" (total (fun d -> float_of_int d.passes)) "count";
    m "sched.misses" (total (fun d -> float_of_int d.misses)) "count";
    m "sched.host_us_per_sim_ms" (host_ns /. 1e3 /. sim_ms) "us";
  ]

let bsp_metrics pairs =
  let runs barrier =
    List.filter_map
      (fun (job, d) ->
        match job with
        | Bsp_run { barrier = b; _ } when b = barrier -> Some d
        | Bsp_run _ | Point _ -> None)
      pairs
  in
  let ms barrier =
    median (Array.of_list (List.map (fun d -> job_s d *. 1e3) (runs barrier)))
  in
  let releases =
    List.fold_left (fun n d -> n + d.releases) 0 (runs true @ runs false)
  in
  [
    m "bsp.run_barrier_ms" (ms true) "ms";
    m "bsp.run_nobarrier_ms" (ms false) "ms";
    m "barrier.releases" (float_of_int releases) "count";
  ]

let job_name = function Point _ -> "job.missrate" | Bsp_run _ -> "job.bsp"

let add_job_spans spans job_list (s : sweep) =
  List.iteri
    (fun req (job, d) ->
      Spans.add spans ~name:(job_name job) ~req ~tid:d.domain
        ~start_ns:d.start_ns ~stop_ns:d.stop_ns)
    (zip job_list s)

type profile = {
  metrics : metric list;
  overhead_ratio : float;  (** traced / untraced sweep wall, own grid only *)
  attempted : int;
  failed : int;
}

(* One traced sweep of the workload's own grid (after an untraced warm-up
   pass, which is the reference, and an untraced timed pass), then a
   traced sweep of the probe grid for the layers the workload does not
   reach. [own = None] (a serve workload) runs the probes alone. *)
let profile own ~spans ~seed ~scale =
  let run ~traced job_list = sweep ~scale ~seed ~jobs ~traced job_list in
  let own_jobs, probes =
    match own with
    | Some Missrate -> (missrate_jobs, probe_jobs Bsp_sweep)
    | Some Bsp_sweep -> (bsp_jobs, probe_jobs Missrate)
    | None -> ([], probe_jobs Missrate @ probe_jobs Bsp_sweep)
  in
  let probe = run ~traced:true probes in
  add_job_spans spans probes probe;
  let probe_failed =
    Array.fold_left
      (fun n d -> if invariant scale d.out then n else n + 1)
      0 probe.results
  in
  let outs s = Array.to_list (Array.map (fun d -> d.out) s.results) in
  match own with
  | None ->
    {
      metrics =
        engine_metrics (zip probes probe)
        @ bsp_metrics (zip probes probe)
        @ par_metrics probe;
      overhead_ratio = nan;
      attempted = List.length probes;
      failed = probe_failed;
    }
  | Some kind ->
    let reference = outs (run ~traced:false own_jobs) in
    let plain = run ~traced:false own_jobs in
    let traced = run ~traced:true own_jobs in
    add_job_spans spans own_jobs traced;
    let pairs = zip own_jobs traced @ zip probes probe in
    {
      metrics = engine_metrics pairs @ bsp_metrics pairs @ par_metrics traced;
      overhead_ratio = traced.wall_s /. plain.wall_s;
      attempted = List.length probes + (2 * List.length own_jobs);
      failed =
        probe_failed
        + mismatches kind ~scale ~reference plain
        + mismatches kind ~scale ~reference traced;
    }
