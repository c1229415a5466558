(* The experiment harness itself: each figure's headline claim holds at
   Quick scale, and the registry is well-formed. *)

open Hrt_harness

let test_registry_well_formed () =
  let names = List.map (fun e -> e.Registry.name) Registry.all in
  Alcotest.(check int) "21 experiments" 21 (List.length names);
  Alcotest.(check (list string)) "unique names" (List.sort_uniq compare names)
    (List.sort compare names);
  Alcotest.(check bool) "find works" true (Registry.find "fig6" <> None);
  Alcotest.(check bool) "policy ablation listed" true
    (Registry.find "ablation-policy" <> None);
  Alcotest.(check bool) "find rejects junk" true (Registry.find "fig99" = None)

let test_fig3_within_1000_cycles () =
  let sys = Hrt_core.Scheduler.create ~num_cpus:256 Hrt_hw.Platform.phi in
  match Hrt_core.Scheduler.calibration sys with
  | None -> Alcotest.fail "no calibration"
  | Some r ->
    Array.iter
      (fun c ->
        Alcotest.(check bool) "residual < 1000 cycles" true (Float.abs c < 1000.))
      r.Hrt_core.Sync_cal.residual_cycles

let test_fig5_totals () =
  let phi_acc = Fig05.measure Hrt_hw.Platform.phi in
  let r415_acc = Fig05.measure Hrt_hw.Platform.r415 in
  let phi_total = Hrt_core.Account.total_overhead_cycles phi_acc in
  let r415_total = Hrt_core.Account.total_overhead_cycles r415_acc in
  Alcotest.(check bool) "phi ~6000 cycles" true
    (phi_total > 5_000. && phi_total < 7_500.);
  Alcotest.(check bool) "r415 cheaper" true (r415_total < phi_total);
  (* About half the overhead is the scheduling pass (paper Section 5.3). *)
  let pass = Hrt_stats.Summary.mean (Hrt_core.Account.resched_cycles phi_acc) in
  Alcotest.(check bool) "pass ~ half" true
    (pass /. phi_total > 0.35 && pass /. phi_total < 0.60)

let test_fig6_feasibility_edge () =
  let points =
    Miss_sweep.sweep ~ctx:(Exp.Ctx.quick ()) ~platform:Hrt_hw.Platform.phi
      ~periods_us:[ 1000; 100; 10 ] ~slices_pct:[ 20; 50 ] ()
  in
  let rate p s =
    let pt =
      List.find
        (fun (x : Miss_sweep.point) ->
          Int64.equal x.Miss_sweep.period (Hrt_engine.Time.us p)
          && x.Miss_sweep.slice_pct = s)
        points
    in
    pt.Miss_sweep.miss_rate
  in
  Alcotest.(check (float 0.)) "1ms/50% zero" 0. (rate 1000 50);
  Alcotest.(check (float 0.)) "100us/50% zero" 0. (rate 100 50);
  Alcotest.(check bool) "10us/50% beyond the edge" true (rate 10 50 > 0.5);
  Alcotest.(check bool) "10us/20% beyond the edge" true (rate 10 20 > 0.5)

let test_fig7_r415_finer_edge () =
  (* 10us/50% misses on Phi but works on the faster R415 (edge ~4us). *)
  let phi =
    Miss_sweep.sweep ~ctx:(Exp.Ctx.quick ()) ~platform:Hrt_hw.Platform.phi
      ~periods_us:[ 10 ] ~slices_pct:[ 40 ] ()
  in
  let r415 =
    Miss_sweep.sweep ~ctx:(Exp.Ctx.quick ()) ~platform:Hrt_hw.Platform.r415
      ~periods_us:[ 10 ] ~slices_pct:[ 40 ] ()
  in
  Alcotest.(check bool) "phi misses" true
    ((List.hd phi).Miss_sweep.miss_rate > 0.5);
  Alcotest.(check bool) "r415 essentially feasible" true
    ((List.hd r415).Miss_sweep.miss_rate < 0.02)

let test_fig8_miss_times_small () =
  let points =
    Miss_sweep.sweep ~ctx:(Exp.Ctx.quick ()) ~platform:Hrt_hw.Platform.phi
      ~periods_us:[ 10; 20 ] ~slices_pct:[ 50; 90 ] ()
  in
  List.iter
    (fun (p : Miss_sweep.point) ->
      if p.Miss_sweep.misses > 0 then
        Alcotest.(check bool) "misses are microseconds, not periods" true
          (p.Miss_sweep.miss_mean_us < 25.))
    points

let test_fig12_bias_grows_and_correction_works () =
  let mean data = Hrt_stats.Summary.mean (Hrt_stats.Summary.of_array data) in
  let ctx = Exp.Ctx.quick () in
  let raw8 = mean (Fig11.collect ~ctx ~workers:8 ~phase_correction:false ()) in
  let raw32 = mean (Fig11.collect ~ctx ~workers:32 ~phase_correction:false ()) in
  let fix32 = mean (Fig11.collect ~ctx ~workers:32 ~phase_correction:true ()) in
  Alcotest.(check bool) "bias grows with group size" true (raw32 > raw8 *. 1.2);
  Alcotest.(check bool) "correction removes most of it" true (fix32 < raw32 *. 0.85);
  Alcotest.(check bool) "residual is a few thousand cycles" true
    (fix32 > 1_000. && fix32 < 20_000.)

let test_ablation_eager_beats_lazy () =
  (* Reuse the ablation code path and check its verdict numerically. *)
  let tables = Ablations.eager_vs_lazy ~ctx:(Exp.Ctx.quick ()) () in
  Alcotest.(check int) "one table" 1 (List.length tables)

let test_ablation_policy_table () =
  (* Table-level shape; the numeric EDF/RM separation is asserted in
     test_policy.ml against edf_vs_rm_points. *)
  let tables = Ablations.edf_vs_rm ~ctx:(Exp.Ctx.quick ()) () in
  Alcotest.(check int) "one table" 1 (List.length tables);
  let t = List.hd tables in
  Alcotest.(check int) "six utilization points" 6 (Hrt_stats.Table.rows t)

let test_exp_ctx_default () =
  let ctx = Exp.Ctx.default () in
  Alcotest.(check bool) "default policy is EDF" true
    (ctx.Exp.Ctx.policy = Hrt_core.Config.Edf);
  Alcotest.(check bool) "default seed is the golden 42" true
    (Int64.equal ctx.Exp.Ctx.seed 42L);
  Alcotest.(check bool) "default sink is disabled" true
    (not (Hrt_obs.Sink.enabled ctx.Exp.Ctx.sink))

let test_exp_spread_collector () =
  let sys = Hrt_core.Scheduler.create ~num_cpus:5 Hrt_hw.Platform.phi in
  let period = Hrt_engine.Time.us 100 in
  let c =
    Exp.make_spread_collector sys ~workers:4 ~period
      ~settle:(Hrt_engine.Time.ms 2)
  in
  ignore
    (Exp.run_group_admission sys ~workers:4
       (Hrt_core.Constraints.periodic ~period ~slice:(Hrt_engine.Time.us 20) ())
       ());
  Hrt_core.Scheduler.run ~until:(Hrt_engine.Time.ms 20) sys;
  let sp = Exp.spreads c in
  Alcotest.(check bool) "collected spreads" true (Array.length sp > 50);
  Array.iter
    (fun s -> Alcotest.(check bool) "spread positive and sane" true (s >= 0. && s < 1e6))
    sp

(* An experiment keeps nothing of the systems it boots once it returns.
   Fig 10 creates a group per system; a process-wide group registry held
   every such group, its system and the sink in that system's context,
   for the life of the process. Jobs=1 hands the sink itself to every
   system (wider runs give each job a child sink). *)
let test_fig10_releases_its_systems () =
  let weak = Weak.create 1 in
  (let sink = Hrt_obs.Sink.create ~trace:false () in
   Weak.set weak 0 (Some sink);
   let ctx = Exp.Ctx.make ~scale:Exp.Quick ~sink ~jobs:1 () in
   ignore (Fig10.run ~ctx ()));
  Gc.full_major ();
  Alcotest.(check bool) "sink collected after the run" false
    (Weak.check weak 0)

(* A system run on a sink that outlives it leaves nothing behind on that
   sink: each [Scheduler.create] used to register a probe holding its
   engine (and, through the events still queued, the whole system) for
   the sink's life. *)
let[@inline never] run_and_drop sink weak =
  let sys = Hrt_core.Scheduler.create ~num_cpus:2 ~obs:sink Hrt_hw.Platform.phi in
  let period = Hrt_engine.Time.us 100 in
  ignore (Exp.periodic_thread sys ~cpu:1 ~period ~slice:(Hrt_engine.Time.us 50) ());
  Hrt_core.Scheduler.run ~until:(Hrt_engine.Time.ms 5) sys;
  Weak.set weak 0 (Some (Hrt_core.Scheduler.engine sys))

let test_dropped_system_collected () =
  let sink = Hrt_obs.Sink.create ~trace:false () in
  let weak = Weak.create 1 in
  run_and_drop sink weak;
  Gc.full_major ();
  Alcotest.(check bool) "engine collected" false (Weak.check weak 0);
  Alcotest.(check bool) "sink still live" true (Hrt_obs.Sink.enabled sink)

let test_light_experiments_produce_tables () =
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.fail ("missing " ^ name)
      | Some e ->
        let tables = e.Registry.run (Exp.Ctx.quick ()) in
        Alcotest.(check bool) (name ^ " has tables") true (List.length tables >= 1);
        List.iter
          (fun t ->
            Alcotest.(check bool) (name ^ " rows") true (Hrt_stats.Table.rows t > 0))
          tables)
    [ "fig3"; "fig4"; "fig5"; "ablation-steering"; "ablation-util" ]

let test_bsp_sweep_grids () =
  let quick = Bsp_sweep.combos ~scale:Exp.Quick in
  let full = Bsp_sweep.combos ~scale:Exp.Full in
  Alcotest.(check bool) "quick smaller than full" true
    (List.length quick < List.length full);
  Alcotest.(check int) "full grid 6x9" 54 (List.length full);
  List.iter
    (fun (p, s) ->
      Alcotest.(check bool) "slice within period" true
        Hrt_engine.Time.(s > 0L && s <= p))
    full;
  Alcotest.(check int) "paper-scale workers" 255 (Bsp_sweep.workers ~scale:Exp.Full)

let test_table_accessors () =
  let t =
    Hrt_stats.Table.create ~title:"x"
      ~columns:[ ("a", Hrt_stats.Table.Left); ("b", Hrt_stats.Table.Right) ]
  in
  Hrt_stats.Table.row t [ "1"; "2" ];
  Alcotest.(check string) "title" "x" (Hrt_stats.Table.title t);
  Alcotest.(check (list string)) "headers" [ "a"; "b" ] (Hrt_stats.Table.headers t);
  Alcotest.(check (list (list string))) "rows" [ [ "1"; "2" ] ]
    (Hrt_stats.Table.to_rows t)

let suite =
  [
    Alcotest.test_case "registry well-formed" `Quick test_registry_well_formed;
    Alcotest.test_case "fig3: all CPUs within 1000 cycles" `Quick test_fig3_within_1000_cycles;
    Alcotest.test_case "fig5: overhead magnitudes" `Quick test_fig5_totals;
    Alcotest.test_case "fig6: feasibility edge at ~10us" `Quick test_fig6_feasibility_edge;
    Alcotest.test_case "fig7: r415 finer edge" `Quick test_fig7_r415_finer_edge;
    Alcotest.test_case "fig8: miss times small" `Quick test_fig8_miss_times_small;
    Alcotest.test_case "fig12: bias grows, correction works" `Slow test_fig12_bias_grows_and_correction_works;
    Alcotest.test_case "ablation eager-vs-lazy runs" `Quick test_ablation_eager_beats_lazy;
    Alcotest.test_case "ablation edf-vs-rm table" `Quick test_ablation_policy_table;
    Alcotest.test_case "experiment ctx defaults" `Quick test_exp_ctx_default;
    Alcotest.test_case "spread collector" `Quick test_exp_spread_collector;
    Alcotest.test_case "fig10 releases its systems" `Quick
      test_fig10_releases_its_systems;
    Alcotest.test_case "a dropped system leaves its sink" `Quick
      test_dropped_system_collected;
    Alcotest.test_case "experiments produce tables" `Slow test_light_experiments_produce_tables;
    Alcotest.test_case "bsp sweep grids" `Quick test_bsp_sweep_grids;
    Alcotest.test_case "table accessors" `Quick test_table_accessors;
  ]
