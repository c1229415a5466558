(* Determinism golden tests: the scheduler is a deterministic discrete-event
   simulation, so the same seed must give the same results — run to run,
   across refactors, and for any parallel job count (the sweep runner
   merges results by submission index). The pinned numbers below were
   captured from the pre-policy-refactor scheduler; the EDF policy must
   reproduce them bit-for-bit (the policy-layer refactor's safety net). *)

open Hrt_harness

let small_sweep ?(jobs = 1) ?sink () =
  let ctx = Exp.Ctx.make ~scale:Exp.Quick ?sink ~jobs () in
  Miss_sweep.sweep ~ctx ~platform:Hrt_hw.Platform.phi
    ~periods_us:[ 1000; 100; 10 ] ~slices_pct:[ 20; 50 ] ()

let csv_bytes points =
  let table = Miss_sweep.rate_table ~title:"golden" points in
  let path = Filename.temp_file "hrt_golden" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Hrt_stats.Csv.write ~path
        ~header:(Hrt_stats.Table.headers table)
        (Hrt_stats.Table.to_rows table);
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let test_same_seed_same_csv () =
  let a = csv_bytes (small_sweep ()) in
  let b = csv_bytes (small_sweep ()) in
  Alcotest.(check string) "identical CSV bytes" a b

(* (period us, slice %, arrivals, misses) captured at Quick scale (30 ms
   horizon), seed 42, Phi platform, admission control off. *)
let pinned =
  [
    (1000, 20, 30, 0);
    (1000, 50, 30, 0);
    (100, 20, 298, 0);
    (100, 50, 298, 0);
    (10, 20, 2741, 2366);
    (10, 50, 1930, 1747);
  ]

let test_pinned_counts () =
  let points = small_sweep () in
  List.iter
    (fun (period_us, slice_pct, arrivals, misses) ->
      let p =
        List.find
          (fun (x : Miss_sweep.point) ->
            Int64.equal x.Miss_sweep.period (Hrt_engine.Time.us period_us)
            && x.Miss_sweep.slice_pct = slice_pct)
          points
      in
      let label = Printf.sprintf "%dus/%d%%" period_us slice_pct in
      Alcotest.(check int) (label ^ " arrivals") arrivals p.Miss_sweep.arrivals;
      Alcotest.(check int) (label ^ " misses") misses p.Miss_sweep.misses)
    pinned

(* The tentpole guarantee: fanning the sweep across domains changes
   nothing — not the CSV bytes, and not even the metrics stream when an
   enabled sink is threaded through (child sinks are absorbed back in
   submission order). *)

let test_parallel_csv_identical () =
  let seq = csv_bytes (small_sweep ~jobs:1 ()) in
  let par = csv_bytes (small_sweep ~jobs:4 ()) in
  Alcotest.(check string) "jobs=1 and jobs=4 CSV bytes" seq par

let test_parallel_metrics_identical () =
  let metrics_rows jobs =
    let sink = Hrt_obs.Sink.create () in
    ignore (small_sweep ~jobs ~sink ());
    Hrt_obs.Metrics.rows (Hrt_obs.Sink.metrics sink)
  in
  Alcotest.(check (list (list string)))
    "jobs=1 and jobs=4 metrics rows" (metrics_rows 1) (metrics_rows 4)

(* Tiny BSP grid: 4 workers, 20 iterations per point at Quick scale. *)
let bsp_params ~cpus:_ ~barrier =
  { (Hrt_bsp.Bsp.fine_grain ~cpus:4 ~barrier) with Hrt_bsp.Bsp.iters = 40 }

let test_parallel_bsp_identical () =
  let rows jobs =
    let ctx = Exp.Ctx.make ~scale:Exp.Quick ~jobs () in
    Bsp_sweep.sweep ~ctx ~params:bsp_params ~barrier:true ~no_barrier:false ()
  in
  let seq = rows 1 and par = rows 4 in
  Alcotest.(check int) "same row count" (List.length seq) (List.length par);
  Alcotest.(check bool) "jobs=1 and jobs=4 rows structurally equal" true
    (seq = par)

(* Fig 5 runs one job per platform. Its tables read the same at any job
   count: each job returns its platform's account, and the rows are added
   in submission order rather than as the jobs finish. *)
let test_parallel_fig5_identical () =
  let rows jobs =
    let ctx = Exp.Ctx.make ~scale:Exp.Quick ~jobs () in
    List.map Hrt_stats.Table.to_rows (Fig05.run ~ctx ())
  in
  Alcotest.(check (list (list (list string))))
    "jobs=1 and jobs=4 Fig 5 rows" (rows 1) (rows 4)

(* Bit-exact digests of whole sweeps, captured before the scheduler pass
   was taken off the minor heap: every field of every point or run,
   floats in hex, hashed with MD5. The pinned counts above only catch a
   change in arrivals or misses; these catch one flipped bit in a miss
   time, a checksum or an execution time. *)
let digest keys = Digest.to_hex (Digest.string (String.concat "\n" keys))

let point_key (p : Miss_sweep.point) =
  Printf.sprintf "pt %Ld %d %d %d %h %h %h" p.period p.slice_pct p.arrivals
    p.misses p.miss_rate p.miss_mean_us p.miss_std_us

let bsp_key (r : Hrt_bsp.Bsp.result) =
  Printf.sprintf "bsp %Ld %Ld %Ld %d %d %h %b" r.exec_time r.start_time
    r.end_time r.iterations_done r.misses r.checksum r.admitted

let test_missrate_digest () =
  let ctx = Exp.Ctx.make ~scale:Exp.Quick () in
  let points = Fig06.points ~ctx () @ Fig07.points ~ctx () in
  Alcotest.(check int) "135 points" 135 (List.length points);
  Alcotest.(check string) "Quick Fig 6 + Fig 7 digest, seed 42"
    "d4b21da4780f0ce3c09bb0cca9eee8dc"
    (digest (List.map point_key points))

(* The Quick sim-bsp configuration (24 workers, 20 iterations) at a 100 us
   period and 50 % slice, with and without the barrier. *)
let test_bsp_digest () =
  let run barrier =
    let p = { (Hrt_bsp.Bsp.fine_grain ~cpus:24 ~barrier) with Hrt_bsp.Bsp.iters = 20 } in
    Hrt_bsp.Bsp.run p
      (Hrt_bsp.Bsp.Rt
         {
           period = Hrt_engine.Time.us 100;
           slice = Hrt_engine.Time.us 50;
           phase_correction = true;
         })
  in
  Alcotest.(check string) "Quick BSP pair digest, seed 42"
    "92feb89eb2618b6a33ac81f1c676d523"
    (digest [ bsp_key (run true); bsp_key (run false) ])

let suite =
  [
    Alcotest.test_case "same seed, same CSV bytes" `Quick test_same_seed_same_csv;
    Alcotest.test_case "pinned pre-refactor miss counts" `Quick test_pinned_counts;
    Alcotest.test_case "parallel sweep: CSV identical" `Quick test_parallel_csv_identical;
    Alcotest.test_case "parallel sweep: metrics identical" `Quick test_parallel_metrics_identical;
    Alcotest.test_case "parallel BSP sweep: rows identical" `Quick test_parallel_bsp_identical;
    Alcotest.test_case "parallel Fig 5: rows identical" `Quick test_parallel_fig5_identical;
    Alcotest.test_case "miss-rate sweeps: bit-exact digest" `Quick test_missrate_digest;
    Alcotest.test_case "BSP pair: bit-exact digest" `Quick test_bsp_digest;
  ]
