(* The repository benchmark: one workload per process.

     hrtbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
              [--trace-out FILE]
     hrtbench daemon --socket PATH

   The first form runs workload W and prints one JSON object as the last
   line of standard output: the end-to-end metrics, or with --trace 1 the
   per-layer metrics of a separate traced run. The second form is the
   admission daemon the serve-* workloads spawn (hrtbench re-executes
   itself), configured as [hrt_sim serve --jobs 2]. README.md describes
   the workloads and metrics. *)

open Common

let workloads = [ "serve-warm"; "serve-mixed"; "sim-missrate"; "sim-bsp" ]
let work_dir = ".hrtbench"

let sim_kind = function
  | "sim-missrate" -> Some Sim_work.Missrate
  | "sim-bsp" -> Some Sim_work.Bsp_sweep
  | _ -> None

let socket_path workload =
  Filename.concat work_dir
    (Printf.sprintf "%s-%d.sock" workload (Unix.getpid ()))

let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d

let timed ~workload ~seed ~seconds ~quick =
  match sim_kind workload with
  | None ->
    let open_s, closed_s =
      if quick then (1., 1.) else (0.4 *. seconds, 0.6 *. seconds)
    in
    let r =
      Serve_work.timed ~seed ~mixed:(workload = "serve-mixed")
        ~socket:(socket_path workload) ~open_s ~closed_s
    in
    let st key = Printf.sprintf "%g" (Serve_work.stat r.daemon_stats key) in
    {
      attempted = r.tally.attempted;
      failed = r.tally.failed;
      wrong = r.tally.wrong;
      metrics =
        [
          m "setup_s" r.setup_s "s";
          m "throughput" r.qps "1/s";
          m "rss_peak_mb" r.rss_mb "MB";
        ];
      notes =
        [
          ("latency_p50_ms", Printf.sprintf "%.4f" r.p50_ms);
          ("latency_p90_ms", Printf.sprintf "%.4f" r.p90_ms);
          ("latency_p99_ms", Printf.sprintf "%.4f" r.p99_ms);
          ("latency_samples", string_of_int r.samples);
          ("loadgen_late_p99_ms", Printf.sprintf "%.3f" r.late_p99_ms);
          ("loadgen_late_max_ms", Printf.sprintf "%.3f" r.late_max_ms);
          ("new_sets_verified", string_of_int r.verified);
          ("daemon_hits", st "hits");
          ("daemon_misses", st "misses");
          ("daemon_evictions", st "evictions");
          ("daemon_shed", st "shed");
          ("daemon_expired", st "expired");
          ("daemon_p50_us", st "p50_us");
          ("daemon_p99_us", st "p99_us");
          ( "failed_ratio",
            Printf.sprintf "%g" (ratio r.tally.failed r.tally.attempted) );
        ];
    }
  | Some kind ->
    let r = Sim_work.timed kind ~seed ~seconds ~quick in
    {
      attempted = r.attempted;
      failed = r.failed;
      wrong = r.failed;
      metrics =
        [
          m "setup_s" r.setup_s "s";
          m "throughput"
            (float_of_int (Array.length r.job_ms) /. r.sweep_s)
            "1/s";
          m "rss_peak_mb" r.rss_mb "MB";
        ];
      notes =
        [
          ("sweep_s", Printf.sprintf "%.4f" r.sweep_s);
          ("job_p50_ms", Printf.sprintf "%.3f" (percentile r.job_ms 50.));
          ("job_p90_ms", Printf.sprintf "%.3f" (percentile r.job_ms 90.));
          ("repeats", string_of_int r.repeats);
          ("points", string_of_int (Array.length r.job_ms));
          ("output_digest", r.digest);
          ("failed_ratio", Printf.sprintf "%g" (ratio r.failed r.attempted));
        ];
    }

(* The traced run. Every per-layer metric is reported on every workload:
   layers on the workload's own path are measured on its own inputs, the
   others on a small fixed probe (the serve-warm stream, or a slice of
   the other sim grid) whose prediction is no change. *)
let traced ~workload ~seed ~quick ~trace_out =
  let ov = Spans.measure_overhead () in
  let spans = Spans.create ~enabled:true in
  let corpus = Serve_work.corpus ~seed in
  let mixed = workload = "serve-mixed" in
  let requests = if quick then 2_000 else 20_000 in
  let off = Spans.create ~enabled:false in
  let replay rec_ = Serve_work.replay corpus rec_ ~mixed ~requests in
  ignore (replay off);
  let plain = replay off in
  let traced = replay spans in
  let fanout_us = Serve_work.batch_fanout corpus spans in
  let tally = Serve_work.tally () in
  let rtt_us, stats =
    Serve_work.round_trips corpus spans tally ~socket:(socket_path workload)
      ~count:(if quick then 200 else 2_000)
  in
  let sim =
    Sim_work.profile (sim_kind workload) ~spans ~seed
      ~scale:(if quick then Hrt_harness.Exp.Quick else Hrt_harness.Exp.Full)
  in
  let table = Spans.by_name spans ov in
  Spans.print_report table;
  Spans.write_chrome spans trace_out;
  log "wrote %s (recorder cost %.0f ns per span, %.0f ns inside)" trace_out
    ov.Spans.outer_ns ov.Spans.inner_ns;
  let stage name = Spans.p50_self table name in
  let in_process_ns =
    stage "protocol.decode" +. stage "protocol.parse" +. stage "taskset.view"
    +. stage "service.hit" +. stage "protocol.render"
  in
  let overhead =
    match sim_kind workload with
    | Some _ -> sim.Sim_work.overhead_ratio
    | None -> traced.Serve_work.wall_s /. plain.Serve_work.wall_s
  in
  {
    attempted =
      plain.replayed + traced.replayed + tally.attempted + sim.attempted;
    failed = plain.mismatched + traced.mismatched + tally.failed + sim.failed;
    wrong = plain.mismatched + traced.mismatched + tally.wrong + sim.failed;
    metrics =
      [
        m "protocol.decode_ns" (stage "protocol.decode") "ns";
        m "protocol.parse_ns" (stage "protocol.parse") "ns";
        m "taskset.view_ns" (stage "taskset.view") "ns";
        m "taskset.fingerprint_ns" (stage "taskset.fingerprint") "ns";
        m "service.hit_ns" (stage "service.hit") "ns";
        m "service.miss_us" (stage "service.miss" /. 1e3) "us";
        m "protocol.render_ns" (stage "protocol.render") "ns";
        m "oracle.edf_scan_share"
          (ratio traced.edf_scans traced.misses)
          "fraction";
        m "cache.hit_ratio" traced.hit_ratio "ratio";
        m "par.batch_fanout_us" fanout_us "us";
        m "serve.rtt_us" rtt_us "us";
        m "serve.loop_residual_us" (rtt_us -. (in_process_ns /. 1e3)) "us";
        m "serve.server_p50_us" (Serve_work.stat stats "p50_us") "us";
        m "serve.server_p99_us" (Serve_work.stat stats "p99_us") "us";
      ]
      @ sim.metrics
      @ [ m "trace.overhead_ratio" overhead "ratio" ];
    notes =
      [
        ("trace", trace_out);
        ("span_cost_ns", Printf.sprintf "%.1f" ov.outer_ns);
      ];
  }

let daemon socket =
  let server = Hrt_serve.Server.create ~socket Serve_work.daemon_config in
  Hrt_serve.Server.run ~install_sigterm:true server

let usage =
  "hrtbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] \
   [--trace-out FILE]\n\
   hrtbench daemon --socket PATH\n\
   workloads: " ^ String.concat ", " workloads

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20. in
  let trace = ref 0 and quick = ref false and trace_out = ref "" in
  let socket = ref "" and mode = ref `Bench in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  seed for every generated input (42)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds (20)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics");
      ("--quick", Arg.Set quick, " 1 s phases, Quick-scale grids, one repeat");
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE  Chrome trace of --trace 1" );
      ("--socket", Arg.Set_string socket, "PATH  daemon socket (daemon mode)");
    ]
  in
  let anon = function
    | "daemon" -> mode := `Daemon
    | a -> raise (Arg.Bad ("unexpected argument " ^ a))
  in
  (try Arg.parse_argv Sys.argv (Arg.align specs) anon usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2);
  match !mode with
  | `Daemon ->
    if !socket = "" then (prerr_endline usage; exit 2);
    daemon !socket
  | `Bench ->
    if
      (not (List.mem !workload workloads))
      || !seconds <= 0.
      || (!trace <> 0 && !trace <> 1)
    then (prerr_endline usage; exit 2);
    (* A broken pipe to the daemon must surface as an error, not kill us. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    let seed = Int64.of_int !seed in
    let outcome =
      if !trace = 1 then
        let out =
          if !trace_out = "" then
            Filename.concat work_dir
              (Printf.sprintf "trace-%s.json" !workload)
          else !trace_out
        in
        traced ~workload:!workload ~seed ~quick:!quick ~trace_out:out
      else timed ~workload:!workload ~seed ~seconds:!seconds ~quick:!quick
    in
    print_endline (to_json outcome)
