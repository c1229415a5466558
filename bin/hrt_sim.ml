(* Command-line driver for the hard real-time scheduling simulator.

   Subcommands:
     list                     enumerate reproducible experiments
     run <names...>           run experiments (figures/ablations) by name
                              (no names + --inject: mixed-criticality demo)
     all                      run everything
     bsp [options]            run one BSP benchmark configuration
     missrate [options]       run one period/slice miss-rate point
     verify <trace.json>      replay a recorded trace through the verifier
     faults                   list the named fault-injection plans
     admit query <specs...>   analytical schedulability verdict + certificate
     admit batch <file>       memoized batch analysis of many task sets
     admit cross-validate     oracle vs simulator corpus agreement
     serve [--client]         admission serving daemon / one-shot client

   Every workload runs inside an explicit Exp.Ctx.t built from the common
   flags (--full, --policy, --jobs, --inject/--intensity/--no-degrade)
   plus the observability sink; there is no ambient mutable configuration.

   Exit codes: 0 success, 2 verification failure (verify subcommand or
   --selfcheck), anything else is a usage/IO error. The benchmark lives
   in hrtbench/ (see its README); the source-level lint is the separate
   hrt_lint binary (bin/hrt_lint_main.ml). *)

open Cmdliner
open Hrt_engine
open Hrt_core
open Hrt_harness

let scale_term =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale parameters (slow).")
  in
  Term.(
    const (fun full -> if full then Exp.Full else Exp.scale_of_env ()) $ full)

let policy_term =
  Arg.(
    value
    & opt (enum [ ("edf", Config.Edf); ("rm", Config.Rm) ]) Config.Edf
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Scheduling policy: $(b,edf) (earliest deadline first, the \
           paper's) or $(b,rm) (rate monotonic with the Liu-Layland \
           admission bound). Drives both admission and dispatch.")

let jobs_term =
  let arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan sweep points across $(docv) OCaml domains. Results are \
             merged in submission order, so the output is bit-identical \
             for any $(docv). Defaults to $(b,HRT_JOBS), else 1 \
             (sequential).")
  in
  Term.(
    const (fun j -> match j with Some n -> n | None -> Exp.jobs_of_env ())
    $ arg)

(* ---- fault injection ---- *)

let inject_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "Arm the named fault plan (see $(b,hrt_sim faults)) on every \
           system the workload boots. Graceful degradation is enabled by \
           default while injecting; turn it off with $(b,--no-degrade).")

let intensity_term =
  Arg.(
    value & opt float 1.0
    & info [ "intensity" ] ~docv:"F"
        ~doc:
          "Scale the injected plan's severity: event rates and magnitudes \
           multiply by $(docv) (1.0 = nominal, 0 = no faults).")

let no_degrade_term =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Disable graceful degradation (criticality-ordered load \
           shedding) while injecting faults, reproducing the unprotected \
           overload behaviour.")

(* Resolve the three flags into (plan option, degradation flag). *)
let resolve_fault inject intensity no_degrade =
  match inject with
  | None -> (None, false)
  | Some name -> (
    match Hrt_fault.Fault.of_name ~intensity name with
    | Some plan -> (Some plan, not no_degrade)
    | None ->
      Printf.eprintf "unknown fault plan %S; try `hrt_sim faults`\n" name;
      exit 1)

(* ---- observability ---- *)

let trace_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record every scheduler event and write a Chrome-trace JSON file \
           to $(docv) (loadable in chrome://tracing or Perfetto).")

let metrics_out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the derived metrics registry as CSV to $(docv).")

let selfcheck_term =
  Arg.(
    value & flag
    & info [ "selfcheck" ]
        ~doc:
          "Run the trace invariant verifier online while the workload \
           executes. Prints a one-line machine-readable verdict on stderr; \
           any violation (including a deadline miss of an admitted \
           real-time task) makes the process exit with status 2.")

(* Open (creating or truncating) each requested output file before any
   work starts: an unwritable path is a usage error, exit 2, and costs no
   run. [outputs] pairs each flag name with its optional path. *)
let check_outputs cmd outputs =
  List.iter
    (function
      | _, None -> ()
      | flag, Some path -> (
        try close_out (open_out path)
        with Sys_error m ->
          Printf.eprintf "%s: --%s %s\n" cmd flag m;
          exit 2))
    outputs

(* Build a sink for the requested outputs, hand it to the workload (which
   threads it through its run context), then export whatever was
   requested. Under --selfcheck a verifying checker subscribes to the same
   sink; its verdict decides the exit status. *)
let with_obs ?(selfcheck = false) ~cmd ~trace_out ~metrics_out f =
  check_outputs cmd [ ("trace-out", trace_out); ("metrics-out", metrics_out) ];
  let sink =
    match (selfcheck, trace_out, metrics_out) with
    | false, None, None -> Hrt_obs.Sink.null
    | _ -> Hrt_obs.Sink.create ~trace:(trace_out <> None) ()
  in
  let live =
    if selfcheck then Some (Hrt_verify.Live.attach sink) else None
  in
  f sink;
  (match trace_out with
  | Some path ->
    (match Hrt_obs.Sink.tracer sink with
    | Some tr ->
      Hrt_obs.Export.write_chrome_trace tr ~path;
      Printf.printf "wrote %s (%d events)\n" path (Hrt_obs.Tracer.length tr)
    | None -> ())
  | None -> ());
  (match metrics_out with
  | Some path ->
    Hrt_obs.Export.write_metrics_csv (Hrt_obs.Sink.metrics sink) ~path;
    Printf.printf "wrote %s\n" path
  | None -> ());
  match live with
  | None -> ()
  | Some live ->
    let report = Hrt_verify.Live.report live in
    Printf.eprintf "%s\n%!" (Hrt_verify.Report.verdict_line report);
    if not (Hrt_verify.Report.passed report) then exit 2

(* ---- list ---- *)

let list_cmd =
  let doc = "List the reproducible experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-18s %s\n" e.Registry.name e.Registry.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let doc =
    "Run experiments by name (see $(b,list)); with $(b,--inject) and no \
     names, run the mixed-criticality fault demo."
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            "Experiment name. May be omitted when $(b,--inject) is given, \
             which runs the graceful-degradation demo workload instead.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let demo ~sink ~scale ~policy ~fault ~degrade =
    let horizon =
      match scale with Exp.Quick -> Time.ms 50 | Exp.Full -> Time.ms 500
    in
    let out =
      Fault_sweep.run_demo ~sink ~seed:42L ~policy ~degrade ~fault ~horizon ()
    in
    Printf.printf
      "fault demo (policy=%s degrade=%b):\n\
      \  high-criticality: arrivals=%d misses=%d\n\
      \  low-criticality:  arrivals=%d misses=%d\n\
      \  sheds=%d recovers=%d final-boundary=%d\n"
      (Config.policy_name policy) degrade out.Fault_sweep.hi_arrivals
      out.Fault_sweep.hi_misses out.Fault_sweep.lo_arrivals
      out.Fault_sweep.lo_misses out.Fault_sweep.sheds
      out.Fault_sweep.recovers out.Fault_sweep.boundary
  in
  (* The --csv directory and its missing parents, like [mkdir -p]. *)
  let make_csv_dir dir =
    let rec mkdir_p d =
      if not (Sys.file_exists d) then begin
        mkdir_p (Filename.dirname d);
        try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
      end
    in
    match
      mkdir_p dir;
      if not (Sys.is_directory dir) then
        raise (Sys_error (dir ^ ": Not a directory"))
    with
    | () -> ()
    | exception Sys_error m ->
      Printf.eprintf "run: --csv %s\n" m;
      exit 2
  in
  let run scale csv_dir trace_out metrics_out selfcheck policy jobs inject
      intensity no_degrade names =
    let fault, degrade = resolve_fault inject intensity no_degrade in
    if names = [] && fault = None then begin
      Printf.eprintf "run: missing experiment NAME (or --inject for the demo)\n";
      exit 1
    end;
    (* Every name is resolved and the --csv directory made before the
       first experiment runs, so a usage error costs no run. *)
    let experiments =
      List.map
        (fun name ->
          match Registry.find name with
          | Some e -> (name, e)
          | None ->
            Printf.eprintf "unknown experiment %S; try `hrt_sim list`\n" name;
            exit 1)
        names
    in
    Option.iter make_csv_dir csv_dir;
    with_obs ~selfcheck ~cmd:"run" ~trace_out ~metrics_out (fun sink ->
        if experiments = [] then demo ~sink ~scale ~policy ~fault ~degrade
        else begin
          let ctx =
            Exp.Ctx.make ~scale ~policy ~sink ~jobs ?fault ~degrade ()
          in
          List.iter
            (fun (name, e) ->
              let tables = Registry.run_and_print ~ctx e in
              match csv_dir with
              | None -> ()
              | Some dir ->
                List.iteri
                  (fun i table ->
                    let path =
                      Filename.concat dir (Printf.sprintf "%s-%d.csv" name i)
                    in
                    Hrt_stats.Csv.write ~path
                      ~header:(Hrt_stats.Table.headers table)
                      (Hrt_stats.Table.to_rows table);
                    Printf.printf "wrote %s\n" path)
                  tables)
            experiments
        end)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ scale_term $ csv_dir $ trace_out_term $ metrics_out_term
      $ selfcheck_term $ policy_term $ jobs_term $ inject_term
      $ intensity_term $ no_degrade_term $ names)

(* ---- all ---- *)

let all_cmd =
  let doc = "Run every experiment (the full evaluation section)." in
  let run scale trace_out metrics_out selfcheck policy jobs =
    with_obs ~selfcheck ~cmd:"all" ~trace_out ~metrics_out (fun sink ->
        let ctx = Exp.Ctx.make ~scale ~policy ~sink ~jobs () in
        List.iter
          (fun e -> ignore (Registry.run_and_print ~ctx e))
          Registry.all)
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ scale_term $ trace_out_term $ metrics_out_term
      $ selfcheck_term $ policy_term $ jobs_term)

(* ---- bsp ---- *)

let bsp_cmd =
  let doc = "Run one BSP benchmark configuration." in
  let cpus =
    Arg.(value & opt int 24 & info [ "cpus" ] ~doc:"Worker CPUs (paper: 255).")
  in
  let grain =
    Arg.(
      value
      & opt (enum [ ("fine", `Fine); ("coarse", `Coarse) ]) `Fine
      & info [ "grain" ] ~doc:"Granularity: fine or coarse.")
  in
  let barrier =
    Arg.(value & flag & info [ "barrier" ] ~doc:"Keep the per-iteration barrier.")
  in
  let aperiodic =
    Arg.(
      value & flag
      & info [ "aperiodic" ] ~doc:"Non-real-time scheduling (implies --barrier).")
  in
  let period_us =
    Arg.(value & opt int 100 & info [ "period" ] ~doc:"Period in us (RT mode).")
  in
  let slice_pct =
    Arg.(value & opt int 90 & info [ "slice" ] ~doc:"Slice as % of period.")
  in
  let iters =
    Arg.(value & opt int 500 & info [ "iters" ] ~doc:"BSP iterations.")
  in
  let run cpus grain barrier aperiodic period_us slice_pct iters policy
      trace_out metrics_out selfcheck =
    with_obs ~selfcheck ~cmd:"bsp" ~trace_out ~metrics_out (fun sink ->
        let params =
          match grain with
          | `Fine -> Hrt_bsp.Bsp.fine_grain ~cpus ~barrier:(barrier || aperiodic)
          | `Coarse ->
            Hrt_bsp.Bsp.coarse_grain ~cpus ~barrier:(barrier || aperiodic)
        in
        let params = { params with Hrt_bsp.Bsp.iters } in
        let mode =
          if aperiodic then Hrt_bsp.Bsp.Aperiodic
          else begin
            let period = Time.us period_us in
            let slice =
              Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L
            in
            Hrt_bsp.Bsp.Rt { period; slice; phase_correction = true }
          end
        in
        let r = Hrt_bsp.Bsp.run ~policy ~obs:sink params mode in
        Printf.printf
          "exec=%.3f ms  iterations=%d  misses=%d  admitted=%b  checksum=%.0f\n"
          (Time.to_float_ms r.Hrt_bsp.Bsp.exec_time)
          r.Hrt_bsp.Bsp.iterations_done r.Hrt_bsp.Bsp.misses
          r.Hrt_bsp.Bsp.admitted r.Hrt_bsp.Bsp.checksum)
  in
  Cmd.v (Cmd.info "bsp" ~doc)
    Term.(
      const run $ cpus $ grain $ barrier $ aperiodic $ period_us $ slice_pct
      $ iters $ policy_term $ trace_out_term $ metrics_out_term
      $ selfcheck_term)

(* ---- missrate ---- *)

let missrate_cmd =
  let doc = "Measure miss rate for one periodic constraint." in
  let platform =
    Arg.(
      value
      & opt (enum [ ("phi", Hrt_hw.Platform.phi); ("r415", Hrt_hw.Platform.r415) ])
          Hrt_hw.Platform.phi
      & info [ "platform" ] ~doc:"phi or r415.")
  in
  let period_us =
    Arg.(value & opt int 100 & info [ "period" ] ~doc:"Period in us.")
  in
  let slice_pct =
    Arg.(value & opt int 50 & info [ "slice" ] ~doc:"Slice as % of period.")
  in
  let ms =
    Arg.(value & opt int 100 & info [ "duration" ] ~doc:"Simulated ms to run.")
  in
  let run platform period_us slice_pct ms policy inject intensity no_degrade
      trace_out metrics_out selfcheck =
    let fault, degrade = resolve_fault inject intensity no_degrade in
    with_obs ~selfcheck ~cmd:"missrate" ~trace_out ~metrics_out (fun sink ->
        let config =
          {
            Config.default with
            Config.admission_control = false;
            policy;
            degradation = degrade;
          }
        in
        let sys = Scheduler.create ~num_cpus:2 ~config ~obs:sink platform in
        let period = Time.us period_us in
        let slice =
          Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L
        in
        ignore (Exp.periodic_thread sys ~cpu:1 ~period ~slice ());
        (match fault with
        | Some plan -> Hrt_fault.Fault.inject plan sys
        | None -> ());
        Scheduler.run ~until:(Time.ms ms) sys;
        let acc = Local_sched.account (Scheduler.sched sys 1) in
        Printf.printf
          "platform=%s period=%dus slice=%d%%: arrivals=%d misses=%d \
           rate=%.1f%% mean-miss=%.2fus\n"
          platform.Hrt_hw.Platform.name period_us slice_pct
          (Account.arrivals acc) (Account.misses acc)
          (100. *. Account.miss_rate acc)
          (Hrt_stats.Summary.mean (Account.miss_times_us acc)))
  in
  Cmd.v (Cmd.info "missrate" ~doc)
    Term.(
      const run $ platform $ period_us $ slice_pct $ ms $ policy_term
      $ inject_term $ intensity_term $ no_degrade_term $ trace_out_term
      $ metrics_out_term $ selfcheck_term)

(* ---- verify ---- *)

let verify_cmd =
  let doc = "Replay a recorded trace through the invariant verifier." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses a Chrome-trace JSON file written by $(b,--trace-out) and \
         checks every scheduler invariant in the catalog: time \
         monotonicity, event causality, per-CPU mutual exclusion, hard \
         real-time soundness, EDF/RM policy conformance, accounting \
         conservation, and group barrier/election safety.";
      `P
        "The full report goes to stdout; a one-line machine-readable \
         verdict goes to stderr. Exit status is 0 when the trace is clean, \
         2 when any rule fired, and 1 when the file cannot be parsed.";
    ]
  in
  let trace =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Chrome-trace JSON file to verify.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the full verdict report to $(docv).")
  in
  let run trace report_out =
    check_outputs "verify" [ ("report", report_out) ];
    match Hrt_verify.Verify.file trace with
    | Error msg ->
      Printf.eprintf "hrt_sim verify: %s: %s\n" trace msg;
      exit 1
    | Ok report ->
      print_string (Hrt_verify.Report.to_string report);
      (match report_out with
      | Some path ->
        Hrt_verify.Report.write report ~path;
        Printf.printf "wrote %s\n" path
      | None -> ());
      Printf.eprintf "%s\n%!" (Hrt_verify.Report.verdict_line report);
      if not (Hrt_verify.Report.passed report) then exit 2
  in
  Cmd.v (Cmd.info "verify" ~doc ~man) Term.(const run $ trace $ report_out)

(* ---- faults ---- *)

let faults_cmd =
  let doc = "List the named fault-injection plans." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Fault plans compose hardware interference (SMI storms, interrupt \
         bursts, clock steps, timer jitter) and task-level faults (WCET \
         overruns, release jitter) into named, seeded scenarios. Arm one \
         with $(b,--inject) on $(b,run) or $(b,missrate); scale it with \
         $(b,--intensity).";
    ]
  in
  let run () =
    List.iter
      (fun p ->
        Printf.printf "%-16s %s\n" p.Hrt_fault.Fault.Plan.name
          (Hrt_fault.Fault.describe p))
      Hrt_fault.Fault.builtins
  in
  Cmd.v (Cmd.info "faults" ~doc ~man) Term.(const run $ const ())

(* ---- admit ---- *)

(* Task specs on the admit command line: P:<period_us>:<slice_us> for a
   periodic task, S:<size_us>:<deadline_us> for a sporadic one (deadline
   relative to its arrival), A for an aperiodic filler. The grammar is
   shared with the serving protocol (Hrt_serve.Protocol). *)
let parse_spec s =
  Result.map_error (fun m -> `Msg m) (Hrt_serve.Protocol.parse_spec s)

let spec_conv =
  Arg.conv ((fun s -> parse_spec s), fun fmt c -> Constraints.pp fmt c)

let platform_term =
  Arg.(
    value
    & opt (enum [ ("phi", Hrt_hw.Platform.phi); ("r415", Hrt_hw.Platform.r415) ])
        Hrt_hw.Platform.phi
    & info [ "platform" ] ~docv:"NAME"
        ~doc:
          "Platform whose measured scheduler costs are charged per arrival \
           ($(b,phi) or $(b,r415)).")

let raw_term =
  Arg.(
    value & flag
    & info [ "raw" ]
        ~doc:
          "Analyze raw feasibility instead of the production admission \
           view: full CPU (util limit 1.0, reservations off) and zero \
           scheduler overhead. A rejection under $(b,--raw) with an exact \
           certificate means no schedule exists at all.")

(* The Taskset a query analyzes: the production view mirrors the ledger
   the scheduler boots with (79% periodic capacity, platform overhead).
   Both views live in Hrt_analysis.Taskset so the serving daemon answers
   from exactly the same analysis. *)
let admit_taskset ~policy ~platform ~raw tasks =
  if raw then Hrt_analysis.Taskset.raw_view ~policy tasks
  else Hrt_analysis.Taskset.production_view ~policy ~platform tasks

let print_result r =
  Format.printf "%a@." Hrt_analysis.Oracle.pp_result r

let admit_query_cmd =
  let doc = "Analyze one task set: verdict, headroom, and certificate." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the exact schedulability test for the chosen policy — \
         processor-demand analysis over the hyperperiod for $(b,edf), the \
         Lehoczky-Sha-Ding scheduling-point criterion for $(b,rm), plus \
         the density test for sporadic specs — and prints the verdict \
         with the certificate that proves it. The certificate is replayed \
         through the independent checker before the command returns.";
      `P
        "Exit status is 0 when the set is admitted, 1 when it is \
         rejected, and 3 if the certificate fails to replay (an oracle \
         bug).";
    ]
  in
  let specs =
    Arg.(
      non_empty & pos_all spec_conv []
      & info [] ~docv:"SPEC"
          ~doc:
            "Task specs: $(b,P:period_us:slice_us), \
             $(b,S:size_us:deadline_us), or $(b,A).")
  in
  let run policy platform raw specs =
    let ts = admit_taskset ~policy ~platform ~raw specs in
    let r = Hrt_analysis.Oracle.analyze ts in
    print_result r;
    (match Hrt_analysis.Oracle.check ts r with
    | Ok () -> Printf.printf "certificate: replays ok\n"
    | Error msg ->
      Printf.eprintf "admit: certificate failed to replay: %s\n" msg;
      exit 3);
    if not (Admission.admitted r.Hrt_analysis.Oracle.verdict) then exit 1
  in
  Cmd.v (Cmd.info "query" ~doc ~man)
    Term.(const run $ policy_term $ platform_term $ raw_term $ specs)

let admit_batch_cmd =
  let doc = "Analyze many task sets through the memoized service." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one task set per line (whitespace-separated SPECs, \
         $(b,#) comments and blank lines skipped) and answers each line \
         with its verdict. Queries go through the memo cache — \
         permutations of an already-analyzed set are hits — on one \
         domain: fanning the misses across domains costs more than it \
         saves. Cache hit/miss/eviction counters are printed at the end \
         (and exported as $(b,admit.cache.*) metrics with \
         $(b,--metrics-out)).";
    ]
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Task-set file ($(b,-) for stdin).")
  in
  let run policy platform raw metrics_out file =
    let lines = ref [] in
    (try
       let ic = if file = "-" then stdin else open_in file in
       try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> if file <> "-" then close_in ic
     with Sys_error m ->
       Printf.eprintf "admit batch: %s\n" m;
       exit 2);
    let sets =
      List.rev_map String.trim !lines
      |> List.filter (fun line -> line <> "" && line.[0] <> '#')
      |> List.mapi (fun i line ->
             let specs =
               Hrt_serve.Protocol.tokens_of line
               |> List.map (fun t ->
                      match parse_spec t with
                      | Ok c -> c
                      | Error (`Msg m) ->
                        Printf.eprintf "admit batch: set %d: %s\n" (i + 1) m;
                        exit 2)
             in
             admit_taskset ~policy ~platform ~raw specs)
    in
    let svc = Hrt_analysis.Service.create () in
    with_obs ~cmd:"admit batch" ~trace_out:None ~metrics_out (fun sink ->
        if Hrt_obs.Sink.enabled sink then
          Hrt_analysis.Service.register_probes svc sink;
        let results = Hrt_analysis.Service.batch svc sets in
        List.iteri
          (fun i r ->
            Format.printf "set %d: %a@." (i + 1) Admission.pp_verdict
              r.Hrt_analysis.Oracle.verdict)
          results;
        let s = Hrt_analysis.Service.stats svc in
        Printf.printf "cache: %d hits / %d misses / %d evictions (%d entries)\n"
          s.Hrt_analysis.Service.hits s.Hrt_analysis.Service.misses
          s.Hrt_analysis.Service.evictions s.Hrt_analysis.Service.entries;
        if Hrt_obs.Sink.enabled sink then Hrt_obs.Sink.sample_probes sink)
  in
  Cmd.v (Cmd.info "batch" ~doc ~man)
    Term.(
      const run $ policy_term $ platform_term $ raw_term $ metrics_out_term
      $ file)

let admit_xval_cmd =
  let doc = "Cross-validate the oracle against the simulator." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs randomized periodic task sets through both the analytical \
         oracle and the discrete-event simulator (synchronous release, \
         admission control off) and asserts the feasibility corridor: \
         oracle-admitted sets never miss a deadline, and sets the oracle \
         proves infeasible always do. Every certificate is replayed \
         through the independent checker, and the EDF oracle is compared \
         verdict-for-verdict against the runtime Hyperperiod_sim ledger.";
      `P "Exit status is 2 when any disagreement is found.";
    ]
  in
  let sets =
    Arg.(
      value & opt int 200
      & info [ "sets" ] ~docv:"N" ~doc:"Randomized task sets per policy.")
  in
  let policies =
    Arg.(
      value
      & opt
          (enum
             [
               ("both", [ Config.Edf; Config.Rm ]);
               ("edf", [ Config.Edf ]);
               ("rm", [ Config.Rm ]);
             ])
          [ Config.Edf; Config.Rm ]
      & info [ "policies" ] ~docv:"WHICH"
          ~doc:"Policies to validate: $(b,both) (default), $(b,edf), $(b,rm).")
  in
  let run scale jobs sets policies =
    let failed = ref false in
    List.iter
      (fun policy ->
        let ctx = Exp.Ctx.make ~scale ~policy ~jobs () in
        let o = Admit_xval.run ~ctx ~sets ~policy () in
        Format.printf "%s: %a@." (Config.policy_name policy)
          Admit_xval.pp_outcome o;
        if o.Admit_xval.disagreements <> [] then failed := true)
      policies;
    if !failed then begin
      Printf.eprintf "admit cross-validate: oracle/simulator disagreement\n";
      exit 2
    end
  in
  Cmd.v (Cmd.info "cross-validate" ~doc ~man)
    Term.(const run $ scale_term $ jobs_term $ sets $ policies)

let admit_cmd =
  let doc = "Analytical admission: exact schedulability with certificates." in
  Cmd.group
    (Cmd.info "admit" ~doc)
    [ admit_query_cmd; admit_batch_cmd; admit_xval_cmd ]

(* ---- serve ---- *)

let serve_cmd =
  let doc = "Run the admission serving daemon (or a one-shot client)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Daemon mode (the default) binds a Unix-domain socket (and, with \
         $(b,--tcp), a localhost TCP listener) and answers \
         length-prefixed $(b,hrt1) protocol frames: $(b,query) and \
         $(b,batch) requests carry the same task specs as $(b,hrt_sim \
         admit) and are answered with one $(b,admitted)/$(b,rejected) \
         verdict per set; $(b,stats) reports serving and cache counters \
         and latency percentiles over the latest 65,536 requests; \
         $(b,drain) asks the server to finish and exit. Requests queue in \
         a bounded FIFO and are answered one at a time, in arrival order, \
         through the memoized admission service on the serving loop's own \
         domain: hits and misses alike, since fanning misses across \
         domains costs more than it saves.";
      `P
        "Backpressure is admission-themed: when the queue is full new \
         queries are answered $(b,rejected overloaded) immediately (never \
         stalled, never dropped), and a request whose $(b,@ms) deadline \
         passes while queued is answered $(b,rejected expired). SIGTERM \
         drains gracefully: stop accepting, answer everything in flight, \
         flush, emit final stats. At most 1,000 connections are open at \
         once; one more is closed on accept and counted as $(b,refused) \
         in $(b,stats), and while the process is out of file descriptors \
         the daemon stops accepting until a connection closes.";
      `P
        "With $(b,--client), the positional $(i,REQUEST) payloads are \
         sent one RPC each (fresh connection, bounded timeout, jittered \
         exponential backoff up to $(b,--attempts)) and each reply is \
         printed to stdout. Exit status 1 if any request failed or was \
         answered with a protocol error.";
    ]
  in
  let socket =
    Arg.(
      value
      & opt string "hrt-serve.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket path to bind (daemon) or connect to \
             (client). A stale socket file is replaced on bind.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Daemon: also listen on 127.0.0.1:$(docv) ($(b,0) picks an \
             ephemeral port, printed on boot). Client: connect to \
             127.0.0.1:$(docv) instead of the socket.")
  in
  let client =
    Arg.(
      value & flag
      & info [ "client" ]
          ~doc:"Client mode: send each $(i,REQUEST) and print the reply.")
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Client-mode request payloads, e.g. $(b,'query P:1000:300 \
             P:500:100') or $(b,stats).")
  in
  let max_queue =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queued requests beyond which new queries are shed.")
  in
  let max_batch =
    Arg.(
      value & opt int 64
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Requests answered per pass of the serving loop (at least \
             1).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request service deadline applied to requests \
             that carry no $(b,@ms) token (not negative).")
  in
  let timeout_ms =
    Arg.(
      value & opt int 2000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Client receive/connect timeout per attempt.")
  in
  let attempts =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N" ~doc:"Client retry budget per request.")
  in
  let run policy platform raw socket tcp client requests max_queue
      max_batch deadline_ms timeout_ms attempts trace_out metrics_out =
    if client then begin
      let addr =
        match tcp with
        | Some port -> Hrt_serve.Client.Tcp ("127.0.0.1", port)
        | None -> Hrt_serve.Client.Unix_path socket
      in
      if requests = [] then begin
        Printf.eprintf "serve --client: no REQUEST payloads given\n";
        exit 2
      end;
      let failed = ref false in
      List.iter
        (fun payload ->
          match Hrt_serve.Client.call ~attempts ~timeout_ms addr payload with
          | Ok reply ->
            print_endline (Hrt_serve.Protocol.render_reply reply);
            (match reply with
            | Hrt_serve.Protocol.Error_reply _ -> failed := true
            | _ -> ())
          | Error msg ->
            Printf.eprintf "serve --client: %s\n" msg;
            failed := true)
        requests;
      if !failed then exit 1
    end
    else begin
      let usage msg =
        Printf.eprintf "serve: %s\n" msg;
        exit 2
      in
      if max_batch < 1 then
        usage (Printf.sprintf "--max-batch must be at least 1 (got %d)" max_batch);
      (match deadline_ms with
      | Some ms when ms < 0 ->
        usage (Printf.sprintf "--deadline-ms must not be negative (got %d)" ms)
      | Some _ | None -> ());
      check_outputs "serve"
        [ ("trace-out", trace_out); ("metrics-out", metrics_out) ];
      let cfg =
        {
          Hrt_serve.Server.default_config with
          policy;
          platform;
          raw;
          max_queue;
          max_batch;
          default_deadline_ms = deadline_ms;
        }
      in
      let sink =
        match metrics_out with
        | None -> None
        | Some _ -> Some (Hrt_obs.Sink.create ~trace:false ())
      in
      let server =
        Hrt_serve.Server.create ?tcp_port:tcp ?sink ?trace_out ~socket cfg
      in
      (match Hrt_serve.Server.tcp_port server with
      | Some port ->
        Printf.printf "listening on %s and 127.0.0.1:%d\n%!" socket port
      | None -> Printf.printf "listening on %s\n%!" socket);
      Hrt_serve.Server.run ~install_sigterm:true server;
      match (metrics_out, sink) with
      | Some path, Some sink ->
        Hrt_obs.Export.write_metrics_csv (Hrt_obs.Sink.metrics sink) ~path;
        Printf.printf "wrote %s\n" path
      | _ -> ()
    end
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ policy_term $ platform_term $ raw_term $ socket
      $ tcp $ client $ requests $ max_queue $ max_batch $ deadline_ms
      $ timeout_ms $ attempts $ trace_out_term $ metrics_out_term)

let () =
  let doc = "Hard real-time scheduling for parallel run-time systems (HPDC'18 reproduction)." in
  let info = Cmd.info "hrt_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            bsp_cmd;
            missrate_cmd;
            verify_cmd;
            faults_cmd;
            admit_cmd;
            serve_cmd;
          ]))
