(* The lint's one entry point: [hrt_lint [--config FILE] [--root DIR]
   [--verbose] [--all-rules] [--summary FILE] [paths...]]. Exits 0 when
   every finding is waived and all budgets hold, 1 on findings, 2 on
   usage/config errors. CI, [dune build @lint] and bench/check.sh all
   run it. *)

let usage = "hrt_lint [--config FILE] [--root DIR] [--verbose] [paths...]"

let () =
  let config_file = ref "" in
  let root = ref "" in
  let verbose = ref false in
  let all_rules = ref false in
  let summary_file = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--config", Arg.Set_string config_file, "FILE lint config (default: <root>/.hrt-lint)");
      ("--root", Arg.Set_string root, "DIR repo root (default: nearest ancestor with .hrt-lint)");
      ("--verbose", Arg.Set verbose, " also print waived findings");
      ( "--all-rules",
        Arg.Set all_rules,
        " ignore any config: every family in scope everywhere, no budgets \
         (fixture debugging)" );
      ("--summary", Arg.Set_string summary_file, "FILE also write the summary line to FILE");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let fail msg =
    prerr_endline ("hrt_lint: " ^ msg);
    exit 2
  in
  let root =
    if !root <> "" then !root
    else if !config_file <> "" then Filename.dirname !config_file
    else if !all_rules then Sys.getcwd ()
    else
      match Hrt_lint.Driver.find_root (Sys.getcwd ()) with
      | Some r -> r
      | None -> fail "no .hrt-lint found in any ancestor directory; pass --root"
  in
  let config =
    if !all_rules then Hrt_lint.Config.all_on
    else
      let config_file =
        if !config_file <> "" then !config_file
        else Filename.concat root ".hrt-lint"
      in
      match Hrt_lint.Config.load config_file with
      | Ok c -> c
      | Error m -> fail m
  in
  let paths = match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps in
  let report = Hrt_lint.Driver.run ~config ~root paths in
  Hrt_lint.Driver.render ~verbose:!verbose stdout report;
  if !summary_file <> "" then
    Out_channel.with_open_text !summary_file (fun oc ->
        output_string oc (Hrt_lint.Driver.summary_line report ^ "\n"));
  exit (if Hrt_lint.Driver.clean report then 0 else 1)
