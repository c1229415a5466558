open Hrt_engine
open Hrt_core

let job name period slice = { Cyclic.name; period; slice }

(* Max frame load must stay below the admission capacity (79%): the
   executive's own slice is the worst frame's load. *)
let harmonic_set =
  [
    job "fast" (Time.us 100) (Time.us 20);
    job "mid" (Time.us 200) (Time.us 30);
    job "slow" (Time.us 400) (Time.us 40);
  ]

let test_plan_harmonic () =
  match Cyclic.plan harmonic_set with
  | Error e -> Alcotest.failf "plan failed: %a" Cyclic.pp_error e
  | Ok t ->
    Alcotest.(check int64) "hyperperiod" (Time.us 400) (Cyclic.hyperperiod t);
    Alcotest.(check bool) "frame divides H" true
      (Int64.equal (Int64.rem (Cyclic.hyperperiod t) (Cyclic.frame_size t)) 0L);
    Alcotest.(check bool) "frame fits max slice" true
      Time.(Cyclic.frame_size t >= Time.us 40);
    Alcotest.(check (float 1e-9)) "utilization" 0.45 (Cyclic.utilization t);
    (match Cyclic.validate t with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)

let test_plan_counts_instances () =
  match Cyclic.plan harmonic_set with
  | Error _ -> Alcotest.fail "plan failed"
  | Ok t ->
    let count name =
      Array.fold_left
        (fun acc pieces ->
          acc + List.length (List.filter (fun (n, _) -> n = name) pieces))
        0 (Cyclic.frames t)
    in
    Alcotest.(check int) "fast instances" 4 (count "fast");
    Alcotest.(check int) "mid instances" 2 (count "mid");
    Alcotest.(check int) "slow instances" 1 (count "slow")

let test_plan_errors () =
  let err r = match r with Error e -> e | Ok _ -> Alcotest.fail "expected error" in
  (match err (Cyclic.plan []) with
  | Cyclic.Empty_job_set -> ()
  | e -> Alcotest.failf "wrong error: %a" Cyclic.pp_error e);
  (match err (Cyclic.plan [ job "bad" (Time.us 10) (Time.us 20) ]) with
  | Cyclic.Invalid_job "bad" -> ()
  | e -> Alcotest.failf "wrong error: %a" Cyclic.pp_error e);
  (match
     err
       (Cyclic.plan
          [
            job "a" (Time.us 100) (Time.us 60);
            job "b" (Time.us 100) (Time.us 60);
          ])
   with
  | Cyclic.Utilization_too_high _ -> ()
  | e -> Alcotest.failf "wrong error: %a" Cyclic.pp_error e)

let test_executive_runs_jobs () =
  let sys = Scheduler.create ~num_cpus:2 Hrt_hw.Platform.phi in
  let t = Result.get_ok (Cyclic.plan harmonic_set) in
  let completions : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let th =
    Cyclic.spawn sys ~cpu:1 t ~on_job:(fun name _ ->
        Hashtbl.replace completions name
          (1 + Option.value ~default:0 (Hashtbl.find_opt completions name)))
  in
  Scheduler.run ~until:(Time.ms 5) sys;
  (* ~4.x ms of schedule after admission: >= 10 hyperperiods. *)
  let count name = Option.value ~default:0 (Hashtbl.find_opt completions name) in
  Alcotest.(check bool) "fast ran ~40x" true (count "fast" >= 35);
  Alcotest.(check bool) "mid ran ~20x" true (count "mid" >= 17);
  Alcotest.(check bool) "slow ran ~10x" true (count "slow" >= 8);
  (* The 4:2:1 rate structure is preserved. *)
  Alcotest.(check bool) "rate ratios" true
    (abs ((count "fast" / 2) - count "mid") <= 2
    && abs ((count "mid" / 2) - count "slow") <= 2);
  Alcotest.(check int) "no deadline misses ever" 0 th.Thread.misses

let test_executive_deterministic_periods () =
  (* Completion times of the fast job recur with its period. *)
  let sys = Scheduler.create ~num_cpus:2 Hrt_hw.Platform.phi in
  let t = Result.get_ok (Cyclic.plan harmonic_set) in
  let times = ref [] in
  ignore
    (Cyclic.spawn sys ~cpu:1 t ~on_job:(fun name at ->
         if name = "fast" then times := at :: !times));
  Scheduler.run ~until:(Time.ms 3) sys;
  let times = Array.of_list (List.rev !times) in
  Alcotest.(check bool) "enough samples" true (Array.length times > 10);
  (* A job's position inside a frame depends on the frame's contents, so
     consecutive gaps vary — but the static table repeats exactly every
     hyperperiod (4 fast instances): times[i+4] - times[i] = H. *)
  let deviations = ref 0 in
  for i = 4 to Array.length times - 5 do
    let a = times.(i) and b = times.(i + 4) in
    let gap = Time.(b - a) in
    if Int64.compare (Int64.abs (Int64.sub gap (Time.us 400))) 3_000L > 0 then
      incr deviations
  done;
  Alcotest.(check int) "hyperperiodic completions" 0 !deviations

let test_executive_rejected_when_infeasible () =
  (* Strict reservations cap periodic utilization at 79%: a 90% executive
     must be rejected crisply. *)
  let sys = Scheduler.create ~num_cpus:2 Hrt_hw.Platform.phi in
  let t =
    Result.get_ok (Cyclic.plan [ job "hog" (Time.us 100) (Time.us 90) ])
  in
  Alcotest.check_raises "rejected"
    (Failure
       "Cyclic.spawn: executive rejected by admission: utilization 0.900000 \
        exceeds bound 0.790000") (fun () ->
      ignore (Cyclic.spawn sys ~cpu:1 t))

let test_non_harmonic_set () =
  (* 300us and 400us periods: H = 1.2ms; a valid frame must still exist. *)
  let jobs =
    [ job "a" (Time.us 300) (Time.us 30); job "b" (Time.us 400) (Time.us 40) ]
  in
  match Cyclic.plan jobs with
  | Error e -> Alcotest.failf "plan failed: %a" Cyclic.pp_error e
  | Ok t ->
    Alcotest.(check int64) "hyperperiod" (Time.us 1200) (Cyclic.hyperperiod t);
    (match Cyclic.validate t with
    | Ok () -> ()
    | Error m -> Alcotest.fail m)

let prop_plan_valid =
  QCheck.Test.make ~name:"planned tables always validate" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 4)
        (pair (oneofl [ 100; 200; 400; 500; 1000 ]) (int_range 5 20)))
    (fun specs ->
      let jobs =
        List.mapi
          (fun i (period_us, slice_pct) ->
            let period = Time.us period_us in
            let slice =
              Time.max 1_000L
                (Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L)
            in
            job (Printf.sprintf "j%d" i) period slice)
          specs
      in
      match Cyclic.plan jobs with
      | Error _ -> true (* rejection is always sound *)
      | Ok t -> Cyclic.validate t = Ok ())

(* Periods 2^33+1 ns and 2^31+1 ns: their product wraps Int64, which
   used to yield a 3.58 s "hyperperiod" that placed job a zero times and
   still validated. The true lcm (~6.1e18 ns) is far past any frame
   table; coprime periods near 2^61 overflow Int64 outright. *)
let test_plan_wrapping_hyperperiod () =
  let big k = Int64.add (Int64.shift_left 1L k) in
  List.iter
    (fun (pa, pb) ->
      match Cyclic.plan [ job "a" pa (Time.us 1); job "b" pb (Time.us 1) ] with
      | Error Cyclic.No_valid_frame -> ()
      | Error e -> Alcotest.failf "expected no valid frame, got %a" Cyclic.pp_error e
      | Ok _ -> Alcotest.fail "planned a table over a wrapped hyperperiod")
    [ (big 33 1L, big 31 1L); (big 61 1L, big 61 3L) ]

let suite =
  [
    Alcotest.test_case "plan harmonic set" `Quick test_plan_harmonic;
    Alcotest.test_case "plan places every instance" `Quick test_plan_counts_instances;
    Alcotest.test_case "plan error cases" `Quick test_plan_errors;
    Alcotest.test_case "executive runs jobs at rate" `Quick test_executive_runs_jobs;
    Alcotest.test_case "executive perfectly periodic" `Quick test_executive_deterministic_periods;
    Alcotest.test_case "executive rejected when infeasible" `Quick test_executive_rejected_when_infeasible;
    Alcotest.test_case "non-harmonic periods" `Quick test_non_harmonic_set;
    Alcotest.test_case "wrapping hyperperiod has no frame" `Quick
      test_plan_wrapping_hyperperiod;
    QCheck_alcotest.to_alcotest prop_plan_valid;
  ]
