(* The pluggable policy layer: unit tests of both POLICY implementations,
   and the integration result the layer exists to demonstrate — past the
   Liu-Layland bound, rate-monotonic dispatch misses deadlines on a
   workload EDF schedules cleanly. *)

open Hrt_engine
open Hrt_core

let mk_thread constr =
  let th =
    Thread.make ~id:1 ~name:"t" ~cpu:0 (fun _ -> Thread.Exit)
  in
  th.Thread.constr <- constr;
  th

let periodic_thread ~period ~deadline ~slice_left =
  let th = mk_thread (Constraints.periodic ~period ~slice:(Time.us 10) ()) in
  th.Thread.deadline <- deadline;
  th.Thread.slice_left <- slice_left;
  th

(* Whether [a] runs before [b]: the strict order the run-queue key
   encodes (equal keys fall back to FIFO). *)
let runs_before policy a b =
  Time.(Policy.run_key policy a < Policy.run_key policy b)

let test_kinds () =
  Alcotest.(check string) "edf name" "edf" (Policy.name (Policy.of_kind Config.Edf));
  Alcotest.(check string) "rm name" "rm" (Policy.name (Policy.of_kind Config.Rm));
  Alcotest.(check bool) "edf kind" true
    (Policy.kind (Policy.of_kind Config.Edf) = Config.Edf);
  Alcotest.(check bool) "rm kind" true
    (Policy.kind (Policy.of_kind Config.Rm) = Config.Rm);
  Alcotest.(check bool) "of_string edf" true
    (Config.policy_of_string "edf" = Some Config.Edf);
  Alcotest.(check bool) "of_string rm" true
    (Config.policy_of_string "rm" = Some Config.Rm);
  Alcotest.(check bool) "of_string junk" true
    (Config.policy_of_string "fifo" = None)

let test_edf_key_is_deadline () =
  let edf = Policy.of_kind Config.Edf in
  let th = periodic_thread ~period:(Time.us 100) ~deadline:123L ~slice_left:1L in
  Alcotest.(check int64) "key = deadline" 123L (Policy.run_key edf th);
  (* EDF ranks by deadline regardless of period. *)
  let short = periodic_thread ~period:(Time.us 10) ~deadline:200L ~slice_left:1L in
  Alcotest.(check bool) "earlier deadline runs first" true
    (runs_before edf th short);
  Alcotest.(check bool) "later deadline does not" false
    (runs_before edf short th)

let test_rm_key_is_period () =
  let rm = Policy.of_kind Config.Rm in
  let short = periodic_thread ~period:(Time.us 10) ~deadline:200L ~slice_left:1L in
  let long = periodic_thread ~period:(Time.us 100) ~deadline:123L ~slice_left:1L in
  Alcotest.(check int64) "key = period" (Time.us 10) (Policy.run_key rm short);
  (* RM ranks by period regardless of deadline: the short-period thread
     wins even though its current deadline is later. *)
  Alcotest.(check bool) "shorter period runs first" true
    (runs_before rm short long);
  Alcotest.(check bool) "longer period does not" false
    (runs_before rm long short)

let test_rm_sporadic_deadline_monotonic () =
  let rm = Policy.of_kind Config.Rm in
  let th =
    mk_thread (Constraints.sporadic ~size:(Time.us 10) ~deadline:500L ())
  in
  th.Thread.arrival <- 100L;
  th.Thread.deadline <- 500L;
  Alcotest.(check int64) "key = relative deadline" 400L (Policy.run_key rm th);
  let aper = mk_thread (Constraints.aperiodic ()) in
  Alcotest.(check int64) "aperiodic key is weakest" Int64.max_int
    (Policy.run_key rm aper)

let test_missed_and_latest_start () =
  List.iter
    (fun kind ->
      let p = Policy.of_kind kind in
      let th =
        periodic_thread ~period:(Time.us 100) ~deadline:1000L ~slice_left:50L
      in
      Alcotest.(check bool) "not missed before deadline" false
        (Policy.missed p ~now:999L th);
      Alcotest.(check bool) "missed at deadline with slice owed" true
        (Policy.missed p ~now:1000L th);
      th.Thread.slice_left <- 0L;
      Alcotest.(check bool) "no miss when slice done" false
        (Policy.missed p ~now:1000L th);
      th.Thread.slice_left <- 50L;
      (* latest_start = deadline - slice_left - slack *)
      Alcotest.(check int64) "latest start" 940L
        (Policy.latest_start p ~slack:10L th))
    [ Config.Edf; Config.Rm ]

(* The headline integration result (the `ablation-policy` experiment):
   sweeping total utilization past the 2-task Liu-Layland bound (~82.8%),
   RM starts missing deadlines on a set EDF still schedules cleanly —
   and RM admission would have rejected exactly those sets. *)
let test_rm_misses_past_bound_edf_clean () =
  let points = Hrt_harness.Ablations.edf_vs_rm_points ~ctx:(Hrt_harness.Exp.Ctx.quick ()) () in
  let low = List.hd points in
  let high = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "below bound: RM admits" true low.Hrt_harness.Ablations.rm_admissible;
  Alcotest.(check int) "below bound: RM clean" 0 low.Hrt_harness.Ablations.rm_misses;
  Alcotest.(check int) "below bound: EDF clean" 0 low.Hrt_harness.Ablations.edf_misses;
  Alcotest.(check bool) "past bound: RM rejects" false high.Hrt_harness.Ablations.rm_admissible;
  Alcotest.(check bool) "past bound: RM misses" true
    (high.Hrt_harness.Ablations.rm_misses > 0);
  Alcotest.(check int) "past bound: EDF still clean" 0
    high.Hrt_harness.Ablations.edf_misses;
  Alcotest.(check bool) "both ran the same arrivals" true
    (high.Hrt_harness.Ablations.edf_arrivals > 0
    && high.Hrt_harness.Ablations.edf_arrivals
       = high.Hrt_harness.Ablations.rm_arrivals)

(* A scheduler built with policy = Rm actually dispatches rate-
   monotonically: with one short-period and one long-period thread
   over-committed on one CPU, every miss lands on the long-period
   thread (under EDF the misses would be shared by deadline order). *)
let test_rm_dispatch_protects_short_period () =
  let config =
    {
      Config.default with
      Config.admission_control = false;
      policy = Config.Rm;
    }
  in
  let sys = Scheduler.create ~num_cpus:2 ~config Hrt_hw.Platform.phi in
  (* Simultaneous release (see Ablations.edf_vs_rm_points): the critical
     instant is what exposes RM's bound. *)
  let phase = Time.ms 5 in
  let short =
    Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~phase ~period:(Time.us 1000)
      ~slice:(Time.us 450) ()
  in
  let long =
    Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~phase ~period:(Time.us 1500)
      ~slice:(Time.us 675) ()
  in
  ignore
    (Engine.schedule (Scheduler.engine sys) ~at:(Time.ms 2) (fun _ ->
         Scheduler.reanchor sys short ~first_arrival:(Time.ms 3);
         Scheduler.reanchor sys long ~first_arrival:(Time.ms 3)));
  Scheduler.run ~until:(Time.ms 100) sys;
  Alcotest.(check int) "short-period thread never misses" 0
    short.Thread.misses;
  Alcotest.(check bool) "long-period thread takes every miss" true
    (long.Thread.misses > 0)

let suite =
  [
    Alcotest.test_case "policy kinds and names" `Quick test_kinds;
    Alcotest.test_case "EDF keys by deadline" `Quick test_edf_key_is_deadline;
    Alcotest.test_case "RM keys by period" `Quick test_rm_key_is_period;
    Alcotest.test_case "RM sporadic: deadline monotonic" `Quick
      test_rm_sporadic_deadline_monotonic;
    Alcotest.test_case "miss check and lazy horizon" `Quick
      test_missed_and_latest_start;
    Alcotest.test_case "RM misses past Liu-Layland; EDF clean" `Quick
      test_rm_misses_past_bound_edf_clean;
    Alcotest.test_case "RM dispatch protects the short period" `Quick
      test_rm_dispatch_protects_short_period;
  ]
