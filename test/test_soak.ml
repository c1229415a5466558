(* Long mixed-workload integration tests with global invariants. *)

open Hrt_engine
open Hrt_core
open Hrt_stats

let phi = Hrt_hw.Platform.phi

let overhead_ns (acc : Account.t) ghz =
  (Summary.total (Account.irq_cycles acc)
  +. Summary.total (Account.other_cycles acc)
  +. Summary.total (Account.resched_cycles acc)
  +. Summary.total (Account.switch_cycles acc))
  /. ghz

(* Every nanosecond of a CPU goes somewhere: thread progress, idle,
   scheduler overhead, or SMI missing time. *)
let test_time_conservation () =
  let horizon = Time.ms 50 in
  let sys = Scheduler.create ~num_cpus:2 phi in
  let threads =
    [
      Exp_helpers.periodic sys ~cpu:1 ~period:(Time.us 100) ~slice:(Time.us 30);
      Exp_helpers.periodic sys ~cpu:1 ~period:(Time.us 500) ~slice:(Time.us 100);
      Scheduler.spawn sys ~cpu:1 ~bound:true
        (Program.compute_forever (Time.us 40));
    ]
  in
  let smi =
    Hrt_hw.Smi.install (Scheduler.engine sys)
      { Hrt_hw.Smi.mean_interval = Time.ms 2; duration_mean = Time.us 40; duration_jitter = 0.2 }
  in
  Scheduler.run ~until:horizon sys;
  let used =
    List.fold_left
      (fun acc (th : Thread.t) -> acc +. Int64.to_float th.Thread.cpu_time)
      0. threads
  in
  let idle = Int64.to_float (Local_sched.idle_time (Scheduler.sched sys 1)) in
  let overhead =
    overhead_ns (Local_sched.account (Scheduler.sched sys 1)) phi.Hrt_hw.Platform.ghz
  in
  let stolen = Int64.to_float (Hrt_hw.Smi.total_stolen smi) in
  let accounted = used +. idle +. overhead +. stolen in
  let total = Int64.to_float horizon in
  let ratio = accounted /. total in
  Alcotest.(check bool)
    (Printf.sprintf "time conserved (ratio %.4f)" ratio)
    true
    (ratio > 0.97 && ratio < 1.03)

let test_soak_mixed_no_crash_deterministic () =
  (* Everything at once for 200 simulated ms: RT group, sporadic, batch,
     tasks, devices, SMIs. The run must be deterministic and keep all
     accounting invariants. *)
  let fingerprint () =
    let sys = Scheduler.create ~seed:1234L ~num_cpus:6 phi in
    (* RT group on CPUs 1-4. *)
    let group =
      Hrt_harness.Exp.run_group_admission sys ~workers:4
        (Constraints.periodic ~period:(Time.us 200) ~slice:(Time.us 60) ())
        ()
    in
    (* Batch threads, unbound: work stealing moves them around. *)
    for i = 1 to 6 do
      ignore
        (Scheduler.spawn sys ~name:(Printf.sprintf "batch%d" i) ~cpu:5
           (Program.compute_forever (Time.us 70)))
    done;
    (* Tasks on CPU 5. *)
    for _ = 1 to 50 do
      Scheduler.submit_task sys ~cpu:5 ~declared:(Time.us 10)
        ~duration:(Time.us 8) (fun () -> ())
    done;
    for _ = 1 to 10 do
      Scheduler.submit_task sys ~cpu:5 ~duration:(Time.us 25) (fun () -> ())
    done;
    (* Device noise on CPU 0, SMIs everywhere. *)
    let dev =
      Scheduler.add_device sys ~name:"nic" ~mean_interval:(Time.us 120)
        ~handler_cost:(Hrt_hw.Platform.cost 15_000. 1_500.)
        ()
    in
    Scheduler.start_device sys dev;
    ignore
      (Hrt_hw.Smi.install (Scheduler.engine sys)
         { Hrt_hw.Smi.mean_interval = Time.ms 1; duration_mean = Time.us 25; duration_jitter = 0.2 });
    Scheduler.run ~until:(Time.ms 200) sys;
    (* Group members kept lock-step through all the noise. *)
    List.iter
      (fun (th : Thread.t) ->
        Alcotest.(check bool) "group member active" true
          (th.Thread.arrivals > 800))
      (Hrt_group.Group.members group);
    ( Scheduler.total_arrivals sys,
      Scheduler.total_misses sys,
      Engine.events_executed (Scheduler.engine sys) )
  in
  let a = fingerprint () in
  let b = fingerprint () in
  Alcotest.(check bool) "soak deterministic" true (a = b);
  let arrivals, _, events = a in
  Alcotest.(check bool) "plenty of activity" true
    (arrivals > 3000 && events > 10_000)

let test_soak_group_isolated_from_noise () =
  (* The group's miss count must not depend on the noise on other CPUs. *)
  let run ~noisy =
    let sys = Scheduler.create ~seed:7L ~num_cpus:6 phi in
    let group =
      Hrt_harness.Exp.run_group_admission sys ~workers:4
        (Constraints.periodic ~period:(Time.us 200) ~slice:(Time.us 60) ())
        ()
    in
    if noisy then begin
      for i = 1 to 8 do
        ignore
          (Scheduler.spawn sys ~name:(Printf.sprintf "noise%d" i) ~cpu:5
             (Program.compute_forever (Time.us 100)))
      done;
      let dev =
        Scheduler.add_device sys ~name:"nic" ~mean_interval:(Time.us 100)
          ~handler_cost:(Hrt_hw.Platform.cost 20_000. 2_000.)
          ()
      in
      Scheduler.start_device sys dev
    end;
    Scheduler.run ~until:(Time.ms 100) sys;
    List.fold_left
      (fun acc (th : Thread.t) -> acc + th.Thread.misses)
      0
      (Hrt_group.Group.members group)
  in
  Alcotest.(check int) "quiet run misses" (run ~noisy:false) (run ~noisy:true)

let suite =
  [
    Alcotest.test_case "per-CPU time conservation" `Quick test_time_conservation;
    Alcotest.test_case "mixed soak: deterministic, active" `Slow test_soak_mixed_no_crash_deterministic;
    Alcotest.test_case "group isolated from node noise" `Slow test_soak_group_isolated_from_noise;
  ]
