open Hrt_engine
open Hrt_kernel
open Hrt_core

(* End-to-end behaviour of the hard real-time scheduler. *)

let phi = Hrt_hw.Platform.phi

let mk ?(num_cpus = 3) ?(config = Config.default) ?(seed = 42L) () =
  Scheduler.create ~seed ~num_cpus ~config phi

let periodic_body sys ?(work = Time.sec 3600) constr on_admit =
  Program.seq
    [
      Program.of_steps (Scheduler.admission_ops sys constr ~on_result:on_admit);
      Program.compute_forever work;
    ]

let spawn_periodic ?phase ?(cpu = 1) sys ~period ~slice =
  let admitted = ref false in
  let th =
    Scheduler.spawn sys ~cpu ~bound:true
      (periodic_body sys
         (Constraints.periodic ?phase ~period ~slice ())
         (fun v -> admitted := Admission.admitted v))
  in
  (th, admitted)

let test_periodic_lifecycle () =
  let sys = mk () in
  let th, admitted = spawn_periodic sys ~period:(Time.us 100) ~slice:(Time.us 50) in
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check bool) "admitted" true !admitted;
  Alcotest.(check bool) "~98 arrivals" true
    (th.Thread.arrivals >= 95 && th.Thread.arrivals <= 100);
  Alcotest.(check int) "no misses" 0 th.Thread.misses

let test_throttling_proportional () =
  (* cpu_time tracks slice/period across utilization levels. *)
  let run slice_pct =
    let sys = mk () in
    let period = Time.us 100 in
    let slice = Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L in
    let th, _ = spawn_periodic sys ~period ~slice in
    Scheduler.run ~until:(Time.ms 20) sys;
    Time.to_float_ms th.Thread.cpu_time /. 20.
  in
  let u25 = run 25 and u50 = run 50 and u75 = run 75 in
  Alcotest.(check bool) "25% within tolerance" true (u25 > 0.22 && u25 < 0.28);
  Alcotest.(check bool) "50% within tolerance" true (u50 > 0.46 && u50 < 0.54);
  Alcotest.(check bool) "75% within tolerance" true (u75 > 0.70 && u75 < 0.80)

let test_rejected_thread_stays_aperiodic () =
  let sys = mk () in
  let admitted = ref true in
  let th =
    Scheduler.spawn sys ~cpu:1 ~bound:true
      (periodic_body sys
         (* 90% > 79% capacity under strict reservations. *)
         (Constraints.periodic ~period:(Time.us 100) ~slice:(Time.us 90) ())
         (fun v -> admitted := Admission.admitted v))
  in
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check bool) "rejected" false !admitted;
  Alcotest.(check bool) "still aperiodic" false (Thread.is_realtime th);
  (* And being alone, it still runs at ~100% as aperiodic. *)
  Alcotest.(check bool) "runs anyway" true
    (Time.to_float_ms th.Thread.cpu_time > 4.0)

let test_edf_two_threads () =
  let sys = mk ~num_cpus:2 () in
  let a, _ = spawn_periodic sys ~cpu:1 ~period:(Time.us 100) ~slice:(Time.us 30) in
  let b, _ = spawn_periodic sys ~cpu:1 ~period:(Time.us 200) ~slice:(Time.us 60) in
  Scheduler.run ~until:(Time.ms 20) sys;
  Alcotest.(check int) "a no misses" 0 a.Thread.misses;
  Alcotest.(check int) "b no misses" 0 b.Thread.misses;
  Alcotest.(check bool) "a ~30%" true
    (let u = Time.to_float_ms a.Thread.cpu_time /. 20. in
     u > 0.27 && u < 0.33);
  Alcotest.(check bool) "b ~30%" true
    (let u = Time.to_float_ms b.Thread.cpu_time /. 20. in
     u > 0.27 && u < 0.33)

let test_edf_orders_by_deadline () =
  (* Two threads with the same period but staggered phases: the dispatch
     order within each period must follow deadlines. *)
  let sys = mk ~num_cpus:2 () in
  let a, _ =
    spawn_periodic sys ~cpu:1 ~period:(Time.us 200) ~slice:(Time.us 40)
  in
  let b, _ =
    spawn_periodic ~phase:(Time.us 100) sys ~cpu:1 ~period:(Time.us 200)
      ~slice:(Time.us 40)
  in
  let order = ref [] in
  Scheduler.set_dispatch_hook sys
    (Some
       (fun _ th time ->
         if Time.(time > Time.ms 2) && Time.(time < Time.ms 3) then
           order := (th.Thread.id, th.Thread.deadline) :: !order));
  Scheduler.run ~until:(Time.ms 4) sys;
  ignore (a, b);
  let sorted = List.rev !order in
  List.iteri
    (fun i (_, d) ->
      match List.nth_opt sorted (i + 1) with
      | Some (_, d') ->
        Alcotest.(check bool) "dispatches in deadline order within window" true
          Time.(d <= d' || d' > 0L)
      | None -> ())
    sorted

let test_infeasible_misses_small () =
  let config = { Config.default with Config.admission_control = false } in
  let sys = mk ~config () in
  let th, _ = spawn_periodic sys ~period:(Time.us 10) ~slice:(Time.us 5) in
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check bool) "misses nearly every period" true
    (float_of_int th.Thread.misses /. float_of_int th.Thread.arrivals > 0.9);
  (* Miss times stay small: a few scheduler overheads, not whole periods. *)
  Alcotest.(check bool) "miss amounts small" true
    (Thread.mean_miss_time th < 20_000.)

let test_sporadic_demotion () =
  let sys = mk () in
  let phase_done = ref false in
  let th =
    Scheduler.spawn sys ~cpu:1 ~bound:true
      (Program.seq
         [
           Program.of_thunks
             [
               (fun { Thread.svc; _ } ->
                 Thread.Set_constraints
                   ( Constraints.sporadic ~size:(Time.us 500)
                       ~deadline:Time.(svc.Thread.now () + Time.ms 8)
                       ~aper_prio:7 (),
                     fun v ->
                       Alcotest.(check bool) "sporadic admitted" true
                         (Admission.admitted v) ));
             ];
           Program.of_steps [ Thread.Compute (Time.us 500) ];
           Program.of_thunks
             [
               (fun _ ->
                 phase_done := true;
                 Thread.Compute (Time.ms 100));
             ];
         ])
  in
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check bool) "work done before deadline" true !phase_done;
  Alcotest.(check int) "no miss" 0 th.Thread.misses;
  (match th.Thread.constr with
  | Constraints.Aperiodic { prio } ->
    Alcotest.(check int) "demoted to aperiodic prio" 7 prio
  | _ -> Alcotest.fail "sporadic not demoted")

let test_smi_pushes_completion () =
  (* A tight-slack thread misses exactly when an SMI eats its slack. *)
  let config = { Config.default with Config.strict_reservations = false } in
  let sys = mk ~config () in
  let th, _ = spawn_periodic sys ~period:(Time.us 100) ~slice:(Time.us 80) in
  ignore
    (Engine.schedule (Scheduler.engine sys) ~at:(Time.us 1050) (fun eng ->
         Hrt_hw.Smi.inject eng ~duration:(Time.us 40)));
  Scheduler.run ~until:(Time.ms 3) sys;
  (* The 40us of missing time exceeds the ~11us of slack per period, so a
     short cascade of misses follows while the debt drains. *)
  Alcotest.(check bool) "a small cascade of misses" true
    (th.Thread.misses >= 1 && th.Thread.misses <= 8);
  Alcotest.(check bool) "missed by at most the SMI duration" true
    (Thread.mean_miss_time th < 60_000.);
  (* No further misses once the debt is gone. *)
  Alcotest.(check bool) "recovers" true (th.Thread.arrivals > 20)

let test_eager_starts_immediately_lazy_delays () =
  let start_of cfg =
    let sys = mk ~config:cfg () in
    let started = ref None in
    let th, _ = spawn_periodic sys ~period:(Time.ms 1) ~slice:(Time.us 100) in
    Scheduler.set_dispatch_hook sys
      (Some
         (fun _ t time ->
           if t == th && Thread.is_realtime t && !started = None then
             started := Some Time.(time - t.Thread.arrival)));
    Scheduler.run ~until:(Time.ms 5) sys;
    (Option.get !started, th.Thread.misses)
  in
  let eager_start, eager_miss = start_of Config.default in
  let lazy_start, lazy_miss =
    start_of { Config.default with Config.dispatch = Config.Lazy }
  in
  Alcotest.(check bool) "eager starts at arrival" true
    Time.(eager_start < Time.us 50);
  Alcotest.(check bool) "lazy starts near latest start" true
    Time.(lazy_start > Time.us 800);
  Alcotest.(check int) "eager no miss" 0 eager_miss;
  Alcotest.(check int) "lazy no miss without noise" 0 lazy_miss

let test_aperiodic_priority () =
  let quantum = { Config.default with Config.aperiodic_quantum = Time.us 500 } in
  let sys = mk ~config:quantum () in
  let hi = Scheduler.spawn sys ~cpu:1 ~bound:true ~prio:5
      (Program.compute_forever (Time.us 50)) in
  let lo = Scheduler.spawn sys ~cpu:1 ~bound:true ~prio:1
      (Program.compute_forever (Time.us 50)) in
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check bool) "high prio dominates" true
    (Time.to_float_ms hi.Thread.cpu_time > 9.0);
  Alcotest.(check bool) "low prio starves while high runnable" true
    (Time.to_float_ms lo.Thread.cpu_time < 1.0)

let test_aperiodic_round_robin () =
  let config = { Config.default with Config.aperiodic_quantum = Time.us 200 } in
  let sys = mk ~config () in
  let a = Scheduler.spawn sys ~cpu:1 ~bound:true (Program.compute_forever (Time.us 50)) in
  let b = Scheduler.spawn sys ~cpu:1 ~bound:true (Program.compute_forever (Time.us 50)) in
  Scheduler.run ~until:(Time.ms 10) sys;
  let ta = Time.to_float_ms a.Thread.cpu_time in
  let tb = Time.to_float_ms b.Thread.cpu_time in
  Alcotest.(check bool) "both progress" true (ta > 3. && tb > 3.);
  Alcotest.(check bool) "fair within 20%" true (Float.abs (ta -. tb) < 2.)

let test_work_stealing () =
  let sys = mk ~num_cpus:4 () in
  (* Eight unbound compute-bound threads all spawned on CPU 1. *)
  let threads =
    List.init 8 (fun i ->
        Scheduler.spawn sys ~name:(Printf.sprintf "w%d" i) ~cpu:1
          (Program.of_steps [ Thread.Compute (Time.ms 2); Thread.Exit ]))
  in
  Scheduler.run ~until:(Time.ms 30) sys;
  let total_steals =
    List.fold_left
      (fun acc i -> acc + Account.steals (Local_sched.account (Scheduler.sched sys i)))
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "stealing happened" true (total_steals > 0);
  Alcotest.(check bool) "all finished (parallelized)" true
    (List.for_all (fun th -> th.Thread.state = Thread.Exited) threads);
  (* 8 x 2ms = 16ms of work done in well under 16ms thanks to 4 CPUs. *)
  let spread =
    List.sort_uniq compare (List.map (fun th -> th.Thread.cpu) threads)
  in
  Alcotest.(check bool) "ran on several CPUs" true (List.length spread >= 2)

let test_bound_threads_not_stolen () =
  let sys = mk ~num_cpus:4 () in
  let threads =
    List.init 4 (fun i ->
        Scheduler.spawn sys ~name:(Printf.sprintf "b%d" i) ~cpu:1 ~bound:true
          (Program.of_steps [ Thread.Compute (Time.ms 1); Thread.Exit ]))
  in
  Scheduler.run ~until:(Time.ms 30) sys;
  List.iter
    (fun th -> Alcotest.(check int) "stayed on cpu 1" 1 th.Thread.cpu)
    threads

let test_cross_cpu_wake_kicks () =
  let sys = mk ~num_cpus:3 () in
  let sleeper_state = ref "unset" in
  let sleeper =
    Scheduler.spawn sys ~name:"sleeper" ~cpu:2 ~bound:true
      (Program.seq
         [
           Program.of_steps [ Thread.Block ];
           Program.of_thunks
             [
               (fun _ ->
                 sleeper_state := "woken";
                 Thread.Exit);
             ];
         ])
  in
  ignore
    (Scheduler.spawn sys ~name:"waker" ~cpu:1 ~bound:true
       (Program.seq
          [
            Program.of_steps [ Thread.Compute (Time.us 100) ];
            Program.of_thunks
              [
                (fun { Thread.svc; _ } ->
                  svc.Thread.wake sleeper;
                  Thread.Exit);
              ];
          ]));
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check string) "woken across CPUs" "woken" !sleeper_state;
  Alcotest.(check bool) "a kick was sent" true
    (Account.kicks (Local_sched.account (Scheduler.sched sys 2)) > 0)

let test_sleep_until () =
  let sys = mk () in
  let woke_at = ref 0L in
  ignore
    (Scheduler.spawn sys ~cpu:1
       (Program.seq
          [
            Program.of_steps [ Thread.Sleep_until (Time.ms 3) ];
            Program.of_thunks
              [
                (fun { Thread.svc; _ } ->
                  woke_at := svc.Thread.now ();
                  Thread.Exit);
              ];
          ]));
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check bool) "woke shortly after 3ms" true
    Time.(!woke_at >= Time.ms 3 && !woke_at < Time.ms 3 + Time.us 50)

let test_exit_frees_slot () =
  let sys = mk () in
  let before = Scheduler.threads_alive sys in
  ignore
    (Scheduler.spawn sys ~cpu:1 (Program.of_steps [ Thread.Compute (Time.us 10) ]));
  Alcotest.(check int) "alive while queued" (before + 1) (Scheduler.threads_alive sys);
  Scheduler.run ~until:(Time.ms 1) sys;
  Alcotest.(check int) "slot freed on exit" before (Scheduler.threads_alive sys)

let test_spawn_validation () =
  let sys = mk () in
  Alcotest.check_raises "bad cpu" (Invalid_argument "Scheduler.spawn: bad CPU")
    (fun () -> ignore (Scheduler.spawn sys ~cpu:99 (Program.of_steps [])))

let test_thread_limit () =
  let config = { Config.default with Config.max_threads = 4 } in
  let sys = mk ~config () in
  for _ = 1 to 4 do
    ignore (Scheduler.spawn sys ~cpu:1 (Program.of_steps [ Thread.Block ]))
  done;
  Alcotest.check_raises "limit" (Failure "Scheduler.spawn: thread limit exceeded")
    (fun () -> ignore (Scheduler.spawn sys ~cpu:1 (Program.of_steps [])))

let test_tasks_do_not_delay_rt () =
  let sys = mk () in
  let th, _ = spawn_periodic sys ~period:(Time.us 100) ~slice:(Time.us 50) in
  (* Swamp the CPU with sized tasks. *)
  for _ = 1 to 200 do
    Scheduler.submit_task sys ~cpu:1 ~declared:(Time.us 20) ~duration:(Time.us 18)
      (fun () -> ())
  done;
  Scheduler.run ~until:(Time.ms 20) sys;
  Alcotest.(check int) "rt unaffected by tasks" 0 th.Thread.misses;
  Alcotest.(check bool) "tasks executed in slack" true
    (Task.executed (Local_sched.tasks (Scheduler.sched sys 1)) > 150)

let test_unsized_tasks_via_helper () =
  let sys = mk () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Scheduler.submit_task sys ~cpu:1 ~duration:(Time.us 10) (fun () -> incr count)
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "all unsized ran" 10 !count

let test_rephase_shifts_schedule () =
  let sys = mk () in
  let th, _ = spawn_periodic sys ~period:(Time.us 100) ~slice:(Time.us 20) in
  Scheduler.run ~until:(Time.ms 1) sys;
  let before = th.Thread.next_arrival in
  Scheduler.rephase sys th ~delta:(Time.us 37);
  Alcotest.(check int64) "shifted" Time.(before + Time.us 37) th.Thread.next_arrival;
  Scheduler.run ~until:(Time.ms 2) sys;
  Alcotest.(check int) "still no misses" 0 th.Thread.misses

let test_determinism_end_to_end () =
  let fingerprint seed =
    let sys = mk ~seed ~num_cpus:4 () in
    let th, _ = spawn_periodic sys ~period:(Time.us 100) ~slice:(Time.us 40) in
    ignore (Scheduler.spawn sys ~cpu:2 (Program.compute_forever (Time.us 30)));
    Scheduler.run ~until:(Time.ms 10) sys;
    ( th.Thread.cpu_time,
      th.Thread.arrivals,
      Engine.events_executed (Scheduler.engine sys) )
  in
  let a = fingerprint 7L and b = fingerprint 7L in
  Alcotest.(check bool) "bit-identical runs" true (a = b);
  let c = fingerprint 8L in
  Alcotest.(check bool) "seed changes details" true (a <> c)

let test_device_irq_charges_cpu () =
  let sys = mk () in
  let dev =
    Scheduler.add_device sys ~name:"disk" ~mean_interval:(Time.us 100)
      ~handler_cost:(Hrt_hw.Platform.cost 20_000. 1_000.)
      ()
  in
  Scheduler.steer_device sys dev ~cpus:[ 1 ];
  Scheduler.start_device sys dev;
  let th = Scheduler.spawn sys ~cpu:1 ~bound:true (Program.compute_forever (Time.us 50)) in
  Scheduler.run ~until:(Time.ms 10) sys;
  (* ~100 interrupts x ~15us handler = ~1.5ms stolen from the thread. *)
  let t = Time.to_float_ms th.Thread.cpu_time in
  Alcotest.(check bool) "thread lost handler time" true (t > 7.0 && t < 9.5)

(* The allocation budget of the scheduler pass, the counterpart of the
   engine's "steady-state allocation bound" (test_engine), which covers
   the bare event loop only. The hot-path lint flags closures, tuples
   and options, but it cannot see an int64 or float being boxed, and
   that is where most of the pass's words went: before the RNG state,
   the accounting summaries and the cost-draw chain were unboxed this
   point allocated ~197 words per engine event in the test (dev) build.
   The point is the Quick Fig 6 point at the feasibility edge: Phi, one
   periodic thread, 10 us period, 50 % slice, admission control off. *)
let test_pass_allocation_budget () =
  let config = { Config.default with Config.admission_control = false } in
  let sys =
    Scheduler.create ~seed:42L ~num_cpus:2 ~config ~obs:Hrt_obs.Sink.null phi
  in
  ignore
    (Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~period:(Time.us 10)
       ~slice:(Time.us 5) ());
  (* Warm-up: admission and the queue's entry pool reach steady state. *)
  Scheduler.run ~until:(Time.ms 5) sys;
  let eng = Scheduler.engine sys in
  let events0 = Engine.events_executed eng in
  let words0 = Gc.minor_words () in
  Scheduler.run ~until:(Time.ms 30) sys;
  let words = Gc.minor_words () -. words0 in
  let events = Engine.events_executed eng - events0 in
  Alcotest.(check bool) "the window ran events" true (events > 1000);
  let per_event = words /. float_of_int events in
  if per_event > 128. then
    Alcotest.failf
      "scheduler pass allocation: %.1f minor words per event over %d events \
       (budget 128)"
      per_event events

(* The engine's memory must stay flat while a far-off event stays
   pending: CPU 0's aperiodic thread is never re-dispatched, so its
   1-hour completion stays queued, while CPU 1's periodic thread cancels
   and re-adds its own completion on every pass. A queue that pins
   cancelled entries behind a live far-off one grows here: the timing
   wheel took the engine from 137,483 to 530,699 reachable words
   between 1 and 4 simulated seconds. *)
let test_far_event_keeps_memory_flat () =
  let sys = mk ~num_cpus:2 () in
  ignore
    (Scheduler.spawn sys ~cpu:0 ~bound:true
       (Program.compute_forever (Time.sec 3600)));
  ignore
    (Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~period:(Time.us 100)
       ~slice:(Time.us 50) ());
  let eng = Scheduler.engine sys in
  Scheduler.run ~until:(Time.sec 1) sys;
  let words0 = Obj.reachable_words (Obj.repr eng) in
  Scheduler.run ~until:(Time.sec 4) sys;
  let words = Obj.reachable_words (Obj.repr eng) in
  if words > words0 + 512 then
    Alcotest.failf "engine grew from %d to %d reachable words (%d pending)"
      words0 words (Engine.pending eng)

let suite =
  [
    Alcotest.test_case "periodic lifecycle" `Quick test_periodic_lifecycle;
    Alcotest.test_case "throttling proportional to slice" `Quick test_throttling_proportional;
    Alcotest.test_case "rejected thread stays aperiodic" `Quick test_rejected_thread_stays_aperiodic;
    Alcotest.test_case "two EDF threads coexist" `Quick test_edf_two_threads;
    Alcotest.test_case "EDF dispatch order" `Quick test_edf_orders_by_deadline;
    Alcotest.test_case "infeasible constraints miss small" `Quick test_infeasible_misses_small;
    Alcotest.test_case "sporadic demotion" `Quick test_sporadic_demotion;
    Alcotest.test_case "SMI pushes completion past deadline" `Quick test_smi_pushes_completion;
    Alcotest.test_case "eager vs lazy dispatch point" `Quick test_eager_starts_immediately_lazy_delays;
    Alcotest.test_case "aperiodic priority" `Quick test_aperiodic_priority;
    Alcotest.test_case "aperiodic round robin" `Quick test_aperiodic_round_robin;
    Alcotest.test_case "work stealing spreads load" `Quick test_work_stealing;
    Alcotest.test_case "bound threads not stolen" `Quick test_bound_threads_not_stolen;
    Alcotest.test_case "cross-CPU wake sends kick" `Quick test_cross_cpu_wake_kicks;
    Alcotest.test_case "sleep until" `Quick test_sleep_until;
    Alcotest.test_case "exit frees pool slot" `Quick test_exit_frees_slot;
    Alcotest.test_case "spawn validation" `Quick test_spawn_validation;
    Alcotest.test_case "thread limit enforced" `Quick test_thread_limit;
    Alcotest.test_case "tasks never delay RT threads" `Quick test_tasks_do_not_delay_rt;
    Alcotest.test_case "unsized tasks via helper thread" `Quick test_unsized_tasks_via_helper;
    Alcotest.test_case "rephase shifts schedule" `Quick test_rephase_shifts_schedule;
    Alcotest.test_case "end-to-end determinism" `Quick test_determinism_end_to_end;
    Alcotest.test_case "device irq charges the thread" `Quick test_device_irq_charges_cpu;
    Alcotest.test_case "scheduler pass allocation budget" `Quick
      test_pass_allocation_budget;
    Alcotest.test_case "far event keeps memory flat" `Quick
      test_far_event_keeps_memory_flat;
  ]
