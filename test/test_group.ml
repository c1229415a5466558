open Hrt_engine
open Hrt_core
open Hrt_group

let phi = Hrt_hw.Platform.phi

let mk ?(num_cpus = 9) ?(config = Config.default) () =
  Scheduler.create ~num_cpus ~config phi

(* ---- membership ---- *)

let test_join_leave () =
  let sys = mk () in
  let group = Group.create sys ~name:"g" in
  let joined = ref 0 in
  let threads =
    List.init 4 (fun i ->
        Scheduler.spawn sys ~cpu:(i + 1) ~bound:true
          (Program.seq
             [
               Group.join group;
               Program.of_thunks
                 [
                   (fun _ ->
                     incr joined;
                     Thread.Block);
                 ];
             ]))
  in
  Scheduler.run ~until:(Time.ms 2) sys;
  Alcotest.(check int) "all joined" 4 !joined;
  Alcotest.(check int) "size" 4 (Group.size group);
  Alcotest.(check int) "members listed" 4 (List.length (Group.members group));
  (* Leave via fresh bodies. *)
  List.iter
    (fun (th : Thread.t) ->
      th.Thread.body <- Program.seq [ Group.leave group ];
      Scheduler.wake sys th)
    threads;
  Scheduler.run ~until:(Time.ms 4) sys;
  Alcotest.(check int) "all left" 0 (Group.size group)

let test_group_lock () =
  let sys = mk () in
  let g = Group.create sys ~name:"l" in
  let a = Thread.make ~id:100 ~name:"a" ~cpu:0 (fun _ -> Thread.Exit) in
  let b = Thread.make ~id:101 ~name:"b" ~cpu:0 (fun _ -> Thread.Exit) in
  Group.lock g a;
  Alcotest.(check bool) "owner" true
    (match Group.locked_by g with Some o -> o == a | None -> false);
  Alcotest.check_raises "second locker" (Invalid_argument "Group.lock: held")
    (fun () -> Group.lock g b);
  Alcotest.check_raises "wrong unlocker" (Invalid_argument "Group.unlock: not owner")
    (fun () -> Group.unlock g b);
  Group.unlock g a;
  Alcotest.(check bool) "released" true (Group.locked_by g = None)

(* ---- election ---- *)

let test_election_single_leader () =
  let sys = mk () in
  let group = Group.create sys ~name:"e" in
  let election = Election.create group in
  let leaders = ref 0 and done_ = ref 0 in
  for i = 1 to 6 do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Group.join group;
              Election.elect election ~on_result:(fun l ->
                  if l then incr leaders;
                  incr done_);
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "all answered" 6 !done_;
  Alcotest.(check int) "exactly one leader" 1 !leaders;
  Alcotest.(check bool) "leader recorded" true (Election.leader election <> None);
  Election.reset election;
  Alcotest.(check bool) "reset clears" true (Election.leader election = None)

(* ---- barrier ---- *)

let test_barrier_releases_all () =
  let sys = mk () in
  let b = Gbarrier.create sys ~parties:5 in
  let released = ref 0 in
  for i = 1 to 5 do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Program.of_steps [ Thread.Compute (Time.us (10 * i)) ];
              Gbarrier.cross b;
              Program.of_thunks
                [
                  (fun _ ->
                    incr released;
                    Thread.Exit);
                ];
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "all released" 5 !released;
  Alcotest.(check int) "one round" 1 (Gbarrier.rounds b)

let test_barrier_no_early_release () =
  let sys = mk () in
  let b = Gbarrier.create sys ~parties:3 in
  let released = ref 0 in
  for i = 1 to 2 do
    (* Only 2 of 3 parties arrive. *)
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Gbarrier.cross b;
              Program.of_thunks [ (fun _ -> incr released; Thread.Exit) ];
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "nobody released" 0 !released

let test_barrier_release_order_and_stagger () =
  let sys = mk () in
  let b = Gbarrier.create sys ~parties:4 in
  let orders = ref [] in
  let release_times = ref [] in
  for i = 1 to 4 do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              (* Stagger arrivals: cpu i arrives after i*20us of work. *)
              Program.of_steps [ Thread.Compute (Time.us (20 * i)) ];
              Gbarrier.cross b ~record_order:(fun th k ->
                  orders := (th.Thread.cpu, k) :: !orders);
              Program.of_thunks
                [
                  (fun { Thread.svc; _ } ->
                    release_times := svc.Thread.now () :: !release_times;
                    Thread.Exit);
                ];
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  (* Arrival order = cpu order (arrival stagger dominates); release order
     matches arrival order. *)
  List.iter
    (fun (cpu, k) -> Alcotest.(check int) "order = arrival order" (cpu - 1) k)
    !orders;
  let times = List.sort compare !release_times in
  Alcotest.(check int) "all released" 4 (List.length times);
  (* Departures are staggered, spanning roughly parties * delta. *)
  let span = Time.(List.nth times 3 - List.nth times 0) in
  Alcotest.(check bool) "staggered departures" true
    Time.(span > 0L && span < Time.us 30)

let test_barrier_reusable_rounds () =
  let sys = mk () in
  let b = Gbarrier.create sys ~parties:3 in
  let finished = ref 0 in
  for i = 1 to 3 do
    let round = ref 0 in
    let crossing = ref None in
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true (fun ctx ->
           if !round >= 5 then begin
             incr finished;
             Thread.Exit
           end
           else begin
             let body =
               match !crossing with
               | Some c -> c
               | None ->
                 let c = Gbarrier.cross b in
                 crossing := Some c;
                 c
             in
             match body ctx with
             | Thread.Exit ->
               crossing := None;
               incr round;
               Thread.Compute (Time.us 5)
             | op -> op
           end))
  done;
  Scheduler.run ~until:(Time.ms 10) sys;
  Alcotest.(check int) "five rounds" 5 (Gbarrier.rounds b);
  Alcotest.(check int) "all finished" 3 !finished

(* ---- reduction ---- *)

let test_reduction_combines () =
  let sys = mk () in
  let group = Group.create sys ~name:"r" in
  let red = Reduction.create group ~zero:0 ~combine:( + ) in
  Reduction.set_parties red 4;
  let results = ref [] in
  for i = 1 to 4 do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Group.join group;
              Reduction.reduce red
                ~value:(fun () -> i * 10)
                ~on_result:(fun r -> results := r :: !results);
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "everyone got the sum" 4 (List.length !results);
  List.iter (fun r -> Alcotest.(check int) "sum" 100 r) !results;
  Alcotest.(check (option int)) "last result" (Some 100) (Reduction.last_result red)

let test_reduction_or_semantics () =
  let sys = mk () in
  let group = Group.create sys ~name:"or" in
  let red = Reduction.create group ~zero:false ~combine:( || ) in
  Reduction.set_parties red 3;
  let results = ref [] in
  for i = 1 to 3 do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Group.join group;
              Reduction.reduce red
                ~value:(fun () -> i = 2)
                ~on_result:(fun r -> results := r :: !results);
            ]))
  done;
  Scheduler.run ~until:(Time.ms 5) sys;
  List.iter (fun r -> Alcotest.(check bool) "OR true" true r) !results

(* ---- group admission (Algorithm 1) ---- *)

let test_group_admission_success () =
  let workers = 6 in
  let sys = mk ~num_cpus:(workers + 1) () in
  let group =
    Hrt_harness.Exp.run_group_admission sys ~workers
      (Constraints.periodic ~period:(Time.us 200) ~slice:(Time.us 40) ())
      ()
  in
  Scheduler.run ~until:(Time.ms 50) sys;
  (* All members must now be periodic and making lock-step progress. *)
  List.iter
    (fun (th : Thread.t) ->
      Alcotest.(check bool) "member realtime" true (Thread.is_realtime th);
      Alcotest.(check bool) "arrivals happening" true (th.Thread.arrivals > 50);
      Alcotest.(check int) "no misses" 0 th.Thread.misses)
    (Group.members group)

let test_group_admission_all_or_nothing () =
  (* Pre-load one CPU with a big periodic thread so its member fails; the
     whole group must fall back to aperiodic. *)
  let workers = 4 in
  let sys = mk ~num_cpus:(workers + 1) () in
  let hog_admitted = ref false in
  ignore
    (Scheduler.spawn sys ~cpu:2 ~bound:true
       (Program.seq
          [
            Program.of_steps
              (Scheduler.admission_ops sys
                 (Constraints.periodic ~period:(Time.us 100) ~slice:(Time.us 70) ())
                 ~on_result:(fun v -> hog_admitted := Admission.admitted v));
            Program.compute_forever (Time.sec 3600);
          ]));
  Scheduler.run ~until:(Time.ms 1) sys;
  Alcotest.(check bool) "hog admitted" true !hog_admitted;
  let group =
    Hrt_harness.Exp.run_group_admission sys ~workers
      (Constraints.periodic ~period:(Time.us 100) ~slice:(Time.us 30) ())
      ()
  in
  Scheduler.run ~until:(Time.ms 30) sys;
  List.iter
    (fun (th : Thread.t) ->
      Alcotest.(check bool) "fell back to aperiodic" false (Thread.is_realtime th))
    (Group.members group)

let test_phase_correction_tightens_spread () =
  let measure pc =
    let workers = 24 in
    let sys = mk ~num_cpus:(workers + 1) () in
    let period = Time.us 200 in
    let collector =
      Hrt_harness.Exp.make_spread_collector sys ~workers ~period
        ~settle:(Time.ms 10)
    in
    ignore
      (Hrt_harness.Exp.run_group_admission ~phase_correction:pc sys ~workers
         (Constraints.periodic ~period ~slice:(Time.us 40) ())
         ());
    Scheduler.run ~until:(Time.ms 40) sys;
    let sp = Hrt_harness.Exp.spreads collector in
    Alcotest.(check bool) "collected" true (Array.length sp > 10);
    Hrt_stats.Summary.mean (Hrt_stats.Summary.of_array sp)
  in
  let raw = measure false and fixed = measure true in
  Alcotest.(check bool) "correction tightens spread" true (fixed < raw *. 0.85)

let test_release_orders_recorded () =
  let workers = 5 in
  let sys = mk ~num_cpus:(workers + 1) () in
  let group = Group.create sys ~name:"orders" in
  let barrier = Gbarrier.create sys ~parties:workers in
  let session = ref None in
  for i = 1 to workers do
    ignore
      (Scheduler.spawn sys ~cpu:i ~bound:true
         (Program.seq
            [
              Group.join group;
              Gbarrier.cross barrier;
              (fun _ ->
                (if !session = None then
                   session :=
                     Some
                       (Group_sched.prepare group
                          (Constraints.periodic ~period:(Time.us 500)
                             ~slice:(Time.us 50) ())));
                Thread.Exit);
              (let b = ref None in
               fun ctx ->
                 let body =
                   match !b with
                   | Some body -> body
                   | None ->
                     let body =
                       Group_sched.change_constraints (Option.get !session)
                         ~on_result:(fun v ->
                           Alcotest.(check bool) "admitted" true
                             (Admission.admitted v))
                     in
                     b := Some body;
                     body
                 in
                 body ctx);
              Program.compute_forever (Time.sec 3600);
            ]))
  done;
  Scheduler.run ~until:(Time.ms 30) sys;
  let session = Option.get !session in
  Alcotest.(check (option bool)) "verdict" (Some true)
    (Group_sched.succeeded session);
  let orders =
    List.filter_map
      (fun th -> Group_sched.release_order session th)
      (Group.members group)
  in
  Alcotest.(check int) "all ordered" workers (List.length orders);
  Alcotest.(check (list int)) "orders are a permutation" [ 0; 1; 2; 3; 4 ]
    (List.sort compare orders)

let suite =
  [
    Alcotest.test_case "join and leave" `Quick test_join_leave;
    Alcotest.test_case "group lock" `Quick test_group_lock;
    Alcotest.test_case "election: single leader" `Quick test_election_single_leader;
    Alcotest.test_case "barrier releases all" `Quick test_barrier_releases_all;
    Alcotest.test_case "barrier holds until full" `Quick test_barrier_no_early_release;
    Alcotest.test_case "barrier order and stagger" `Quick test_barrier_release_order_and_stagger;
    Alcotest.test_case "barrier reusable across rounds" `Quick test_barrier_reusable_rounds;
    Alcotest.test_case "reduction combines" `Quick test_reduction_combines;
    Alcotest.test_case "reduction OR over errors" `Quick test_reduction_or_semantics;
    Alcotest.test_case "group admission success" `Quick test_group_admission_success;
    Alcotest.test_case "group admission all-or-nothing" `Quick test_group_admission_all_or_nothing;
    Alcotest.test_case "phase correction tightens spread" `Quick test_phase_correction_tightens_spread;
    Alcotest.test_case "release orders recorded" `Quick test_release_orders_recorded;
  ]
