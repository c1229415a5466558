open Hrt_engine
open Hrt_core
open Hrt_runtime

let phi = Hrt_hw.Platform.phi
let iter_cost = Hrt_hw.Platform.cost 2_000. 200. (* ~1.5us per iteration *)

let cpus n = List.init n (fun i -> i + 1)

let test_parallel_for_covers_all_indices () =
  let sys = Scheduler.create ~num_cpus:5 phi in
  let team = Omp.create_team sys ~cpus:(cpus 4) ~mode:Omp.Aperiodic in
  let hits = Array.make 1000 0 in
  Omp.parallel_for team ~iterations:1000 ~cost_per_iteration:iter_cost
    (fun i -> hits.(i) <- hits.(i) + 1);
  Omp.run_to_completion team;
  Alcotest.(check int) "loop completed" 1 (Omp.loops_completed team);
  Alcotest.(check bool) "every index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_loop_sequence_ordered () =
  (* With barriers, loop k+1 must start only after loop k finished: the
     per-loop sums never interleave. *)
  let sys = Scheduler.create ~num_cpus:5 phi in
  let team = Omp.create_team sys ~cpus:(cpus 4) ~mode:Omp.Aperiodic in
  let log = ref [] in
  for l = 0 to 4 do
    Omp.parallel_for team ~iterations:64 ~cost_per_iteration:iter_cost
      (fun _ -> log := l :: !log)
  done;
  Omp.run_to_completion team;
  Alcotest.(check int) "all loops" 5 (Omp.loops_completed team);
  let seq = List.rev !log in
  Alcotest.(check (list int)) "phases never interleave"
    (List.concat_map (fun l -> List.init 64 (fun _ -> l)) [ 0; 1; 2; 3; 4 ])
    seq

let test_uneven_iterations () =
  let sys = Scheduler.create ~num_cpus:5 phi in
  let team = Omp.create_team sys ~cpus:(cpus 4) ~mode:Omp.Aperiodic in
  let count = ref 0 in
  (* 10 iterations across 4 workers: chunks 2/3/2/3. *)
  Omp.parallel_for team ~iterations:10 ~cost_per_iteration:iter_cost (fun _ ->
      incr count);
  (* And an empty loop. *)
  Omp.parallel_for team ~iterations:0 ~cost_per_iteration:iter_cost (fun _ ->
      incr count);
  Omp.run_to_completion team;
  Alcotest.(check int) "both loops done" 2 (Omp.loops_completed team);
  Alcotest.(check int) "ten bodies" 10 !count

let test_timed_requires_rt () =
  let sys = Scheduler.create ~num_cpus:3 phi in
  let team = Omp.create_team sys ~cpus:(cpus 2) ~mode:Omp.Aperiodic in
  Alcotest.check_raises "timed needs RT"
    (Invalid_argument
       "Omp.parallel_for: `Timed synchronization requires a real-time team")
    (fun () ->
      Omp.parallel_for team ~sync:`Timed ~iterations:10
        ~cost_per_iteration:iter_cost ignore)

let test_rt_team_admitted_and_timed_runs () =
  let sys = Scheduler.create ~num_cpus:9 phi in
  let team =
    Omp.create_team sys ~cpus:(cpus 8)
      ~mode:(Omp.Realtime { period = Time.us 100; slice = Time.us 60 })
  in
  let hits = Array.make 4096 0 in
  for _ = 1 to 3 do
    Omp.parallel_for team ~sync:`Timed ~iterations:4096
      ~cost_per_iteration:iter_cost (fun i -> hits.(i) <- hits.(i) + 1)
  done;
  Omp.run_to_completion team;
  Alcotest.(check bool) "admitted" true (Omp.admitted team);
  Alcotest.(check int) "all loops" 3 (Omp.loops_completed team);
  Alcotest.(check bool) "all indices thrice" true
    (Array.for_all (fun h -> h = 3) hits)

let test_timed_beats_barrier () =
  (* The paper's Section 6.4, through the runtime API: dropping barriers
     under a hard real-time team is faster at fine granularity. *)
  let elapsed ~sync =
    let sys = Scheduler.create ~num_cpus:9 phi in
    let team =
      Omp.create_team sys ~cpus:(cpus 8)
        ~mode:(Omp.Realtime { period = Time.us 100; slice = Time.us 90 })
    in
    for _ = 1 to 40 do
      Omp.parallel_for team ~sync ~iterations:64
        ~cost_per_iteration:iter_cost ignore
    done;
    let t0 = Engine.now (Scheduler.engine sys) in
    Omp.run_to_completion team;
    Alcotest.(check int) "all done" 40 (Omp.loops_completed team);
    Int64.to_float Time.(Omp.last_completion team - t0)
  in
  let with_barrier = elapsed ~sync:`Barrier in
  let timed = elapsed ~sync:`Timed in
  Alcotest.(check bool)
    (Printf.sprintf "timed (%.0fns) beats barrier (%.0fns)" timed with_barrier)
    true (timed < with_barrier)

let test_shutdown () =
  let sys = Scheduler.create ~num_cpus:3 phi in
  let team = Omp.create_team sys ~cpus:(cpus 2) ~mode:Omp.Aperiodic in
  Omp.parallel_for team ~iterations:8 ~cost_per_iteration:iter_cost ignore;
  Omp.run_to_completion team;
  Alcotest.(check int) "workers alive before shutdown" 2
    (Scheduler.threads_alive sys);
  Omp.shutdown team;
  Scheduler.run ~until:Time.(Engine.now (Scheduler.engine sys) + Time.ms 5) sys;
  Alcotest.(check int) "workers exited" 0 (Scheduler.threads_alive sys)

let suite =
  [
    Alcotest.test_case "parallel_for covers all indices" `Quick test_parallel_for_covers_all_indices;
    Alcotest.test_case "loops never interleave (barrier)" `Quick test_loop_sequence_ordered;
    Alcotest.test_case "uneven and empty iterations" `Quick test_uneven_iterations;
    Alcotest.test_case "`Timed rejected on aperiodic team" `Quick test_timed_requires_rt;
    Alcotest.test_case "RT team: timed loops correct" `Quick test_rt_team_admitted_and_timed_runs;
    Alcotest.test_case "timed beats barrier (fine grain)" `Quick test_timed_beats_barrier;
    Alcotest.test_case "shutdown" `Quick test_shutdown;
  ]
