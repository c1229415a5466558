(* The deterministic fork-join pool: results always come back in
   submission order, whatever the job count or per-job duration. *)

open Hrt_par

let to_alcotest = QCheck_alcotest.to_alcotest

let test_pool_clamps () =
  Alcotest.(check int) "jobs >= 1" 1 (Par.Pool.jobs (Par.Pool.create ~jobs:0));
  Alcotest.(check int) "jobs as given" 4 (Par.Pool.jobs (Par.Pool.create ~jobs:4));
  Alcotest.(check int) "jobs capped at 64" 64
    (Par.Pool.jobs (Par.Pool.create ~jobs:10_000))

let test_map_empty_and_singleton () =
  let pool = Par.Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "empty" [||] (Par.map pool (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 6 |]
    (Par.map pool (fun x -> 2 * x) [| 3 |])

let test_map_matches_sequential () =
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected (Par.map pool f input))
    [ 1; 2; 3; 4; 8 ]

let test_exception_propagates () =
  let pool = Par.Pool.create ~jobs:4 in
  Alcotest.check_raises "first failure reraised" (Failure "boom-0") (fun () ->
      ignore
        (Par.map pool
           (fun i ->
             if i mod 7 = 0 then failwith (Printf.sprintf "boom-%d" i) else i)
           (Array.init 64 (fun i -> i))))

(* The qcheck property from the issue: index order is preserved under
   random per-job durations (so completion order is scrambled relative to
   submission order). *)
let prop_order_under_random_durations =
  QCheck.Test.make ~name:"Par.map preserves submission order" ~count:30
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 0 40) (int_bound 50)))
    (fun (jobs, delays) ->
      let input = Array.of_list (List.mapi (fun i d -> (i, d)) delays) in
      let pool = Par.Pool.create ~jobs in
      let out =
        Par.map pool
          (fun (i, d) ->
            (* Busy-spin proportional to the random delay so jobs finish
               out of submission order. *)
            let acc = ref 0 in
            for k = 0 to d * 1000 do
              acc := !acc + k
            done;
            ignore !acc;
            i)
          input
      in
      out = Array.map fst input)

exception Job_failed of int

(* Whatever the job count and however the jobs race, the exception that
   comes out is the one from the lowest failing index — the one
   [Array.map] raises at jobs=1. Random spins scramble completion order
   so a higher index often fails first in wall-clock time. *)
let prop_lowest_failure_raised =
  QCheck.Test.make ~name:"Par.map raises the lowest failing index" ~count:60
    QCheck.(
      pair (int_range 2 8)
        (list_of_size (Gen.int_range 1 40) (pair (int_bound 3) (int_bound 40))))
    (fun (jobs, spec) ->
      let input =
        Array.of_list (List.mapi (fun i (fail, spin) -> (i, fail = 0, spin)) spec)
      in
      let expected =
        Array.fold_right
          (fun (i, fails, _) acc -> if fails then Some i else acc)
          input None
      in
      let job (i, fails, spin) =
        let acc = ref 0 in
        for k = 0 to spin * 1000 do
          acc := !acc + k
        done;
        ignore !acc;
        if fails then raise (Job_failed i) else i
      in
      match Par.map (Par.Pool.create ~jobs) job input with
      | _ -> expected = None
      | exception Job_failed i -> expected = Some i)

let suite =
  [
    Alcotest.test_case "pool clamps job count" `Quick test_pool_clamps;
    Alcotest.test_case "map: empty and singleton" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "map matches sequential for any jobs" `Quick test_map_matches_sequential;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    to_alcotest prop_order_under_random_durations;
    to_alcotest prop_lowest_failure_raised;
  ]
