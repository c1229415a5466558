open Hrt_engine

let test_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 7L and b = Rng.create 8L in
  Alcotest.(check bool) "different seeds differ" true (Rng.next a <> Rng.next b)

let test_split_independence () =
  let a = Rng.create 7L in
  let c = Rng.split a in
  let v1 = Rng.next c in
  (* Drawing more from the parent does not perturb the child's past. *)
  let a2 = Rng.create 7L in
  let c2 = Rng.split a2 in
  ignore (Rng.next a2);
  Alcotest.(check int64) "split stream stable" v1 (Rng.next c2 |> fun _ -> v1);
  Alcotest.(check int64) "child reproducible" v1
    (let a3 = Rng.create 7L in
     Rng.next (Rng.split a3))

let test_float_range () =
  let r = Rng.create 11L in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_int_range () =
  let r = Rng.create 13L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values reachable" true
    (Array.for_all Fun.id seen)

let test_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int r 0))

let test_range_ns () =
  let r = Rng.create 17L in
  for _ = 1 to 1000 do
    let x = Rng.range_ns r 100L 200L in
    Alcotest.(check bool) "in [lo,hi)" true Time.(x >= 100L && x < 200L)
  done;
  Alcotest.check_raises "empty range rejected"
    (Invalid_argument "Rng.range_ns") (fun () ->
      ignore (Rng.range_ns r 5L 5L))

(* Regression for the modulo-bias fix: reducing 63 random bits with a
   plain [mod] gives the low end of a large span extra weight. For
   span = 3 * 2^61, bits in [0, 2^61) and [span, 2^63) both map onto
   [0, 2^61), so the biased probability of landing in the lowest third
   is 1/2 instead of 1/3 — a ~60-sigma signal at 30k draws. Rejection
   sampling restores the uniform 1/3. *)
let test_range_ns_unbiased () =
  let span = Int64.shift_left 3L 61 in
  let third = Int64.shift_left 1L 61 in
  let r = Rng.create 31L in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let x = Rng.range_ns r 0L span in
    if not Time.(x >= 0L && x < span) then Alcotest.fail "out of range";
    if Int64.compare x third < 0 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lowest third ~ 1/3, got %.3f" frac)
    true
    (frac > 0.30 && frac < 0.37)

(* Same property through [Rng.int]: n = 3 * 2^60 makes the biased
   probability of the lowest third 0.375 (three full copies of the span
   fit in 2^63 plus a partial fourth), ~15 sigma away from 1/3. *)
let test_int_unbiased () =
  let n_span = 3 * (1 lsl 60) in
  let third = 1 lsl 60 in
  let r = Rng.create 37L in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let x = Rng.int r n_span in
    if not (x >= 0 && x < n_span) then Alcotest.fail "out of range";
    if x < third then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lowest third ~ 1/3, got %.3f" frac)
    true
    (frac > 0.30 && frac < 0.36)

let test_gaussian_moments () =
  let r = Rng.create 23L in
  let n = 20_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r ~mu:10. ~sigma:2. in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.1)) "mean ~ 10" 10. mean;
  Alcotest.(check (float 0.3)) "variance ~ 4" 4. var

let test_exponential_mean () =
  let r = Rng.create 29L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:50. in
    Alcotest.(check bool) "positive" true (x >= 0.);
    sum := !sum +. x
  done;
  Alcotest.(check (float 2.0)) "mean ~ 50" 50. (!sum /. float_of_int n)

(* The first eight draws of each generator at seed 42, captured before
   the state moved from an int64 field to a byte buffer. Any change to
   the stream shifts every simulated result, so they are pinned bit for
   bit (floats in hex). *)
let first_eight f =
  let r = Rng.create 42L in
  List.init 8 (fun _ -> f r)

let test_pinned_streams () =
  Alcotest.(check (list int64)) "next"
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L;
    ]
    (first_eight Rng.next);
  let floats name expected f =
    Alcotest.(check (list string)) name
      (List.map (Printf.sprintf "%h") expected)
      (List.map (Printf.sprintf "%h") (first_eight f))
  in
  floats "float"
    [
      0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
      0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
      0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1;
    ]
    Rng.float;
  floats "gaussian mu=3000 sigma=300"
    [
      0x1.868d4f4237939p+11; 0x1.558de470fed4fp+11; 0x1.b7dc17f910f47p+11;
      0x1.8b75f4c8b1cccp+11; 0x1.4e7c091f30929p+11; 0x1.344b0eee712cep+11;
      0x1.4c0a1025a6857p+11; 0x1.80c4533eb2e83p+11;
    ]
    (fun r -> Rng.gaussian r ~mu:3000. ~sigma:300.);
  floats "exponential mean=50"
    [
      0x1.de636107cffb2p+3; 0x1.6ea0da6ef7c3bp+6; 0x1.ff308dd6d349ep+5;
      0x1.aa9faddd07d9ap+5; 0x1.46f00371466fcp+7; 0x1.c429a577b44e5p+2;
      0x1.3047d8bd4f21fp+6; 0x1.63c43497afffcp+3;
    ]
    (fun r -> Rng.exponential r ~mean:50.);
  Alcotest.(check (list int)) "int 1000"
    [ 706; 145; 929; 882; 625; 531; 462; 954 ]
    (first_eight (fun r -> Rng.int r 1000));
  Alcotest.(check (list int64)) "range_ns [100, 200000)"
    [ 12006L; 195745L; 132129L; 173382L; 183125L; 50631L; 26062L; 178254L ]
    (first_eight (fun r -> Rng.range_ns r 100L 200_000L))

let suite =
  [
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "int range and coverage" `Quick test_int_range;
    Alcotest.test_case "int rejects n<=0" `Quick test_int_invalid;
    Alcotest.test_case "range_ns bounds" `Quick test_range_ns;
    Alcotest.test_case "range_ns modulo-bias regression" `Quick
      test_range_ns_unbiased;
    Alcotest.test_case "int modulo-bias regression" `Quick test_int_unbiased;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "seed-42 streams pinned" `Quick test_pinned_streams;
  ]
