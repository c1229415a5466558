open Hrt_engine

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~at:20L (fun _ -> log := 2 :: !log));
  ignore (Engine.schedule eng ~at:10L (fun _ -> log := 1 :: !log));
  ignore (Engine.schedule eng ~at:30L (fun _ -> log := 3 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "final time" 30L (Engine.now eng)

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:10L (fun eng ->
      try
        ignore (Engine.schedule eng ~at:5L (fun _ -> ()));
        Alcotest.fail "past schedule accepted"
      with Invalid_argument _ -> ()));
  Engine.run eng

let test_schedule_after () =
  let eng = Engine.create () in
  let fired_at = ref 0L in
  ignore (Engine.schedule eng ~at:100L (fun eng ->
      ignore (Engine.schedule_after eng ~after:50L (fun eng ->
          fired_at := Engine.now eng))));
  Engine.run eng;
  Alcotest.(check int64) "relative schedule" 150L !fired_at

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~at:10L (fun _ -> fired := true) in
  Engine.cancel eng h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_run_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule eng ~at:(Int64.of_int (i * 10)) (fun _ -> incr count))
  done;
  Engine.run ~until:55L eng;
  Alcotest.(check int) "only events <= until" 5 !count;
  Alcotest.(check int64) "clock advanced to until" 55L (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest run later" 10 !count

let test_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule eng ~at:(Int64.of_int i) (fun eng ->
           incr count;
           if !count = 3 then Engine.stop eng))
  done;
  Engine.run eng;
  Alcotest.(check int) "stopped after 3" 3 !count

let test_max_events () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule eng ~at:(Int64.of_int i) (fun _ -> incr count))
  done;
  Engine.run ~max_events:4 eng;
  Alcotest.(check int) "bounded" 4 !count

let test_freeze_defers_events () =
  let eng = Engine.create () in
  let fired_at = ref 0L in
  ignore (Engine.schedule eng ~at:10L (fun eng -> Engine.freeze eng ~until:100L));
  ignore (Engine.schedule eng ~at:50L (fun eng -> fired_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int64) "deferred to window end" 100L !fired_at

let test_freeze_preserves_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~at:10L (fun eng -> Engine.freeze eng ~until:100L));
  ignore (Engine.schedule eng ~at:20L (fun _ -> log := "a" :: !log));
  ignore (Engine.schedule eng ~at:30L (fun _ -> log := "b" :: !log));
  Engine.run eng;
  Alcotest.(check (list string)) "order kept" [ "a"; "b" ] (List.rev !log)

let test_frozen_overlap () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:10L (fun eng -> Engine.freeze eng ~until:30L));
  ignore (Engine.schedule eng ~at:60L (fun eng -> Engine.freeze eng ~until:80L));
  Engine.run eng;
  Alcotest.(check int64) "full windows" 40L (Engine.frozen_overlap eng 0L 100L);
  Alcotest.(check int64) "partial overlap" 10L (Engine.frozen_overlap eng 20L 60L);
  Alcotest.(check int64) "no overlap" 0L (Engine.frozen_overlap eng 31L 59L);
  Alcotest.(check int64) "empty interval" 0L (Engine.frozen_overlap eng 50L 50L);
  Alcotest.(check int64) "total" 40L (Engine.total_frozen eng)

let test_freeze_extension () =
  let eng = Engine.create () in
  ignore
    (Engine.schedule eng ~at:10L (fun eng ->
         Engine.freeze eng ~until:30L;
         Engine.freeze eng ~until:50L));
  let fired_at = ref 0L in
  ignore (Engine.schedule eng ~at:20L (fun eng -> fired_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int64) "extended window" 50L !fired_at;
  Alcotest.(check int64) "one merged window" 40L (Engine.frozen_overlap eng 0L 100L)

let test_determinism () =
  (* Two engines with the same seed and same construction produce the same
     event trace. *)
  let trace seed =
    let eng = Engine.create ~seed () in
    let log = ref [] in
    let rng = Engine.rng eng in
    for _ = 1 to 50 do
      let t = Int64.of_int (Rng.int rng 1000) in
      ignore
        (Engine.schedule eng ~at:t (fun eng ->
             log := Engine.now eng :: !log))
    done;
    Engine.run eng;
    !log
  in
  Alcotest.(check (list int64)) "identical traces" (trace 99L) (trace 99L)

let test_steady_state_allocation () =
  (* The zero-allocation contract: a steady-state run driven by a cached
     closure must not grow the major heap. The only per-event allocations
     allowed are the boxed int64s for the advancing clock, which die in the
     minor heap; the queue itself (pool + heap) recycles entries in place.
     Bound the total allocation rate and the words promoted by minor GCs. *)
  let eng = Engine.create () in
  let remaining = ref 10_000 in
  let rec event eng =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Engine.schedule_after eng ~after:3L event)
    end
  in
  ignore (Engine.schedule eng ~at:1L event);
  (* Warm-up: let the entry pool and heap reach steady state. *)
  Engine.run ~until:2_000L eng;
  let measured = !remaining in
  Alcotest.(check bool) "warm-up ran" true (measured > 0 && measured < 10_000);
  Gc.full_major ();
  let stat0 = Gc.quick_stat () in
  let bytes0 = Gc.allocated_bytes () in
  Engine.run eng;
  let bytes1 = Gc.allocated_bytes () in
  let stat1 = Gc.quick_stat () in
  Alcotest.(check int) "all events ran" 0 !remaining;
  let per_event = (bytes1 -. bytes0) /. float_of_int measured in
  if per_event > 64. then
    Alcotest.failf "allocation regression: %.1f bytes/event (bound 64)"
      per_event;
  let promoted = stat1.Gc.promoted_words -. stat0.Gc.promoted_words in
  if promoted > 256. then
    Alcotest.failf "steady-state run promoted %.0f words to the major heap"
      promoted

let suite =
  [
    Alcotest.test_case "schedule order" `Quick test_schedule_order;
    Alcotest.test_case "past schedule rejected" `Quick test_schedule_past_rejected;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "max_events" `Quick test_max_events;
    Alcotest.test_case "freeze defers events" `Quick test_freeze_defers_events;
    Alcotest.test_case "freeze preserves order" `Quick test_freeze_preserves_order;
    Alcotest.test_case "frozen overlap accounting" `Quick test_frozen_overlap;
    Alcotest.test_case "freeze extension merges" `Quick test_freeze_extension;
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "steady-state allocation bound" `Quick
      test_steady_state_allocation;
  ]
