open Hrt_engine

let test_order () =
  let q = Event_queue.create ~dummy:"" in
  ignore (Event_queue.add q ~time:30L "c");
  ignore (Event_queue.add q ~time:10L "a");
  ignore (Event_queue.add q ~time:20L "b");
  let pop () = Option.get (Event_queue.pop q) in
  Alcotest.(check (pair int64 string)) "first" (10L, "a") (pop ());
  Alcotest.(check (pair int64 string)) "second" (20L, "b") (pop ());
  Alcotest.(check (pair int64 string)) "third" (30L, "c") (pop ());
  Alcotest.(check bool) "empty" true (Event_queue.pop q = None)

let test_fifo_ties () =
  let q = Event_queue.create ~dummy:"" in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:5L (string_of_int i))
  done;
  for i = 0 to 9 do
    let _, v = Option.get (Event_queue.pop q) in
    Alcotest.(check string) "insertion order at equal time" (string_of_int i) v
  done

let test_cancel () =
  let q = Event_queue.create ~dummy:"" in
  let a = Event_queue.add q ~time:1L "a" in
  ignore (Event_queue.add q ~time:2L "b");
  Event_queue.cancel q a;
  Alcotest.(check bool) "cancelled not live" false (Event_queue.is_live q a);
  Alcotest.(check int) "size excludes cancelled" 1 (Event_queue.size q);
  let _, v = Option.get (Event_queue.pop q) in
  Alcotest.(check string) "skips cancelled" "b" v

let test_cancel_idempotent () =
  let q = Event_queue.create ~dummy:() in
  let a = Event_queue.add q ~time:1L () in
  Event_queue.cancel q a;
  Event_queue.cancel q a;
  Alcotest.(check int) "size stays 0" 0 (Event_queue.size q)

let test_stale_handle_after_pop () =
  (* Once an event fires its handle must go stale: a slot recycled for a
     later event must not be cancellable through the old handle. *)
  let q = Event_queue.create ~dummy:"" in
  let a = Event_queue.add q ~time:1L "a" in
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "fired handle dead" false (Event_queue.is_live q a);
  let b = Event_queue.add q ~time:2L "b" in
  Event_queue.cancel q a;
  Alcotest.(check bool) "recycled slot untouched" true (Event_queue.is_live q b);
  Alcotest.(check int) "size" 1 (Event_queue.size q)

let test_peek () =
  let q = Event_queue.create ~dummy:() in
  Alcotest.(check bool) "empty peek" true (Event_queue.peek_time q = None);
  let a = Event_queue.add q ~time:7L () in
  ignore (Event_queue.add q ~time:9L ());
  Alcotest.(check (option int64)) "peek min" (Some 7L) (Event_queue.peek_time q);
  Event_queue.cancel q a;
  Alcotest.(check (option int64)) "peek skips cancelled" (Some 9L)
    (Event_queue.peek_time q)

(* The pool must not retain popped/cancelled payloads: attach a finalizer
   to a heap-allocated payload, drop every reference, and check the GC can
   actually reclaim it while the queue itself stays live (the queue must
   outlive the GC check, or the collector frees the whole pool and hides
   the leak). *)
let test_pop_releases_payload () =
  let q = Event_queue.create ~dummy:(ref 0) in
  let freed = ref false in
  (let payload = ref 42 in
   Gc.finalise (fun _ -> freed := true) payload;
   ignore (Event_queue.add q ~time:1L payload);
   ignore (Event_queue.pop q));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload is collectable" true !freed;
  Alcotest.(check int) "queue still live and empty" 0 (Event_queue.size q)

let test_cancel_releases_payload () =
  let q = Event_queue.create ~dummy:(ref 0) in
  let freed = ref false in
  (let payload = ref 7 in
   Gc.finalise (fun _ -> freed := true) payload;
   let e = Event_queue.add q ~time:1L payload in
   ignore (Event_queue.add q ~time:2L (ref 0));
   Event_queue.cancel q e);
  (* Even where cancellation is lazy the payload must be released
     eagerly. *)
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "cancelled payload is collectable" true !freed;
  Alcotest.(check int) "live size" 1 (Event_queue.size q)

let test_grow_does_not_duplicate_payloads () =
  (* Force several pool grows, drain, and make sure every payload can be
     reclaimed: vacated and never-used slots must hold only the dummy. *)
  let q = Event_queue.create ~dummy:(ref 0) in
  let n = 300 in
  let freed = ref 0 in
  for i = 1 to n do
    let payload = ref i in
    Gc.finalise (fun _ -> incr freed) payload;
    ignore (Event_queue.add q ~time:(Int64.of_int i) payload)
  done;
  let rec drain () =
    match Event_queue.pop q with Some _ -> drain () | None -> ()
  in
  drain ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "all payloads collectable" n !freed;
  Alcotest.(check int) "queue still live and empty" 0 (Event_queue.size q)

let test_large_volume () =
  let q = Event_queue.create ~dummy:() in
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    ignore (Event_queue.add q ~time:(Int64.of_int (Rng.int r 1_000_000)) ())
  done;
  let last = ref Int64.min_int in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
      Alcotest.(check bool) "monotone" true (Int64.compare t !last >= 0);
      last := t;
      incr count;
      drain ()
  in
  drain ();
  Alcotest.(check int) "all popped" 10_000 !count

let test_overflow_horizon () =
  (* Events 2^33 ns ahead must interleave with near events, including an
     add among them after the pops have moved on. *)
  let q = Event_queue.create ~dummy:"" in
  let far = Int64.shift_left 1L 33 in
  ignore (Event_queue.add q ~time:(Int64.add far 5L) "far2");
  ignore (Event_queue.add q ~time:10L "near");
  ignore (Event_queue.add q ~time:far "far1");
  let t1, v1 = Option.get (Event_queue.pop q) in
  Alcotest.(check (pair int64 string)) "near first" (10L, "near") (t1, v1);
  ignore (Event_queue.add q ~time:(Int64.add far 7L) "far3");
  let vs = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "far events in order" [ "far1"; "far2"; "far3" ]
    vs

let test_past_adds () =
  (* The queue itself accepts times below the last popped one (the
     engine layers its own monotonicity check); they fire before
     everything later, in (time, seq) order. *)
  let q = Event_queue.create ~dummy:"" in
  ignore (Event_queue.add q ~time:100L "now");
  ignore (Event_queue.pop q);
  ignore (Event_queue.add q ~time:50L "late-b");
  ignore (Event_queue.add q ~time:40L "late-a");
  ignore (Event_queue.add q ~time:120L "next");
  let vs = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "past adds first, ordered"
    [ "late-a"; "late-b"; "next" ] vs

(* A cancelled entry must give its pool slot back at once, however far
   ahead it was. A queue that cancels lazily and reclaims an entry only
   when it reaches the front lets one live far-off event pin every
   far-off event cancelled behind it: the timing wheel did, and this
   loop grew it from 3,136 to 1,050,688 reachable words. *)
let test_far_cancel_frees_entry () =
  let q = Event_queue.create ~dummy:0 in
  let far = Int64.shift_left 1L 40 in
  ignore (Event_queue.add q ~time:far 0);
  let churn rounds =
    for k = 1 to rounds do
      let h = Event_queue.add q ~time:(Int64.add far (Int64.of_int k)) k in
      Event_queue.cancel q h;
      ignore (Event_queue.next_tick q)
    done
  in
  churn 100;
  let words0 = Obj.reachable_words (Obj.repr q) in
  churn 100_000;
  let words = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check int) "one live entry" 1 (Event_queue.size q);
  if words > words0 + 64 then
    Alcotest.failf "cancelled entries retained: %d -> %d reachable words" words0
      words

let test_take_finish_defer () =
  (* The engine's hot-path protocol: take detaches the minimum but keeps
     the entry pooled; defer_inflight re-inserts it behind existing
     same-instant events; finish releases it. *)
  let q = Event_queue.create ~dummy:"" in
  let h0 = Event_queue.add q ~time:10L "deferred" in
  ignore (Event_queue.add q ~time:50L "settled");
  let h = Event_queue.take q in
  Alcotest.(check bool) "took the min" true (h = h0);
  Alcotest.(check int) "in-flight not counted" 1 (Event_queue.size q);
  Alcotest.(check int) "inflight tick" 10 (Event_queue.inflight_tick q h);
  Alcotest.(check string) "inflight payload" "deferred"
    (Event_queue.payload q h);
  Event_queue.defer_inflight q h ~time:50L;
  Alcotest.(check bool) "handle survives a defer" true
    (Event_queue.is_live q h);
  let _, v1 = Option.get (Event_queue.pop q) in
  Alcotest.(check string) "settled keeps its turn" "settled" v1;
  let h2 = Event_queue.take q in
  Alcotest.(check string) "deferred fires behind" "deferred"
    (Event_queue.payload q h2);
  Event_queue.finish q h2;
  Alcotest.(check bool) "no_tick when empty" true
    (Event_queue.next_tick q = Event_queue.no_tick)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_order;
    Alcotest.test_case "FIFO within equal times" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "stale handle after pop" `Quick
      test_stale_handle_after_pop;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "pop releases payload" `Quick test_pop_releases_payload;
    Alcotest.test_case "cancel releases payload" `Quick
      test_cancel_releases_payload;
    Alcotest.test_case "grow retains no payloads" `Quick
      test_grow_does_not_duplicate_payloads;
    Alcotest.test_case "10k random events sorted" `Quick test_large_volume;
    Alcotest.test_case "overflow horizon interleaving" `Quick
      test_overflow_horizon;
    Alcotest.test_case "past adds fire first" `Quick test_past_adds;
    Alcotest.test_case "take/defer/finish protocol" `Quick
      test_take_finish_defer;
    Alcotest.test_case "far cancel frees its entry" `Quick
      test_far_cancel_frees_entry;
  ]
