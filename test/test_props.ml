(* Property-based tests (qcheck) on core data structures and scheduler
   invariants. *)

open Hrt_engine
open Hrt_core

let to_alcotest = QCheck_alcotest.to_alcotest

(* ---- Prio_queue: heap order ---- *)

let prop_pq_sorted =
  QCheck.Test.make ~name:"prio_queue pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let q = Prio_queue.create ~capacity:(List.length keys + 1) in
      List.iter (fun k -> ignore (Prio_queue.add q ~key:(Int64.of_int k) k)) keys;
      let rec drain last acc =
        match Prio_queue.pop q with
        | None -> List.rev acc
        | Some (k, _) ->
          if Int64.compare k last < 0 then failwith "out of order"
          else drain k (k :: acc)
      in
      let popped = drain Int64.min_int [] in
      List.length popped = List.length keys)

let prop_pq_remove_keeps_order =
  QCheck.Test.make ~name:"prio_queue remove keeps heap invariant" ~count:200
    QCheck.(pair (list (int_bound 1000)) (list (int_bound 1000)))
    (fun (keys, removals) ->
      let q = Prio_queue.create ~capacity:(List.length keys + 1) in
      List.iter (fun k -> ignore (Prio_queue.add q ~key:(Int64.of_int k) k)) keys;
      List.iter
        (fun r -> ignore (Prio_queue.remove q (fun v -> v mod 17 = r mod 17)))
        removals;
      let rec drain last =
        match Prio_queue.pop q with
        | None -> true
        | Some (k, _) -> Int64.compare k last >= 0 && drain k
      in
      drain Int64.min_int)

(* ---- Prio_queue vs a stable-sorted list model ----

   The RT run queue's determinism rests on two properties at once: heap
   order by key AND FIFO among equal keys, preserved across interleaved
   adds, pops and middle removals (threads changing class or being
   stolen). The model is a list kept sorted by (key, insertion seq);
   removal by id mirrors [Prio_queue.remove]'s first-match contract. *)

type pq_op = Pq_add of int | Pq_pop | Pq_remove of int | Pq_min | Pq_drop_min

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (* Keys from a tiny range so equal-key ties are common. *)
        (5, map (fun k -> Pq_add k) (int_bound 7));
        (3, return Pq_pop);
        (2, map (fun i -> Pq_remove i) (int_bound 40));
        (2, return Pq_min);
        (2, return Pq_drop_min);
      ])

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let prop_pq_model =
  QCheck.Test.make ~name:"prio_queue: heap order + FIFO ties vs model"
    ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 80) pq_op_gen))
    (fun ops ->
      let q = Prio_queue.create ~capacity:128 in
      (* model: (key, seq, id) sorted by (key, seq); seq is insertion order,
         id identifies elements for removal. *)
      let model = ref [] in
      let next = ref 0 in
      let insert (k, s, id) =
        let rec go = function
          | [] -> [ (k, s, id) ]
          | (k', s', _) :: _ as rest when (k, s) < (k', s') ->
            (k, s, id) :: rest
          | x :: rest -> x :: go rest
        in
        model := go !model
      in
      List.for_all
        (fun op ->
          match op with
          | Pq_add k ->
            let id = !next in
            incr next;
            let ok = Prio_queue.add q ~key:(Int64.of_int k) id in
            if ok then insert (k, id, id);
            ok
          | Pq_pop -> (
            let got = Prio_queue.pop q in
            match !model with
            | [] -> got = None
            | (k, _, id) :: rest ->
              model := rest;
              got = Some (Int64.of_int k, id))
          | Pq_remove target -> (
            (* Prio_queue.remove scans in heap (array) order, which is not
               the model's sorted order — so only compare against the model
               when the predicate identifies a unique element. *)
            let got = Prio_queue.remove q (fun id -> id = target) in
            match List.partition (fun (_, _, id) -> id = target) !model with
            | [], _ -> got = None
            | [ (_, _, id) ], rest ->
              model := rest;
              got = Some id
            | _ -> false)
          | Pq_min -> (
            (* The allocation-free head accessors agree with [peek]. *)
            match !model with
            | [] ->
              raises_invalid (fun () -> Prio_queue.min_key q)
              && raises_invalid (fun () -> Prio_queue.min_value q)
            | (k, _, id) :: _ ->
              Int64.equal (Prio_queue.min_key q) (Int64.of_int k)
              && Prio_queue.min_value q = id
              && Prio_queue.peek q = Some (Int64.of_int k, id))
          | Pq_drop_min -> (
            match !model with
            | [] -> raises_invalid (fun () -> Prio_queue.drop_min q)
            | _ :: rest ->
              Prio_queue.drop_min q;
              model := rest;
              true))
        ops
      && Prio_queue.length q = List.length !model
      &&
      (* Drain: the full (key, FIFO) order must survive the interleaving. *)
      let rec drain = function
        | [] -> Prio_queue.pop q = None
        | (k, _, id) :: rest ->
          Prio_queue.pop q = Some (Int64.of_int k, id) && drain rest
      in
      drain !model)

(* ---- Event_queue ---- *)

let prop_eq_sorted_with_cancels =
  QCheck.Test.make ~name:"event_queue sorted despite cancellations" ~count:200
    QCheck.(list (pair (int_bound 10_000) bool))
    (fun entries ->
      let q = Event_queue.create ~dummy:0 in
      let live = ref 0 in
      List.iter
        (fun (t, keep) ->
          let e = Event_queue.add q ~time:(Int64.of_int t) t in
          if keep then incr live else Event_queue.cancel q e)
        entries;
      if Event_queue.size q <> !live then false
      else begin
        let rec drain last n =
          match Event_queue.pop q with
          | None -> n = !live
          | Some (t, _) -> Int64.compare t last >= 0 && drain t (n + 1)
        in
        drain Int64.min_int 0
      end)

(* ---- Event queue vs reference heap (differential) ----

   The engine's determinism guarantee rests on the event queue producing
   the exact (time, seq, payload) pop sequence of the original binary
   heap. Drive both implementations with one random operation stream —
   adds (including same-instant FIFO ties, past-time adds once pops have
   moved on, and far adds 2^33 ns ahead), cancels through stored
   handles, pops, and deep queues churned at interior positions — and
   demand they agree on every observation. *)

(* The engine's in-flight protocol rides along: [next_tick], [take]
   followed by [finish] or by [defer_inflight], and a cancel of the
   current minimum right after a [next_tick]. *)
type eq_op =
  | Eq_add of int
  | Eq_far of int
  | Eq_cancel of int
  | Eq_pop
  | Eq_next_tick
  | Eq_take_finish
  | Eq_take_defer of int
  | Eq_cancel_min

(* Hundreds to a few thousand adds at times spread over 2^34 ns, then
   cancels of random earlier insertions and deferrals to spread times:
   removals and re-insertions deep inside a tall heap. *)
let eq_deep_gen =
  let spread = QCheck.Gen.int_bound (1 lsl 34) in
  QCheck.Gen.(
    map2
      (fun times churn ->
        List.map (fun t -> Eq_add t) times
        @ List.map
            (fun r ->
              if r land 1 = 0 then Eq_cancel (r lsr 1) else Eq_take_defer r)
            churn)
      (list_size (int_range 200 3000) spread)
      (list_size (int_range 50 400) spread))

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (* Times from a tiny range so ties and past adds are common. *)
        (6, map (fun t -> Eq_add t) (int_bound 12));
        (2, map (fun t -> Eq_far t) (int_bound 12));
        (2, map (fun i -> Eq_cancel i) (int_bound 200));
        (3, return Eq_pop);
        (2, return Eq_next_tick);
        (2, return Eq_take_finish);
        (2, map (fun t -> Eq_take_defer t) (int_bound 12));
        (2, return Eq_cancel_min);
      ])

(* One case in four runs a deep block between two short streams. *)
let eq_ops_gen =
  QCheck.Gen.(
    let ops = list_size (int_range 0 150) eq_op_gen in
    frequency
      [ (3, ops); (1, map3 (fun a deep b -> a @ deep @ b) ops eq_deep_gen ops) ])

let heap_tick h =
  match Heap_queue.peek_time h with
  | None -> Event_queue.no_tick
  | Some t -> Int64.to_int t

let prop_event_queue_matches_heap =
  QCheck.Test.make ~name:"event queue matches reference heap" ~count:400
    (QCheck.make eq_ops_gen)
    (fun ops ->
      let w = Event_queue.create ~dummy:(-1) in
      let h = Heap_queue.create () in
      (* Insertion [id] (also its payload) -> its two handles and the
         seq of its latest (re)insertion. *)
      let entries = Hashtbl.create 64 in
      let n = ref 0 in
      let seq = ref 0 in
      let far = Int64.shift_left 1L 33 in
      let pick i = Hashtbl.find entries (i mod !n) in
      let insert id pair =
        Hashtbl.replace entries id (pair, !seq);
        incr seq
      in
      let add time =
        let id = !n in
        insert id (Event_queue.add w ~time id, Heap_queue.add h ~time id);
        incr n
      in
      (* The live pair that fires next: earliest time, then lowest seq. *)
      let live_min () =
        Hashtbl.fold
          (fun _ (((_, he) as pair), sq) best ->
            if not (Heap_queue.is_live he) then best
            else
              let key = (Heap_queue.entry_time he, sq) in
              match best with
              | Some (bkey, _) when compare bkey key < 0 -> best
              | Some _ | None -> Some (key, pair))
          entries None
        |> Option.map snd
      in
      (* [take] must hand out what the heap pops. *)
      let take_matches () =
        let wh = Event_queue.take w in
        match Heap_queue.pop h with
        | None -> if wh = Event_queue.none then Some None else None
        | Some (time, p) ->
          if
            wh <> Event_queue.none
            && Event_queue.inflight_tick w wh = Int64.to_int time
            && Event_queue.payload w wh = p
          then Some (Some (wh, p))
          else None
      in
      let step op =
        match op with
        | Eq_add t ->
          add (Int64.of_int t);
          true
        | Eq_far t ->
          add (Int64.add far (Int64.of_int t));
          true
        | Eq_cancel i ->
          !n = 0
          ||
          let (wh, he), _ = pick i in
          (* Liveness must agree even through fired / already-cancelled /
             deferred handles (generation checks vs lazy marks). *)
          let agree = Event_queue.is_live w wh = Heap_queue.is_live he in
          Event_queue.cancel w wh;
          Heap_queue.cancel h he;
          agree
        | Eq_pop -> Event_queue.pop w = Heap_queue.pop h
        | Eq_next_tick -> Event_queue.next_tick w = heap_tick h
        | Eq_take_finish -> (
          match take_matches () with
          | None -> false
          | Some None -> true
          | Some (Some (wh, _)) ->
            Event_queue.finish w wh;
            true)
        | Eq_take_defer t -> (
          match take_matches () with
          | None -> false
          | Some None -> true
          | Some (Some (wh, p)) ->
            (* Ask for the minimum while the entry is in flight, as a
               handler may. The event queue keeps the owner's handle;
               the reference heap re-adds. *)
            Event_queue.next_tick w = heap_tick h
            &&
            let time = Int64.of_int t in
            Event_queue.defer_inflight w wh ~time;
            insert p (wh, Heap_queue.add h ~time p);
            Event_queue.is_live w wh)
        | Eq_cancel_min -> (
          Event_queue.next_tick w = heap_tick h
          &&
          match live_min () with
          | None -> Event_queue.next_tick w = Event_queue.no_tick
          | Some (wh, he) ->
            Event_queue.cancel w wh;
            Heap_queue.cancel h he;
            true)
      in
      List.for_all
        (fun op ->
          step op
          && Event_queue.size w = Heap_queue.size h
          && Event_queue.next_tick w = heap_tick h
          && Event_queue.peek_time w = Heap_queue.peek_time h)
        ops
      &&
      (* Drain both to the end: the tails must be identical too. *)
      let rec drain () =
        let pw = Event_queue.pop w and ph = Heap_queue.pop h in
        pw = ph && (pw = None || drain ())
      in
      drain ())

(* ---- Summary ---- *)

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1000.))

let prop_summary_bounds =
  QCheck.Test.make ~name:"summary: min <= mean <= max" ~count:300 nonempty_floats
    (fun xs ->
      let s = Hrt_stats.Summary.of_array (Array.of_list xs) in
      Hrt_stats.Summary.min s <= Hrt_stats.Summary.mean s +. 1e-9
      && Hrt_stats.Summary.mean s <= Hrt_stats.Summary.max s +. 1e-9)

let prop_summary_merge_commutes =
  QCheck.Test.make ~name:"summary merge commutes" ~count:200
    QCheck.(pair nonempty_floats nonempty_floats)
    (fun (xs, ys) ->
      let a = Hrt_stats.Summary.of_array (Array.of_list xs) in
      let b = Hrt_stats.Summary.of_array (Array.of_list ys) in
      let m1 = Hrt_stats.Summary.merge a b in
      let m2 = Hrt_stats.Summary.merge b a in
      Float.abs (Hrt_stats.Summary.mean m1 -. Hrt_stats.Summary.mean m2) < 1e-6
      && Float.abs
           (Hrt_stats.Summary.variance m1 -. Hrt_stats.Summary.variance m2)
         < 1e-3)

(* ---- Histogram ---- *)

let prop_histogram_conservation =
  QCheck.Test.make ~name:"histogram conserves samples" ~count:300
    QCheck.(list (float_range (-100.) 1100.))
    (fun xs ->
      let h = Hrt_stats.Histogram.create ~lo:0. ~hi:1000. ~bins:13 in
      List.iter (Hrt_stats.Histogram.add h) xs;
      let binned = ref 0 in
      for i = 0 to Hrt_stats.Histogram.bins h - 1 do
        binned := !binned + Hrt_stats.Histogram.bin_count h i
      done;
      !binned + Hrt_stats.Histogram.underflow h + Hrt_stats.Histogram.overflow h
      = List.length xs)

(* ---- Percentile ---- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in p" ~count:200
    QCheck.(pair nonempty_floats (list (int_bound 100)))
    (fun (xs, ps) ->
      let p = Hrt_stats.Percentile.of_array (Array.of_list xs) in
      let ps = List.sort compare (List.map float_of_int ps) in
      let rec check last = function
        | [] -> true
        | q :: rest ->
          let v = Hrt_stats.Percentile.value p q in
          v >= last -. 1e-9 && check v rest
      in
      check neg_infinity ps)

(* ---- Rng ---- *)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:300
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let x = Rng.int r n in
      x >= 0 && x < n)

(* ---- Deque vs list model ---- *)

type dq_op = Push_front of int | Push_back of int | Pop | Remove of int

let dq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun x -> Push_front x) (int_bound 100));
        (3, map (fun x -> Push_back x) (int_bound 100));
        (2, return Pop);
        (* Values in a residue class so the predicate hits the middle of
           either half (or misses entirely), exercising the half-rebuild
           removal paths. *)
        (2, map (fun x -> Remove x) (int_bound 100));
      ])

let prop_deque_model =
  QCheck.Test.make ~name:"deque behaves like a list" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) dq_op_gen))
    (fun ops ->
      let d = Hrt_kernel.Deque.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Push_front x ->
            Hrt_kernel.Deque.push_front d x;
            model := x :: !model;
            true
          | Push_back x ->
            Hrt_kernel.Deque.push_back d x;
            model := !model @ [ x ];
            true
          | Pop -> (
            let got = Hrt_kernel.Deque.pop_front d in
            match !model with
            | [] -> got = None
            | x :: rest ->
              model := rest;
              got = Some x)
          | Remove target -> (
            let pred v = v mod 7 = target mod 7 in
            let got = Hrt_kernel.Deque.remove d pred in
            let rec take acc = function
              | [] -> (None, !model)
              | x :: rest when pred x -> (Some x, List.rev_append acc rest)
              | x :: rest -> take (x :: acc) rest
            in
            let expect, rest = take [] !model in
            model := rest;
            got = expect))
        ops
      && Hrt_kernel.Deque.to_list d = !model)

(* ---- Admission: utilization never exceeds capacity ---- *)

let prop_admission_capacity =
  QCheck.Test.make ~name:"admission never over-commits" ~count:200
    QCheck.(list (pair (int_range 10 1000) (int_range 1 100)))
    (fun reqs ->
      let adm = Admission.create Config.default in
      let capacity = Config.periodic_capacity Config.default in
      List.iter
        (fun (period_us, slice_pct) ->
          let period = Time.us period_us in
          let slice =
            Time.max 1_000L
              (Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L)
          in
          ignore
            (Admission.request adm ~now:0L
               ~old_constr:(Constraints.aperiodic ())
               (Constraints.periodic ~period ~slice ())))
        reqs;
      Admission.periodic_util adm <= capacity +. 1e-9)

(* ---- Time conversions conservative ---- *)

let prop_time_cycle_roundtrip =
  QCheck.Test.make ~name:"cycle conversion conservative" ~count:300
    QCheck.(pair (int_range 1 1_000_000_000) (int_range 10 40))
    (fun (t, ghz10) ->
      let ghz = float_of_int ghz10 /. 10. in
      let t = Int64.of_int t in
      let c = Time.cycles_of_ns ~ghz t in
      let t' = Time.ns_of_cycles ~ghz c in
      (* Floor then ceil: lands within one cycle's worth of nanoseconds
         (plus <= 1 ns of float slack in the frequency). *)
      Float.abs (Int64.to_float (Int64.sub t t')) <= (1. /. ghz) +. 1.)

(* ---- Feasible task sets never miss (the paper's core guarantee) ---- *)

let prop_feasible_no_misses =
  QCheck.Test.make ~name:"feasible task sets never miss" ~count:10
    QCheck.(
      pair (int_range 0 1000)
        (list_of_size Gen.(int_range 1 3) (pair (int_range 2 10) (int_range 5 15))))
    (fun (seed, specs) ->
      (* Periods 200us-1ms, slices 5-15% each, at most 3 threads: total
         utilization <= 45%, far below capacity: the scheduler must meet
         every deadline. *)
      let sys =
        Scheduler.create ~seed:(Int64.of_int seed) ~num_cpus:2
          Hrt_hw.Platform.phi
      in
      let threads =
        List.map
          (fun (p100, slice_pct) ->
            let period = Time.us (p100 * 100) in
            let slice =
              Int64.div (Int64.mul period (Int64.of_int slice_pct)) 100L
            in
            let admitted = ref false in
            let th =
              Scheduler.spawn sys ~cpu:1 ~bound:true
                (Program.seq
                   [
                     Program.of_steps
                       (Scheduler.admission_ops sys
                          (Constraints.periodic ~period ~slice ())
                          ~on_result:(fun v -> admitted := Admission.admitted v));
                     Program.compute_forever (Time.sec 3600);
                   ])
            in
            (th, admitted))
          specs
      in
      Scheduler.run ~until:(Time.ms 30) sys;
      List.for_all
        (fun ((th : Thread.t), admitted) -> !admitted && th.Thread.misses = 0)
        threads)

let suite =
  List.map to_alcotest
    [
      prop_pq_sorted;
      prop_pq_remove_keeps_order;
      prop_pq_model;
      prop_eq_sorted_with_cancels;
      prop_event_queue_matches_heap;
      prop_summary_bounds;
      prop_summary_merge_commutes;
      prop_histogram_conservation;
      prop_percentile_monotone;
      prop_rng_int_bounds;
      prop_deque_model;
      prop_admission_capacity;
      prop_time_cycle_roundtrip;
      prop_feasible_no_misses;
    ]
