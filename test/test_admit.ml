(* Analytical admission: oracle verdicts + certificates, the memoized
   service, the typed Admission.verdict API, and oracle/simulator
   cross-validation (test-scale corpus; CI runs the full one). *)

open Hrt_engine
open Hrt_core
open Hrt_analysis

let to_alcotest = QCheck_alcotest.to_alcotest

let phi_overhead = Taskset.overhead_of_platform Hrt_hw.Platform.phi

let p ~period_us ~slice_us =
  Constraints.periodic ~period:(Time.us period_us) ~slice:(Time.us slice_us) ()

let production ?(policy = Config.Edf) tasks =
  Taskset.make ~config:{ Config.default with Config.policy }
    ~overhead_ns:phi_overhead tasks

(* Full CPU, zero overhead: rejections here are raw-infeasibility claims. *)
let raw ?(policy = Config.Edf) tasks =
  Taskset.make
    ~config:
      {
        Config.default with
        Config.policy;
        util_limit = 1.0;
        strict_reservations = false;
        sporadic_reservation = 1.0;
      }
    ~overhead_ns:0L tasks

let check_ok name ts r =
  match Oracle.check ts r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: certificate fails replay: %s" name msg

(* ---- oracle verdicts ---- *)

let test_edf_admit () =
  let ts = production [ p ~period_us:1000 ~slice_us:300; p ~period_us:2000 ~slice_us:400 ] in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "admitted" true (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Edf_demand { horizon; _ } ] ->
    Alcotest.(check int64) "hyperperiod" (Time.ms 2) horizon
  | _ -> Alcotest.fail "expected exactly one EDF demand certificate");
  check_ok "edf admit" ts r

let test_edf_reject () =
  let ts = production [ p ~period_us:100 ~slice_us:90 ] in
  let r = Oracle.analyze ts in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Hyperperiod_demand { interval; demand } } ->
    Alcotest.(check int64) "interval" (Time.us 100) interval;
    Alcotest.(check int64) "demand" 99_231L demand
  | v ->
    Alcotest.failf "expected demand rejection, got %s"
      (Format.asprintf "%a" Admission.pp_verdict v));
  Alcotest.(check bool) "exact infeasibility" true (Oracle.exact_infeasible ts r);
  check_ok "edf reject" ts r

(* Harmonic set at 100% utilization: exactly RM-schedulable, above the
   Liu-Layland bound — the oracle admits what the runtime ledger's
   sufficient test refuses. *)
let test_rm_exact_beats_liu_layland () =
  let tasks = [ p ~period_us:100 ~slice_us:50; p ~period_us:200 ~slice_us:100 ] in
  let ts = raw ~policy:Config.Rm tasks in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "oracle admits" true (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Rm_points responses ] ->
    Alcotest.(check int) "one point per task" 2 (List.length responses)
  | _ -> Alcotest.fail "expected RM scheduling-point certificate");
  check_ok "rm exact" ts r;
  let ledger =
    Admission.create
      { Config.default with Config.policy = Config.Rm; util_limit = 1.0;
        strict_reservations = false }
  in
  let admit_one c =
    Admission.request ledger ~now:0L ~old_constr:(Constraints.aperiodic ()) c
  in
  ignore (admit_one (List.nth tasks 0));
  match admit_one (List.nth tasks 1) with
  | Admission.Rejected { reason = Admission.Rejection.Utilization_bound _ } -> ()
  | v ->
    Alcotest.failf "ledger should reject above Liu-Layland, got %s"
      (Format.asprintf "%a" Admission.pp_verdict v)

let test_rm_blocking () =
  let ts = raw ~policy:Config.Rm [ p ~period_us:10 ~slice_us:6; p ~period_us:14 ~slice_us:7 ] in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "rejected" false (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Rm_blocking { period; chain; _ } ] ->
    Alcotest.(check int64) "blocked task" (Time.us 14) period;
    Alcotest.(check int) "one blocking link" 1 (List.length chain)
  | _ -> Alcotest.fail "expected RM blocking certificate");
  Alcotest.(check bool) "exact infeasibility" true (Oracle.exact_infeasible ts r);
  check_ok "rm blocking" ts r

let test_sporadic_density () =
  let s size_us deadline_us =
    Constraints.sporadic ~size:(Time.us size_us) ~deadline:(Time.us deadline_us) ()
  in
  let fits = production [ s 90 1000 ] in
  let r = Oracle.analyze fits in
  Alcotest.(check bool) "9% density fits" true (Admission.admitted r.Oracle.verdict);
  check_ok "density fits" fits r;
  let over = production [ s 90 1000; s 50 1000 ] in
  let r = Oracle.analyze over in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Density_bound _ } -> ()
  | _ -> Alcotest.fail "expected density rejection");
  Alcotest.(check bool) "density is sufficient-only" false
    (Oracle.exact_infeasible over r);
  check_ok "density over" over r

let test_structural_rejection () =
  let ts = production [ Constraints.periodic ~period:(Time.us 10) ~slice:(Time.us 11) () ] in
  let r = Oracle.analyze ts in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Invalid _ } -> ()
  | _ -> Alcotest.fail "expected structural rejection");
  Alcotest.(check int) "no certificates" 0 (List.length r.Oracle.certs);
  check_ok "structural" ts r

(* ---- certificate tampering: the checker must refuse ---- *)

let test_check_rejects_tampering () =
  let ts = production [ p ~period_us:1000 ~slice_us:300 ] in
  let r = Oracle.analyze ts in
  check_ok "clean" ts r;
  let tampered_cert =
    match r.Oracle.certs with
    | [ Oracle.Edf_demand { horizon; demand } ] ->
      [ Oracle.Edf_demand { horizon; demand = Time.(demand + 1L) } ]
    | _ -> Alcotest.fail "expected EDF certificate"
  in
  (match Oracle.check ts { r with Oracle.certs = tampered_cert } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered demand must not replay");
  let flipped =
    {
      r with
      Oracle.verdict =
        Admission.Rejected
          {
            reason =
              Admission.Rejection.Hyperperiod_demand
                { interval = Time.us 1000; demand = 0L };
          };
    }
  in
  match Oracle.check ts flipped with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flipped verdict must not replay"

(* ---- golden verdicts: the Fig 6-9 feasibility edge on Phi ---- *)

(* Single periodic task at 50% slice across the Fig 6 period grid, under
   the production view (79% capacity, Phi's 9231ns per-arrival charge).
   The paper's observed edge: periods at and below ~30us are infeasible
   purely from scheduler overhead; 40us and up clear it. *)
let test_golden_feasibility_edge () =
  let golden =
    [
      (1000, "admitted (headroom 0.280769)");
      (100, "admitted (headroom 0.197690)");
      (50, "admitted (headroom 0.105380)");
      (40, "admitted (headroom 0.059225)");
      (30, "rejected: demand 24231ns exceeds supply in interval [0,30000ns]");
      (20, "rejected: demand 19231ns exceeds supply in interval [0,20000ns]");
      (10, "rejected: demand 14231ns exceeds supply in interval [0,10000ns]");
    ]
  in
  List.iter
    (fun (period_us, expect) ->
      let ts = production [ p ~period_us ~slice_us:(period_us / 2) ] in
      let r = Oracle.analyze ts in
      Alcotest.(check string)
        (Printf.sprintf "period %dus" period_us)
        expect
        (Format.asprintf "%a" Admission.pp_verdict r.Oracle.verdict);
      check_ok "golden" ts r)
    golden

(* ---- taskset canonicalization ---- *)

let test_fingerprint_permutation () =
  let a = p ~period_us:100 ~slice_us:20 in
  let b = p ~period_us:200 ~slice_us:50 in
  let c = p ~period_us:500 ~slice_us:100 in
  let f tasks = Taskset.fingerprint (production tasks) in
  Alcotest.(check string) "permutation invariant" (f [ a; b; c ]) (f [ c; a; b ]);
  Alcotest.(check bool) "different set differs" true (f [ a; b ] <> f [ a; c ]);
  let g policy = Taskset.fingerprint (production ~policy [ a; b ]) in
  Alcotest.(check bool) "policy is part of the key" true
    (g Config.Edf <> g Config.Rm);
  (* The key is the encoding itself: a config prefix (policy name and
     its length byte, admission tag, three float fields, two flags,
     min_period, min_slice, overhead), then 17 bytes per task. *)
  let prefix = 1 + String.length (Config.policy_name Config.Edf) + 51 in
  List.iter
    (fun tasks ->
      Alcotest.(check int)
        (Printf.sprintf "key layout, %d tasks" (List.length tasks))
        (prefix + (17 * List.length tasks))
        (String.length (f tasks)))
    [ []; [ a ]; [ a; b; c ] ];
  Alcotest.(check string) "periodic phase ignored" (f [ a; b ])
    (f [ Constraints.with_phase a (Time.us 40); b ]);
  (* The one departure from the textual key: float fields compare by
     their exact bits, not rounded to 9 decimals. *)
  let limit util_limit =
    Taskset.make ~config:{ Config.default with Config.util_limit } [ a ]
  in
  Alcotest.(check string) "old key rounds floats"
    (Old_canonical.canonical (limit 0.9))
    (Old_canonical.canonical (limit (0.9 +. 1e-12)));
  Alcotest.(check bool) "fingerprint keeps float bits" true
    (Taskset.fingerprint (limit 0.9)
    <> Taskset.fingerprint (limit (0.9 +. 1e-12)))

(* ---- service cache ---- *)

let corpus ~n ~seed =
  let rng = Rng.create seed in
  List.init n (fun i ->
      let tasks =
        List.init
          (1 + Rng.int rng 3)
          (fun _ ->
            let period_us = 50 + Rng.int rng 950 in
            let slice_us = 1 + Rng.int rng (period_us / 2) in
            p ~period_us ~slice_us)
      in
      production ~policy:(if i mod 2 = 0 then Config.Edf else Config.Rm) tasks)

let test_cache_warm_equals_cold () =
  let svc = Service.create () in
  let ts = production [ p ~period_us:100 ~slice_us:30; p ~period_us:250 ~slice_us:50 ] in
  let cold = Service.query svc ts in
  let warm = Service.query svc ts in
  Alcotest.(check bool) "identical result" true (cold = warm);
  let s = Service.stats svc in
  Alcotest.(check int) "one miss" 1 s.Service.misses;
  Alcotest.(check int) "one hit" 1 s.Service.hits;
  (* A permutation of the same multiset is a hit, not a new analysis. *)
  let permuted =
    production [ p ~period_us:250 ~slice_us:50; p ~period_us:100 ~slice_us:30 ]
  in
  let r = Service.query svc permuted in
  Alcotest.(check bool) "permutation served from cache" true (r = cold);
  Alcotest.(check int) "still one miss" 1 (Service.stats svc).Service.misses

let test_cache_eviction_fifo () =
  let svc = Service.create ~shards:1 ~capacity:2 () in
  let sets = corpus ~n:3 ~seed:7L in
  List.iter (fun ts -> ignore (Service.query svc ts)) sets;
  let s = Service.stats svc in
  Alcotest.(check int) "third insert evicts the first" 1 s.Service.evictions;
  Alcotest.(check int) "population capped" 2 s.Service.entries;
  ignore (Service.query svc (List.hd sets));
  Alcotest.(check int) "evicted entry re-analyzed" 4
    (Service.stats svc).Service.misses

let test_batch_jobs_identical () =
  let sets = corpus ~n:40 ~seed:11L in
  let seq = Service.batch (Service.create ()) sets in
  let pool = Hrt_par.Par.Pool.create ~jobs:4 in
  let par = Service.batch ~pool (Service.create ()) sets in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true (seq = par);
  (* Re-batching the same corpus is all hits and returns the same list. *)
  let svc = Service.create () in
  let first = Service.batch svc sets in
  let second = Service.batch ~pool svc sets in
  Alcotest.(check bool) "warm batch identical" true (first = second);
  let s = Service.stats svc in
  Alcotest.(check int) "second pass all hits" (List.length sets) s.Service.hits

(* Cache stats are independent of the job count: a corpus with
   duplicates, and a batch mixing warm hits, repeated misses and distinct
   misses, see the same results, hits, misses, entries and evictions at
   jobs=1 and jobs=4 — also in one shard of capacity 2, where the hits
   answered first are evicted by the misses analyzed after them, and
   where re-querying the batch's misses one at a time tells which of
   them stayed resident. *)
let test_cache_stats_job_invariant () =
  let base = corpus ~n:12 ~seed:17L in
  let warm = corpus ~n:2 ~seed:23L in
  let x, y, z =
    match corpus ~n:3 ~seed:29L with
    | [ x; y; z ] -> (x, y, z)
    | _ -> Alcotest.fail "corpus size"
  in
  let mixed =
    match warm with
    | [ a; b ] -> [ a; x; b; x; y; a; z; x ]
    | _ -> Alcotest.fail "corpus size"
  in
  let run ?shards ?capacity jobs batches =
    let svc = Service.create ?shards ?capacity () in
    let results =
      List.map
        (fun sets ->
          if jobs > 1 then
            Service.batch ~pool:(Hrt_par.Par.Pool.create ~jobs) svc sets
          else Service.batch svc sets)
        batches
    in
    (results, Service.stats svc)
  in
  let same ?shards ?capacity name batches =
    let r1, s1 = run ?shards ?capacity 1 batches in
    let r4, s4 = run ?shards ?capacity 4 batches in
    let check what a b = Alcotest.(check int) (name ^ ": same " ^ what) a b in
    Alcotest.(check bool) (name ^ ": results identical") true (r1 = r4);
    check "misses" s1.Service.misses s4.Service.misses;
    check "hits" s1.Service.hits s4.Service.hits;
    check "entries" s1.Service.entries s4.Service.entries;
    check "evictions" s1.Service.evictions s4.Service.evictions;
    s1
  in
  let s = same "duplicates" [ base @ base @ base ] in
  Alcotest.(check (pair int int)) "one miss per distinct set" (12, 24)
    (s.Service.misses, s.Service.hits);
  ignore (same "hit/miss mix" [ warm; mixed ]);
  (* a, b, a hit before x, y, z are analyzed (the repeated x's are
     handed x's result); the three inserts then evict three times. *)
  let s = same ~shards:1 ~capacity:2 "FIFO-full shard" [ warm; mixed ] in
  Alcotest.(check (list int)) "hits-first counts" [ 5; 5; 2; 3 ]
    Service.[ s.misses; s.hits; s.entries; s.evictions ];
  (* x, y, z were inserted in that order, so y and z are resident. One
     batch of all three would miss exactly one of them whichever it is;
     one at a time, a miss on x evicts y, which then misses and evicts
     z, which misses in turn. Any other insert order leaves another pair
     resident, and one of these queries then hits. *)
  let s =
    same ~shards:1 ~capacity:2 "FIFO-full shard, re-queried"
      [ warm; mixed; [ x ]; [ y ]; [ z ] ]
  in
  Alcotest.(check (list int)) "the batch's last two misses stayed"
    [ 8; 5; 2; 6 ]
    Service.[ s.misses; s.hits; s.entries; s.evictions ]

let test_service_probes () =
  let sink = Hrt_obs.Sink.create ~trace:false () in
  let svc = Service.create () in
  Service.register_probes svc sink;
  ignore (Service.batch svc (corpus ~n:4 ~seed:3L));
  Hrt_obs.Sink.sample_probes sink;
  let rows = Hrt_obs.Metrics.rows (Hrt_obs.Sink.metrics sink) in
  List.iter
    (fun name ->
      if not (List.exists (List.mem name) rows) then
        Alcotest.failf "probe %s not exported" name)
    [ "admit.cache.hits"; "admit.cache.misses"; "admit.cache.evictions";
      "admit.cache.entries" ]

(* ---- typed verdict API ---- *)

let test_verdict_api () =
  let adm h = Admission.Admitted { headroom = h } in
  let rej =
    Admission.Rejected
      { reason = Admission.Rejection.Overload_shed { boundary = 2 } }
  in
  Alcotest.(check bool) "rejection wins" false
    (Admission.admitted (Admission.worse (adm 0.5) rej));
  (match Admission.worse (adm 0.5) (adm 0.2) with
  | Admission.Admitted { headroom } ->
    Alcotest.(check (float 1e-9)) "smaller headroom wins" 0.2 headroom
  | _ -> Alcotest.fail "two admissions combine to an admission");
  Alcotest.(check (option (float 1e-9))) "headroom of admission" (Some 0.3)
    (Admission.headroom (adm 0.3));
  Alcotest.(check (option (float 1e-9))) "headroom of rejection" None
    (Admission.headroom rej)

(* The Obs admission event and downstream dashboards key on these tags:
   renaming one is a compatibility break and must be deliberate. *)
let test_rejection_names_stable () =
  let open Admission.Rejection in
  let cases =
    [
      (Invalid { msg = "x" }, "invalid");
      (Granularity { period = 1L; slice = 1L }, "granularity");
      (Utilization_bound { util = 1.; bound = 0.79 }, "utilization-bound");
      (Density_bound { density = 1.; bound = 0.099 }, "density-bound");
      (Hyperperiod_demand { interval = 1L; demand = 2L }, "hyperperiod-demand");
      (Past_deadline { arrival = 2L; deadline = 1L }, "past-deadline");
      (Overload_shed { boundary = 1 }, "overload-shed");
    ]
  in
  List.iter
    (fun (reason, expect) ->
      Alcotest.(check string) expect expect (name reason))
    cases

(* ---- randomized properties ---- *)

(* Any task set the generator can produce — feasible, infeasible, mixed
   sporadics, either policy, either capacity view — yields a result whose
   certificate replays through the independent checker. *)
let prop_certificates_replay =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* raw_view = bool in
      let* policy = oneofl [ Config.Edf; Config.Rm ] in
      let* tasks =
        list_size (return n)
          (let* sporadic = frequency [ (4, return false); (1, return true) ] in
           if sporadic then
             let* size_us = int_range 1 200 in
             let* deadline_us = int_range 100 2000 in
             return
               (Constraints.sporadic ~size:(Time.us size_us)
                  ~deadline:(Time.us deadline_us) ())
           else
             let* period_us = oneofl [ 10; 20; 50; 100; 250; 500; 1000 ] in
             let* slice_pct = int_range 1 99 in
             return (p ~period_us ~slice_us:(Stdlib.max 1 (period_us * slice_pct / 100))))
      in
      return (if raw_view then raw ~policy tasks else production ~policy tasks))
  in
  QCheck.Test.make ~name:"oracle certificates replay" ~count:300
    (QCheck.make gen) (fun ts ->
      match Oracle.check ts (Oracle.analyze ts) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "certificate replay: %s" msg)

(* ---- the binary fingerprint against the textual canonical form ---- *)

(* Small palettes, so independently drawn sets collide now and then and
   every float field moves in steps the 9-decimal rendering resolves. *)
let gen_task =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun prio -> Constraints.aperiodic ~prio ()) (int_bound 3));
        ( 4,
          let* period_us = oneofl [ 100; 250; 1000 ] in
          let* slice_us = oneofl [ 10; 50; 100 ] in
          let* phase_us = int_bound 500 in
          return
            (Constraints.periodic ~phase:(Time.us phase_us)
               ~period:(Time.us period_us) ~slice:(Time.us slice_us) ()) );
        ( 2,
          let* size_us = oneofl [ 20; 50 ] in
          let* phase_us = int_bound 500 in
          let* laxity_us = oneofl [ 500; 1000 ] in
          return
            (Constraints.sporadic ~phase:(Time.us phase_us)
               ~size:(Time.us size_us)
               ~deadline:(Time.us (phase_us + laxity_us))
               ()) );
      ])

(* One draw per analysis-relevant config field (plus overhead). *)
let config_fields =
  QCheck.Gen.
    [
      map
        (fun policy c -> { c with Config.policy })
        (oneofl [ Config.Edf; Config.Rm ]);
      map
        (fun admission c -> { c with Config.admission })
        (oneofl [ Config.Policy_bound; Config.Hyperperiod_sim ]);
      map
        (fun util_limit c -> { c with Config.util_limit })
        (oneofl [ 0.79; 0.99; 1.0 ]);
      map
        (fun sporadic_reservation c -> { c with Config.sporadic_reservation })
        (oneofl [ 0.; 0.1 ]);
      map
        (fun aperiodic_reservation c -> { c with Config.aperiodic_reservation })
        (oneofl [ 0.; 0.1 ]);
      map (fun admission_control c -> { c with Config.admission_control }) bool;
      map
        (fun strict_reservations c -> { c with Config.strict_reservations })
        bool;
      map
        (fun min_period c -> { c with Config.min_period })
        (oneofl [ Time.us 2; Time.us 10 ]);
      map
        (fun min_slice c -> { c with Config.min_slice })
        (oneofl [ Time.ns 500; Time.us 1 ]);
    ]

let gen_fingerprint_set =
  QCheck.Gen.(
    let* edits = flatten_l config_fields in
    let* overhead_ns = oneofl [ 0L; phi_overhead ] in
    let* tasks = list_size (int_range 1 4) gen_task in
    let config = List.fold_left (fun c edit -> edit c) Config.default edits in
    return (Taskset.make ~config ~overhead_ns tasks))

let with_tasks (ts : Taskset.t) tasks =
  Taskset.make ~config:ts.Taskset.config ~overhead_ns:ts.Taskset.overhead_ns
    tasks

(* Moves that keep the key (permutation, new periodic phases, sporadics
   re-anchored with the same laxity, other aperiodic priorities) and
   moves that usually change it (one config field, the overhead, one
   task replaced, a task added, an independent set). *)
let reshape ts =
  QCheck.Gen.(
    let tasks = ts.Taskset.tasks in
    let rephase = function
      | Constraints.Periodic _ as c ->
        map (fun us -> Constraints.with_phase c (Time.us us)) (int_bound 500)
      | Constraints.Sporadic { phase; size; deadline; aper_prio } ->
        map
          (fun us ->
            let shift = Time.us us in
            Constraints.sporadic ~phase:Time.(phase + shift) ~size
              ~deadline:Time.(deadline + shift) ~aper_prio ())
          (int_bound 500)
      | Constraints.Aperiodic _ ->
        map (fun prio -> Constraints.aperiodic ~prio ()) (int_bound 3)
    in
    frequency
      [
        (3, map (with_tasks ts) (shuffle_l tasks));
        (3, map (with_tasks ts) (flatten_l (List.map rephase tasks)));
        ( 1,
          map
            (fun edit ->
              Taskset.make ~config:(edit ts.Taskset.config)
                ~overhead_ns:ts.Taskset.overhead_ns tasks)
            (oneof config_fields) );
        ( 1,
          map
            (fun overhead_ns ->
              Taskset.make ~config:ts.Taskset.config ~overhead_ns tasks)
            (oneofl [ 0L; phi_overhead ]) );
        ( 1,
          let* i = int_bound (List.length tasks - 1) in
          let* c = gen_task in
          return
            (with_tasks ts (List.mapi (fun j t -> if i = j then c else t) tasks))
        );
        (1, map (fun c -> with_tasks ts (c :: tasks)) gen_task);
        (1, gen_fingerprint_set);
      ])

let prop_fingerprint_matches_canonical =
  let gen =
    QCheck.Gen.(
      let* a = gen_fingerprint_set in
      let* steps = int_range 1 3 in
      let rec go ts k =
        if k = 0 then return ts else reshape ts >>= fun ts -> go ts (k - 1)
      in
      let* b = go a steps in
      return (a, b))
  in
  let print (a, b) =
    Printf.sprintf "%s\n%s" (Old_canonical.canonical a)
      (Old_canonical.canonical b)
  in
  QCheck.Test.make ~name:"fingerprint classes match the textual key" ~count:2000
    (QCheck.make ~print gen) (fun (a, b) ->
      Bool.equal
        (String.equal (Old_canonical.canonical a) (Old_canonical.canonical b))
        (String.equal (Taskset.fingerprint a) (Taskset.fingerprint b)))

(* ---- closed-form EDF against the enumerating scan ---- *)

let periodic_pairs (ts : Taskset.t) =
  List.filter_map
    (function
      | Constraints.Periodic { period; slice; _ } -> Some (period, slice)
      | _ -> None)
    ts.Taskset.tasks

(* Periodic-only EDF sets of 1-12 tasks over four period shapes:
   near-harmonic (252 ms hyperperiod), uniform 10-5000 us (mostly past
   the scan's 1 s cap), and two harmonic palettes; total utilization
   0.3-1.2 so both verdicts occur. *)
let gen_edf_set =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* period_gen =
      oneofl
        [
          oneofl [ 500; 600; 700; 800; 900; 1000 ];
          int_range 10 5000;
          oneofl [ 10; 20; 40; 80; 160; 320; 640 ];
          oneofl [ 100; 200; 250; 500; 1000; 2000; 5000 ];
        ]
    in
    let* target = float_range 0.3 1.2 in
    let* tasks =
      list_size (return n)
        (let* period_us = period_gen in
         let* jitter = float_range 0.5 1.5 in
         let share = target /. float_of_int n *. jitter in
         let slice_us =
           Stdlib.max 1
             (Stdlib.min period_us
                (int_of_float (float_of_int period_us *. share)))
         in
         return (p ~period_us ~slice_us))
    in
    let* raw_view = bool in
    return (if raw_view then raw tasks else production tasks))

(* The closed form at the hyperperiod decides exactly what the old scan
   over every deadline decided: same verdict kind, same reason name
   (except that sets whose hyperperiod passed the scan's 1 s cap now get
   the exact hyperperiod-demand reason instead of utilization-bound),
   the same headroom, and a certificate that replays. *)
let prop_closed_form_matches_scan =
  QCheck.Test.make ~name:"EDF closed form matches the deadline scan"
    ~count:1200 (QCheck.make ~print:(Format.asprintf "%a" Taskset.pp) gen_edf_set)
    (fun ts ->
      let ovh = ts.Taskset.overhead_ns in
      let capacity = Config.periodic_capacity ts.Taskset.config in
      let set = periodic_pairs ts in
      let capped = Int64.equal (Old_edf_scan.hyperperiod set) Int64.min_int in
      let d = Demand.edf ~ovh ~capacity set in
      let r = Oracle.analyze ts in
      (match Oracle.check ts r with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "certificate replay: %s" msg);
      if Admission.admitted r.Oracle.verdict <> d.Demand.admitted then
        QCheck.Test.fail_report "oracle verdict differs from Demand.edf";
      match Old_edf_scan.edf_analysis ~ovh ~capacity set with
      | Ok (headroom, _) ->
        if not d.Demand.admitted then
          QCheck.Test.fail_report "scan admits, closed form rejects";
        if Float.abs (headroom -. d.Demand.headroom) > 1e-9 then
          QCheck.Test.fail_reportf "headroom: scan %.12f, closed form %.12f"
            headroom d.Demand.headroom;
        true
      | Error (reason, _) ->
        if d.Demand.admitted then
          QCheck.Test.fail_report "scan rejects, closed form admits";
        let was = Admission.Rejection.name reason in
        let now =
          Admission.Rejection.name
            (Admission.Rejection.of_edf ~capacity d.Demand.witness)
        in
        String.equal was now
        || capped
           && String.equal was "utilization-bound"
           && String.equal now "hyperperiod-demand"
        || QCheck.Test.fail_reportf "reason: scan %s, closed form %s" was now)

(* The one intended wire change: a hyperperiod past 1 s (1009 us x
   1013 us) used to fall back to utilization-bound; the closed form
   names the exact overloaded interval. *)
let test_long_hyperperiod_reason () =
  let ts =
    production [ p ~period_us:1009 ~slice_us:600; p ~period_us:1013 ~slice_us:600 ]
  in
  let set = periodic_pairs ts in
  let capacity = Config.periodic_capacity ts.Taskset.config in
  (match Old_edf_scan.edf_analysis ~ovh:phi_overhead ~capacity set with
  | Error (Admission.Rejection.Utilization_bound _, _) -> ()
  | _ -> Alcotest.fail "the scan should fall back to utilization-bound");
  let r = Oracle.analyze ts in
  (match r.Oracle.verdict with
  | Admission.Rejected
      { reason = Admission.Rejection.Hyperperiod_demand { interval; _ } } ->
    Alcotest.(check int64) "interval is the hyperperiod" 1_022_117_000L interval
  | v ->
    Alcotest.failf "expected hyperperiod-demand, got %s"
      (Format.asprintf "%a" Admission.pp_verdict v));
  check_ok "long hyperperiod" ts r

(* ---- Int64 overflow: verdicts, never exceptions or wrapped admits ---- *)

(* P:1000000:1000 P:9300001:1000 — its lcm product wraps Int64; and a
   task at 100% utilization whose slice + overhead wraps. *)
let wrapping_lcm =
  [ p ~period_us:1_000_000 ~slice_us:1000; p ~period_us:9_300_001 ~slice_us:1000 ]

let full_task =
  [ p ~period_us:9_223_372_036_854_775 ~slice_us:9_223_372_036_854_775 ]

let ledger_verdicts ~policy ~overhead_ns tasks =
  List.map
    (fun admission ->
      let a =
        Admission.create ~overhead_ns
          { Config.default with Config.policy; admission }
      in
      List.fold_left
        (fun acc c ->
          Admission.worse acc
            (Admission.request a ~now:0L ~old_constr:(Constraints.aperiodic ()) c))
        (Admission.Admitted { headroom = infinity })
        tasks)
    (match policy with
    | Config.Edf -> [ Config.Policy_bound; Config.Hyperperiod_sim ]
    | Config.Rm -> [ Config.Policy_bound ])

let test_overflow_verdicts () =
  List.iter
    (fun policy ->
      let name = Config.policy_name policy in
      (* Wrapping lcm: a verdict from the oracle and every ledger mode. *)
      List.iter
        (fun ts -> check_ok (name ^ " wrapping lcm") ts (Oracle.analyze ts))
        [ production ~policy wrapping_lcm; raw ~policy wrapping_lcm ];
      ignore (ledger_verdicts ~policy ~overhead_ns:phi_overhead wrapping_lcm);
      (* 100% task under the production view: the overhead puts it over
         capacity in the oracle and in every ledger mode. *)
      let ts = production ~policy full_task in
      let r = Oracle.analyze ts in
      Alcotest.(check bool) (name ^ ": 100% task rejected") false
        (Admission.admitted r.Oracle.verdict);
      check_ok (name ^ " 100% task") ts r;
      List.iter
        (fun v ->
          Alcotest.(check bool) (name ^ ": ledger rejects 100% task") false
            (Admission.admitted v))
        (ledger_verdicts ~policy ~overhead_ns:phi_overhead full_task);
      (* Raw view: zero overhead on a full CPU, exactly feasible. *)
      let ts = raw ~policy full_task in
      let r = Oracle.analyze ts in
      Alcotest.(check (option (float 1e-9))) (name ^ ": raw 100% task")
        (Some 0.) (Admission.headroom r.Oracle.verdict);
      check_ok (name ^ " raw 100% task") ts r)
    [ Config.Edf; Config.Rm ]

(* Oracle/simulator/ledger agreement corridor, both policies. The CI
   `admit` job runs the 200-set corpus; this keeps a smaller one in every
   `dune runtest`. *)
let test_cross_validation policy () =
  let ctx = Hrt_harness.Exp.Ctx.make ~policy () in
  let o = Hrt_harness.Admit_xval.run ~ctx ~sets:20 ~policy () in
  Alcotest.(check (list string)) "no disagreements" [] o.Hrt_harness.Admit_xval.disagreements;
  Alcotest.(check bool) "corpus straddles the edge" true
    (o.Hrt_harness.Admit_xval.admitted > 0 && o.Hrt_harness.Admit_xval.infeasible > 0)

let suite =
  [
    Alcotest.test_case "EDF admit + certificate" `Quick test_edf_admit;
    Alcotest.test_case "EDF reject + witness" `Quick test_edf_reject;
    Alcotest.test_case "RM exact beats Liu-Layland" `Quick
      test_rm_exact_beats_liu_layland;
    Alcotest.test_case "RM blocking chain" `Quick test_rm_blocking;
    Alcotest.test_case "sporadic density" `Quick test_sporadic_density;
    Alcotest.test_case "structural rejection" `Quick test_structural_rejection;
    Alcotest.test_case "checker rejects tampering" `Quick
      test_check_rejects_tampering;
    Alcotest.test_case "golden Fig 6-9 feasibility edge" `Quick
      test_golden_feasibility_edge;
    Alcotest.test_case "fingerprint canonicalization" `Quick
      test_fingerprint_permutation;
    Alcotest.test_case "cache warm equals cold" `Quick
      test_cache_warm_equals_cold;
    Alcotest.test_case "cache eviction FIFO" `Quick test_cache_eviction_fifo;
    Alcotest.test_case "batch jobs=1 vs jobs=4" `Quick test_batch_jobs_identical;
    Alcotest.test_case "cache stats job-invariant" `Quick
      test_cache_stats_job_invariant;
    Alcotest.test_case "cache probes exported" `Quick test_service_probes;
    Alcotest.test_case "verdict combine API" `Quick test_verdict_api;
    Alcotest.test_case "rejection names stable" `Quick
      test_rejection_names_stable;
    to_alcotest prop_certificates_replay;
    to_alcotest prop_fingerprint_matches_canonical;
    to_alcotest prop_closed_form_matches_scan;
    Alcotest.test_case "long hyperperiod names its demand" `Quick
      test_long_hyperperiod_reason;
    Alcotest.test_case "Int64 overflow gives verdicts" `Quick
      test_overflow_verdicts;
    Alcotest.test_case "cross-validation EDF" `Slow
      (test_cross_validation Config.Edf);
    Alcotest.test_case "cross-validation RM" `Slow
      (test_cross_validation Config.Rm);
  ]
