(* The serve-* workloads: a separate daemon process driven by a one-thread
   load generator over two Unix-socket connections, plus the in-process
   replay the traced run splits into per-layer stages. *)

open Hrt_engine
open Hrt_serve
open Hrt_analysis
open Common

let hot_count = 256
let new_share = 0.2
let daemon_jobs = 2

(* [hrt_sim serve --jobs 2]: the configuration the daemon is measured in. *)
let daemon_config = { Server.default_config with Server.jobs = daemon_jobs }

(* The near-harmonic palette of the serving bench: 6-12 tasks with periods
   from 500..1000 us (252 ms hyperperiod) at 50-90% total utilization, so
   a cold query walks thousands of EDF demand points. *)
let gen_specs ~seed index =
  let palette = [| 500; 600; 700; 800; 900; 1000 |] in
  let rng = Rng.create Int64.(add seed (mul 998_244_353L (of_int index))) in
  let n = 6 + Rng.int rng 7 in
  let target = 0.5 +. (0.4 *. Rng.float rng) in
  String.concat " "
    (List.init n (fun _ ->
         let period_us = palette.(Rng.int rng (Array.length palette)) in
         let slice_us =
           Stdlib.min period_us
             (Stdlib.max 5
                (int_of_float
                   (float_of_int period_us *. target /. float_of_int n)))
         in
         Printf.sprintf "P:%d:%d" period_us slice_us))

(* ---- corpus and the in-process reference verdicts ---- *)

type kind = Hot of int | New of int  (** hot-set index / new-set ordinal *)

type corpus = {
  seed : int64;
  hot : string array;  (** spec lists *)
  expected : string array;  (** reply payload for each hot set *)
  hot_results : Oracle.result array;
}

let specs_of c = function
  | Hot i -> c.hot.(i)
  | New k -> gen_specs ~seed:c.seed (hot_count + k)

let payload_of c kind = "query " ^ specs_of c kind
let frame_of c kind = Protocol.frame (payload_of c kind)

let taskset_of_specs specs =
  Taskset.production_view ~policy:daemon_config.Server.policy
    ~platform:daemon_config.Server.platform specs

let taskset_of_payload payload =
  match Protocol.parse_request payload with
  | Ok (Protocol.Query { specs; _ }) -> taskset_of_specs specs
  | Ok _ | Error _ -> failwith ("unparsable benchmark request: " ^ payload)

let render_verdicts rs =
  Protocol.render_reply
    (Protocol.Verdicts
       (List.map (fun r -> Protocol.verdict_of_oracle r.Oracle.verdict) rs))

(* What the daemon must answer, computed in process before any timing. *)
let expected_reply payload =
  render_verdicts [ Oracle.analyze (taskset_of_payload payload) ]

let corpus ~seed =
  let hot = Array.init hot_count (gen_specs ~seed) in
  let hot_results =
    Array.map (fun s -> Oracle.analyze (taskset_of_payload ("query " ^ s))) hot
  in
  let expected = Array.map (fun r -> render_verdicts [ r ]) hot_results in
  { seed; hot; expected; hot_results }

(* The request mix: uniform over the hot set, or (mixed) a fresh set from
   the same palette with probability [new_share]. One stream per run, so
   the first N requests are the same in the timed and the traced run. *)
type stream = { rng : Rng.t; mixed : bool; mutable news : int }

let stream ~seed ~mixed =
  { rng = Rng.create (Int64.logxor seed 0x6a09e667L); mixed; news = 0 }

let next_kind s =
  if s.mixed && Rng.float s.rng < new_share then begin
    let k = s.news in
    s.news <- k + 1;
    New k
  end
  else Hot (Rng.int s.rng hot_count)

(* A reply the server actually served: a verdict line, not a shed/expiry
   answer or an error frame. *)
let served payload =
  match Protocol.parse_reply payload with
  | Ok (Protocol.Verdicts [ Protocol.Admitted _ ]) -> true
  | Ok (Protocol.Verdicts [ Protocol.Rejected r ]) ->
    r <> "overloaded" && r <> "expired"
  | Ok _ | Error _ -> false

(* Failure bookkeeping shared by every phase. A request fails when it is
   shed, expires, gets an error frame or no reply, or gets a wrong
   verdict; only the last makes the output incorrect. Hot replies are
   checked against the in-process verdicts on arrival (a string compare);
   every 16th new set is recorded and re-derived after the phase, outside
   the timed window. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable recorded : (int * string) list;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; recorded = [] }

let fail tally ~wrong =
  tally.failed <- tally.failed + 1;
  if wrong then tally.wrong <- tally.wrong + 1

let check c tally kind payload =
  tally.attempted <- tally.attempted + 1;
  let served = served payload in
  let right =
    match kind with
    | Hot i -> String.equal payload c.expected.(i)
    | New k ->
      if served && k mod 16 = 0 then
        tally.recorded <- (k, payload) :: tally.recorded;
      served
  in
  if not right then fail tally ~wrong:served

let verify_recorded c tally =
  List.iter
    (fun (k, payload) ->
      if not (String.equal payload (expected_reply (payload_of c (New k)))) then
        fail tally ~wrong:true)
    tally.recorded;
  let n = List.length tally.recorded in
  tally.recorded <- [];
  n

(* ---- daemon process ---- *)

type daemon = { pid : int; socket : string }

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let spawn_daemon ~socket =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; socket |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  { pid; socket }

(* SIGTERM drains the daemon; it is killed outright if it has not exited
   within 10 s. Either way it is reaped before this returns. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if seconds_since t0 > 10. then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] d.pid)
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  if Sys.file_exists d.socket then
    try Sys.remove d.socket with Sys_error _ -> ()

let with_daemon ~socket f =
  let d = spawn_daemon ~socket in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

(* ---- blocking client, for set-up and the traced round trips ---- *)

let rbuf = Bytes.create 65536

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_frame fd dec =
  let rec go () =
    match Protocol.Decoder.next dec with
    | `Frame p -> p
    | `Error e -> failwith ("daemon framing: " ^ Protocol.describe_error e)
    | `Await ->
      let n = Unix.read fd rbuf 0 (Bytes.length rbuf) in
      if n = 0 then failwith "daemon closed the connection";
      Protocol.Decoder.feed dec rbuf 0 n;
      go ()
  in
  go ()

let connect_blocking socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Ready = the socket accepts and answers [stats]. *)
let wait_ready d =
  let t0 = now_ns () in
  let rec go () =
    match connect_blocking d.socket with
    | fd -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
      (match waitpid_noeintr [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up");
      if seconds_since t0 > 20. then failwith "daemon never became ready";
      Unix.sleepf 0.0005;
      go ()
  in
  let fd = go () in
  let dec = Protocol.Decoder.create () in
  write_all fd (Protocol.frame "stats");
  ignore (read_frame fd dec);
  (fd, dec)

let stats_of fd dec =
  write_all fd (Protocol.frame "stats");
  match Protocol.parse_reply (read_frame fd dec) with
  | Ok (Protocol.Stats_reply kvs) -> kvs
  | _ -> failwith "daemon answered stats with something else"

let stat kvs key = Option.value ~default:nan (List.assoc_opt key kvs)

(* The hot set one query at a time, each reply checked against the
   in-process verdict. Batches of one never fan out, so set-up time does
   not hinge on how fast the host hands the daemon a second CPU. *)
let warm_each corpus tally fd dec =
  for i = 0 to hot_count - 1 do
    write_all fd (frame_of corpus (Hot i));
    check corpus tally (Hot i) (read_frame fd dec)
  done

(* The hot set as a single batch frame: one line per set in the reply. *)
let warm_batch corpus tally fd dec =
  let sets = String.concat " ; " (Array.to_list corpus.hot) in
  write_all fd (Protocol.frame ("batch " ^ sets));
  let lines = Array.of_list (String.split_on_char '\n' (read_frame fd dec)) in
  if Array.length lines <> hot_count then
    for _ = 1 to hot_count do
      tally.attempted <- tally.attempted + 1;
      fail tally ~wrong:true
    done
  else Array.iteri (fun i l -> check corpus tally (Hot i) l) lines

(* ---- the load generator: non-blocking connections under select ---- *)

type pending = { kind : kind; sched_ns : int64 }

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable opos : int;
  inflight : pending Queue.t;
}

let connect socket =
  let fd = connect_blocking socket in
  Unix.set_nonblock fd;
  {
    fd;
    dec = Protocol.Decoder.create ();
    obuf = Bytes.create 65536;
    olen = 0;
    opos = 0;
    inflight = Queue.create ();
  }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c frame p =
  let n = String.length frame in
  if c.olen + n > Bytes.length c.obuf then begin
    let live = c.olen - c.opos in
    let b =
      if live + n > Bytes.length c.obuf then Bytes.create (2 * (live + n))
      else c.obuf
    in
    Bytes.blit c.obuf c.opos b 0 live;
    c.obuf <- b;
    c.olen <- live;
    c.opos <- 0
  end;
  Bytes.blit_string frame 0 c.obuf c.olen n;
  c.olen <- c.olen + n;
  Queue.push p c.inflight

let flush c =
  if c.opos < c.olen then
    match Unix.single_write c.fd c.obuf c.opos (c.olen - c.opos) with
    | k ->
      c.opos <- c.opos + k;
      if c.opos = c.olen then begin
        c.opos <- 0;
        c.olen <- 0
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

let outstanding conns =
  Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 conns

(* Read everything buffered on [c], handing each reply to [on_reply] with
   the time it was read. Replies on one connection arrive in request
   order, so each matches the oldest in-flight request. *)
let drain_replies c on_reply =
  let rec go () =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> failwith "daemon closed a load connection"
    | n ->
      let now = now_ns () in
      Protocol.Decoder.feed c.dec rbuf 0 n;
      let rec frames () =
        match Protocol.Decoder.next c.dec with
        | `Frame payload ->
          (match Queue.take_opt c.inflight with
          | Some p -> on_reply c p payload now
          | None -> failwith "reply without a request");
          frames ()
        | `Await -> ()
        | `Error e -> failwith ("daemon framing: " ^ Protocol.describe_error e)
      in
      frames ();
      go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  in
  go ()

let pump conns ~timeout on_reply =
  Array.iter flush conns;
  let rfds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wfds =
    Array.to_list conns
    |> List.filter_map (fun c -> if c.opos < c.olen then Some c.fd else None)
  in
  match Unix.select rfds wfds [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
    Array.iter
      (fun c -> if List.memq c.fd readable then drain_replies c on_reply)
      conns

let grace_ns = 2_000_000_000L

type open_loop = {
  windows : float array array;  (** latency samples (ms) per window *)
  late_ms : float array;  (** how late each request was sent *)
}

let n_windows = 20

(* Phase A: Poisson arrivals at [rate], requests alternating over the
   connections. Each latency runs from the request's scheduled send time,
   so a stalled generator or server is charged to every request it
   delays; how late the generator sent is reported separately. *)
let open_loop corpus stream tally conns ~rate ~duration_s =
  let gaps = Rng.create (Int64.logxor corpus.seed 0x3c6ef372L) in
  let dur_ns = duration_s *. 1e9 in
  let sched =
    let rec go acc t =
      let t = t +. Rng.exponential gaps ~mean:(1e9 /. rate) in
      if t >= dur_ns then Array.of_list (List.rev acc) else go (t :: acc) t
    in
    go [] 0.
  in
  let n = Array.length sched in
  let kinds = Array.init n (fun _ -> next_kind stream) in
  let frames = Array.map (frame_of corpus) kinds in
  let samples = Array.make n_windows [] in
  let late = Array.make n 0. in
  let t0 = Int64.add (now_ns ()) 1_000_000L in
  let due i = Int64.add t0 (Int64.of_float sched.(i)) in
  let hard_end = Int64.add t0 (Int64.add (Int64.of_float dur_ns) grace_ns) in
  let on_reply _ p payload now =
    check corpus tally p.kind payload;
    let w =
      Stdlib.min (n_windows - 1)
        (int_of_float
           (ns_between t0 p.sched_ns *. float_of_int n_windows /. dur_ns))
    in
    samples.(w) <- (ns_between p.sched_ns now /. 1e6) :: samples.(w)
  in
  let i = ref 0 in
  while
    (!i < n || outstanding conns > 0) && Int64.compare (now_ns ()) hard_end < 0
  do
    let now = now_ns () in
    while !i < n && Int64.compare (due !i) now <= 0 do
      send conns.(!i land 1) frames.(!i)
        { kind = kinds.(!i); sched_ns = due !i };
      late.(!i) <- ns_between (due !i) now /. 1e6;
      incr i
    done;
    let wake = if !i < n then due !i else hard_end in
    pump conns ~timeout:(ns_between (now_ns ()) wake /. 1e9) on_reply
  done;
  (* Requests never sent or never answered fail without a reply. *)
  let unanswered = n - !i + outstanding conns in
  tally.attempted <- tally.attempted + unanswered;
  tally.failed <- tally.failed + unanswered;
  Array.iter (fun c -> Queue.clear c.inflight) conns;
  {
    windows = Array.map (fun l -> Array.of_list l) samples;
    late_ms = Array.sub late 0 !i;
  }

(* Phase B: [depth] requests in flight per connection; each reply sends
   the next request on its connection until the phase ends. Saturation
   throughput, below the daemon's max_queue so nothing is shed. The phase
   is cut into windows and the best window's rate is reported:
   interference from the host only ever lowers a window's rate. *)
let closed_loop corpus stream tally conns ~depth ~duration_s =
  let send_next c =
    let kind = next_kind stream in
    send c (frame_of corpus kind) { kind; sched_ns = 0L }
  in
  let n_win = 24 in
  let completed = Array.make n_win 0 in
  let t0 = now_ns () in
  let dur_ns = duration_s *. 1e9 in
  let stop = Int64.add t0 (Int64.of_float dur_ns) in
  let hard_end = Int64.add stop grace_ns in
  Array.iter (fun c -> for _ = 1 to depth do send_next c done) conns;
  let on_reply c p payload now =
    check corpus tally p.kind payload;
    if Int64.compare now stop <= 0 then begin
      let w = ns_between t0 now *. float_of_int n_win /. dur_ns in
      let w = Stdlib.min (n_win - 1) (int_of_float w) in
      completed.(w) <- completed.(w) + 1;
      send_next c
    end
  in
  while
    (Int64.compare (now_ns ()) stop < 0 || outstanding conns > 0)
    && Int64.compare (now_ns ()) hard_end < 0
  do
    let now = now_ns () in
    let until = if Int64.compare now stop < 0 then stop else hard_end in
    pump conns ~timeout:(Float.min 0.05 (ns_between now until /. 1e9)) on_reply
  done;
  tally.attempted <- tally.attempted + outstanding conns;
  tally.failed <- tally.failed + outstanding conns;
  Array.iter (fun c -> Queue.clear c.inflight) conns;
  float_of_int (Array.fold_left Stdlib.max 0 completed)
  *. float_of_int n_win /. duration_s

(* Spawn -> ready -> hot set warm and verified. Returns the open daemon
   and the seconds it took. *)
let start_warm corpus tally ~socket =
  let t0 = now_ns () in
  let d = spawn_daemon ~socket in
  match
    let fd, dec = wait_ready d in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> warm_each corpus tally fd dec)
  with
  | () -> (d, seconds_since t0)
  | exception e ->
    stop_daemon d;
    raise e

type timed = {
  setup_s : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  samples : int;
  qps : float;
  rss_mb : float;
  late_p99_ms : float;
  late_max_ms : float;
  daemon_stats : (string * float) list;
  tally : tally;
  verified : int;
}

let setups = 3

let timed ~seed ~mixed ~socket ~open_s ~closed_s =
  let corpus = corpus ~seed in
  let tally = tally () in
  let setup = Array.make setups 0. in
  let rec boot i =
    let d, s = start_warm corpus tally ~socket in
    setup.(i) <- s;
    if i + 1 < setups then begin
      stop_daemon d;
      boot (i + 1)
    end
    else d
  in
  let d = boot 0 in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let stream = stream ~seed ~mixed in
      let conns = [| connect socket; connect socket |] in
      let ol, rss_mb, qps =
        Fun.protect
          ~finally:(fun () -> Array.iter close_conn conns)
          (fun () ->
            let ol =
              open_loop corpus stream tally conns ~rate:2000. ~duration_s:open_s
            in
            (* Peak RSS after a fixed amount of work (set-up and the open
               loop); the closed loop's volume depends on the machine. *)
            let rss_mb = vm_hwm_mb (string_of_int d.pid) in
            let qps =
              closed_loop corpus stream tally conns ~depth:32
                ~duration_s:closed_s
            in
            (ol, rss_mb, qps))
      in
      let fd = connect_blocking socket in
      let daemon_stats =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> stats_of fd (Protocol.Decoder.create ()))
      in
      let verified = verify_recorded corpus tally in
      let window_p q = Array.map (fun w -> percentile w q) ol.windows in
      {
        setup_s = median setup;
        p50_ms = median (window_p 50.);
        p90_ms = median (window_p 90.);
        p99_ms = median (window_p 99.);
        samples = Array.fold_left (fun n w -> n + Array.length w) 0 ol.windows;
        qps;
        rss_mb;
        late_p99_ms = percentile ol.late_ms 99.;
        late_max_ms = Array.fold_left Float.max 0. ol.late_ms;
        daemon_stats;
        tally;
        verified;
      })

(* ---- traced run: the same requests, in process, one span per stage ---- *)

type replay = {
  wall_s : float;
  misses : int;
  edf_scans : int;
  hit_ratio : float;
  replayed : int;
  mismatched : int;  (** hot replies that differ from the reference *)
}

(* Each request goes through the stages the daemon runs for it, each a
   public call timed from outside: decode the frame, parse it, build the
   production view, fingerprint, query the memoized service, render and
   frame the reply. Work is identical with the recorder on or off. *)
let replay corpus spans ~mixed ~requests =
  let svc = Service.create () in
  let dec = Protocol.Decoder.create () in
  let stream = stream ~seed:corpus.seed ~mixed in
  let kinds =
    Array.append
      (Array.init hot_count (fun i -> Hot i))
      (Array.init requests (fun _ -> next_kind stream))
  in
  let frames = Array.map (frame_of corpus) kinds in
  let failed = ref 0 and misses = ref 0 and edf_scans = ref 0 in
  let sp ?parent ~req name f = Spans.span spans ?parent ~req name f in
  let t0 = now_ns () in
  Array.iteri
    (fun req kind ->
      sp ~req "request" (fun parent ->
          let payload =
            sp ~parent ~req "protocol.decode" (fun _ ->
                Protocol.Decoder.feed_string dec frames.(req);
                match Protocol.Decoder.next dec with
                | `Frame p -> p
                | `Await | `Error _ -> failwith "replay: undecodable frame")
          in
          let specs =
            sp ~parent ~req "protocol.parse" (fun _ ->
                match Protocol.parse_request payload with
                | Ok (Protocol.Query { specs; _ }) -> specs
                | Ok _ | Error _ -> failwith "replay: unparsable request")
          in
          let ts =
            sp ~parent ~req "taskset.view" (fun _ -> taskset_of_specs specs)
          in
          sp ~parent ~req "taskset.fingerprint" (fun _ ->
              ignore (Taskset.fingerprint ts));
          let before = (Service.stats svc).Service.misses in
          let r =
            sp ~parent ~req "service.hit" (fun _ -> Service.query svc ts)
          in
          if (Service.stats svc).Service.misses > before then begin
            Spans.rename_last spans "service.miss";
            incr misses;
            if
              List.exists
                (function Oracle.Edf_demand _ -> true | _ -> false)
                r.Oracle.certs
            then incr edf_scans
          end;
          let reply =
            sp ~parent ~req "protocol.render" (fun _ ->
                let p = render_verdicts [ r ] in
                ignore (Protocol.frame p);
                p)
          in
          match kind with
          | Hot i ->
            if not (String.equal reply corpus.expected.(i)) then incr failed
          | New _ -> ()))
    kinds;
  let wall_s = seconds_since t0 in
  let st = Service.stats svc in
  {
    wall_s;
    misses = !misses;
    edf_scans = !edf_scans;
    hit_ratio =
      float_of_int st.Service.hits
      /. float_of_int (st.Service.hits + st.Service.misses);
    replayed = Array.length kinds;
    mismatched = !failed;
  }

(* Extra cost of fanning one warm batch over a 2-domain pool instead of
   answering it sequentially, averaged over 2-, 8- and 64-set batches. *)
let batch_fanout corpus spans =
  let svc = Service.create () in
  let views =
    Array.map (fun s -> taskset_of_payload ("query " ^ s)) corpus.hot
  in
  ignore (Service.batch svc (Array.to_list views));
  let pool = Hrt_par.Par.Pool.create ~jobs:daemon_jobs in
  let time_batch name ?pool sets reps =
    Array.init reps (fun req ->
        let t0 = now_ns () in
        Spans.span spans ~req name (fun _ ->
            ignore (Service.batch ?pool svc sets));
        ns_between t0 (now_ns ()))
  in
  let diffs =
    List.map
      (fun (size, reps) ->
        let sets = Array.to_list (Array.sub views 0 size) in
        let seq = time_batch "batch.sequential" sets reps in
        let par = time_batch "batch.pool" ~pool sets reps in
        median par -. median seq)
      [ (2, 400); (8, 200); (64, 50) ]
  in
  mean (Array.of_list diffs) /. 1e3

(* One connection, one request at a time: the daemon's unloaded warm
   round trip, and its own view of the same requests from [stats]. *)
let round_trips corpus spans tally ~socket ~count =
  with_daemon ~socket (fun d ->
      let fd, dec = wait_ready d in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          (* One batch frame adds one sample, not 256, to the daemon's
             latency percentiles. *)
          warm_batch corpus tally fd dec;
          let rng = Rng.create (Int64.logxor corpus.seed 0xbb67ae85L) in
          let rtt =
            Array.init count (fun req ->
                let i = Rng.int rng hot_count in
                let frame = frame_of corpus (Hot i) in
                let t0 = now_ns () in
                let reply =
                  Spans.span spans ~req "serve.rtt" (fun _ ->
                      write_all fd frame;
                      read_frame fd dec)
                in
                let dt = ns_between t0 (now_ns ()) in
                check corpus tally (Hot i) reply;
                dt)
          in
          (median rtt /. 1e3, stats_of fd dec)))
