open Hrt_core
open Hrt_analysis
module Clock = Hrt_harness.Clock

type config = {
  policy : Config.policy;
  platform : Hrt_hw.Platform.t;
  raw : bool;
  jobs : int;
  max_queue : int;
  max_batch : int;
  max_frame : int;
  default_deadline_ms : int option;
}

let default_config =
  {
    policy = Config.Edf;
    platform = Hrt_hw.Platform.phi;
    raw = false;
    jobs = 1;
    max_queue = 256;
    max_batch = 64;
    max_frame = Protocol.default_max_frame;
    default_deadline_ms = None;
  }

(* A reply slot: filled when the request's answer is known, flushed to
   the socket only when every earlier slot of the same connection has
   been flushed — replies leave in request order. *)
type slot = { mutable reply : string option }

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  mutable out : Bytes.t;  (* reply frames, written from [out_pos] on *)
  mutable out_len : int;  (* bytes of [out] filled *)
  mutable out_pos : int;  (* bytes of [out] already written *)
  slots : slot Queue.t;
  mutable reading : bool;  (* false after EOF or a fatal framing error *)
  mutable fatal : bool;  (* close once slots are answered and flushed *)
  mutable open_ : bool;
}

(* What a queued request asks: the task sets of a parsed request, or
   the cache key of a query read straight from its payload, with the
   payload kept for the parse a miss needs. *)
type ask = Sets of Taskset.t list | Key of { key : string; payload : string }

type work = {
  slot : slot;
  ask : ask;
  arrival_ns : int64;
  deadline_ns : int64 option;  (* absolute, monotonic *)
  verb : string;
}

type t = {
  cfg : config;
  unix_path : string;
  listeners : Unix.file_descr list;
  bound_tcp : int option;
  svc : Service.t;
  reader : Protocol.key_reader;  (* keys under [cfg]'s view *)
  lines : Protocol.Verdict_lines.t;
  sink : Hrt_obs.Sink.t;
  trace : out_channel option;  (* the open [--trace-out] array *)
  started_ns : int64;
  queue : work Queue.t;
  mutable conns : conn list;
  drain : bool Atomic.t;
  mutable accepting : bool;
  mutable fd_starved : bool;  (* accept hit EMFILE/ENFILE; no close since *)
  latency : Hrt_stats.Window.t;
  mutable spans : int;  (* spans written to [trace] *)
  (* counters (single-threaded loop; probes sampled on the same domain) *)
  mutable served : int;  (* task sets answered through the service *)
  mutable shed : int;  (* task sets answered "overloaded" *)
  mutable expired : int;  (* task sets answered "expired" *)
  mutable proto_errors : int;
  mutable accepted_conns : int;
  mutable refused : int;  (* connections closed on accept, over the cap *)
  mutable requests : int;  (* frames parsed into a request *)
  mutable replies : int;  (* reply frames queued for flush *)
  mutable inflight : int;  (* slots not yet filled *)
}

(* [select] cannot watch an fd >= FD_SETSIZE (1024). Capping open
   connections below it leaves room for stdio, the listeners and the
   trace file. *)
let max_conns = 1000

(* Latencies behind [p50/p95/p99_us]: the latest requests only, so a
   long-lived daemon neither grows nor re-sorts its whole history. *)
let latency_window = 65_536

let taskset_of cfg specs =
  if cfg.raw then Taskset.raw_view ~policy:cfg.policy specs
  else Taskset.production_view ~policy:cfg.policy ~platform:cfg.platform specs

let listen_unix path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let create ?tcp_port ?(sink = Hrt_obs.Sink.null) ?trace_out ~socket cfg =
  (* A dispatch that pops nothing would leave every request queued and
     a drain waiting forever; a negative default deadline would expire
     every request the wire lets through without one. *)
  if cfg.max_batch < 1 then invalid_arg "Server.create: max_batch < 1";
  (match cfg.default_deadline_ms with
  | Some ms when ms < 0 -> invalid_arg "Server.create: default_deadline_ms < 0"
  | Some _ | None -> ());
  (* The trace file is opened before anything is bound, so a path that
     cannot be written leaves no socket behind. *)
  let trace =
    Option.map
      (fun path ->
        let oc = open_out path in
        output_string oc "[";
        oc)
      trace_out
  in
  let ufd = listen_unix socket in
  let tcp = Option.map listen_tcp tcp_port in
  let t =
    {
      cfg;
      unix_path = socket;
      listeners = ufd :: (match tcp with Some (fd, _) -> [ fd ] | None -> []);
      bound_tcp = Option.map snd tcp;
      svc = Service.create ();
      reader =
        Protocol.key_reader ~prefix:(Taskset.key_prefix (taskset_of cfg []));
      lines = Protocol.Verdict_lines.create ();
      sink;
      trace;
      started_ns = Clock.now_ns ();
      queue = Queue.create ();
      conns = [];
      drain = Atomic.make false;
      accepting = true;
      fd_starved = false;
      latency = Hrt_stats.Window.create ~capacity:latency_window;
      spans = 0;
      served = 0;
      shed = 0;
      expired = 0;
      proto_errors = 0;
      accepted_conns = 0;
      refused = 0;
      requests = 0;
      replies = 0;
      inflight = 0;
    }
  in
  if Hrt_obs.Sink.enabled sink then begin
    Service.register_probes t.svc sink;
    let gauge name read = Hrt_obs.Sink.add_probe sink ~name read in
    gauge "serve.queue.depth" (fun () -> float_of_int (Queue.length t.queue));
    gauge "serve.inflight" (fun () -> float_of_int t.inflight);
    gauge "serve.shed" (fun () -> float_of_int t.shed);
    gauge "serve.expired" (fun () -> float_of_int t.expired);
    gauge "serve.served" (fun () -> float_of_int t.served);
    gauge "serve.conns" (fun () -> float_of_int (List.length t.conns))
  end;
  t

let tcp_port t = t.bound_tcp
let request_drain t = Atomic.set t.drain true

(* ---- stats ---- *)

let percentile_or_zero w q =
  if Hrt_stats.Window.count w = 0 then 0. else Hrt_stats.Window.value w q

let stats_fields t =
  [
    ("served", float_of_int t.served);
    ("shed", float_of_int t.shed);
    ("expired", float_of_int t.expired);
    ("errors", float_of_int t.proto_errors);
    ("requests", float_of_int t.requests);
    ("replies", float_of_int t.replies);
    ("queue", float_of_int (Queue.length t.queue));
    ("inflight", float_of_int t.inflight);
    ("conns", float_of_int (List.length t.conns));
    ("refused", float_of_int t.refused);
    ("hits", float_of_int (Service.stats t.svc).Service.hits);
    ("misses", float_of_int (Service.stats t.svc).Service.misses);
    ("evictions", float_of_int (Service.stats t.svc).Service.evictions);
    ("entries", float_of_int (Service.stats t.svc).Service.entries);
    ("p50_us", percentile_or_zero t.latency 50.);
    ("p95_us", percentile_or_zero t.latency 95.);
    ("p99_us", percentile_or_zero t.latency 99.);
  ]

let stats_line t = Protocol.render_reply (Protocol.Stats_reply (stats_fields t))

(* ---- reply plumbing ---- *)

let new_slot t conn =
  let slot = { reply = None } in
  Queue.push slot conn.slots;
  t.inflight <- t.inflight + 1;
  slot

let fill t slot payload =
  (match slot.reply with
  | None -> t.inflight <- t.inflight - 1
  | Some _ -> ());
  slot.reply <- Some payload

(* A request's span goes to the trace file as it completes, so memory
   stays flat however long the daemon runs. *)
let note_span t ~verb ~arrival_ns ~sets ~outcome =
  let now = Clock.now_ns () in
  let us_of ns = Int64.to_float ns /. 1e3 in
  let dur_us = us_of (Int64.sub now arrival_ns) in
  (match t.trace with
  | Some oc ->
    Printf.fprintf oc
      "%s\n\
       {\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"sets\":%d,\"outcome\":\"%s\"}}"
      (if t.spans = 0 then "" else ",")
      verb
      (us_of (Int64.sub arrival_ns t.started_ns))
      dur_us sets outcome;
    t.spans <- t.spans + 1
  | None -> ());
  Hrt_stats.Window.add t.latency dur_us

(* ---- request handling ---- *)

(* The absolute deadline [ms] after [arrival_ns], saturated at
   [Int64.max_int]: a deadline past the Int64 range never expires. *)
let deadline_after arrival_ns ms =
  let ms = Int64.of_int ms in
  if ms > Int64.div (Int64.sub Int64.max_int arrival_ns) 1_000_000L then
    Int64.max_int
  else Int64.add arrival_ns (Int64.mul ms 1_000_000L)

let verdict_lines t = function
  | [ v ] -> Protocol.Verdict_lines.render t.lines v
  | vs ->
    String.concat "\n" (List.map (Protocol.Verdict_lines.render t.lines) vs)

let set_count = function Sets sets -> List.length sets | Key _ -> 1

(* A query read straight to its key takes the key path; everything else
   ([batch], [stats], [drain], errors, and queries the key reader gives
   up on) is parsed. *)
let rec handle_request t conn payload =
  match Protocol.query_key t.reader payload with
  | Some { Protocol.deadline_ms; key } ->
    t.requests <- t.requests + 1;
    enqueue t conn ~verb:"query" ~deadline_ms (Key { key; payload })
  | None -> parse_request t conn payload

and parse_request t conn payload =
  match Protocol.parse_request payload with
  | Error e ->
    t.proto_errors <- t.proto_errors + 1;
    let slot = new_slot t conn in
    fill t slot (Protocol.render_reply (Protocol.error_reply e))
  | Ok req -> (
    t.requests <- t.requests + 1;
    match req with
    | Protocol.Stats ->
      let slot = new_slot t conn in
      fill t slot (stats_line t)
    | Protocol.Drain ->
      let slot = new_slot t conn in
      Atomic.set t.drain true;
      fill t slot
        (Protocol.render_reply
           (Protocol.Draining { pending = Queue.length t.queue }))
    | Protocol.Query { deadline_ms; specs } ->
      enqueue t conn ~verb:"query" ~deadline_ms
        (Sets [ taskset_of t.cfg specs ])
    | Protocol.Batch { deadline_ms; sets } ->
      enqueue t conn ~verb:"batch" ~deadline_ms
        (Sets (List.map (taskset_of t.cfg) sets)))

and enqueue t conn ~verb ~deadline_ms ask =
  let slot = new_slot t conn in
  let arrival_ns = Clock.now_ns () in
  if Atomic.get t.drain || Queue.length t.queue >= t.cfg.max_queue then begin
    (* Admission-themed backpressure: past capacity (or draining) the
       server rejects the request outright — a typed, immediate
       [overloaded] verdict per set instead of unbounded queueing. *)
    let nsets = set_count ask in
    t.shed <- t.shed + nsets;
    note_span t ~verb ~arrival_ns ~sets:nsets ~outcome:"shed";
    fill t slot
      (verdict_lines t (List.init nsets (fun _ -> Protocol.overloaded)))
  end
  else begin
    let deadline_ms =
      match deadline_ms with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline_ms
    in
    let deadline_ns = Option.map (deadline_after arrival_ns) deadline_ms in
    Queue.push { slot; ask; arrival_ns; deadline_ns; verb } t.queue
  end

(* The task set of a keyed query whose key is not resident. [query_key]
   answers only payloads that [parse_request] reads as a query (the
   differential property in test_serve holds it to that), so the other
   cases cannot occur; were one to, the request would get an empty
   reply instead of ending the daemon. *)
let key_miss_sets t payload =
  match Protocol.parse_request payload with
  | Ok (Protocol.Query { specs; _ }) -> [ taskset_of t.cfg specs ]
  | Ok (Protocol.Batch _ | Protocol.Stats | Protocol.Drain) | Error _ -> []

(* A request answered on this domain: a keyed query whose key is
   resident by [Service.find], anything else (a keyed miss is parsed
   first) by one [Service.batch] of its own sets. Hits, misses,
   evictions and the resident keys are therefore those of one
   [Service.batch] per request, however the loop's reads grouped the
   requests. *)
let serve t w =
  let results =
    match w.ask with
    | Sets sets -> Service.batch t.svc sets
    | Key { key; payload } -> (
      match Service.find t.svc key with
      | Some r -> [ r ]
      | None -> Service.batch t.svc (key_miss_sets t payload))
  in
  let n = List.length results in
  t.served <- t.served + n;
  note_span t ~verb:w.verb ~arrival_ns:w.arrival_ns ~sets:n ~outcome:"served";
  fill t w.slot
    (verdict_lines t
       (List.map
          (fun r -> Protocol.verdict_of_oracle r.Hrt_analysis.Oracle.verdict)
          results))

let expire t w =
  let n = set_count w.ask in
  t.expired <- t.expired + n;
  note_span t ~verb:w.verb ~arrival_ns:w.arrival_ns ~sets:n ~outcome:"expired";
  fill t w.slot (verdict_lines t (List.init n (fun _ -> Protocol.expired)))

(* One dispatch: pop up to [max_batch] requests and answer each in
   arrival order, the ones whose deadline already passed with
   [expired]. *)
let dispatch t =
  let n = ref 0 in
  while (not (Queue.is_empty t.queue)) && !n < t.cfg.max_batch do
    let w = Queue.pop t.queue in
    incr n;
    match w.deadline_ns with
    | Some d when Int64.compare (Clock.now_ns ()) d > 0 -> expire t w
    | Some _ | None -> serve t w
  done

(* ---- I/O ---- *)

let close_conn t conn =
  if conn.open_ then begin
    conn.open_ <- false;
    t.fd_starved <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Append a reply frame to [out], first moving the unwritten bytes to
   the front, and growing it only when they and the frame do not fit. *)
let add_frame conn payload =
  let n = Protocol.framed_length payload in
  if conn.out_len + n > Bytes.length conn.out then begin
    let live = conn.out_len - conn.out_pos in
    let out =
      if live + n > Bytes.length conn.out then Bytes.create (2 * (live + n))
      else conn.out
    in
    Bytes.blit conn.out conn.out_pos out 0 live;
    conn.out <- out;
    conn.out_len <- live;
    conn.out_pos <- 0
  end;
  conn.out_len <- Protocol.blit_frame payload conn.out conn.out_len

(* Move answered slots (in request order) into the outgoing buffer, then
   push as much of it as the socket accepts, straight from the buffer. *)
let flush_conn t conn =
  let rec promote () =
    match Queue.peek_opt conn.slots with
    | Some { reply = Some payload } ->
      ignore (Queue.pop conn.slots);
      add_frame conn payload;
      t.replies <- t.replies + 1;
      promote ()
    | Some { reply = None } | None -> ()
  in
  promote ();
  let pending = conn.out_len - conn.out_pos in
  if pending > 0 then begin
    match Unix.write conn.fd conn.out conn.out_pos pending with
    | n ->
      conn.out_pos <- conn.out_pos + n;
      if conn.out_pos = conn.out_len then begin
        conn.out_pos <- 0;
        conn.out_len <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      (* Peer vanished mid-reply: nothing more can be delivered. *)
      Queue.clear conn.slots;
      close_conn t conn
  end

let conn_flushed conn = Queue.is_empty conn.slots && conn.out_len = conn.out_pos

let scratch = 8192

let read_conn t conn buf =
  match Unix.read conn.fd buf 0 scratch with
  | 0 -> (
    conn.reading <- false;
    match Protocol.Decoder.eof conn.dec with
    | `Clean -> `Stop
    | `Error e ->
      t.proto_errors <- t.proto_errors + 1;
      let slot = new_slot t conn in
      fill t slot (Protocol.render_reply (Protocol.error_reply e));
      conn.fatal <- true;
      `Stop)
  | n ->
    Protocol.Decoder.feed conn.dec buf 0 n;
    let rec drain_frames () =
      match Protocol.Decoder.next conn.dec with
      | `Frame payload ->
        handle_request t conn payload;
        drain_frames ()
      | `Await -> ()
      | `Error e ->
        (* Framing is unrecoverable: answer with the typed error and
           close once it is flushed. *)
        t.proto_errors <- t.proto_errors + 1;
        conn.reading <- false;
        conn.fatal <- true;
        let slot = new_slot t conn in
        fill t slot (Protocol.render_reply (Protocol.error_reply e))
    in
    drain_frames ();
    if conn.reading then `More else `Stop
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Stop
  | exception Unix.Unix_error (_, _, _) ->
    conn.reading <- false;
    Queue.clear conn.slots;
    close_conn t conn;
    `Stop

(* Drain everything the kernel already buffered for this connection —
   requests sent before the drain request must be answered, not reset.
   After the sweep the connection stops reading: anything a client sends
   later is lost to the close, which bounds shutdown. *)
let read_sweep t conn buf =
  let rec go () = if read_conn t conn buf = `More then go () in
  go ();
  conn.reading <- false

(* Accept every connection the kernel completed. One past [max_conns] is
   closed at once. Out of fds, the loop stops watching the listeners
   until a connection closes; the listen backlog holds the waiting
   clients meanwhile. *)
let accept_ready t fd =
  let rec go () =
    match Unix.accept ~cloexec:true fd with
    | cfd, _ when List.length t.conns >= max_conns ->
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      t.refused <- t.refused + 1;
      go ()
    | cfd, _ ->
      Unix.set_nonblock cfd;
      t.accepted_conns <- t.accepted_conns + 1;
      t.conns <-
        {
          fd = cfd;
          dec = Protocol.Decoder.create ~max_frame:t.cfg.max_frame ();
          out = Bytes.create 256;
          out_len = 0;
          out_pos = 0;
          slots = Queue.create ();
          reading = true;
          fatal = false;
          open_ = true;
        }
        :: t.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      t.fd_starved <- true
  in
  go ()

(* ---- main loop ---- *)

let close_listeners t =
  if t.accepting then begin
    t.accepting <- false;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    if Sys.file_exists t.unix_path then
      try Sys.remove t.unix_path with Sys_error _ -> ()
  end

let run ?(install_sigterm = false) t =
  let prev_sigterm =
    if install_sigterm then
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> request_drain t)))
    else None
  in
  (* A client that closes before reading its reply would otherwise end
     the process on the reply's write; ignored, the write fails with
     EPIPE and [flush_conn] drops that connection alone. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let buf = Bytes.create scratch in
  let finished = ref false in
  while not !finished do
    let draining = Atomic.get t.drain in
    if draining && t.accepting then begin
      (* Final accept sweep: connections the kernel already completed in
         the backlog get replies (shed, typically) and a clean close
         instead of a reset from the dying listener. *)
      List.iter (accept_ready t) t.listeners;
      close_listeners t
    end;
    let rfds =
      (if t.accepting && not t.fd_starved then t.listeners else [])
      @ List.filter_map
          (fun c -> if c.open_ && c.reading then Some c.fd else None)
          t.conns
    in
    let wfds =
      List.filter_map
        (fun c ->
          if c.open_ && c.out_len > c.out_pos then Some c.fd
          else None)
        t.conns
    in
    let timeout = if Queue.is_empty t.queue then 0.05 else 0. in
    let readable, writable =
      match Unix.select rfds wfds [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    in
    List.iter
      (fun fd ->
        if List.memq fd t.listeners then accept_ready t fd
        else
          match List.find_opt (fun c -> c.fd == fd && c.open_) t.conns with
          | Some conn ->
            let rec go () = if read_conn t conn buf = `More then go () in
            go ()
          | None -> ())
      readable;
    if Atomic.get t.drain then
      (* Answer everything already in flight before closing: each frame
         buffered in a connection's socket gets its reply (new queries
         are shed with [overloaded] at this point, never dropped). *)
      List.iter
        (fun conn ->
          if conn.open_ && conn.reading && not conn.fatal then
            read_sweep t conn buf)
        t.conns;
    dispatch t;
    List.iter
      (fun conn ->
        if conn.open_ then begin
          flush_conn t conn;
          (* ignore [writable]: flush is cheap and write handles EAGAIN.
             A drain closes a connection only once the read sweep above
             has cleared [reading]: a drain that lands after the sweep
             would otherwise close on unread requests and reset them. *)
          if
            conn.open_ && conn_flushed conn
            && ((not conn.reading) || conn.fatal)
          then close_conn t conn
        end)
      t.conns;
    ignore writable;
    t.conns <- List.filter (fun c -> c.open_) t.conns;
    if Atomic.get t.drain && Queue.is_empty t.queue && t.conns = [] then
      finished := true
  done;
  close_listeners t;
  if Hrt_obs.Sink.enabled t.sink then Hrt_obs.Sink.sample_probes t.sink;
  Option.iter
    (fun oc ->
      output_string oc "\n]\n";
      close_out oc)
    t.trace;
  Printf.eprintf "%s\n%!" (stats_line t);
  Sys.set_signal Sys.sigpipe prev_sigpipe;
  match prev_sigterm with
  | Some prev -> Sys.set_signal Sys.sigterm prev
  | None -> ()
