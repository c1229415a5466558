open Hrt_core
open Hrt_analysis
open Hrt_par
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
    jobs = 4;
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
  out : Buffer.t;
  mutable out_pos : int;  (* bytes of [out] already written *)
  slots : slot Queue.t;
  mutable reading : bool;  (* false after EOF or a fatal framing error *)
  mutable fatal : bool;  (* close once slots are answered and flushed *)
  mutable open_ : bool;
}

type work = {
  slot : slot;
  sets : Taskset.t list;
  arrival_ns : int64;
  deadline_ns : int64 option;  (* absolute, monotonic *)
  verb : string;
}

type span = {
  sp_verb : string;
  sp_ts_us : float;  (* arrival, relative to server start *)
  sp_dur_us : float;
  sp_sets : int;
  sp_outcome : string;
}

type t = {
  cfg : config;
  unix_path : string;
  listeners : Unix.file_descr list;
  bound_tcp : int option;
  svc : Service.t;
  pool : Par.Pool.t;
  sink : Hrt_obs.Sink.t;
  trace_out : string option;
  started_ns : int64;
  queue : work Queue.t;
  mutable conns : conn list;
  drain : bool Atomic.t;
  mutable accepting : bool;
  latency : Hrt_stats.Percentile.t;
  mutable spans : span list;  (* newest first *)
  (* counters (single-threaded loop; probes sampled on the same domain) *)
  mutable served : int;  (* task sets answered through the service *)
  mutable shed : int;  (* task sets answered "overloaded" *)
  mutable expired : int;  (* task sets answered "expired" *)
  mutable proto_errors : int;
  mutable accepted_conns : int;
  mutable requests : int;  (* frames parsed into a request *)
  mutable replies : int;  (* reply frames queued for flush *)
  mutable inflight : int;  (* slots not yet filled *)
}

let taskset_of t specs =
  if t.cfg.raw then Taskset.raw_view ~policy:t.cfg.policy specs
  else
    Taskset.production_view ~policy:t.cfg.policy ~platform:t.cfg.platform specs

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
  let ufd = listen_unix socket in
  let tcp = Option.map listen_tcp tcp_port in
  let t =
    {
      cfg;
      unix_path = socket;
      listeners = ufd :: (match tcp with Some (fd, _) -> [ fd ] | None -> []);
      bound_tcp = Option.map snd tcp;
      svc = Service.create ();
      pool = Par.Pool.create ~jobs:cfg.jobs;
      sink;
      trace_out;
      started_ns = Clock.now_ns ();
      queue = Queue.create ();
      conns = [];
      drain = Atomic.make false;
      accepting = true;
      latency = Hrt_stats.Percentile.create ();
      spans = [];
      served = 0;
      shed = 0;
      expired = 0;
      proto_errors = 0;
      accepted_conns = 0;
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
let jobs t = Par.Pool.jobs t.pool
let request_drain t = Atomic.set t.drain true

(* ---- stats ---- *)

let percentile_or_zero p q =
  if Hrt_stats.Percentile.count p = 0 then 0.
  else Hrt_stats.Percentile.value p q

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

let note_span t ~verb ~arrival_ns ~sets ~outcome =
  let now = Clock.now_ns () in
  let us_of ns = Int64.to_float ns /. 1e3 in
  (match t.trace_out with
  | Some _ ->
    t.spans <-
      {
        sp_verb = verb;
        sp_ts_us = us_of (Int64.sub arrival_ns t.started_ns);
        sp_dur_us = us_of (Int64.sub now arrival_ns);
        sp_sets = sets;
        sp_outcome = outcome;
      }
      :: t.spans
  | None -> ());
  Hrt_stats.Percentile.add t.latency (us_of (Int64.sub now arrival_ns))

(* ---- request handling ---- *)

(* The absolute deadline [ms] after [arrival_ns], saturated at
   [Int64.max_int]: a deadline past the Int64 range never expires. *)
let deadline_after arrival_ns ms =
  let ms = Int64.of_int ms in
  if ms > Int64.div (Int64.sub Int64.max_int arrival_ns) 1_000_000L then
    Int64.max_int
  else Int64.add arrival_ns (Int64.mul ms 1_000_000L)

let verdict_lines vs =
  Protocol.render_reply (Protocol.Verdicts vs)

let rec handle_request t conn payload =
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
      enqueue t conn ~verb:"query" ~deadline_ms [ specs ]
    | Protocol.Batch { deadline_ms; sets } ->
      enqueue t conn ~verb:"batch" ~deadline_ms sets)

and enqueue t conn ~verb ~deadline_ms sets =
  let slot = new_slot t conn in
  let arrival_ns = Clock.now_ns () in
  let nsets = List.length sets in
  if Atomic.get t.drain || Queue.length t.queue >= t.cfg.max_queue then begin
    (* Admission-themed backpressure: past capacity (or draining) the
       server rejects the request outright — a typed, immediate
       [overloaded] verdict per set instead of unbounded queueing. *)
    t.shed <- t.shed + nsets;
    note_span t ~verb ~arrival_ns ~sets:nsets ~outcome:"shed";
    fill t slot (verdict_lines (List.map (fun _ -> Protocol.overloaded) sets))
  end
  else begin
    let deadline_ms =
      match deadline_ms with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline_ms
    in
    let deadline_ns = Option.map (deadline_after arrival_ns) deadline_ms in
    let sets = List.map (taskset_of t) sets in
    Queue.push { slot; sets; arrival_ns; deadline_ns; verb } t.queue
  end

(* One dispatch batch: pop up to [max_batch] requests, answer the ones
   whose deadline already passed, send the rest through the memoized
   service (hits answered here, misses fanned over the worker pool), and
   fill the reply slots. *)
let dispatch t =
  if not (Queue.is_empty t.queue) then begin
    let batch = ref [] in
    while (not (Queue.is_empty t.queue)) && List.length !batch < t.cfg.max_batch
    do
      batch := Queue.pop t.queue :: !batch
    done;
    let batch = List.rev !batch in
    let now = Clock.now_ns () in
    let live, dead =
      List.partition
        (fun w ->
          match w.deadline_ns with
          | Some d -> Int64.compare now d <= 0
          | None -> true)
        batch
    in
    List.iter
      (fun w ->
        let n = List.length w.sets in
        t.expired <- t.expired + n;
        note_span t ~verb:w.verb ~arrival_ns:w.arrival_ns ~sets:n
          ~outcome:"expired";
        fill t w.slot
          (verdict_lines (List.map (fun _ -> Protocol.expired) w.sets)))
      dead;
    if live <> [] then begin
      let all_sets = List.concat_map (fun w -> w.sets) live in
      let results = Service.batch ~pool:t.pool t.svc all_sets in
      let rec split results = function
        | [] -> ()
        | w :: rest ->
          let n = List.length w.sets in
          let rec take k acc rs =
            if k = 0 then (List.rev acc, rs)
            else
              match rs with
              | r :: rs -> take (k - 1) (r :: acc) rs
              | [] -> (List.rev acc, [])
          in
          let mine, results = take n [] results in
          t.served <- t.served + n;
          note_span t ~verb:w.verb ~arrival_ns:w.arrival_ns ~sets:n
            ~outcome:"served";
          fill t w.slot
            (verdict_lines
               (List.map
                  (fun r ->
                    Protocol.verdict_of_oracle r.Hrt_analysis.Oracle.verdict)
                  mine));
          split results rest
      in
      split results live
    end
  end

(* ---- I/O ---- *)

let close_conn t conn =
  if conn.open_ then begin
    conn.open_ <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  ignore t

(* Move answered slots (in request order) into the outgoing buffer, then
   push as much of it as the socket accepts. *)
let flush_conn t conn =
  let rec promote () =
    match Queue.peek_opt conn.slots with
    | Some { reply = Some payload } ->
      ignore (Queue.pop conn.slots);
      Buffer.add_string conn.out (Protocol.frame payload);
      t.replies <- t.replies + 1;
      promote ()
    | Some { reply = None } | None -> ()
  in
  promote ();
  let pending = Buffer.length conn.out - conn.out_pos in
  if pending > 0 then begin
    let payload = Buffer.to_bytes conn.out in
    match Unix.write conn.fd payload conn.out_pos pending with
    | n ->
      conn.out_pos <- conn.out_pos + n;
      if conn.out_pos = Buffer.length conn.out then begin
        Buffer.clear conn.out;
        conn.out_pos <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      (* Peer vanished mid-reply: nothing more can be delivered. *)
      Queue.clear conn.slots;
      close_conn t conn
  end

let conn_flushed conn =
  Queue.is_empty conn.slots && Buffer.length conn.out = conn.out_pos

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

let accept_ready t fd =
  let rec go () =
    match Unix.accept ~cloexec:true fd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      t.accepted_conns <- t.accepted_conns + 1;
      t.conns <-
        {
          fd = cfd;
          dec = Protocol.Decoder.create ~max_frame:t.cfg.max_frame ();
          out = Buffer.create 256;
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
  in
  go ()

(* ---- trace export ---- *)

let write_trace t =
  match t.trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "[";
        List.iteri
          (fun i sp ->
            if i > 0 then output_string oc ",";
            output_string oc
              (Printf.sprintf
                 "\n\
                  {\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"sets\":%d,\"outcome\":\"%s\"}}"
                 sp.sp_verb sp.sp_ts_us sp.sp_dur_us sp.sp_sets sp.sp_outcome))
          (List.rev t.spans);
        output_string oc "\n]\n")

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
      (if t.accepting then t.listeners else [])
      @ List.filter_map
          (fun c -> if c.open_ && c.reading then Some c.fd else None)
          t.conns
    in
    let wfds =
      List.filter_map
        (fun c ->
          if c.open_ && Buffer.length c.out > c.out_pos then Some c.fd
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
          (* ignore [writable]: flush is cheap and write handles EAGAIN *)
          if
            conn.open_ && conn_flushed conn
            && ((not conn.reading) || conn.fatal || Atomic.get t.drain)
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
  write_trace t;
  Printf.eprintf "%s\n%!" (stats_line t);
  match prev_sigterm with
  | Some prev -> Sys.set_signal Sys.sigterm prev
  | None -> ()
