(** The admission serving daemon behind [hrt_sim serve].

    A long-running concurrent front-end to the memoized
    {!Hrt_analysis.Service}: clients connect over a Unix-domain socket
    (and optionally TCP on localhost), speak {!Protocol} frames, and get
    one reply per request. Requests land in a bounded FIFO queue drained
    in batches through [Service.batch], on the serving loop's own domain:
    hits and misses alike. No dispatch spawns a domain; fanning a batch's
    misses across domains lost at every batch size it was measured at.
    A [query] is first read straight to its cache key
    ({!Protocol.query_key}); a resident key is answered by
    [Service.find] with a verdict line rendered once, and everything
    else joins the batch, so replies and cache counts are those of one
    [Service.batch] over every request's sets in order.

    The server applies admission-themed backpressure to {e itself}
    rather than stalling or dropping connections:

    - {e load shedding} — once the queue holds [max_queue] requests, new
      queries are answered immediately with the stable
      [rejected overloaded] verdict;
    - {e per-request deadlines} — a request whose [@ms] deadline (or the
      server default) passes while queued is answered
      [rejected expired], never served late;
    - {e graceful drain} — on SIGTERM or a [drain] request the server
      stops accepting, answers everything already queued, flushes every
      connection, emits final stats, and returns from {!run}.

    Replies on one connection are delivered in request order even when
    the work completes out of order (per-connection reply slots), so
    pipelined clients can match replies positionally. Every accepted
    request gets exactly one reply; protocol errors are answered with a
    typed [error] frame (framing errors close the connection after the
    reply, since the stream cannot be resynchronized).

    A connection flood cannot end the daemon. At most 1,000 connections
    are open at once, below [select]'s [FD_SETSIZE]; one more is closed
    on accept and counted as [refused] in [stats]. When [accept] runs
    out of fds ([EMFILE]/[ENFILE]), the loop stops watching the
    listeners until a connection closes, and the kernel's listen backlog
    holds the waiting clients. *)

open Hrt_core

type config = {
  policy : Config.policy;
  platform : Hrt_hw.Platform.t;
  raw : bool;  (** analyze the raw-feasibility view instead of production *)
  jobs : int;
      (** Ignored: every dispatch is answered on the serving loop's
          domain. The field remains only because hrtbench still sets it;
          ROADMAP item 6 deletes it together with that use. *)
  max_queue : int;  (** queued requests beyond which queries are shed *)
  max_batch : int;  (** requests served per dispatch batch *)
  max_frame : int;  (** per-frame payload cap handed to the {!Protocol.Decoder} *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [@ms] token *)
}

val default_config : config
(** EDF, phi, production view, jobs 1, max_queue 256, max_batch 64,
    {!Protocol.default_max_frame}, no default deadline. *)

type t

val create :
  ?tcp_port:int ->
  ?sink:Hrt_obs.Sink.t ->
  ?trace_out:string ->
  socket:string ->
  config ->
  t
(** Bind the Unix-domain socket at [socket] (an existing stale socket
    file is replaced) and, with [tcp_port], a TCP listener on
    127.0.0.1:[tcp_port] (0 picks an ephemeral port, see {!tcp_port}).
    With an enabled [sink], serving gauges ([serve.queue.depth],
    [serve.inflight], [serve.shed], [serve.served], [serve.expired],
    [serve.conns]) are registered next to the service's [admit.cache.*]
    probes and sampled at drain. [trace_out] is a Chrome-trace JSON
    array with one span per request (verb, queue+service time, outcome),
    each written as the request completes; the array is closed at drain.
    Raises [Unix.Unix_error] if binding fails, [Sys_error] if
    [trace_out] cannot be opened. *)

val tcp_port : t -> int option
(** The bound TCP port, once created (resolves an ephemeral request). *)

val request_drain : t -> unit
(** Ask the running server to drain; safe from any domain or from a
    signal handler. {!run} returns once everything queued is answered
    and flushed. *)

val run : ?install_sigterm:bool -> t -> unit
(** Serve until drained. With [install_sigterm] (daemon mode), SIGTERM
    triggers {!request_drain}. SIGPIPE is ignored while the server runs,
    so a client that closes before reading its reply loses only its own
    connection. Both dispositions are restored on return, and the final
    stats line is printed to stderr. *)

val stats_line : t -> string
(** The machine-readable stats payload (same fields as the [stats]
    verb). [p50_us], [p95_us] and [p99_us] are queue+service latency
    percentiles over the latest 65,536 requests, not the daemon's whole
    life; [refused] counts connections closed over the cap. *)
