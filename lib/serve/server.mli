(** The admission serving daemon behind [hrt_sim serve].

    A long-running concurrent front-end to the memoized
    {!Hrt_analysis.Service}: clients connect over a Unix-domain socket
    (and optionally TCP on localhost), speak {!Protocol} frames, and get
    one reply per request. Requests land in a bounded FIFO queue drained
    in batches through [Service.batch]: cache hits are answered on the
    serving domain, and only a batch's misses fan across a
    {!Hrt_par.Par.Pool} — so a burst of distinct task sets uses every
    worker domain while a warm batch never leaves the loop's domain.

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
    reply, since the stream cannot be resynchronized). *)

open Hrt_core

type config = {
  policy : Config.policy;
  platform : Hrt_hw.Platform.t;
  raw : bool;  (** analyze the raw-feasibility view instead of production *)
  jobs : int;  (** worker-domain fan-out for each dispatch batch's misses *)
  max_queue : int;  (** queued requests beyond which queries are shed *)
  max_batch : int;  (** requests served per dispatch batch *)
  max_frame : int;  (** per-frame payload cap handed to the {!Protocol.Decoder} *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [@ms] token *)
}

val default_config : config
(** EDF, phi, production view, jobs 4, max_queue 256, max_batch 64,
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
    probes and sampled at drain. [trace_out] records one Chrome-trace
    span per request (verb, queue+service time, outcome) written at
    drain. Raises [Unix.Unix_error] if binding fails. *)

val tcp_port : t -> int option
(** The bound TCP port, once created (resolves an ephemeral request). *)

val jobs : t -> int
(** Worker domains the dispatch batches fan misses across: [config.jobs]
    clamped to the {!Hrt_par.Par.Pool} range. *)

val request_drain : t -> unit
(** Ask the running server to drain; safe from any domain or from a
    signal handler. {!run} returns once everything queued is answered
    and flushed. *)

val run : ?install_sigterm:bool -> t -> unit
(** Serve until drained. With [install_sigterm] (daemon mode), SIGTERM
    triggers {!request_drain}. The final stats line is printed to stderr
    on return. *)

val stats_line : t -> string
(** The machine-readable stats payload (same fields as the [stats]
    verb). *)
