(** The admission serving protocol (version 1).

    A length-prefixed, versioned line protocol, symmetric in both
    directions: every message is one {e frame} —

    {v hrt1 <len>\n<payload> v}

    where [<len>] is the payload byte count in ASCII decimal — digits
    only, leading zeros allowed, no sign, base prefix or underscore —
    and the payload is a single logical line of text (no framing
    newline of its own; batch replies carry embedded newlines). The
    magic ["hrt1"] names protocol version 1; any other prefix is a
    typed {!error}, as is a length past the receiver's frame cap.

    Request payloads ({!request}):

    {v
    query [@<deadline_ms>] SPEC+
    batch [@<deadline_ms>] SPEC+ (; SPEC+)*
    stats
    drain
    v}

    with the same task specs as [hrt_sim admit]: [P:<period_us>:<slice_us>],
    [S:<size_us>:<deadline_us>], or [A]. The optional [@<ms>] token is a
    per-request service deadline: if the server cannot answer within it,
    the request is answered [rejected expired] rather than served late.
    A deadline too far to represent in Int64 nanoseconds never expires.

    Reply payloads ({!reply}): one verdict line per task set —
    [admitted <headroom>] or [rejected <reason>] — where [<reason>] is a
    stable kebab-case tag: the {!Hrt_core.Admission.Rejection.name} of an
    oracle rejection, or the server-side [overloaded] (queue-depth load
    shed / draining) and [expired] (deadline passed in queue) tags. Other
    replies: [stats k=v ...], [draining pending=<n>], and
    [error <code> <detail>].

    Malformed input of any kind — bad magic, unparsable length, oversized
    or truncated frames, junk verbs, malformed specs — yields a typed
    {!error}, never an exception: the {!Decoder} and parsers are total. *)

open Hrt_core

val magic : string
(** ["hrt1"]. *)

val default_max_frame : int
(** 65536 bytes of payload. *)

(** Every way a peer's bytes can be unusable, each with a stable code. *)
type error =
  | Bad_magic of string  (** frame does not start with [magic ^ " "] *)
  | Bad_length of string  (** length field not a decimal number *)
  | Frame_too_large of { len : int; max : int }
  | Truncated of { wanted : int; got : int }
      (** stream ended mid-frame; [wanted = 0] means mid-header *)
  | Bad_verb of string
  | Bad_request of string  (** well-formed verb, malformed shape *)
  | Bad_deadline of string
  | Bad_spec of { index : int; msg : string }

val error_code : error -> string
(** Stable kebab-case tag ("bad-magic", "frame-too-large", ...). *)

val describe_error : error -> string

(* ---- framing ---- *)

val frame : string -> string
(** [frame payload] is the wire form [hrt1 <len>\n<payload>]. *)

val framed_length : string -> int
(** [String.length (frame payload)], without building the frame. *)

val blit_frame : string -> bytes -> int -> int
(** [blit_frame payload b off] writes [frame payload] into [b] at
    [off], which must leave room for {!framed_length} bytes, and
    returns the offset after it: how a writer appends a frame to its
    own output buffer with no intermediate string. *)

(** Incremental frame decoder: feed raw bytes as they arrive, pull
    complete payloads out. Errors are sticky — a stream that has lost
    framing cannot be resynchronized and the connection should be closed
    after reporting the error. Never raises on any input. *)
module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  val feed : t -> bytes -> int -> int -> unit
  val feed_string : t -> string -> unit

  val next : t -> [ `Frame of string | `Await | `Error of error ]
  (** Pull the next complete payload, [`Await] when more bytes are
      needed. After an [`Error] every subsequent call returns the same
      error. *)

  val eof : t -> [ `Clean | `Error of error ]
  (** Call when the peer closes: [`Error (Truncated _)] if the stream
      ended mid-frame. *)
end

(* ---- requests ---- *)

type request =
  | Query of { deadline_ms : int option; specs : Constraints.t list }
  | Batch of { deadline_ms : int option; sets : Constraints.t list list }
  | Stats
  | Drain

val max_spec_us : int
(** The largest value a spec field accepts: [Int64.max_int / 1000] µs,
    the most that converts to Int64 nanoseconds without wrapping. *)

val parse_spec : string -> (Constraints.t, string) result
(** One task-spec token ([P:..:..], [S:..:..], [A]), read by the same
    reader {!parse_request} applies to each spec; shared with the
    [hrt_sim admit] command line. Fields are integers in
    [1, {!max_spec_us}]. *)

val tokens_of : string -> string list
(** The non-empty tokens of a line split on spaces and tabs: how request
    payloads, and [hrt_sim admit batch] lines, are tokenized. *)

val parse_request : string -> (request, error) result
(** One pass over the payload, in place. Verbs are case-sensitive, spec
    letters are not, and a field takes every spelling
    [int_of_string_opt] accepts. A [query] or [batch] reports, in
    precedence order: a bad [@<ms>] token right after the verb; no
    spec after it; any [;] in a [query], or an empty set in a
    [batch]; then the first bad spec, its index counted from 0 within
    its set. *)

(** {2 The key path}

    A warm query is answered from its payload bytes: {!query_key} reads
    [query [@<ms>] SPEC+] with the spec reader {!parse_request} uses,
    straight into the {!Hrt_analysis.Service} cache key, with no
    [Constraints.t], task set or list. *)

type key_reader
(** The view's key prefix and a fixed scratch of 64 task records. *)

val key_reader : prefix:string -> key_reader
(** A reader for keys under the view whose
    {!Hrt_analysis.Taskset.key_prefix} is [prefix]. *)

type keyed = { deadline_ms : int option; key : string }

val query_key : key_reader -> string -> keyed option
(** [Some] exactly when the payload is a [query] that {!parse_request}
    accepts, with at most 64 specs: its [@<ms>] deadline and the
    {!Hrt_analysis.Taskset.fingerprint} of its specs under the reader's
    view. [None] for anything else — other verbs, errors, more specs —
    which {!parse_request} then answers. *)

(* ---- replies ---- *)

type verdict = Admitted of float | Rejected of string

val verdict_of_oracle : Admission.verdict -> verdict
(** Fold a typed runtime verdict to its wire form (headroom, or the
    stable rejection-reason tag). *)

val overloaded : verdict
(** [Rejected "overloaded"] — the load-shed / draining answer. *)

val expired : verdict
(** [Rejected "expired"] — the per-request-deadline answer. *)

type reply =
  | Verdicts of verdict list  (** one line per task set, request order *)
  | Stats_reply of (string * float) list  (** key=value pairs, in order *)
  | Draining of { pending : int }
  | Error_reply of { code : string; detail : string }

val render_reply : reply -> string

(** Each distinct verdict line rendered once. *)
module Verdict_lines : sig
  type t
  (** A fixed table of 1,024 admitted lines, slotted by the bits of
      their headroom; a line whose slot holds another headroom is
      rendered and replaces it. *)

  val create : unit -> t

  val render : t -> verdict -> string
  (** [render_reply (Verdicts [v])], the same bytes for every
      headroom, NaN, infinities, signed zeros and subnormals
      included. *)
end
val parse_reply : string -> (reply, string) result
(** Total inverses on well-formed payloads:
    [parse_reply (render_reply r) = Ok r] up to float formatting. *)

val error_reply : error -> reply
