open Hrt_engine
open Hrt_core
open Hrt_analysis

let magic = "hrt1"
let default_max_frame = 65536

type error =
  | Bad_magic of string
  | Bad_length of string
  | Frame_too_large of { len : int; max : int }
  | Truncated of { wanted : int; got : int }
  | Bad_verb of string
  | Bad_request of string
  | Bad_deadline of string
  | Bad_spec of { index : int; msg : string }

let error_code = function
  | Bad_magic _ -> "bad-magic"
  | Bad_length _ -> "bad-length"
  | Frame_too_large _ -> "frame-too-large"
  | Truncated _ -> "truncated"
  | Bad_verb _ -> "bad-verb"
  | Bad_request _ -> "bad-request"
  | Bad_deadline _ -> "bad-deadline"
  | Bad_spec _ -> "bad-spec"

(* Keep peer-controlled junk out of the reply payload: frames carry one
   logical line, so anything echoed back is clipped and de-newlined. *)
let sanitize s =
  let s = if String.length s > 32 then String.sub s 0 32 ^ "..." else s in
  String.map (fun c -> if c = '\n' || c = '\r' then '.' else c) s

let describe_error = function
  | Bad_magic got ->
    Printf.sprintf "expected frame magic %S, got %S" magic (sanitize got)
  | Bad_length got ->
    Printf.sprintf "frame length is not a decimal number: %S" (sanitize got)
  | Frame_too_large { len; max } ->
    Printf.sprintf "frame payload of %d bytes exceeds the %d-byte cap" len max
  | Truncated { wanted; got } ->
    if wanted = 0 then
      Printf.sprintf "stream ended mid-header (%d bytes)" got
    else
      Printf.sprintf "stream ended mid-frame (%d of %d payload bytes)" got
        wanted
  | Bad_verb v ->
    Printf.sprintf "unknown verb %S (query, batch, stats, drain)" (sanitize v)
  | Bad_request msg -> msg
  | Bad_deadline got ->
    Printf.sprintf "deadline token %S is not @<milliseconds>" (sanitize got)
  | Bad_spec { index; msg } -> Printf.sprintf "spec %d: %s" (index + 1) msg

(* ---- framing ---- *)

(* The header [hrt1 <len>\n] is written by hand: [Printf] and
   [string_of_int] both format through C's [snprintf]. *)
let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

let rec put_decimal b last n =
  Bytes.set b last (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_decimal b (last - 1) (n / 10)

let framed_length payload =
  let len = String.length payload in
  String.length magic + 2 + decimal_width len + len

let blit_frame payload b off =
  let len = String.length payload in
  let digits = off + String.length magic + 1 in
  let nl = digits + decimal_width len in
  Bytes.blit_string magic 0 b off (String.length magic);
  Bytes.set b (digits - 1) ' ';
  put_decimal b (nl - 1) len;
  Bytes.set b nl '\n';
  Bytes.blit_string payload 0 b (nl + 1) len;
  nl + 1 + len

let frame payload =
  let b = Bytes.create (framed_length payload) in
  ignore (blit_frame payload b 0);
  Bytes.unsafe_to_string b

module Decoder = struct
  (* hrt1<sp> + at most 10 length digits + newline. *)
  let max_header = String.length magic + 1 + 10 + 1
  let tag = magic ^ " "

  type state = Header | Body of int | Failed of error

  (* Unread bytes are [acc] from [pos] on. Consuming a frame only moves
     [pos]; the consumed prefix is dropped once it passes half of [acc],
     so each byte is copied a bounded number of times however many
     frames one read delivers. *)
  type t = {
    acc : Buffer.t;
    mutable pos : int;
    mutable state : state;
    max_frame : int;
  }

  let create ?(max_frame = default_max_frame) () =
    { acc = Buffer.create 256; pos = 0; state = Header; max_frame }

  let feed t b off len =
    match t.state with
    | Failed _ -> ()
    | Header | Body _ -> Buffer.add_subbytes t.acc b off len

  let feed_string t s =
    match t.state with
    | Failed _ -> ()
    | Header | Body _ -> Buffer.add_string t.acc s

  let available t = Buffer.length t.acc - t.pos

  let consume t n =
    t.pos <- t.pos + n;
    if 2 * t.pos > Buffer.length t.acc then begin
      let rest = Buffer.sub t.acc t.pos (available t) in
      Buffer.clear t.acc;
      Buffer.add_string t.acc rest;
      t.pos <- 0
    end

  let fail t e =
    t.state <- Failed e;
    `Error e

  (* Offset of the first newline among the [limit] unread bytes from
     [i] on, or [limit]. *)
  let rec newline t i limit =
    if i = limit || Buffer.nth t.acc (t.pos + i) = '\n' then i
    else newline t (i + 1) limit

  let rec tagged t k =
    k = String.length tag
    || (Buffer.nth t.acc (t.pos + k) = tag.[k] && tagged t (k + 1))

  (* The length field, unread bytes [k, nl), in ASCII decimal: -1 when
     it is empty or holds anything but digits. At most ten digits fit
     in a header, so the value cannot overflow. *)
  let rec length_field t k nl n =
    if k = nl then n
    else
      match Buffer.nth t.acc (t.pos + k) with
      | '0' .. '9' as c ->
        length_field t (k + 1) nl ((n * 10) + Char.code c - Char.code '0')
      | _ -> -1

  (* The header is complete when its newline is in the buffer; anything
     longer than [max_header] without one has lost framing. *)
  let try_header t =
    let len = available t in
    let limit = Stdlib.min len max_header in
    let nl = newline t 0 limit in
    if nl = limit then
      if len >= max_header then
        let prefix = Buffer.sub t.acc t.pos limit in
        if
          len >= String.length tag
          && String.sub prefix 0 (String.length tag) <> tag
        then fail t (Bad_magic prefix)
        else fail t (Bad_length prefix)
      else `Await
    else if nl < String.length tag || not (tagged t 0) then
      fail t (Bad_magic (Buffer.sub t.acc t.pos nl))
    else
      let first = String.length tag in
      let n = if nl = first then -1 else length_field t first nl 0 in
      if n < 0 then
        fail t (Bad_length (Buffer.sub t.acc (t.pos + first) (nl - first)))
      else if n > t.max_frame then
        fail t (Frame_too_large { len = n; max = t.max_frame })
      else begin
        consume t (nl + 1);
        t.state <- Body n;
        `Header
      end

  let rec next t =
    match t.state with
    | Failed e -> `Error e
    | Header -> (
      match try_header t with
      | `Await -> `Await
      | `Error e -> `Error e
      | `Header -> next t)
    | Body n ->
      if available t < n then `Await
      else begin
        let payload = Buffer.sub t.acc t.pos n in
        consume t n;
        t.state <- Header;
        `Frame payload
      end

  let eof t =
    match t.state with
    | Failed e -> `Error e
    | Body n -> `Error (Truncated { wanted = n; got = available t })
    | Header ->
      if available t = 0 then `Clean
      else `Error (Truncated { wanted = 0; got = available t })
end

(* ---- requests ---- *)

type request =
  | Query of { deadline_ms : int option; specs : Constraints.t list }
  | Batch of { deadline_ms : int option; sets : Constraints.t list list }
  | Stats
  | Drain

let max_spec_us = Int64.to_int (Int64.div Int64.max_int 1_000L)

(* Request payloads are read in one pass, in place: each reader takes
   the payload and the index it starts at and returns where it stopped,
   and a substring is cut only to quote a token in an error. Tokens are
   separated by runs of spaces and tabs; [;] also ends a spec token and
   separates the task sets of a batch. *)

let is_blank c = c = ' ' || c = '\t'

let rec skip_blanks s i =
  if i < String.length s && is_blank (String.unsafe_get s i) then
    skip_blanks s (i + 1)
  else i

let rec word_end s i =
  if i < String.length s && not (is_blank (String.unsafe_get s i)) then
    word_end s (i + 1)
  else i

let rec same_from s i word k =
  k = String.length word
  || (String.unsafe_get s (i + k) = word.[k] && same_from s i word (k + 1))

let token_is s i j word = j - i = String.length word && same_from s i word 0

(* Whether a spec token ends at [k]: at the end of [s] or, inside a
   request, at a blank or [;]. [parse_spec] reads its whole argument as
   one token. *)
let[@inline] ends ~in_request s k =
  k >= String.length s
  || in_request
     && match String.unsafe_get s k with ' ' | '\t' | ';' -> true | _ -> false

let rec token_end ~in_request s k =
  if ends ~in_request s k then k else token_end ~in_request s (k + 1)

let rec colon_or_end ~in_request s k =
  if ends ~in_request s k || String.unsafe_get s k = ':' then k
  else colon_or_end ~in_request s (k + 1)

let is_digit c = c >= '0' && c <= '9'

(* The plain decimal digits from [k] on, [n] being the value of those
   before [k]: stores their value in [out.(slot)] and returns the index
   after them. A digit that would take the value past [max_int] ends
   the run early (the division runs only near that limit). *)
let rec decimal s k n (out : int array) slot =
  if k < String.length s && is_digit (String.unsafe_get s k) then
    let d = Char.code (String.unsafe_get s k) - Char.code '0' in
    if n >= max_int / 10 && n > (max_int - d) / 10 then begin
      out.(slot) <- n;
      k
    end
    else decimal s (k + 1) ((n * 10) + d) out slot
  else begin
    out.(slot) <- n;
    k
  end

(* [int_of_string_opt s.[i..j)], with -1 for [None]: every caller
   refuses negative values too. [v] is the value of the plain decimal
   digits [s.[i..stop)]. A field with any other character, or too many
   digits for an [int], goes to [int_of_string_opt] itself, so every
   spelling it accepts ([0x], [0o], [0b], [0u], [_], a sign) still
   parses and an overflow is still [None]. *)
let[@inline] field s i j v stop =
  if i = j then -1
  else if stop = j then v
  else
    match int_of_string_opt (String.sub s i (j - i)) with
    | Some n -> n
    | None -> -1

let int_field s i j =
  let v = [| 0 |] in
  let stop = decimal s i 0 v 0 in
  field s i j v.(0) stop

let valid_field v = v > 0 && v <= max_spec_us

let field_error s i j name v =
  let tok = sanitize (String.sub s i (j - i)) in
  if v > max_spec_us then
    Printf.sprintf "%s: %s exceeds the maximum %d" tok name max_spec_us
  else Printf.sprintf "%s: %s must be a positive integer" tok name

let shape_error s i j =
  sanitize (String.sub s i (j - i))
  ^ ": expected P:<period_us>:<slice_us>, S:<size_us>:<deadline_us>, or A"

(* What [scan_spec] writes for a token that is not a spec, in place of
   its kind: a bad shape, or the first of its two fields that is out of
   range, whose value stays in its slot. *)
let bad_shape = -1
let bad_a = -2
let bad_b = -3

let[@inline] put (out : int array) o kind a b j =
  out.(o) <- kind;
  out.(o + 1) <- a;
  out.(o + 2) <- b;
  j

(* The spec token at [i], scanned into [out.(o)], [out.(o + 1)] and
   [out.(o + 2)] as (kind, a, b) in microseconds — periodic (1, period,
   slice), sporadic (2, size, deadline), [A] (0, 0, 0) — or an error
   kind; returns the index where the token ends. A token is [A], or a
   [P]/[S] letter in either case and two fields, each after one [:].
   The shape is checked before the fields, and the fields in order.
   Plain decimal fields end exactly at the second [:] and at the token
   end, so a token of them is read in one pass; only other fields need
   the scans for the colons and the end. Both the request parser and
   the key reader read specs through this scan. *)
let scan_spec ~in_request s i (out : int array) o =
  if ends ~in_request s (i + 1) || String.unsafe_get s (i + 1) <> ':' then
    let j = token_end ~in_request s i in
    if j = i + 1 && (s.[i] = 'A' || s.[i] = 'a') then put out o 0 0 0 j
    else put out o bad_shape 0 0 j
  else
    let a_stop = decimal s (i + 2) 0 out (o + 1) in
    let c =
      if a_stop < String.length s && String.unsafe_get s a_stop = ':' then
        a_stop
      else colon_or_end ~in_request s a_stop
    in
    if ends ~in_request s c then put out o bad_shape 0 0 c
    else
      let b_stop = decimal s (c + 1) 0 out (o + 2) in
      let j =
        if ends ~in_request s b_stop then b_stop
        else token_end ~in_request s b_stop
      in
      if j > b_stop && colon_or_end ~in_request s b_stop < j then
        put out o bad_shape 0 0 j
      else
        let a = field s (i + 2) c out.(o + 1) a_stop
        and b = field s (c + 1) j out.(o + 2) b_stop in
        let kind =
          match s.[i] with
          | 'P' | 'p' -> 1
          | 'S' | 's' -> 2
          | _ -> bad_shape
        in
        if kind = bad_shape then put out o bad_shape 0 0 j
        else if not (valid_field a) then put out o bad_a a b j
        else if not (valid_field b) then put out o bad_b a b j
        else put out o kind a b j

let field_name letter ~first =
  match letter with
  | 'P' | 'p' -> if first then "period_us" else "slice_us"
  | _ -> if first then "size_us" else "deadline_us"

(* The spec, or the error that names the token [s.[i..j)], from what
   [scan_spec] wrote at [out.(o)]. *)
let spec_of_scan s i j (out : int array) o =
  let a = out.(o + 1) and b = out.(o + 2) in
  match out.(o) with
  | 0 -> Ok (Constraints.aperiodic ())
  | 1 -> Ok (Constraints.periodic ~period:(Time.us a) ~slice:(Time.us b) ())
  | 2 -> Ok (Constraints.sporadic ~size:(Time.us a) ~deadline:(Time.us b) ())
  | k when k = bad_a ->
    Error (field_error s i j (field_name s.[i] ~first:true) a)
  | k when k = bad_b ->
    Error (field_error s i j (field_name s.[i] ~first:false) b)
  | _ -> Error (shape_error s i j)

let parse_spec s =
  let out = [| 0; 0; 0 |] in
  spec_of_scan s 0 (scan_spec ~in_request:false s 0 out 0) out 0

let tokens_of payload =
  String.split_on_char ' ' payload
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

exception Reject of error

let reject e = raise_notrace (Reject e)
let one_set = Bad_request "query takes one task set; use batch for several"
let empty_set = Bad_request "batch has an empty task set"

(* Whether the sets from [i] on include an empty one; [filled] says
   whether the set in progress already holds a spec. *)
let rec has_empty_set s i filled =
  if i = String.length s then not filled
  else
    match String.unsafe_get s i with
    | ';' -> (not filled) || has_empty_set s (i + 1) false
    | ' ' | '\t' -> has_empty_set s (i + 1) filled
    | _ -> has_empty_set s (i + 1) true

(* The specs of one task set, from [i] to the next [;] or the end of
   the payload, and the index where the set stopped. A bad spec yields
   to a shape error later in the payload: any [;] in a query, an empty
   set in a batch. *)
let rec set_specs ~batch s i out index acc =
  let i = skip_blanks s i in
  if i = String.length s || String.unsafe_get s i = ';' then (List.rev acc, i)
  else
    let j = scan_spec ~in_request:true s i out 0 in
    match spec_of_scan s i j out 0 with
    | Ok c -> set_specs ~batch s j out (index + 1) (c :: acc)
    | Error msg ->
      if batch then (if has_empty_set s j true then reject empty_set)
      else if String.contains_from s j ';' then reject one_set;
      reject (Bad_spec { index; msg })

(* Where the [@<ms>] token at [i] ends: [i] itself when there is none.
   Its value is [int_field s (i + 1) j]. *)
let deadline_end s i =
  if i < String.length s && String.unsafe_get s i = '@' then word_end s i
  else i

(* An optional [@<ms>] token where [i] points, and where the rest of
   the request starts. *)
let deadline s i =
  let j = deadline_end s i in
  if j = i then (None, i)
  else begin
    let ms = int_field s (i + 1) j in
    if ms < 0 then reject (Bad_deadline (String.sub s i (j - i)));
    (Some ms, skip_blanks s j)
  end

let query s i =
  let deadline_ms, i = deadline s i in
  if i = String.length s then
    reject (Bad_request "query needs at least one spec");
  let specs, j = set_specs ~batch:false s i [| 0; 0; 0 |] 0 [] in
  if j < String.length s then reject one_set;
  Query { deadline_ms; specs }

let batch s i =
  let deadline_ms, i = deadline s i in
  if i = String.length s then
    reject (Bad_request "batch needs at least one set");
  let out = [| 0; 0; 0 |] in
  let rec sets acc i =
    match set_specs ~batch:true s i out 0 [] with
    | [], _ -> reject empty_set
    | specs, j ->
      if j = String.length s then List.rev (specs :: acc)
      else sets (specs :: acc) (j + 1)
  in
  Batch { deadline_ms; sets = sets [] i }

(* [stats] and [drain] take nothing after the verb. *)
let bare s i verb req =
  if i < String.length s then
    reject (Bad_request (verb ^ " takes no arguments"))
  else req

let request s =
  let i = skip_blanks s 0 in
  let j = word_end s i in
  let rest = skip_blanks s j in
  if i = String.length s then reject (Bad_request "empty request")
  else if token_is s i j "query" then query s rest
  else if token_is s i j "batch" then batch s rest
  else if token_is s i j "stats" then bare s rest "stats" Stats
  else if token_is s i j "drain" then bare s rest "drain" Drain
  else reject (Bad_verb (String.sub s i (j - i)))

let parse_request s =
  match request s with
  | req -> Ok req
  | exception Reject e -> Error e

(* ---- the key path ---- *)

let max_key_specs = 64

type key_reader = { prefix : string; records : int array }

let key_reader ~prefix =
  { prefix; records = Array.make (3 * max_key_specs) 0 }

type keyed = { deadline_ms : int option; key : string }

(* The count of specs from [i] to the end of [s], each scanned into
   [r.records]; -1 at a [;], at a token that is no spec, or past
   [max_key_specs]. *)
let rec key_specs r s i n =
  let i = skip_blanks s i in
  if i = String.length s then n
  else if n = max_key_specs || String.unsafe_get s i = ';' then -1
  else
    let j = scan_spec ~in_request:true s i r.records (3 * n) in
    if r.records.(3 * n) < 0 then -1 else key_specs r s j (n + 1)

(* [query [@<ms>] SPEC+], read with the helpers and the spec scan that
   [parse_request] uses. Anything else, or any error, is [None]: the
   caller then parses the payload, which answers it. *)
let query_key r s =
  let i = skip_blanks s 0 in
  let j = word_end s i in
  if not (token_is s i j "query") then None
  else
    let i = skip_blanks s j in
    let j = deadline_end s i in
    let ms = if j = i then 0 else int_field s (i + 1) j in
    let n = if ms < 0 then -1 else key_specs r s j 0 in
    if n <= 0 then None
    else
      Some
        {
          deadline_ms = (if j = i then None else Some ms);
          key = Taskset.key_of_us ~prefix:r.prefix r.records n;
        }

(* ---- replies ---- *)

type verdict = Admitted of float | Rejected of string

let verdict_of_oracle = function
  | Admission.Admitted { headroom } -> Admitted headroom
  | Admission.Rejected { reason } -> Rejected (Admission.Rejection.name reason)

let overloaded = Rejected "overloaded"
let expired = Rejected "expired"

type reply =
  | Verdicts of verdict list
  | Stats_reply of (string * float) list
  | Draining of { pending : int }
  | Error_reply of { code : string; detail : string }

let render_verdict = function
  | Admitted headroom -> Printf.sprintf "admitted %.6f" headroom
  | Rejected reason -> "rejected " ^ reason

module Verdict_lines = struct
  let slots = 1024

  (* Slot [i] holds the line of the headroom whose bits are at
     [bits.(8i)], or [""] while empty. A rendered line is never empty,
     so no headroom, NaN included, can match an empty slot. *)
  type t = { bits : Bytes.t; lines : string array }

  let create () =
    { bits = Bytes.make (8 * slots) '\000'; lines = Array.make slots "" }

  (* The top bits of a multiplicative hash: 1024 slots, 10 bits. *)
  let slot bits = (Int64.to_int bits * 0x2545F4914F6CDD1D) lsr 53

  let admitted t headroom =
    let bits = Int64.bits_of_float headroom in
    let i = slot bits in
    let line = t.lines.(i) in
    if
      String.length line > 0
      && Int64.equal (Bytes.get_int64_le t.bits (8 * i)) bits
    then line
    else begin
      let line = render_verdict (Admitted headroom) in
      Bytes.set_int64_le t.bits (8 * i) bits;
      t.lines.(i) <- line;
      line
    end

  let render t = function
    | Admitted headroom -> admitted t headroom
    | Rejected _ as v -> render_verdict v
end

let render_reply = function
  | Verdicts vs -> String.concat "\n" (List.map render_verdict vs)
  | Stats_reply kvs ->
    "stats "
    ^ String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%.1f" k v) kvs)
  | Draining { pending } -> Printf.sprintf "draining pending=%d" pending
  | Error_reply { code; detail } ->
    Printf.sprintf "error %s %s" code (sanitize detail)

let error_reply e =
  Error_reply { code = error_code e; detail = describe_error e }

let parse_verdict line =
  match tokens_of line with
  | [ "admitted"; h ] -> (
    match float_of_string_opt h with
    | Some h -> Ok (Admitted h)
    | None -> Error ("bad headroom: " ^ sanitize h))
  | [ "rejected"; reason ] -> Ok (Rejected reason)
  | _ -> Error ("bad verdict line: " ^ sanitize line)

let parse_reply payload =
  match String.split_on_char '\n' payload with
  | [] -> Error "empty reply"
  | first :: _ as lines -> (
    match tokens_of first with
    | "stats" :: kvs ->
      let rec go acc = function
        | [] -> Ok (Stats_reply (List.rev acc))
        | kv :: rest -> (
          match String.index_opt kv '=' with
          | Some i -> (
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            match float_of_string_opt v with
            | Some v -> go ((k, v) :: acc) rest
            | None -> Error ("bad stats value: " ^ sanitize kv))
          | None -> Error ("bad stats field: " ^ sanitize kv))
      in
      go [] kvs
    | [ "draining"; kv ] -> (
      match String.index_opt kv '=' with
      | Some i -> (
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        match int_of_string_opt v with
        | Some pending -> Ok (Draining { pending })
        | None -> Error ("bad draining reply: " ^ sanitize payload))
      | None -> Error ("bad draining reply: " ^ sanitize payload))
    | "error" :: code :: detail ->
      Ok (Error_reply { code; detail = String.concat " " detail })
    | _ ->
      let rec go acc = function
        | [] -> Ok (Verdicts (List.rev acc))
        | line :: rest -> (
          match parse_verdict line with
          | Ok v -> go (v :: acc) rest
          | Error _ as e -> e)
      in
      go [] lines)
