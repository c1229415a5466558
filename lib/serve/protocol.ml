open Hrt_engine
open Hrt_core

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

let frame payload =
  Printf.sprintf "%s %d\n%s" magic (String.length payload) payload

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

  (* The header is complete when its newline is in the buffer; anything
     longer than [max_header] without one has lost framing. *)
  let try_header t =
    let len = available t in
    let limit = Stdlib.min len max_header in
    let nl = ref (-1) in
    (try
       for i = 0 to limit - 1 do
         if Buffer.nth t.acc (t.pos + i) = '\n' then begin
           nl := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !nl < 0 then
      if len >= max_header then
        let prefix = Buffer.sub t.acc t.pos (Stdlib.min len max_header) in
        if
          len >= String.length tag
          && String.sub prefix 0 (String.length tag) <> tag
        then fail t (Bad_magic prefix)
        else fail t (Bad_length prefix)
      else `Await
    else begin
      let header = Buffer.sub t.acc t.pos !nl in
      if
        String.length header < String.length tag
        || String.sub header 0 (String.length tag) <> tag
      then fail t (Bad_magic header)
      else begin
        let digits =
          String.sub header (String.length tag)
            (String.length header - String.length tag)
        in
        match int_of_string_opt digits with
        | Some n when n >= 0 ->
          if n > t.max_frame then
            fail t (Frame_too_large { len = n; max = t.max_frame })
          else begin
            consume t (!nl + 1);
            t.state <- Body n;
            `Header
          end
        | _ -> fail t (Bad_length digits)
      end
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

let parse_spec s =
  let pos name v =
    match int_of_string_opt v with
    | Some n when n > max_spec_us ->
      Error
        (Printf.sprintf "%s: %s exceeds the maximum %d" (sanitize s) name
           max_spec_us)
    | Some n when n > 0 -> Ok (Time.us n)
    | _ ->
      Error
        (Printf.sprintf "%s: %s must be a positive integer" (sanitize s) name)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.uppercase_ascii s) with
  | [ "A" ] -> Ok (Constraints.aperiodic ())
  | [ "P"; period; slice ] ->
    let* period = pos "period_us" period in
    let* slice = pos "slice_us" slice in
    Ok (Constraints.periodic ~period ~slice ())
  | [ "S"; size; deadline ] ->
    let* size = pos "size_us" size in
    let* deadline = pos "deadline_us" deadline in
    Ok (Constraints.sporadic ~size ~deadline ())
  | _ ->
    Error
      (sanitize s
      ^ ": expected P:<period_us>:<slice_us>, S:<size_us>:<deadline_us>, or A"
      )

let tokens_of payload =
  String.split_on_char ' ' payload
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_deadline = function
  | tok :: rest when String.length tok > 0 && tok.[0] = '@' -> (
    let digits = String.sub tok 1 (String.length tok - 1) in
    match int_of_string_opt digits with
    | Some ms when ms >= 0 -> Ok (Some ms, rest)
    | _ -> Error (Bad_deadline tok))
  | toks -> Ok (None, toks)

let parse_specs toks =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
      match parse_spec tok with
      | Ok c -> go (i + 1) (c :: acc) rest
      | Error msg -> Error (Bad_spec { index = i; msg }))
  in
  go 0 [] toks

(* Split batch tokens on ";" separators. A ";" glued to a spec token is
   split off first — "P:1:2; P:3:4", "P:1:2 ;P:3:4", and "P:1:2 ; P:3:4"
   all read as two sets. *)
let split_sets toks =
  let explode tok =
    match String.split_on_char ';' tok with
    | [ _ ] -> [ tok ]
    | parts ->
      let rec interleave = function
        | [] -> []
        | [ last ] -> [ last ]
        | part :: rest -> part :: ";" :: interleave rest
      in
      List.filter (fun t -> t <> "") (interleave parts)
  in
  let rec go cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | ";" :: rest -> go [] (List.rev cur :: acc) rest
    | tok :: rest -> go (tok :: cur) acc rest
  in
  go [] [] (List.concat_map explode toks)

let parse_request payload =
  let ( let* ) = Result.bind in
  match tokens_of payload with
  | [] -> Error (Bad_request "empty request")
  | [ "stats" ] -> Ok Stats
  | "stats" :: _ -> Error (Bad_request "stats takes no arguments")
  | [ "drain" ] -> Ok Drain
  | "drain" :: _ -> Error (Bad_request "drain takes no arguments")
  | "query" :: rest ->
    let* deadline_ms, rest = parse_deadline rest in
    if rest = [] then Error (Bad_request "query needs at least one spec")
    else if List.exists (fun t -> String.contains t ';') rest then
      Error (Bad_request "query takes one task set; use batch for several")
    else
      let* specs = parse_specs rest in
      Ok (Query { deadline_ms; specs })
  | "batch" :: rest ->
    let* deadline_ms, rest = parse_deadline rest in
    if rest = [] then Error (Bad_request "batch needs at least one set")
    else
      let sets = split_sets rest in
      if List.exists (fun set -> set = []) sets then
        Error (Bad_request "batch has an empty task set")
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | set :: rest -> (
            match parse_specs set with
            | Ok specs -> go (specs :: acc) rest
            | Error _ as e -> e)
        in
        let* sets = go [] sets in
        Ok (Batch { deadline_ms; sets })
  | verb :: _ -> Error (Bad_verb verb)

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
