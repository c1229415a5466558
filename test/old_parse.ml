(* The request parser the serving protocol used before its one-pass
   reader, kept verbatim as the reference the new [Protocol.parse_request]
   and [Protocol.parse_spec] are property-tested against: the same
   [Ok] values, and the same error code and description for every
   payload. It splits the payload into token lists, upper-cases each
   spec and converts every field with [int_of_string_opt]. *)

open Hrt_engine
open Hrt_core
open Hrt_serve.Protocol

(* Keep peer-controlled junk out of the reply payload: frames carry one
   logical line, so anything echoed back is clipped and de-newlined. *)
let sanitize s =
  let s = if String.length s > 32 then String.sub s 0 32 ^ "..." else s in
  String.map (fun c -> if c = '\n' || c = '\r' then '.' else c) s

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
