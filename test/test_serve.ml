(* The admission serving layer: protocol totality (framing and parsing
   never raise on arbitrary bytes), render/parse round-trips, and a live
   server on a private Unix socket — verdict correctness against the
   oracle, load shedding, per-request deadlines, drain under load (every
   accepted request gets exactly one reply), and the TCP listener. *)

open Hrt_core
open Hrt_serve
module P = Protocol

let to_alcotest = QCheck_alcotest.to_alcotest

let sock_path =
  let counter = Atomic.make 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hrt-test-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add counter 1))

(* ---- framing ---- *)

let drain_frames dec =
  let rec go acc =
    match P.Decoder.next dec with
    | `Frame payload -> go (payload :: acc)
    | `Await -> (List.rev acc, `Await)
    | `Error e -> (List.rev acc, `Error e)
  in
  go []

let test_decoder_roundtrip () =
  let payloads = [ "query P:1000:300"; "stats"; "multi\nline reply" ] in
  let wire = String.concat "" (List.map P.frame payloads) in
  (* Byte-at-a-time feeding must produce the same frames as one shot. *)
  let dec = P.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      P.Decoder.feed_string dec (String.make 1 c);
      let frames, _ = drain_frames dec in
      got := !got @ frames)
    wire;
  Alcotest.(check (list string)) "byte-at-a-time" payloads !got;
  Alcotest.(check bool) "clean eof" true (P.Decoder.eof dec = `Clean)

let check_error name wire expect_code =
  let dec = P.Decoder.create ~max_frame:1024 () in
  P.Decoder.feed_string dec wire;
  match drain_frames dec with
  | _, `Error e ->
    Alcotest.(check string) name expect_code (P.error_code e);
    (* Errors are sticky: more bytes cannot resurrect the stream. *)
    P.Decoder.feed_string dec (P.frame "stats");
    (match P.Decoder.next dec with
    | `Error e' ->
      Alcotest.(check string) (name ^ " sticky") expect_code (P.error_code e')
    | _ -> Alcotest.failf "%s: error was not sticky" name)
  | _, (`Await : [ `Await | `Error of P.error ]) ->
    Alcotest.failf "%s: expected a framing error" name

let test_decoder_errors () =
  check_error "bad magic" "nope 5\nhello" "bad-magic";
  check_error "bad length" "hrt1 5x\nhello" "bad-length";
  check_error "too large" "hrt1 9999\n" "frame-too-large";
  check_error "header flood" (String.make 64 'q') "bad-magic";
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec "hrt1 10\nhal";
  (match P.Decoder.next dec with
  | `Await -> ()
  | _ -> Alcotest.fail "partial body should await");
  match P.Decoder.eof dec with
  | `Error (P.Truncated { wanted = 10; got = 3 }) -> ()
  | `Error e -> Alcotest.failf "wrong eof error: %s" (P.describe_error e)
  | `Clean -> Alcotest.fail "eof mid-frame must be an error"

(* Regression: the length field went through [int_of_string_opt], so
   hex, signed and underscored lengths framed a payload and "-0" an
   empty one. [<len>] is ASCII decimal: each is now bad-length, while
   leading zeros stay decimal. *)
let test_decoder_decimal_length () =
  List.iter
    (fun wire -> check_error wire wire "bad-length")
    [ "hrt1 0x5\nhello"; "hrt1 +5\nhello"; "hrt1 0_5\nhello"; "hrt1 -0\n" ];
  let dec = P.Decoder.create () in
  P.Decoder.feed_string dec "hrt1 0005\nhello";
  match drain_frames dec with
  | [ "hello" ], `Await -> ()
  | _ -> Alcotest.fail "a zero-padded decimal length must frame its payload"

(* Any byte stream, fed in any chunking, never raises and never loops:
   the decoder either yields frames, awaits more, or fails sticky. *)
let prop_decoder_total =
  QCheck.Test.make ~name:"decoder total on arbitrary bytes" ~count:500
    QCheck.(pair (small_list (string_of_size (QCheck.Gen.int_bound 40))) small_nat)
    (fun (chunks, max_frame) ->
      let dec = P.Decoder.create ~max_frame:(1 + max_frame) () in
      List.iter
        (fun chunk ->
          P.Decoder.feed_string dec chunk;
          ignore (drain_frames dec))
        chunks;
      ignore (P.Decoder.eof dec);
      true)

(* Regression: every decoded frame used to copy the whole buffered
   remainder into a fresh buffer, so N frames arriving in one read cost
   O(N^2) time and allocation. 2,000 frames of ~100 bytes fed at once
   must decode in order and allocate a small multiple of the input. *)
let test_decoder_one_chunk () =
  let payloads =
    Array.init 2000 (fun i ->
        Printf.sprintf "query P:%d:300 %s" (1000 + i) (String.make 80 'x'))
  in
  let wire = String.concat "" (Array.to_list (Array.map P.frame payloads)) in
  let dec = P.Decoder.create () in
  let minor0, _, major0 = Gc.counters () in
  P.Decoder.feed_string dec wire;
  let decoded = ref 0 and in_order = ref true in
  let rec pull () =
    match P.Decoder.next dec with
    | `Frame p ->
      if !decoded >= Array.length payloads || p <> payloads.(!decoded) then
        in_order := false;
      incr decoded;
      pull ()
    | `Await -> ()
    | `Error e -> Alcotest.failf "decoder error: %s" (P.describe_error e)
  in
  pull ();
  let minor1, _, major1 = Gc.counters () in
  Alcotest.(check int) "every frame" (Array.length payloads) !decoded;
  Alcotest.(check bool) "in order" true !in_order;
  Alcotest.(check bool) "clean eof" true (P.Decoder.eof dec = `Clean);
  let words = minor1 -. minor0 +. (major1 -. major0) in
  let input_words = float_of_int (String.length wire / (Sys.word_size / 8)) in
  if words > 16. *. input_words then
    Alcotest.failf "decoding allocated %.0f words for a %.0f-word input" words
      input_words

(* frame/decode are inverses for any payload, under any chunk size up to
   the whole stream at once. *)
let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame/decode round-trip" ~count:300
    QCheck.(
      pair
        (small_list (string_of_size (QCheck.Gen.int_bound 80)))
        (make ~print:string_of_int
           Gen.(oneof [ int_range 1 7; int_range 8 2048; return max_int ])))
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map P.frame payloads) in
      let dec = P.Decoder.create () in
      let got = ref [] in
      let n = String.length wire in
      let i = ref 0 in
      while !i < n do
        let len = Stdlib.min chunk (n - !i) in
        P.Decoder.feed_string dec (String.sub wire !i len);
        i := !i + len;
        let frames, _ = drain_frames dec in
        got := !got @ frames
      done;
      !got = payloads && P.Decoder.eof dec = `Clean)

(* ---- request parsing ---- *)

let specs_of = function
  | Ok (P.Query { specs; _ }) -> List.length specs
  | _ -> -1

let test_parse_request () =
  (match P.parse_request "query P:1000:300 S:50:400 A" with
  | Ok (P.Query { deadline_ms = None; specs }) ->
    Alcotest.(check int) "three specs" 3 (List.length specs)
  | _ -> Alcotest.fail "query did not parse");
  (match P.parse_request "query @250 P:1000:300" with
  | Ok (P.Query { deadline_ms = Some 250; specs = [ _ ] }) -> ()
  | _ -> Alcotest.fail "deadline token did not parse");
  Alcotest.(check int) "whitespace tolerated" 2
    (specs_of (P.parse_request "  query \t P:1000:300   P:500:100 "));
  (* Batch separators: spaced, glued left, glued right. *)
  List.iter
    (fun payload ->
      match P.parse_request payload with
      | Ok (P.Batch { sets = [ [ _ ]; [ _; _ ] ]; _ }) -> ()
      | _ -> Alcotest.failf "batch %S did not split into [1;2]" payload)
    [
      "batch P:1000:300 ; P:500:100 A";
      "batch P:1000:300; P:500:100 A";
      "batch P:1000:300 ;P:500:100 A";
    ];
  Alcotest.(check bool) "stats" true (P.parse_request "stats" = Ok P.Stats);
  Alcotest.(check bool) "drain" true (P.parse_request "drain" = Ok P.Drain);
  (* A field takes any spelling [int_of_string_opt] accepts, and spec
     letters any case. *)
  List.iter
    (fun (tok, period, slice) ->
      match P.parse_spec tok with
      | Ok (Constraints.Periodic { period = p; slice = s; _ }) ->
        Alcotest.(check (pair int64 int64)) tok
          (Hrt_engine.Time.us period, Hrt_engine.Time.us slice)
          (p, s)
      | _ -> Alcotest.failf "%s did not parse" tok)
    [
      ("P:0x3E8:0b1010", 1000, 10);
      ("P:1_000:300", 1000, 300);
      ("p:+1000:0o454", 1000, 300);
    ]

let expect_code name payload code =
  match P.parse_request payload with
  | Error e -> Alcotest.(check string) name code (P.error_code e)
  | Ok _ -> Alcotest.failf "%s: %S should not parse" name payload

let test_parse_request_errors () =
  expect_code "junk verb" "frobnicate P:1:2" "bad-verb";
  expect_code "empty" "   " "bad-request";
  expect_code "stats arity" "stats now" "bad-request";
  expect_code "query no specs" "query" "bad-request";
  expect_code "query with sets" "query P:1:2 ; P:3:4" "bad-request";
  expect_code "bad deadline" "query @soon P:1000:300" "bad-deadline";
  expect_code "batch empty set" "batch P:1000:300 ; ; A" "bad-request";
  (* Shape errors win over an earlier malformed spec. *)
  expect_code "query ; after bad spec" "query P:bad P:1:2;" "bad-request";
  expect_code "batch empty set after bad spec" "batch P:bad ; ;" "bad-request";
  expect_code "@ after a spec" "query P:1000:300 @5" "bad-spec";
  match P.parse_request "query P:1000:300 P:0:5" with
  | Error (P.Bad_spec { index = 1; _ }) -> ()
  | _ -> Alcotest.fail "malformed spec must carry its index"

(* Fields past Int64.max_int / 1000 us would wrap on conversion to ns
   and be misreported ("slice exceeds period", "non-positive period");
   they are refused up front, and the maximum itself converts exactly. *)
let test_parse_spec_range () =
  List.iter
    (fun tok ->
      match P.parse_spec tok with
      | Error msg ->
        Alcotest.(check bool)
          (tok ^ " names the maximum")
          true
          (String.ends_with ~suffix:(string_of_int P.max_spec_us) msg)
      | Ok _ -> Alcotest.failf "%s should not parse" tok)
    [ "P:18446744073709552:1"; "P:4611686018427387903:1"; "P:1000:9223372036854776";
      "S:9223372036854776:1000" ];
  expect_code "wrapping period" "query P:18446744073709552:1" "bad-spec";
  let max = string_of_int P.max_spec_us in
  match P.parse_spec ("P:" ^ max ^ ":" ^ max) with
  | Ok (Constraints.Periodic { period; slice; _ }) ->
    Alcotest.(check int64) "period at the maximum" 9_223_372_036_854_775_000L period;
    Alcotest.(check int64) "slice at the maximum" 9_223_372_036_854_775_000L slice
  | _ -> Alcotest.fail "the maximum itself must parse"

(* Spec tokens straight from the grammar, with fields anywhere up to the
   parser maximum: every one parses, and no analysis of the resulting
   set raises — the oracle under both policies and views (certificates
   replay) and the ledger under EDF/RM x both admission modes. *)
let gen_spec_token =
  QCheck.Gen.(
    let value =
      frequency
        [
          (2, int_range 1 1000);
          (2, int_range 1 P.max_spec_us);
          (1, map (fun k -> P.max_spec_us - k) (int_range 0 1000));
          (1, map (fun e -> 1 lsl e) (int_range 0 53));
        ]
    in
    frequency
      [
        (5, map2 (Printf.sprintf "P:%d:%d") value value);
        (2, map2 (Printf.sprintf "S:%d:%d") value value);
        (1, return "A");
      ])

let prop_grammar_extremes_analyze =
  QCheck.Test.make ~name:"grammar-extreme specs always analyze" ~count:300
    QCheck.(make ~print:(String.concat " ") Gen.(list_size (int_range 1 5) gen_spec_token))
    (fun toks ->
      let tasks =
        List.map
          (fun tok ->
            match P.parse_spec tok with
            | Ok c -> c
            | Error msg -> QCheck.Test.fail_reportf "%s rejected: %s" tok msg)
          toks
      in
      let module T = Hrt_analysis.Taskset in
      let module O = Hrt_analysis.Oracle in
      let overhead_ns = Hrt_core.Admission.overhead_of_platform Hrt_hw.Platform.phi in
      List.for_all
        (fun policy ->
          List.iter
            (fun ts ->
              match O.check ts (O.analyze ts) with
              | Ok () -> ()
              | Error msg -> QCheck.Test.fail_reportf "replay: %s" msg)
            [
              T.production_view ~policy ~platform:Hrt_hw.Platform.phi tasks;
              T.raw_view ~policy tasks;
            ];
          List.iter
            (fun admission ->
              let a =
                Admission.create ~overhead_ns
                  { Config.default with Config.policy; admission }
              in
              List.iter
                (fun c ->
                  ignore
                    (Admission.request a ~now:0L
                       ~old_constr:(Constraints.aperiodic ()) c))
                tasks)
            [ Config.Policy_bound; Config.Hyperperiod_sim ];
          true)
        [ Config.Edf; Config.Rm ])

let prop_parse_total =
  QCheck.Test.make ~name:"request/reply parsers total" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 120))
    (fun payload ->
      ignore (P.parse_request payload);
      ignore (P.parse_reply payload);
      true)

(* ---- the one-pass parser against the reference ---- *)

(* Fields in every spelling [int_of_string_opt] takes and some it does
   not, around zero, [max_spec_us] and [max_int]. *)
let gen_field =
  QCheck.Gen.(
    let num = map string_of_int in
    let binary n =
      let bit k = if (n lsr (10 - k)) land 1 = 1 then '1' else '0' in
      "0b" ^ String.init 11 bit
    in
    frequency
      [
        (24, num (int_range 1 2000));
        (1, oneofl [ "0"; "00"; "0005"; "" ]);
        (1, num (int_range 1 P.max_spec_us));
        (1, map (( + ) P.max_spec_us) (int_range (-1) 2) |> num);
        ( 1,
          oneofl
            [
              string_of_int max_int;
              "4611686018427387904";
              "99999999999999999999";
              "0x7FFFFFFFFFFFFFFF";
              "0x3FFFFFFFFFFFFFFF";
              "-4611686018427387904";
            ] );
        (1, map (Printf.sprintf "0x%X") (int_range 0 5000));
        (1, map (Printf.sprintf "0X%x") (int_range 0 5000));
        (1, map (Printf.sprintf "0o%o") (int_range 0 5000));
        (1, map binary (int_range 0 2047));
        ( 1,
          oneofl [ "1_000"; "1__0"; "_1"; "1_"; "0_5"; "0x_5"; "0u5"; "0O7" ] );
        (1, map2 ( ^ ) (oneofl [ "+"; "-" ]) (num (int_range 0 2000)));
        (1, oneofl [ "x"; "1x"; "0x"; "0b2"; "1.5"; "1e3"; "@5"; "A" ]);
      ])

let gen_spec =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map3 (Printf.sprintf "%s:%s:%s")
            (oneofl [ "P"; "p"; "S"; "s" ])
            gen_field gen_field );
        (2, oneofl [ "A"; "a" ]);
        ( 1,
          oneofl
            [ "A:"; "P:1"; "P:1:2:3"; "P::"; ":1:2"; "PP:1:2"; "X:1:2"; "Q" ]
        );
      ])

let gen_deadline =
  QCheck.Gen.(
    frequency
      [
        (8, return "");
        (6, map (Printf.sprintf "@%d") (int_range 0 1000));
        ( 1,
          oneofl
            [
              "@"; "@soon"; "@-0"; "@-1"; "@0x10"; "@1_0"; "@4611686018428";
              "@4611686018427387903"; "@99999999999999999999"; "@5;P:1:2";
            ] );
      ])

(* A request from the grammar: a verb (or junk), an optional deadline,
   then specs and [;] separators glued or spaced, joined by blank runs
   (sometimes none, which glues two tokens into one). *)
let gen_payload =
  QCheck.Gen.(
    let blank =
      frequency
        [ (12, return " "); (4, oneofl [ "  "; "\t"; " \t " ]); (1, return "") ]
    in
    (* [;] is rarer in a query, where any one is an error. *)
    let item semi =
      frequency
        [
          (16, gen_spec);
          (2 * semi, return ";");
          (1, oneofl [ ";;"; "; ;" ]);
          (semi, map (fun s -> s ^ ";") gen_spec);
          (semi, map (fun s -> ";" ^ s) gen_spec);
        ]
    in
    let* verb =
      frequency
        [
          (8, oneofl [ "query"; "batch" ]);
          (2, oneofl [ "stats"; "drain" ]);
          (1, oneofl [ "QUERY"; "frob"; "query;"; "Batch"; "" ]);
        ]
    in
    let* deadline = gen_deadline in
    let* items =
      match verb with
      | "stats" | "drain" -> list_size (oneofl [ 0; 0; 0; 1 ]) (item 1)
      | _ ->
        list_size
          (frequency [ (1, return 0); (8, int_range 1 6) ])
          (item (if verb = "query" then 0 else 2))
    in
    let* blanks = list_repeat (List.length items) blank in
    let* lead = oneofl [ ""; ""; " "; "\t" ] in
    let* trail = oneofl [ ""; ""; " "; " \t" ] in
    let body =
      List.concat (List.map2 (fun b item -> [ b; item ]) blanks items)
    in
    return
      (String.concat ""
         ([ lead; verb ]
         @ (if deadline = "" then [] else [ " "; deadline ])
         @ body @ [ trail ])))

(* One byte of the payload replaced or deleted, or one inserted. *)
let mutate payload =
  QCheck.Gen.(
    let n = String.length payload in
    let* c =
      oneof
        [
          oneofl
            [ ':'; ';'; '@'; ' '; '\t'; '\n'; '_'; '-'; 'x'; 'A'; '0'; '\000' ];
          char;
        ]
    in
    let* i = int_bound n in
    let* how = int_bound 2 in
    let before = String.sub payload 0 i in
    return
      (if how < 2 && i < n then
         before
         ^ (if how = 0 then String.make 1 c else "")
         ^ String.sub payload (i + 1) (n - i - 1)
       else before ^ String.make 1 c ^ String.sub payload i (n - i)))

let same_spec tok =
  match (P.parse_spec tok, Old_parse.parse_spec tok) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> String.equal a b
  | _ -> false

let same_request payload =
  match (P.parse_request payload, Old_parse.parse_request payload) with
  | Ok a, Ok b -> a = b
  | Error a, Error b ->
    String.equal (P.error_code a) (P.error_code b)
    && String.equal (P.describe_error a) (P.describe_error b)
  | _ -> false

(* Grammar-generated payloads, one-byte mutations of them, and arbitrary
   strings: the request parser, and the spec parser on the whole payload
   and on each of its tokens, agree with the parser they replaced. *)
let prop_parse_matches_reference =
  QCheck.Test.make ~name:"parser matches the reference parser" ~count:6000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             (3, gen_payload);
             (2, gen_payload >>= mutate);
             (1, string_size ~gen:printable (int_bound 60));
           ]))
    (fun payload ->
      same_request payload && same_spec payload
      && List.for_all same_spec (Old_parse.tokens_of payload))

(* ---- the key path against the parser ---- *)

module T = Hrt_analysis.Taskset

(* The two views a server keys under, each with its reader. *)
let key_views =
  List.map
    (fun view -> (view, P.key_reader ~prefix:(T.key_prefix (view []))))
    [
      T.production_view ~policy:Config.Edf ~platform:Hrt_hw.Platform.phi;
      T.raw_view ~policy:Config.Rm;
    ]

(* Whenever the key reader answers, the payload parses as a query with
   the same deadline, and the key is the fingerprint of its specs under
   the reader's view; whenever the parser reads anything else or fails,
   the reader does not answer; and it gives up on a query only past 64
   specs. *)
let key_matches_parser payload =
  List.for_all
    (fun (view, reader) ->
      match (P.query_key reader payload, P.parse_request payload) with
      | Some { P.deadline_ms; key }, Ok (P.Query q) ->
        deadline_ms = q.deadline_ms
        && String.equal key (T.fingerprint (view q.specs))
      | None, Ok (P.Query q) -> List.length q.specs > 64
      | Some _, (Ok (P.Batch _ | P.Stats | P.Drain) | Error _) -> false
      | None, (Ok (P.Batch _ | P.Stats | P.Drain) | Error _) -> true)
    key_views

(* A query from the grammar: an optional deadline token, then one to
   eight spec tokens in every spelling [gen_spec] makes, good or bad. *)
let gen_query =
  QCheck.Gen.(
    let* deadline = gen_deadline in
    let* specs = list_size (int_range 1 8) gen_spec in
    let* blank = oneofl [ " "; "  "; "\t" ] in
    return
      (String.concat blank
         (("query" :: (if deadline = "" then [] else [ deadline ])) @ specs)))

let prop_key_matches_parser =
  QCheck.Test.make ~name:"key reader matches the parser" ~count:4000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             (3, gen_query);
             (2, gen_payload);
             (2, oneof [ gen_query; gen_payload ] >>= mutate);
             (1, string_size ~gen:printable (int_bound 60));
             (1, string_size ~gen:char (int_bound 40));
           ]))
    key_matches_parser

(* One task set spelled two ways: shuffled, spec letters in either
   case, each field in plain decimal or with leading zeros, [0x], [_]
   or [+], and sometimes a spec repeated. Both spellings read to one
   key, the fingerprint of the set itself. *)
let gen_spelled_pair =
  QCheck.Gen.(
    let value =
      frequency
        [
          (6, int_range 1 2000);
          (1, return P.max_spec_us);
          (1, int_range 1 P.max_spec_us);
        ]
    in
    let task =
      frequency
        [
          (5, map2 (fun a b -> ('P', a, b)) value value);
          (2, map2 (fun a b -> ('S', a, b)) value value);
          (1, return ('A', 0, 0));
        ]
    in
    let spell_field v =
      let d = string_of_int v in
      oneofl
        [
          d;
          "00" ^ d;
          Printf.sprintf "0x%X" v;
          "+" ^ d;
          (if String.length d > 1 then
             String.sub d 0 1 ^ "_" ^ String.sub d 1 (String.length d - 1)
           else d);
        ]
    in
    let spell (letter, a, b) =
      let* lower = bool in
      let letter = if lower then Char.lowercase_ascii letter else letter in
      if letter = 'A' || letter = 'a' then return (String.make 1 letter)
      else
        let* a = spell_field a in
        let* b = spell_field b in
        return (Printf.sprintf "%c:%s:%s" letter a b)
    in
    let spell_set tasks =
      let* tasks = shuffle_l tasks in
      let* tokens = flatten_l (List.map spell tasks) in
      return ("query " ^ String.concat " " tokens)
    in
    let* tasks = list_size (int_range 1 8) task in
    let* repeat = bool in
    let tasks = if repeat then List.hd tasks :: tasks else tasks in
    let* one = spell_set tasks in
    let* other = spell_set tasks in
    return (tasks, one, other))

let prop_key_spellings_agree =
  QCheck.Test.make ~name:"key reader: respellings share one key" ~count:1000
    (QCheck.make
       ~print:(fun (_, a, b) -> Printf.sprintf "%S / %S" a b)
       gen_spelled_pair)
    (fun (tasks, one, other) ->
      let specs =
        List.map
          (fun (letter, a, b) ->
            match letter with
            | 'P' ->
              Constraints.periodic ~period:(Hrt_engine.Time.us a)
                ~slice:(Hrt_engine.Time.us b) ()
            | 'S' ->
              Constraints.sporadic ~size:(Hrt_engine.Time.us a)
                ~deadline:(Hrt_engine.Time.us b) ()
            | _ -> Constraints.aperiodic ())
          tasks
      in
      key_matches_parser one && key_matches_parser other
      && List.for_all
           (fun (view, reader) ->
             match (P.query_key reader one, P.query_key reader other) with
             | Some a, Some b ->
               String.equal a.P.key b.P.key
               && String.equal a.P.key (T.fingerprint (view specs))
             | _ -> false)
           key_views)

let test_key_reader_cases () =
  let max = string_of_int P.max_spec_us in
  let past = string_of_int (P.max_spec_us + 1) in
  let many k = "query" ^ String.concat "" (List.init k (fun _ -> " A")) in
  let answered =
    [
      "query P:1000:300 P:500:100";
      "query P:500:100 P:1000:300";
      "query p:0x3E8:300 P:0500:100";
      "query @1000 P:1000:300 P:500:100";
      "  query\tP:+1000:300  P:5_00:100 ";
      "query S:50:400 A a s:50:400 P:1:1";
      "query P:7:3 P:7:3 P:7:3";
      "query @0 A";
      Printf.sprintf "query P:%s:%s S:%s:%s" max max max max;
      many 64;
    ]
  in
  let refused =
    [
      Printf.sprintf "query P:%s:1" past;
      Printf.sprintf "query S:1:%s" past;
      "query";
      "query @5";
      "query ;";
      "query P:1:2;";
      "query P:1:2 ; P:3:4";
      "query P:0:1";
      "query P:1:2 @5";
      "query @x P:1:2";
      "query @-1 P:1:2";
      "QUERY P:1:2";
      "query;P:1:2";
      "query X:1:2";
      "query P:1:2:3";
      "batch P:1:2";
      "stats";
      "drain";
      "";
      many 65;
    ]
  in
  List.iter
    (fun (_, reader) ->
      List.iter
        (fun payload ->
          Alcotest.(check bool) ("answers " ^ payload) true
            (P.query_key reader payload <> None))
        answered;
      List.iter
        (fun payload ->
          Alcotest.(check bool) ("gives up on " ^ payload) true
            (P.query_key reader payload = None))
        refused)
    key_views;
  List.iter
    (fun payload ->
      Alcotest.(check bool) ("matches the parser: " ^ payload) true
        (key_matches_parser payload))
    (answered @ refused);
  (* The first four spell one set. *)
  List.iter
    (fun (_, reader) ->
      let key p = (Option.get (P.query_key reader p)).P.key in
      List.iter
        (fun p ->
          Alcotest.(check string) ("one key: " ^ p)
            (key (List.hd answered)) (key p))
        (List.filteri (fun i _ -> i < 4) answered))
    key_views

(* ---- reply round-trips ---- *)

let test_reply_roundtrip () =
  let replies =
    [
      P.Verdicts [ P.Admitted 0.25; P.Rejected "overloaded"; P.expired ];
      P.Stats_reply [ ("served", 12.0); ("p95_us", 81.5) ];
      P.Draining { pending = 7 };
      P.Error_reply { code = "bad-verb"; detail = "unknown verb" };
    ]
  in
  List.iter
    (fun r ->
      match P.parse_reply (P.render_reply r) with
      | Ok r' ->
        Alcotest.(check bool)
          ("round-trip " ^ P.render_reply r)
          true (r = r')
      | Error msg -> Alcotest.failf "reply did not re-parse: %s" msg)
    replies

(* ---- framing and verdict lines against Printf ---- *)

(* The hand-written frame header writes what [Printf] did, around every
   change in the digit count and at random lengths, whole and at an
   offset into a larger buffer. *)
let test_frame_matches_printf () =
  let rng = Hrt_engine.Rng.create 5L in
  let lengths =
    [ 0; 1; 9; 10; 99; 100; 999; 1000; 65_535; 65_536 ]
    @ List.init 50 (fun _ -> Hrt_engine.Rng.int rng 200_000)
  in
  List.iter
    (fun len ->
      let payload = String.init len (fun i -> Char.chr (32 + (i mod 90))) in
      let want = Printf.sprintf "%s %d\n%s" "hrt1" len payload in
      let name = Printf.sprintf "length %d" len in
      Alcotest.(check string) name want (P.frame payload);
      Alcotest.(check int) (name ^ ": framed_length") (String.length want)
        (P.framed_length payload);
      let b = Bytes.make (String.length want + 7) '#' in
      Alcotest.(check int) (name ^ ": blit end")
        (3 + String.length want)
        (P.blit_frame payload b 3);
      Alcotest.(check string) (name ^ ": blit")
        ("###" ^ want ^ "####")
        (Bytes.to_string b))
    lengths

let printf_line h = Printf.sprintf "admitted %.6f" h

let test_verdict_lines_match_printf () =
  let specials =
    [
      nan;
      -.nan;
      Int64.float_of_bits 0x7FF0000000000001L;
      0.;
      -0.;
      infinity;
      neg_infinity;
      Float.min_float;
      Float.min_float /. 2.;
      Int64.float_of_bits 1L;
      Float.max_float;
      0.0078125;
      0.0000005;
      0.0000015;
      1e-7;
      0.25;
      -0.9999995;
    ]
  in
  (* A fresh table's empty slots must not answer any headroom, the
     all-zero bits of 0.0 and every NaN included. *)
  List.iter
    (fun h ->
      let t = P.Verdict_lines.create () in
      Alcotest.(check string) (printf_line h ^ " on a fresh table")
        (printf_line h)
        (P.Verdict_lines.render t (P.Admitted h)))
    specials;
  (* More distinct values than the table has slots, twice through one
     table: some share a slot and replace each other, and every answer
     is still the Printf line of its own headroom. *)
  let rng = Hrt_engine.Rng.create 9L in
  let random =
    List.init 3000 (fun i ->
        match i mod 3 with
        | 0 -> Hrt_engine.Rng.float rng
        | 1 -> Int64.float_of_bits (Hrt_engine.Rng.next rng)
        | _ -> float_of_int (Hrt_engine.Rng.int rng 2_000_000) /. 1e6)
  in
  let t = P.Verdict_lines.create () in
  List.iter
    (fun h ->
      Alcotest.(check string) (printf_line h) (printf_line h)
        (P.Verdict_lines.render t (P.Admitted h)))
    (specials @ random @ List.rev random @ specials);
  Alcotest.(check string) "rejected" "rejected hyperperiod-demand"
    (P.Verdict_lines.render t (P.Rejected "hyperperiod-demand"))

(* ---- live server ---- *)

let with_server ?(cfg = Server.default_config) ?tcp_port ?trace_out f =
  let path = sock_path () in
  let server = Server.create ?tcp_port ?trace_out ~socket:path cfg in
  let d = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Domain.join d;
      if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Client.Unix_path path) server)

let must = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "client: %s" msg

let direct_verdict specs =
  let tasks =
    List.map (fun s -> Result.get_ok (P.parse_spec s)) specs
  in
  let ts =
    Hrt_analysis.Taskset.production_view ~policy:Config.Edf
      ~platform:Hrt_hw.Platform.phi tasks
  in
  P.verdict_of_oracle (Hrt_analysis.Oracle.analyze ts).Hrt_analysis.Oracle.verdict

let test_query_matches_oracle () =
  with_server (fun addr _ ->
      let specs = [ "P:1000:300"; "P:500:100" ] in
      match must (Client.call addr ("query " ^ String.concat " " specs)) with
      | P.Verdicts [ v ] ->
        Alcotest.(check bool) "server verdict = direct oracle" true
          (v = direct_verdict specs)
      | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))

let test_batch_verdicts_in_order () =
  with_server (fun addr _ ->
      let sets = [ [ "P:1000:900"; "A" ]; [ "P:1000:300" ]; [ "S:50:400" ] ] in
      let payload =
        "batch " ^ String.concat " ; " (List.map (String.concat " ") sets)
      in
      match must (Client.call addr payload) with
      | P.Verdicts vs ->
        Alcotest.(check int) "one verdict per set" (List.length sets)
          (List.length vs);
        List.iter2
          (fun v set ->
            Alcotest.(check bool) "order preserved" true
              (v = direct_verdict set))
          vs sets
      | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))

let test_pipelined_replies_in_order () =
  with_server (fun addr _ ->
      let conn = must (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let queries =
            [ [ "P:1000:300" ]; [ "P:1000:900"; "A" ]; [ "P:500:100" ] ]
          in
          List.iter
            (fun set ->
              ignore
                (must (Client.send conn ("query " ^ String.concat " " set))))
            queries;
          List.iter
            (fun set ->
              match must (Client.recv conn) with
              | P.Verdicts [ v ] ->
                Alcotest.(check bool) "pipelined order" true
                  (v = direct_verdict set)
              | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))
            queries))

let test_forced_shed () =
  with_server
    ~cfg:{ Server.default_config with Server.max_queue = 0 }
    (fun addr _ ->
      (match must (Client.call addr "query P:1000:300") with
      | P.Verdicts [ P.Rejected "overloaded" ] -> ()
      | r -> Alcotest.failf "expected overloaded, got %s" (P.render_reply r));
      (* Sheds are replies, not stalls or drops — and stats still serve. *)
      match must (Client.call addr "stats") with
      | P.Stats_reply kvs ->
        Alcotest.(check bool) "shed counted" true
          (match List.assoc_opt "shed" kvs with
          | Some n -> n >= 1.
          | None -> false)
      | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))

let test_deadline_expired () =
  with_server (fun addr _ ->
      match must (Client.call addr "query @0 P:1000:300") with
      | P.Verdicts [ P.Rejected "expired" ] -> ()
      | r -> Alcotest.failf "expected expired, got %s" (P.render_reply r))

(* Regression: the absolute deadline was [ms * 1_000_000] in [int],
   which wraps past 4,611,686,018,427 ms (about 146 years), so a far
   deadline expired at once. It saturates now: a deadline past the
   Int64 range never expires, whether the request or the server's
   default sets it. *)
let test_far_deadline_serves () =
  let served cfg payload =
    with_server ~cfg (fun addr _ ->
        match must (Client.call addr payload) with
        | P.Verdicts [ v ] ->
          Alcotest.(check string) payload
            (P.render_reply (P.Verdicts [ direct_verdict [ "P:1000:300" ] ]))
            (P.render_reply (P.Verdicts [ v ]))
        | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))
  in
  List.iter
    (fun ms ->
      served Server.default_config (Printf.sprintf "query @%d P:1000:300" ms))
    [ 4_611_686_018_427; 4_611_686_018_428; max_int ];
  served
    { Server.default_config with Server.default_deadline_ms = Some max_int }
    "query P:1000:300"

let test_protocol_error_over_wire () =
  with_server (fun addr _ ->
      (* A junk verb is a typed error reply; the connection survives. *)
      let conn = must (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match must (Client.request conn "frobnicate") with
          | P.Error_reply { code = "bad-verb"; _ } -> ()
          | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r));
          match must (Client.request conn "query P:1000:300") with
          | P.Verdicts [ _ ] -> ()
          | r -> Alcotest.failf "conn should survive: %s" (P.render_reply r));
      (* Broken framing is answered with a typed error, then closed. *)
      match addr with
      | Client.Tcp _ -> ()
      | Client.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX path);
            let junk = "garbage with no framing\n" in
            ignore (Unix.write_substring fd junk 0 (String.length junk));
            let dec = P.Decoder.create () in
            let buf = Bytes.create 1024 in
            let rec read_reply () =
              match P.Decoder.next dec with
              | `Frame payload -> payload
              | `Error e ->
                Alcotest.failf "server reply unframed: %s" (P.describe_error e)
              | `Await -> (
                match Unix.read fd buf 0 1024 with
                | 0 -> Alcotest.fail "connection closed without an error reply"
                | n ->
                  P.Decoder.feed dec buf 0 n;
                  read_reply ())
            in
            (match P.parse_reply (read_reply ()) with
            | Ok (P.Error_reply { code = "bad-magic"; _ }) -> ()
            | Ok r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r)
            | Error msg -> Alcotest.failf "reply did not parse: %s" msg);
            (* ... and the stream ends: framing is unrecoverable. *)
            Alcotest.(check int) "closed after error" 0
              (Unix.read fd buf 0 1024)))

(* Every dispatch is answered on the serving loop's domain, misses
   included: with the configuration hrtbench runs ([jobs = 2]), a batch
   of five distinct cold sets spawns no domain. Domain ids rise by one
   per spawn, so probe domains spawned just before and just after the
   batch are one apart only if nothing spawned in between. *)
let test_dispatch_spawns_no_domain () =
  with_server
    ~cfg:{ Server.default_config with Server.jobs = 2 }
    (fun addr _ ->
      let probe () =
        Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))
      in
      let sets =
        List.init 5 (fun i -> [ Printf.sprintf "P:%d:300" (1000 + i) ])
      in
      let payload =
        "batch " ^ String.concat " ; " (List.map (String.concat " ") sets)
      in
      let before = probe () in
      let reply = must (Client.call addr payload) in
      let after = probe () in
      Alcotest.(check string) "verdicts = direct oracle"
        (P.render_reply (P.Verdicts (List.map direct_verdict sets)))
        (P.render_reply reply);
      Alcotest.(check int) "domains spawned across the batch" 1
        (after - before))

(* [trace_out] writes each request's span as it completes and closes
   the array at drain: the file is a JSON array with one span per
   request, in completion order. [ts] and [dur] vary run to run, so
   they are cut before comparing. *)
let test_trace_streams_spans () =
  let untimed line =
    let find sub =
      let n = String.length sub in
      let rec go i =
        if i + n > String.length line then None
        else if String.sub line i n = sub then Some i
        else go (i + 1)
      in
      go 0
    in
    match (find "\"ts\":", find "\"args\":") with
    | Some i, Some j ->
      String.sub line 0 i ^ String.sub line j (String.length line - j)
    | _ -> line
  in
  let span verb sets outcome =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"args\":{\"sets\":%d,\"outcome\":\"%s\"}}"
      verb sets outcome
  in
  let trace = Filename.temp_file "hrt-serve-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      with_server ~trace_out:trace (fun addr _ ->
          List.iter
            (fun payload -> ignore (must (Client.call addr payload)))
            [
              "query P:1000:300";
              "batch P:1000:300 ; P:500:100";
              "query @0 P:1000:300";
            ]);
      Alcotest.(check (list string))
        "one span per request"
        [
          "[";
          span "query" 1 "served" ^ ",";
          span "batch" 2 "served" ^ ",";
          span "query" 1 "expired";
          "]";
          "";
        ]
        (In_channel.with_open_text trace In_channel.input_all
        |> String.split_on_char '\n'
        |> List.map untimed))

(* A set whose lcm product wraps Int64 used to raise inside the
   analysis and take the daemon down; it now gets a verdict, and the
   daemon keeps answering. *)
let test_overflow_query_survives () =
  with_server (fun addr _ ->
      let specs = [ "P:1000000:1000"; "P:9300001:1000" ] in
      (match must (Client.call addr ("query " ^ String.concat " " specs)) with
      | P.Verdicts [ _ ] as r ->
        Alcotest.(check string) "server verdict = direct oracle"
          (P.render_reply (P.Verdicts [ direct_verdict specs ]))
          (P.render_reply r)
      | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r));
      match must (Client.call addr "stats") with
      | P.Stats_reply _ -> ()
      | r -> Alcotest.failf "stats after overflow: %s" (P.render_reply r))

(* A client that sends a query and closes before reading the reply used
   to end the whole process with SIGPIPE on the reply's write. The write
   now fails with EPIPE and costs only that connection: after several
   such clients, [stats] still answers and [served] counts their
   queries. *)
let test_send_and_close_clients () =
  let clients = 5 in
  with_server (fun addr _ ->
      let path =
        match addr with
        | Client.Unix_path path -> path
        | Client.Tcp _ -> Alcotest.fail "expected a Unix socket"
      in
      let frame = P.frame "query P:1000:300" in
      for _ = 1 to clients do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        ignore (Unix.write_substring fd frame 0 (String.length frame));
        Unix.close fd
      done;
      (* The closed clients' queries may still be queued when [stats]
         is answered; ask again until they are served. *)
      let rec served attempts =
        match must (Client.call addr "stats") with
        | P.Stats_reply kvs ->
          let n = Option.value ~default:0. (List.assoc_opt "served" kvs) in
          if n >= float_of_int clients || attempts = 0 then n
          else (
            Unix.sleepf 0.01;
            served (attempts - 1))
        | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r)
      in
      Alcotest.(check (float 0.)) "closed clients' queries served"
        (float_of_int clients) (served 200))

(* [payloads] written to a raw connection [per_write] frames at a time,
   each group's replies read before the next write: the reply payloads'
   bytes as the server sent them, in request order. *)
let raw_exchange_all fd ~per_write payloads =
  let dec = P.Decoder.create () in
  let buf = Bytes.create 4096 in
  let rec write frame off =
    if off < String.length frame then
      write frame
        (off + Unix.write_substring fd frame off (String.length frame - off))
  in
  let rec read_reply () =
    match P.Decoder.next dec with
    | `Frame reply -> reply
    | `Error e -> Alcotest.failf "reply unframed: %s" (P.describe_error e)
    | `Await -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "the server closed the connection"
      | n ->
        P.Decoder.feed dec buf 0 n;
        read_reply ())
  in
  let rec go acc = function
    | [] -> List.rev acc
    | payloads ->
      let group = List.filteri (fun i _ -> i < per_write) payloads in
      let rest = List.filteri (fun i _ -> i >= per_write) payloads in
      write (String.concat "" (List.map P.frame group)) 0;
      go (List.rev_append (List.map (fun _ -> read_reply ()) group) acc) rest
  in
  go [] payloads

(* Two inputs to a live server, each more distinct sets than the cache
   holds (8,192), so FIFO evictions run. The first is sent one request
   at a time and mixes repeats, permutations, respellings, [@ms] tokens,
   batch frames and malformed requests. The second is pipelined, 64
   frames per write (within [max_queue], so nothing is shed): it fills
   the cache, then repeats 40 rounds of 32 fresh sets followed by 32
   repeats of the sets first named 8,192 fresh sets earlier, the keys
   the fresh sets just pushed out. For both, every reply is the
   in-process answer byte for byte, and the final hits, misses,
   evictions and entries are those of a fresh service that sees each
   request as one [Service.batch], however the server's reads grouped
   the frames. *)
let test_counter_parity () =
  let module S = Hrt_analysis.Service in
  let module O = Hrt_analysis.Oracle in
  let view =
    T.production_view ~policy:Config.Edf ~platform:Hrt_hw.Platform.phi
  in
  let rng = Hrt_engine.Rng.create 77L in
  let pick n = Hrt_engine.Rng.int rng n in
  (* Set [i] holds two periodic tasks; the first one's period makes it
     distinct from every other set. *)
  let set i =
    [ (1000 + i, 1 + (i mod 300)); (2000 + (100 * (i mod 13)), 50 + (i mod 7)) ]
  in
  let spell (period, slice) =
    match pick 4 with
    | 0 -> Printf.sprintf "P:%d:%d" period slice
    | 1 -> Printf.sprintf "p:0x%X:%d" period slice
    | 2 -> Printf.sprintf "P:00%d:+%d" period slice
    | _ -> Printf.sprintf "p:%d:%d" period slice
  in
  let spell_set tasks =
    String.concat " "
      (List.map spell (if pick 2 = 0 then tasks else List.rev tasks))
  in
  let distinct = 9_000 and fresh = ref 0 in
  let next_set () =
    if !fresh < distinct && (!fresh < 10 || pick 4 > 0) then begin
      incr fresh;
      set (!fresh - 1)
    end
    else set (pick !fresh)
  in
  let payloads =
    List.init 13_000 (fun _ ->
        match pick 40 with
        | 0 ->
          let a = spell_set (next_set ()) in
          "batch " ^ a ^ " ; " ^ spell_set (next_set ())
        | 1 ->
          List.nth [ "query P:0:1"; "frobnicate"; "query P:1:2 ; A" ] (pick 3)
        | 2 -> "query @60000 " ^ spell_set (next_set ())
        | _ -> "query " ^ spell_set (next_set ()))
  in
  Alcotest.(check bool) "more distinct sets than the cache holds" true
    (!fresh > 8 * 1024);
  let capacity = 8 * 1024 and rounds = 40 and round = 32 in
  let pipelined =
    let query i = "query " ^ spell_set (set i) in
    List.init capacity query
    @ List.concat
        (List.init rounds (fun r ->
             let first = capacity + (round * r) in
             List.init round (fun j -> query (first + j))
             @ List.init round (fun j -> query (first + j - capacity))))
  in
  let verdict specs =
    P.verdict_of_oracle (O.analyze (view specs)).O.verdict
  in
  let expected payload =
    match P.parse_request payload with
    | Ok (P.Query { specs; _ }) -> P.render_reply (P.Verdicts [ verdict specs ])
    | Ok (P.Batch { sets; _ }) ->
      P.render_reply (P.Verdicts (List.map verdict sets))
    | Ok (P.Stats | P.Drain) -> Alcotest.fail "no stats or drain is sent"
    | Error e -> P.render_reply (P.error_reply e)
  in
  let live_matches_replay name ~per_write payloads =
    let replay = S.create () in
    List.iter
      (fun payload ->
        match P.parse_request payload with
        | Ok (P.Query { specs; _ }) -> ignore (S.batch replay [ view specs ])
        | Ok (P.Batch { sets; _ }) ->
          ignore (S.batch replay (List.map view sets))
        | Ok (P.Stats | P.Drain) | Error _ -> ())
      payloads;
    let want = S.stats replay in
    Alcotest.(check bool) (name ^ ": the replay evicts") true
      (want.S.evictions > 0);
    with_server (fun addr _ ->
        let path =
          match addr with
          | Client.Unix_path path -> path
          | Client.Tcp _ -> Alcotest.fail "expected a Unix socket"
        in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX path);
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            let replies = raw_exchange_all fd ~per_write payloads in
            let wrong =
              List.filter
                (fun (payload, reply) ->
                  not (String.equal reply (expected payload)))
                (List.combine payloads replies)
            in
            (match wrong with
            | [] -> ()
            | (payload, _) :: _ ->
              Alcotest.failf "%s: %d replies differ, first for %S" name
                (List.length wrong) payload);
            match raw_exchange_all fd ~per_write:1 [ "stats" ] with
            | [ reply ] -> (
              match P.parse_reply reply with
              | Ok (P.Stats_reply kvs) ->
                let stat k =
                  match List.assoc_opt k kvs with
                  | Some v -> int_of_float v
                  | None -> Alcotest.failf "stats lacks %s" k
                in
                let check what want =
                  Alcotest.(check int) (name ^ ": " ^ what) want (stat what)
                in
                check "hits" want.S.hits;
                check "misses" want.S.misses;
                check "evictions" want.S.evictions;
                check "entries" want.S.entries
              | _ -> Alcotest.fail "stats did not answer")
            | _ -> Alcotest.fail "stats did not answer"))
  in
  live_matches_replay "one at a time" ~per_write:1 payloads;
  live_matches_replay "pipelined" ~per_write:64 pipelined

(* Drain under load: pipeline a burst, drain mid-flight, and every
   accepted request still gets exactly one reply (served, or shed with
   the stable overloaded verdict) before the server closes. *)
let test_drain_under_load () =
  let n = 40 in
  with_server (fun addr server ->
      let conn = must (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          for i = 0 to n - 1 do
            let period = 500 + (10 * i) in
            ignore
              (must
                 (Client.send conn
                    (Printf.sprintf "query P:%d:%d P:900:200" period
                       (period / 3))))
          done;
          Server.request_drain server;
          let replies = ref 0 in
          for _ = 1 to n do
            match must (Client.recv conn) with
            | P.Verdicts [ (P.Admitted _ | P.Rejected _) ] -> incr replies
            | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r)
          done;
          Alcotest.(check int) "exactly one reply per request" n !replies))

let test_drain_verb_stops_server () =
  let path = sock_path () in
  let server = Server.create ~socket:path Server.default_config in
  let d = Domain.spawn (fun () -> Server.run server) in
  let addr = Client.Unix_path path in
  (match must (Client.call addr "drain") with
  | P.Draining { pending } ->
    Alcotest.(check bool) "pending non-negative" true (pending >= 0)
  | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r));
  (* run returns on its own: the drain verb is a full shutdown. *)
  Domain.join d;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path);
  match Client.call ~attempts:1 addr "stats" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "drained server must not answer"

let test_tcp_listener () =
  with_server ~tcp_port:0 (fun _ server ->
      match Server.tcp_port server with
      | None -> Alcotest.fail "tcp port not bound"
      | Some port -> (
        match
          must (Client.call (Client.Tcp ("127.0.0.1", port)) "query P:1000:300")
        with
        | P.Verdicts [ v ] ->
          Alcotest.(check bool) "tcp verdict" true
            (v = direct_verdict [ "P:1000:300" ])
        | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r)))

(* A dispatch that pops nothing would never answer, and a drain would
   wait on the queue forever; a negative default deadline would expire
   every request. [create] refuses both before it binds the socket. *)
let test_create_refuses_bad_config () =
  let refused what cfg =
    let path = sock_path () in
    (match Server.create ~socket:path cfg with
    | _ -> Alcotest.failf "%s: created" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check bool) (what ^ ": no socket bound") false
      (Sys.file_exists path)
  in
  refused "max_batch 0" { Server.default_config with max_batch = 0 };
  refused "max_batch -1" { Server.default_config with max_batch = -1 };
  refused "deadline -1 ms"
    { Server.default_config with default_deadline_ms = Some (-1) }

let suite =
  [
    Alcotest.test_case "decoder round-trip" `Quick test_decoder_roundtrip;
    Alcotest.test_case "decoder typed errors" `Quick test_decoder_errors;
    Alcotest.test_case "decoder linear on one big chunk" `Quick
      test_decoder_one_chunk;
    Alcotest.test_case "decoder lengths are decimal" `Quick
      test_decoder_decimal_length;
    to_alcotest prop_decoder_total;
    to_alcotest prop_frame_roundtrip;
    Alcotest.test_case "parse request" `Quick test_parse_request;
    Alcotest.test_case "parse request errors" `Quick test_parse_request_errors;
    Alcotest.test_case "spec range check" `Quick test_parse_spec_range;
    to_alcotest prop_parse_total;
    to_alcotest prop_parse_matches_reference;
    to_alcotest prop_grammar_extremes_analyze;
    to_alcotest prop_key_matches_parser;
    to_alcotest prop_key_spellings_agree;
    Alcotest.test_case "key reader cases" `Quick test_key_reader_cases;
    Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "frame matches Printf" `Quick test_frame_matches_printf;
    Alcotest.test_case "verdict lines match Printf" `Quick
      test_verdict_lines_match_printf;
    Alcotest.test_case "query matches oracle" `Quick test_query_matches_oracle;
    Alcotest.test_case "batch verdicts in order" `Quick
      test_batch_verdicts_in_order;
    Alcotest.test_case "pipelined replies in order" `Quick
      test_pipelined_replies_in_order;
    Alcotest.test_case "forced shed answers overloaded" `Quick test_forced_shed;
    Alcotest.test_case "deadline expiry answers expired" `Quick
      test_deadline_expired;
    Alcotest.test_case "far deadline is served" `Quick
      test_far_deadline_serves;
    Alcotest.test_case "protocol errors over the wire" `Quick
      test_protocol_error_over_wire;
    Alcotest.test_case "overflowing query keeps the daemon up" `Quick
      test_overflow_query_survives;
    Alcotest.test_case "send-and-close clients keep the daemon up" `Quick
      test_send_and_close_clients;
    Alcotest.test_case "drain under load" `Quick test_drain_under_load;
    Alcotest.test_case "drain verb stops server" `Quick
      test_drain_verb_stops_server;
    Alcotest.test_case "tcp listener" `Quick test_tcp_listener;
    Alcotest.test_case "create refuses a batch or deadline below range" `Quick
      test_create_refuses_bad_config;
    Alcotest.test_case "dispatch spawns no domain" `Quick
      test_dispatch_spawns_no_domain;
    Alcotest.test_case "trace-out streams one span per request" `Quick
      test_trace_streams_spans;
    Alcotest.test_case "live replies and counters match a replay" `Quick
      test_counter_parity;
  ]
