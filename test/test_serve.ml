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
      let overhead_ns = T.overhead_of_platform Hrt_hw.Platform.phi in
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

(* ---- live server ---- *)

let with_server ?(cfg = Server.default_config) ?tcp_port f =
  let path = sock_path () in
  let server = Server.create ?tcp_port ~socket:path cfg in
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

let quiet_cfg = { Server.default_config with Server.jobs = 2 }

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
  with_server ~cfg:quiet_cfg (fun addr _ ->
      let specs = [ "P:1000:300"; "P:500:100" ] in
      match must (Client.call addr ("query " ^ String.concat " " specs)) with
      | P.Verdicts [ v ] ->
        Alcotest.(check bool) "server verdict = direct oracle" true
          (v = direct_verdict specs)
      | r -> Alcotest.failf "unexpected reply: %s" (P.render_reply r))

let test_batch_verdicts_in_order () =
  with_server ~cfg:quiet_cfg (fun addr _ ->
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
  with_server ~cfg:quiet_cfg (fun addr _ ->
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
    ~cfg:{ quiet_cfg with Server.max_queue = 0 }
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
  with_server ~cfg:quiet_cfg (fun addr _ ->
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
    (fun ms -> served quiet_cfg (Printf.sprintf "query @%d P:1000:300" ms))
    [ 4_611_686_018_427; 4_611_686_018_428; max_int ];
  served
    { quiet_cfg with Server.default_deadline_ms = Some max_int }
    "query P:1000:300"

let test_protocol_error_over_wire () =
  with_server ~cfg:quiet_cfg (fun addr _ ->
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

(* A set whose lcm product wraps Int64 used to raise inside the
   analysis and take the daemon down; it now gets a verdict, and the
   daemon keeps answering. *)
let test_overflow_query_survives () =
  with_server ~cfg:quiet_cfg (fun addr _ ->
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

(* Drain under load: pipeline a burst, drain mid-flight, and every
   accepted request still gets exactly one reply (served, or shed with
   the stable overloaded verdict) before the server closes. *)
let test_drain_under_load () =
  let n = 40 in
  with_server ~cfg:quiet_cfg (fun addr server ->
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
  let server = Server.create ~socket:path quiet_cfg in
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
  with_server ~cfg:quiet_cfg ~tcp_port:0 (fun _ server ->
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
    Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
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
    Alcotest.test_case "drain under load" `Quick test_drain_under_load;
    Alcotest.test_case "drain verb stops server" `Quick
      test_drain_verb_stops_server;
    Alcotest.test_case "tcp listener" `Quick test_tcp_listener;
  ]
