open Hrt_engine
module Clock = Hrt_harness.Clock

type result = {
  sets : int;
  repeats : int;
  jobs : int;
  cold_seconds : float;
  warm_seconds : float;
  cold_qps : float;
  warm_qps : float;
  warm_speedup : float;
  batch_qps : float;
  batch_size : int;
  identical : bool;
  shed : int;
  hits : int;
  misses : int;
}

(* Same corpus shape as Admit_bench: 6-12 tasks over near-harmonic
   periods (252 ms lcm), ~50-90% total utilization — a cold query pays a
   full oracle analysis, a warm one is a fingerprint plus a lookup.
   Rendered as protocol spec tokens, since these sets travel the
   wire. *)
let gen_specs ~seed index =
  let palette = [| 500; 600; 700; 800; 900; 1000 |] in
  let rng = Rng.create Int64.(add seed (mul 998_244_353L (of_int index))) in
  let n = 6 + Rng.int rng 7 in
  let target = 0.5 +. (0.4 *. Rng.float rng) in
  let specs =
    List.init n (fun _ ->
        let period_us = palette.(Rng.int rng (Array.length palette)) in
        let share = target /. float_of_int n in
        let slice_us =
          Stdlib.min period_us
            (Stdlib.max 5 (int_of_float (float_of_int period_us *. share)))
        in
        Printf.sprintf "P:%d:%d" period_us slice_us)
  in
  String.concat " " specs

let sock_path =
  let counter = Atomic.make 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hrt-serve-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add counter 1))

let fail fmt = Printf.ksprintf failwith fmt

let must = function
  | Ok v -> v
  | Error msg -> fail "servebench: %s" msg

let verdict_payload = function
  | Protocol.Verdicts _ as r -> Protocol.render_reply r
  | Protocol.Error_reply { code; detail } ->
    fail "servebench: server error %s: %s" code detail
  | Protocol.Stats_reply _ | Protocol.Draining _ ->
    fail "servebench: unexpected reply shape"

let stats_field reply key =
  match reply with
  | Protocol.Stats_reply kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> int_of_float v
    | None -> fail "servebench: stats reply missing %s" key)
  | _ -> fail "servebench: expected a stats reply"

let measure ?(seed = 42L) ?(batch_size = 32) ~sets ~repeats ~jobs () =
  let corpus = List.init sets (fun i -> "query " ^ gen_specs ~seed i) in
  let path = sock_path () in
  let server =
    Server.create ~socket:path
      { Server.default_config with Server.jobs; max_queue = 4096 }
  in
  let srv_domain = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Domain.join srv_domain;
      if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let addr = Client.Unix_path path in
      (* First contact retries with backoff while the server boots. *)
      (match Client.call ~seed addr "stats" with
      | Ok _ -> ()
      | Error msg -> fail "servebench: server never came up: %s" msg);
      let conn = must (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let roundtrip payload =
            verdict_payload (must (Client.request conn payload))
          in
          let cold_seconds, cold_replies =
            Clock.timed (fun () -> List.map roundtrip corpus)
          in
          let identical = ref true in
          let warm_total, () =
            Clock.timed (fun () ->
                for _ = 1 to repeats do
                  List.iter2
                    (fun payload expect ->
                      if roundtrip payload <> expect then identical := false)
                    corpus cold_replies
                done)
          in
          (* Batch frames: group the same corpus [batch_size] sets per
             request. *)
          let batches =
            let rec go acc cur n = function
              | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
              | q :: rest ->
                let spec = String.sub q 6 (String.length q - 6) in
                if n + 1 >= batch_size then
                  go (List.rev (spec :: cur) :: acc) [] 0 rest
                else go acc (spec :: cur) (n + 1) rest
            in
            go [] [] 0 corpus
            |> List.map (fun specs -> "batch " ^ String.concat " ; " specs)
          in
          let batch_total, () =
            Clock.timed (fun () ->
                for _ = 1 to repeats do
                  List.iter (fun b -> ignore (roundtrip b)) batches
                done)
          in
          let stats = must (Client.request conn "stats") in
          let shed = stats_field stats "shed" in
          let hits = stats_field stats "hits" in
          let misses = stats_field stats "misses" in
          let qps n seconds =
            if seconds > 0. then float_of_int n /. seconds else 0.
          in
          let cold_qps = qps sets cold_seconds in
          let warm_qps = qps (sets * repeats) warm_total in
          {
            sets;
            repeats;
            jobs;
            cold_seconds;
            warm_seconds = warm_total /. float_of_int repeats;
            cold_qps;
            warm_qps;
            warm_speedup = (if cold_qps > 0. then warm_qps /. cold_qps else 0.);
            batch_qps = qps (sets * repeats) batch_total;
            batch_size;
            identical = !identical;
            shed;
            hits;
            misses;
          }))

(* ---- JSON artifact (same hand-rolled flat style as BENCH_admit) ---- *)

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"hrt-serve-bench/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"sets\": %d,\n" r.sets);
  Buffer.add_string b (Printf.sprintf "  \"repeats\": %d,\n" r.repeats);
  Buffer.add_string b (Printf.sprintf "  \"jobs\": %d,\n" r.jobs);
  Buffer.add_string b
    (Printf.sprintf "  \"warm_queries_per_sec\": %.0f,\n" r.warm_qps);
  Buffer.add_string b
    (Printf.sprintf "  \"cold_queries_per_sec\": %.0f,\n" r.cold_qps);
  Buffer.add_string b
    (Printf.sprintf "  \"warm_speedup_vs_cold\": %.2f,\n" r.warm_speedup);
  Buffer.add_string b
    (Printf.sprintf "  \"batch_queries_per_sec\": %.0f,\n" r.batch_qps);
  Buffer.add_string b (Printf.sprintf "  \"batch_size\": %d,\n" r.batch_size);
  Buffer.add_string b (Printf.sprintf "  \"identical\": %b,\n" r.identical);
  Buffer.add_string b (Printf.sprintf "  \"shed\": %d,\n" r.shed);
  Buffer.add_string b (Printf.sprintf "  \"cache_hits\": %d,\n" r.hits);
  Buffer.add_string b (Printf.sprintf "  \"cache_misses\": %d\n" r.misses);
  Buffer.add_string b "}\n";
  Buffer.contents b

let write r ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json r))

let scan_field text key =
  let needle = Printf.sprintf "\"%s\":" key in
  let nlen = String.length needle in
  let len = String.length text in
  let rec find from =
    if from + nlen > len then None
    else if String.sub text from nlen = needle then Some (from + nlen)
    else find (from + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < len
      && (match text.[!stop] with
         | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub text start (!stop - start)))

let baseline_warm_qps ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such baseline")
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match scan_field text "warm_queries_per_sec" with
    | Some v when v > 0. -> Ok v
    | _ -> Error (path ^ ": no warm_queries_per_sec field")
  end

let check_against r ~path ~tolerance =
  match baseline_warm_qps ~path with
  | Error _ as e -> e
  | Ok base ->
    let floor = base *. (1. -. tolerance) in
    if r.warm_qps >= floor then Ok base
    else
      Error
        (Printf.sprintf
           "warm serving regression: measured %.0f q/s < %.0f (baseline %.0f, \
            tolerance %.0f%%)"
           r.warm_qps floor base (100. *. tolerance))
