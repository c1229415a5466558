open Hrt_engine
open Hrt_core
open Hrt_analysis
open Hrt_par

type result = {
  sets : int;
  repeats : int;
  jobs : int;
  cold_seconds : float;
  warm_seconds : float;
  cold_qps : float;
  warm_qps : float;
  warm_speedup : float;
  par_qps : float;
  identical : bool;
  hits : int;
  misses : int;
}

(* Near-harmonic periods whose lcm is 252 ms, 6-12 tasks per set: a cold
   query pays the fingerprint, an O(n) closed-form EDF test or an RM
   scheduling-point scan, and the certificate; a warm one is the
   fingerprint plus a lookup. *)
let palette =
  [| Time.us 500; Time.us 600; Time.us 700; Time.us 800; Time.us 900; Time.ms 1 |]

let gen_taskset ~seed index =
  let rng = Rng.create Int64.(add seed (mul 998_244_353L (of_int index))) in
  let n = 6 + Rng.int rng 7 in
  let target = 0.5 +. (0.4 *. Rng.float rng) in
  let tasks =
    List.init n (fun _ ->
        let period = palette.(Rng.int rng (Array.length palette)) in
        let share = target /. float_of_int n in
        let slice =
          Time.min period
            (Time.max (Time.us 5)
               (Int64.of_float (Int64.to_float period *. share)))
        in
        Constraints.periodic ~period ~slice ())
  in
  let policy = if index mod 2 = 0 then Config.Edf else Config.Rm in
  let config = { Config.default with Config.policy } in
  Taskset.make ~config
    ~overhead_ns:(Taskset.overhead_of_platform Hrt_hw.Platform.phi)
    tasks

let timed f = Clock.timed f

let measure ?(seed = 42L) ~sets ~repeats ~jobs () =
  let corpus = List.init sets (gen_taskset ~seed) in
  let svc = Service.create () in
  let cold_seconds, seq_results =
    timed (fun () -> Service.batch svc corpus)
  in
  let warm_total, _ =
    timed (fun () ->
        for _ = 1 to repeats do
          ignore (Service.batch svc corpus)
        done)
  in
  let pool = Par.Pool.create ~jobs in
  let par_total, par_results =
    timed (fun () ->
        let last = ref [] in
        for _ = 1 to repeats do
          last := Service.batch ~pool svc corpus
        done;
        !last)
  in
  let stats = Service.stats svc in
  let qps n seconds = if seconds > 0. then float_of_int n /. seconds else 0. in
  let warm_seconds = warm_total /. float_of_int repeats in
  let cold_qps = qps sets cold_seconds in
  let warm_qps = qps (sets * repeats) warm_total in
  {
    sets;
    repeats;
    jobs;
    cold_seconds;
    warm_seconds;
    cold_qps;
    warm_qps;
    warm_speedup = (if cold_qps > 0. then warm_qps /. cold_qps else 0.);
    par_qps = qps (sets * repeats) par_total;
    identical = par_results = seq_results;
    hits = stats.Service.hits;
    misses = stats.Service.misses;
  }

(* ---- JSON artifact (same hand-rolled flat style as BENCH_engine) ---- *)

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"hrt-admit-bench/1\",\n";
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
    (Printf.sprintf "  \"par_queries_per_sec\": %.0f,\n" r.par_qps);
  Buffer.add_string b (Printf.sprintf "  \"identical\": %b,\n" r.identical);
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
           "warm-cache regression: measured %.0f q/s < %.0f (baseline %.0f, \
            tolerance %.0f%%)"
           r.warm_qps floor base (100. *. tolerance))
