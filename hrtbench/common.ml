(* Shared plumbing: clock, order statistics, the result record every
   workload returns, and the one-line JSON it is printed as. *)

module Clock = Hrt_harness.Clock

let now_ns = Clock.now_ns
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let seconds_since t0 = ns_between t0 (now_ns ()) /. 1e9
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("hrtbench: " ^ s)) fmt

(* Linear interpolation between closest ranks, [p] in 0..100. *)
let percentile xs p =
  if Array.length xs = 0 then nan
  else Hrt_stats.Percentile.value (Hrt_stats.Percentile.of_array xs) p

let median xs = percentile xs 50.

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Peak resident set of a live process, from the kernel's high-water mark. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.)
            else scan ()
        in
        scan ())

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;  (** operations that failed, [wrong] included *)
  wrong : int;  (** outputs that differ from their reference *)
  metrics : metric list;
  notes : (string * string) list;  (** human-readable extras *)
}

let m name value unit_ = { name; value; unit_ }

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A result is correct when no output differs from its reference and every
   metric is a finite number. *)
let to_json o =
  let finite = List.for_all (fun x -> Float.is_finite x.value) o.metrics in
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      o.metrics
  in
  let notes =
    List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) o.notes
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \
     \"notes\": {%s}}"
    (o.wrong = 0 && finite)
    o.attempted o.failed
    (String.concat ", " metrics)
    (String.concat ", " notes)
