open Hrt_stats

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- Summary ---- *)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.(check (float 0.)) "mean" 0. (Summary.mean s);
  Alcotest.(check (float 0.)) "variance" 0. (Summary.variance s)

let test_summary_basic () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5. (Summary.mean s);
  (* Sample variance with n-1: sum sq dev = 32, / 7. *)
  Alcotest.(check (float 1e-9)) "variance" (32. /. 7.) (Summary.variance s);
  Alcotest.(check (float 0.)) "min" 2. (Summary.min s);
  Alcotest.(check (float 0.)) "max" 9. (Summary.max s);
  Alcotest.(check (float 0.)) "total" 40. (Summary.total s)

let test_summary_single () =
  let s = Summary.of_array [| 42. |] in
  Alcotest.(check (float 0.)) "mean" 42. (Summary.mean s);
  Alcotest.(check (float 0.)) "variance with 1 sample" 0. (Summary.variance s)

let test_summary_merge () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let ys = Array.init 30 (fun i -> float_of_int (i * 3)) in
  let merged = Summary.merge (Summary.of_array xs) (Summary.of_array ys) in
  let direct = Summary.of_array (Array.append xs ys) in
  Alcotest.(check int) "count" (Summary.count direct) (Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Summary.mean direct) (Summary.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Summary.variance direct)
    (Summary.variance merged);
  Alcotest.(check (float 0.)) "min" (Summary.min direct) (Summary.min merged);
  Alcotest.(check (float 0.)) "max" (Summary.max direct) (Summary.max merged)

let test_summary_merge_empty () =
  let s = Summary.of_array [| 1.; 2. |] in
  let e = Summary.create () in
  Alcotest.(check (float 0.)) "merge right empty" (Summary.mean s)
    (Summary.mean (Summary.merge s e));
  Alcotest.(check (float 0.)) "merge left empty" (Summary.mean s)
    (Summary.mean (Summary.merge e s))

let test_summary_int64 () =
  let s = Summary.create () in
  Summary.add_int64 s 1000L;
  Summary.add_int64 s 3000L;
  Alcotest.(check (float 0.)) "int64 mean" 2000. (Summary.mean s)

(* ---- Histogram ---- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:100. ~bins:10 in
  Histogram.add h 5.;
  Histogram.add h 15.;
  Histogram.add h 15.5;
  Histogram.add h 99.9;
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "total" 4 (Histogram.count h)

let test_histogram_edges () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add h 0.;
  Histogram.add h 10.;
  Histogram.add h (-0.001);
  Alcotest.(check int) "lo inclusive" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "hi exclusive -> overflow" 1 (Histogram.overflow h);
  Alcotest.(check int) "below lo -> underflow" 1 (Histogram.underflow h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Alcotest.(check (float 1e-9)) "bin lo" 4. (Histogram.bin_lo h 2);
  Alcotest.(check (float 1e-9)) "bin hi" 6. (Histogram.bin_hi h 2);
  Alcotest.(check int) "bins" 5 (Histogram.bins h)

let test_histogram_max_bin () =
  let h = Histogram.of_array ~lo:0. ~hi:10. ~bins:10 [| 5.2; 5.4; 5.9; 1.0 |] in
  Alcotest.(check int) "max bin" 5 (Histogram.max_bin h)

let test_histogram_invalid () =
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Histogram.create: lo >= hi")
    (fun () -> ignore (Histogram.create ~lo:1. ~hi:1. ~bins:2));
  Alcotest.check_raises "bins <= 0" (Invalid_argument "Histogram.create: bins <= 0")
    (fun () -> ignore (Histogram.create ~lo:0. ~hi:1. ~bins:0))

let test_histogram_render () =
  let h = Histogram.of_array ~lo:0. ~hi:2. ~bins:2 [| 0.5; 1.5; 1.7 |] in
  let s = Histogram.render ~width:10 h in
  Alcotest.(check bool) "mentions counts" true
    (String.length s > 0 && String.contains s '#')

(* Regression: render used to compute [count * width] in int before
   dividing by the peak — counts past [max_int / width] overflowed and
   flipped the bar length negative ([String.make] then raised). Counts
   near max_int must render a full-width bar. *)
let test_histogram_render_huge_counts () =
  let width = 50 in
  let huge = max_int / width * 2 in
  let h = Histogram.of_counts ~lo:0. ~hi:3. [| huge; huge / 2; 1 |] in
  let s = Histogram.render ~width h in
  let bar line =
    let n = ref 0 in
    String.iter (fun c -> if c = '#' then incr n) line;
    !n
  in
  (match String.split_on_char '\n' s with
  | peak_line :: half_line :: _ ->
    Alcotest.(check int) "peak bin renders full width" width (bar peak_line);
    Alcotest.(check int) "half-peak bin renders half width" (width / 2)
      (bar half_line)
  | _ -> Alcotest.fail "render produced too few lines");
  Alcotest.(check int) "totals accumulate" (huge + (huge / 2) + 1)
    (Histogram.count h)

(* ---- Percentile ---- *)

let test_percentile_basic () =
  let p = Percentile.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (float 1e-9)) "p0" 1. (Percentile.value p 0.);
  Alcotest.(check (float 1e-9)) "median" 3. (Percentile.median p);
  Alcotest.(check (float 1e-9)) "p100" 5. (Percentile.value p 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolated" 2. (Percentile.value p 25.)

let test_percentile_interpolation () =
  let p = Percentile.of_array [| 10.; 20. |] in
  Alcotest.(check (float 1e-9)) "p50 between" 15. (Percentile.value p 50.)

let test_percentile_unsorted_input () =
  let p = Percentile.of_array [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check (float 1e-9)) "median of unsorted" 3. (Percentile.median p)

(* The serving daemon's latency window: below capacity it holds every
   sample and agrees with [Percentile] on them; past it, it holds the
   latest [capacity] samples and agrees with [Percentile] on those. *)
let test_window_matches_percentile () =
  let capacity = 65_536 and below = 1_000 in
  let rng = Random.State.make [| 19 |] in
  let samples =
    Array.init (capacity + 40_000) (fun _ -> Random.State.float rng 1e3)
  in
  let n = Array.length samples in
  let w = Window.create ~capacity in
  let agree name held =
    Alcotest.(check int) (name ^ ": samples held") (Array.length held)
      (Window.count w);
    let p = Percentile.of_array held in
    List.iter
      (fun q ->
        Alcotest.(check (float 0.)) (Printf.sprintf "%s: p%g" name q)
          (Percentile.value p q) (Window.value w q))
      [ 0.; 50.; 95.; 99.; 100. ]
  in
  Array.iter (Window.add w) (Array.sub samples 0 below);
  agree "below the window" (Array.sub samples 0 below);
  Array.iter (Window.add w) (Array.sub samples below (n - below));
  agree "past the window" (Array.sub samples (n - capacity) capacity);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Window.add: NaN sample") (fun () ->
      Window.add w Float.nan)

(* NaN regressions: on the seed code these silently poisoned sorts (via
   polymorphic compare), bin indices, and running means. *)
let test_percentile_rejects_nan () =
  let p = Percentile.of_array [| 1.; 2.; 3. |] in
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Percentile.add: NaN sample") (fun () ->
      Percentile.add p Float.nan);
  Alcotest.(check (float 1e-9)) "median unpoisoned" 2. (Percentile.median p)

let test_histogram_rejects_nan () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Histogram.add: NaN sample") (fun () ->
      Histogram.add h Float.nan);
  Alcotest.(check int) "no phantom sample" 0 (Histogram.count h)

let test_summary_rejects_nan () =
  let s = Summary.of_array [| 1.; 3. |] in
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Summary.add: NaN sample") (fun () ->
      Summary.add s Float.nan);
  Alcotest.(check (float 1e-9)) "mean unpoisoned" 2. (Summary.mean s)

let test_percentile_errors () =
  let p = Percentile.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Percentile.value: empty")
    (fun () -> ignore (Percentile.median p));
  Percentile.add p 1.;
  Alcotest.check_raises "range" (Invalid_argument "Percentile.value: p out of range")
    (fun () -> ignore (Percentile.value p 101.))

(* ---- Table ---- *)

let test_table_render () =
  let t =
    Table.create ~title:"demo"
      ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.row t [ "alpha"; "1" ];
  Table.row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0
    && contains_sub s "== demo ==");
  Alcotest.(check bool) "right alignment pads" true
    (contains_sub s "|     1 |");
  Alcotest.(check int) "rows" 2 (Table.rows t)

let test_table_mismatch () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table.row: 2 cells for 1 columns (table \"t\")")
    (fun () -> Table.row t [ "x"; "y" ])

let test_table_rowf () =
  let t =
    Table.create ~title:"t" ~columns:[ ("a", Table.Left); ("b", Table.Left) ]
  in
  Table.rowf t "%d\t%s" 42 "hi";
  Alcotest.(check int) "one row" 1 (Table.rows t)

let test_cells () =
  Alcotest.(check string) "integral float" "42" (Table.cell_f 42.0);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 12.49999)

(* ---- Csv ---- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_line () =
  Alcotest.(check string) "line" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let test_csv_write () =
  let path = Filename.temp_file "hrt" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "content" [ "x,y"; "1,2"; "3,4" ]
    (List.rev !lines)

let suite =
  [
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary basic moments" `Quick test_summary_basic;
    Alcotest.test_case "summary single sample" `Quick test_summary_single;
    Alcotest.test_case "summary merge = concat" `Quick test_summary_merge;
    Alcotest.test_case "summary merge with empty" `Quick test_summary_merge_empty;
    Alcotest.test_case "summary int64" `Quick test_summary_int64;
    Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edges;
    Alcotest.test_case "histogram bin bounds" `Quick test_histogram_bounds;
    Alcotest.test_case "histogram max bin" `Quick test_histogram_max_bin;
    Alcotest.test_case "histogram invalid args" `Quick test_histogram_invalid;
    Alcotest.test_case "histogram render" `Quick test_histogram_render;
    Alcotest.test_case "histogram render huge counts" `Quick
      test_histogram_render_huge_counts;
    Alcotest.test_case "percentile basic" `Quick test_percentile_basic;
    Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "percentile unsorted input" `Quick test_percentile_unsorted_input;
    Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
    Alcotest.test_case "percentile rejects NaN" `Quick test_percentile_rejects_nan;
    Alcotest.test_case "window keeps the latest samples" `Quick
      test_window_matches_percentile;
    Alcotest.test_case "histogram rejects NaN" `Quick test_histogram_rejects_nan;
    Alcotest.test_case "summary rejects NaN" `Quick test_summary_rejects_nan;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table column mismatch" `Quick test_table_mismatch;
    Alcotest.test_case "table rowf" `Quick test_table_rowf;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "csv escaping" `Quick test_csv_escape;
    Alcotest.test_case "csv line" `Quick test_csv_line;
    Alcotest.test_case "csv write file" `Quick test_csv_write;
  ]
