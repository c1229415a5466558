(* In-memory span recorder for the traced run. Spans are recorded around
   calls into each layer's public functions, kept in memory, and written
   as Chrome-trace JSON at the end. Only the domain that owns a recorder
   touches it: parallel jobs report their own start/stop and the owner
   adds them afterwards with [add]. *)

open Common

type span = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request or job id shared by a span and its children *)
  tid : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
}

let create ~enabled = { enabled; spans = []; next_id = 1 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* A root span timed by someone else, e.g. a job on another domain. *)
let add t ~name ~req ~tid ~start_ns ~stop_ns =
  if t.enabled then
    t.spans <-
      { name; id = fresh_id t; parent = 0; req; tid; start_ns; stop_ns }
      :: t.spans

(* [span t ~parent ~req name f] runs [f id] inside a span; [id] is the
   parent for spans opened by [f]. When the recorder is disabled this is
   just [f 0]. *)
let span t ?(parent = 0) ~req name f =
  if not t.enabled then f 0
  else begin
    let id = fresh_id t in
    let start_ns = now_ns () in
    let v = f id in
    let stop_ns = now_ns () in
    t.spans <- { name; id; parent; req; tid = 0; start_ns; stop_ns } :: t.spans;
    v
  end

(* Some spans are named by their outcome: a cache query is a hit or a
   miss only once it has returned. *)
let rename_last t name =
  match t.spans with s :: rest -> t.spans <- { s with name } :: rest | [] -> ()

(* The recorder's own cost. [outer] is what one empty span adds to its
   parent; [inner] is the duration an empty span reports for itself. *)
type overhead = { outer_ns : float; inner_ns : float }

let measure_overhead () =
  let t = create ~enabled:true in
  let n = 20_000 in
  let t0 = now_ns () in
  for i = 1 to n do
    span t ~req:i "empty" (fun _ -> ())
  done;
  let outer_ns = ns_between t0 (now_ns ()) /. float_of_int n in
  let inner =
    Array.of_list (List.map (fun s -> ns_between s.start_ns s.stop_ns) t.spans)
  in
  { outer_ns; inner_ns = median inner }

(* Self time of every span: its duration minus its children's, minus the
   recorder's own cost, floored at zero. *)
let self_times t ov =
  let child_ns = Hashtbl.create 4096 in
  let child_n = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        let d = ns_between s.start_ns s.stop_ns in
        Hashtbl.replace child_ns s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child_ns s.parent));
        Hashtbl.replace child_n s.parent
          (1 + Option.value ~default:0 (Hashtbl.find_opt child_n s.parent))
      end)
    t.spans;
  List.rev_map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_ns s.id) in
      let n = Option.value ~default:0 (Hashtbl.find_opt child_n s.id) in
      let self =
        ns_between s.start_ns s.stop_ns
        -. kids
        -. (float_of_int n *. (ov.outer_ns -. ov.inner_ns))
        -. ov.inner_ns
      in
      (s, Float.max 0. self))
    t.spans

type by_name = { count : int; total_ns : float; p50_ns : float }

(* Self time grouped by span name, in order of first appearance. *)
let by_name t ov =
  let selfs = self_times t ov in
  let order = ref [] in
  let acc = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), self) ->
      match Hashtbl.find_opt acc s.name with
      | Some l -> Hashtbl.replace acc s.name (self :: l)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name [ self ])
    selfs;
  List.rev_map
    (fun name ->
      let xs = Array.of_list (Hashtbl.find acc name) in
      ( name,
        {
          count = Array.length xs;
          total_ns = Array.fold_left ( +. ) 0. xs;
          p50_ns = median xs;
        } ))
    !order

let p50_self table name =
  match List.assoc_opt name table with Some b -> b.p50_ns | None -> nan

let print_report table =
  prerr_endline "hrtbench: self time by span (recorder cost subtracted)";
  Printf.eprintf "  %-22s %9s %12s %12s\n" "span" "count" "total_ms" "p50_ns";
  List.iter
    (fun (name, b) ->
      Printf.eprintf "  %-22s %9d %12.3f %12.0f\n" name b.count
        (b.total_ns /. 1e6) b.p50_ns)
    table;
  flush stderr

let write_chrome t path =
  let base =
    List.fold_left (fun acc s -> Int64.min acc s.start_ns) Int64.max_int t.spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
      List.iteri
        (fun i s ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
             \"req\": %d}}"
            (json_string s.name) s.tid
            (ns_between base s.start_ns /. 1e3)
            (ns_between s.start_ns s.stop_ns /. 1e3)
            s.id s.parent s.req)
        (List.rev t.spans);
      output_string oc "\n]}\n")
