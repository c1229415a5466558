(* The engine's original binary-heap event queue, kept as the reference
   the pooled event queue is property-tested against (heap_queue.mli). *)

open Hrt_engine

type 'a entry = {
  time : Time.ns;
  seq : int;
  mutable payload : 'a option;
  (* [None] once popped or cancelled, so the heap never retains dead
     payloads (closures can capture large state). *)
  mutable live : bool;
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable live_count : int;
  sentinel : 'a entry;
      (* fills vacated and never-used slots: a dead, payload-free entry *)
}

let create () =
  let sentinel =
    { time = Int64.min_int; seq = -1; payload = None; live = false }
  in
  { heap = [||]; len = 0; next_seq = 0; live_count = 0; sentinel }

let before a b =
  Int64.compare a.time b.time < 0
  || (Int64.equal a.time b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nheap = Array.make ncap t.sentinel in
  Array.blit t.heap 0 nheap 0 t.len;
  t.heap <- nheap

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add_entry t e =
  if t.len = Array.length t.heap then grow t;
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let add t ~time payload =
  let e = { time; seq = t.next_seq; payload = Some payload; live = true } in
  t.next_seq <- t.next_seq + 1;
  add_entry t e;
  t.live_count <- t.live_count + 1;
  e

let cancel t e =
  if e.live then begin
    e.live <- false;
    e.payload <- None;
    t.live_count <- t.live_count - 1
  end

let is_live e = e.live
let entry_time e = e.time

let remove_root t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- t.sentinel;
    sift_down t 0
  end
  else t.heap.(0) <- t.sentinel

let rec pop_entry t =
  if t.len = 0 then None
  else begin
    let root = t.heap.(0) in
    remove_root t;
    if root.live then begin
      root.live <- false;
      Some root
    end
    else pop_entry t
  end

let pop t =
  match pop_entry t with
  | None -> None
  | Some e ->
    t.live_count <- t.live_count - 1;
    let p = match e.payload with Some p -> p | None -> assert false in
    e.payload <- None;
    Some (e.time, p)

let rec peek_time t =
  if t.len = 0 then None
  else begin
    let root = t.heap.(0) in
    if root.live then Some root.time
    else begin
      remove_root t;
      peek_time t
    end
  end

let size t = t.live_count
let is_empty t = t.live_count = 0
