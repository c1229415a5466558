type 'a cell = { key : int64; seq : int; v : 'a }

type 'a t = {
  mutable cells : 'a cell array;
  mutable len : int;
  capacity : int;
  mutable next_seq : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Prio_queue.create";
  { cells = [||]; len = 0; capacity; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = t.capacity

let before a b =
  Int64.compare a.key b.key < 0
  || (Int64.equal a.key b.key && a.seq < b.seq)

let swap t i j =
  let tmp = t.cells.(i) in
  t.cells.(i) <- t.cells.(j);
  t.cells.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t.cells.(i) t.cells.(p) then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.len && before t.cells.(l) t.cells.(!m) then m := l;
  if r < t.len && before t.cells.(r) t.cells.(!m) then m := r;
  if !m <> i then begin
    swap t i !m;
    sift_down t !m
  end

let add t ~key v =
  if t.len >= t.capacity then false
  else begin
    let cell = { key; seq = t.next_seq; v } in
    t.next_seq <- t.next_seq + 1;
    if t.len = Array.length t.cells then begin
      let ncap = Stdlib.min t.capacity (Stdlib.max 8 (2 * Stdlib.max 1 t.len)) in
      let ncells = Array.make ncap cell in
      Array.blit t.cells 0 ncells 0 t.len;
      t.cells <- ncells
    end;
    t.cells.(t.len) <- cell;
    t.len <- t.len + 1;
    sift_up t (t.len - 1);
    true
  end

let peek t = if t.len = 0 then None else Some (t.cells.(0).key, t.cells.(0).v)

let nonempty t = if t.len = 0 then invalid_arg "Prio_queue: empty queue"

let[@inline] min_key t =
  nonempty t;
  t.cells.(0).key

let[@inline] min_value t =
  nonempty t;
  t.cells.(0).v

let drop_min t =
  nonempty t;
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.cells.(0) <- t.cells.(t.len);
    sift_down t 0
  end

let pop t =
  if t.len = 0 then None
  else begin
    let root = t.cells.(0) in
    drop_min t;
    Some (root.key, root.v)
  end

let remove_at t i =
  let cell = t.cells.(i) in
  t.len <- t.len - 1;
  if i < t.len then begin
    t.cells.(i) <- t.cells.(t.len);
    sift_down t i;
    sift_up t i
  end;
  cell.v

let remove t pred =
  let rec find i = if i >= t.len then None else if pred t.cells.(i).v then Some i else find (i + 1) in
  match find 0 with None -> None | Some i -> Some (remove_at t i)

let mem t pred =
  let rec go i = i < t.len && (pred t.cells.(i).v || go (i + 1)) in
  go 0

let iter t f =
  for i = 0 to t.len - 1 do
    f t.cells.(i).key t.cells.(i).v
  done

let to_list t =
  let cells = Array.sub t.cells 0 t.len in
  Array.sort (fun a b -> if before a b then -1 else 1) cells;
  Array.to_list (Array.map (fun c -> (c.key, c.v)) cells)

let clear t = t.len <- 0
