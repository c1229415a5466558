type t = {
  capacity : int;
  mutable ring : float array;
  mutable len : int;  (* samples held *)
  mutable next : int;  (* slot the next sample overwrites once full *)
  mutable sorted : Percentile.t option;  (* the held samples; [add] drops it *)
}

let create ~capacity =
  let capacity = Stdlib.max 1 capacity in
  {
    capacity;
    ring = Array.make (Stdlib.min 64 capacity) 0.;
    len = 0;
    next = 0;
    sorted = None;
  }

let add t x =
  if Float.is_nan x then invalid_arg "Window.add: NaN sample";
  if t.len < t.capacity then begin
    if t.len = Array.length t.ring then begin
      let ring = Array.make (Stdlib.min t.capacity (2 * t.len)) 0. in
      Array.blit t.ring 0 ring 0 t.len;
      t.ring <- ring
    end;
    t.ring.(t.len) <- x;
    t.len <- t.len + 1
  end
  else begin
    t.ring.(t.next) <- x;
    t.next <- (t.next + 1) mod t.capacity
  end;
  t.sorted <- None

let count t = t.len

let value t p =
  let sorted =
    match t.sorted with
    | Some s -> s
    | None ->
      let s = Percentile.of_array (Array.sub t.ring 0 t.len) in
      t.sorted <- Some s;
      s
  in
  Percentile.value sorted p
