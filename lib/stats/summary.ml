(* Every field is a float, count included (exact below 2^53), so the
   record is stored flat: updating it boxes nothing. With an int field in
   the record, each of [add]'s five float stores would allocate a box. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0.; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  if Float.is_nan x then invalid_arg "Summary.add: NaN sample";
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let add_int64 t x = add t (Int64.to_float x)

let count t = int_of_float t.n
let mean t = if t.n < 1. then 0. else t.mean
let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
let stddev t = sqrt (variance t)
let min t = t.min
let max t = t.max
let total t = t.total

let merge a b =
  if a.n < 1. then { b with n = b.n }
  else if b.n < 1. then { a with n = a.n }
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
    {
      n;
      mean;
      m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let pp fmt t =
  Format.fprintf fmt "mean=%.2f std=%.2f min=%.2f max=%.2f n=%d" (mean t)
    (stddev t) t.min t.max (count t)
