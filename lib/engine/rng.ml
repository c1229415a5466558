(* The splitmix64 state lives in an 8-byte buffer read and written with
   [Bytes.get_int64_ne]/[set_int64_ne]: a [mutable state : int64] field
   would box every new state and pay [caml_modify] on each draw. With the
   draw functions inlined, a cost sample's int64 and float stay unboxed
   from the state word to the caller's arithmetic. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = create (next t)

let[@inline] float t =
  (* 53 random bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

(* Uniform in [0, span) from 63 random bits, without modulo bias: draws
   landing in the incomplete final copy of [0, span) at the top of the
   2^63 range are rejected and redrawn. [Int64.min_int] read as an
   unsigned quantity is exactly 2^63, so [unsigned_rem min_int span] is
   2^63 mod span, and [min_int - rem] is the (positive, representable)
   rejection threshold 2^63 - rem. Accepted draws return the same value
   the old biased code did, so existing seeded streams are preserved
   except on the (astronomically rare, span/2^63) rejected draw. *)
let bounded t span =
  let rem = Int64.unsigned_rem Int64.min_int span in
  let rec draw () =
    let bits = Int64.shift_right_logical (next t) 1 in
    if Int64.equal rem 0L then bits
    else if Int64.compare bits (Int64.sub Int64.min_int rem) >= 0 then draw ()
    else bits
  in
  Int64.rem (draw ()) span

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  Int64.to_int (bounded t (Int64.of_int n))

let range_ns t lo hi =
  if not Time.(lo < hi) then invalid_arg "Rng.range_ns";
  Int64.add lo (bounded t (Int64.sub hi lo))

(* The retry is a [while] loop, not a local [let rec]: without flambda a
   local function keeps [gaussian] from being inlined, and every cost
   sample would then return a boxed float. *)
let[@inline] gaussian t ~mu ~sigma =
  let u1 = ref (float t) in
  while !u1 <= 1e-300 do
    u1 := float t
  done;
  let u2 = float t in
  let r = sqrt (-2. *. log !u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~mean =
  let rec draw () =
    let u = float t in
    if u <= 1e-300 then draw () else u
  in
  -.mean *. log (draw ())
