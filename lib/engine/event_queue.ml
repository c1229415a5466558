(* Indexed binary min-heap over a free-list entry pool.

   Entries are ordered by (tick, seq). Every insertion takes a fresh,
   larger seq, so two entries at one tick leave in insertion order and
   no two entries compare equal: the order is total, and any heap that
   pops by it pops one and the same sequence whatever its shape. That
   is why this queue's pop sequence is the reference heap's
   (test/heap_queue.ml), which the differential property checks. Ticks
   below the last popped one (past adds) and ticks far ahead need no
   special case.

   Entries live in a structure-of-arrays pool recycled through a free
   list: steady-state add/take traffic allocates nothing. Each entry
   records its heap position, so a cancel removes it at once wherever it
   sits and the queue holds only its live entries plus the one in
   flight. Handles pack the pool index with a generation counter that is
   bumped whenever the slot is freed, so a stale handle's cancel is a
   safe no-op. *)

(* The whole module is engine hot path: steady-state add/take/defer
   traffic must stay allocation-free (see DESIGN.md section 10). The few
   allocating conveniences are marked [@@hrt.cold]. *)
[@@@hrt.hot]

type handle = int

let none = -1

(* Handle layout: low [idx_bits] bits are the pool index, the rest is the
   generation (wrapping). The pool doubles up to 2^20 entries, far beyond
   any simulated machine here; [add] fails hard past that. *)
let idx_bits = 21
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl (62 - idx_bits)) - 1

(* [e_pos] is a heap position (>= 0) while the entry is queued, else: *)
let p_free = -1
let p_inflight = -2 (* taken by the engine, not yet finished *)

type 'a t = {
  dummy : 'a;
  (* entry pool (structure of arrays) *)
  mutable e_time : int array; (* tick *)
  mutable e_seq : int array;
  mutable e_gen : int array;
  mutable e_pos : int array;
  mutable e_next : int array; (* free-list link *)
  mutable e_payload : 'a array;
  mutable cap : int;
  mutable free_head : int;
  (* [heap.(0) .. heap.(len - 1)]: pool indices in (tick, seq) heap
     order, so [heap.(0)] is the next to fire. *)
  mutable heap : int array;
  mutable len : int;
  mutable next_seq : int;
}

let no_tick = min_int

(* Ticks are plain ints: engine times are int64 nanoseconds, but every
   simulation runs far inside the 62-bit range and unboxed comparisons
   are what make the hot path cheap. *)
let tick_limit = 1 lsl 61

let tick_of_time time =
  let t = Int64.to_int time in
  if
    t >= tick_limit || t <= -tick_limit
    || not (Int64.equal (Int64.of_int t) time)
  then invalid_arg "Event_queue: time out of range"
  else t

let[@hrt.cold] create ~dummy =
  {
    dummy;
    e_time = [||];
    e_seq = [||];
    e_gen = [||];
    e_pos = [||];
    e_next = [||];
    e_payload = [||];
    cap = 0;
    free_head = -1;
    heap = [||];
    len = 0;
    next_seq = 0;
  }

(* ---- entry pool ---- *)

let[@hrt.cold] grow_pool t =
  let ncap = if t.cap = 0 then 64 else t.cap * 2 in
  if ncap > idx_mask then failwith "Event_queue: entry pool exhausted";
  let ext a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 t.cap;
    n
  in
  t.e_time <- ext t.e_time 0;
  t.e_seq <- ext t.e_seq 0;
  t.e_gen <- ext t.e_gen 0;
  t.e_pos <- ext t.e_pos p_free;
  t.e_next <- ext t.e_next (-1);
  t.e_payload <- ext t.e_payload t.dummy;
  (* The heap never holds more entries than the pool. *)
  t.heap <- ext t.heap (-1);
  (* Chain the new slots onto the free list, lowest index first. *)
  for i = ncap - 1 downto t.cap do
    t.e_next.(i) <- t.free_head;
    t.free_head <- i
  done;
  t.cap <- ncap

let alloc_entry t =
  if t.free_head < 0 then grow_pool t;
  let i = t.free_head in
  t.free_head <- t.e_next.(i);
  i

let free_entry t i =
  t.e_gen.(i) <- (t.e_gen.(i) + 1) land gen_mask;
  t.e_payload.(i) <- t.dummy;
  t.e_pos.(i) <- p_free;
  t.e_next.(i) <- t.free_head;
  t.free_head <- i

let mk_handle t i = i lor (t.e_gen.(i) lsl idx_bits)

let decode t h =
  let i = h land idx_mask in
  if h >= 0 && i < t.cap && t.e_gen.(i) = h lsr idx_bits then i else -1

(* ---- the heap ---- *)

let[@inline] earlier t i j =
  t.e_time.(i) < t.e_time.(j)
  || (t.e_time.(i) = t.e_time.(j) && t.e_seq.(i) < t.e_seq.(j))

let[@inline] put t p i =
  t.heap.(p) <- i;
  t.e_pos.(i) <- p

(* Fill the hole at [p] with entry [i], moving the hole up past every
   ancestor that [i] precedes. *)
let rec sift_up t p i =
  if p = 0 then put t 0 i
  else begin
    let parent = (p - 1) / 2 in
    let j = t.heap.(parent) in
    if earlier t i j then begin
      put t p j;
      sift_up t parent i
    end
    else put t p i
  end

(* Move the hole at [p] down to a leaf, lifting the lesser child into it
   at each level; returns the leaf. One comparison per level, where a
   sift-down of the last entry needs two. *)
let rec descend t p =
  let l = (2 * p) + 1 in
  if l >= t.len then p
  else begin
    let c =
      if l + 1 < t.len && earlier t t.heap.(l + 1) t.heap.(l) then l + 1 else l
    in
    put t p t.heap.(c);
    descend t c
  end

(* Remove the entry at heap position [p]: its hole descends to a leaf,
   and the last entry fills that leaf and sifts up, past [p] too if it
   precedes [p]'s ancestors (a cancel deep in another subtree). *)
let remove_at t p =
  let last = t.len - 1 in
  t.len <- last;
  if p < last then begin
    let i = t.heap.(last) in
    sift_up t (descend t p) i
  end

(* Queue entry [i] at [tick] behind everything already queued there. *)
let enqueue t i tick =
  t.e_time.(i) <- tick;
  t.e_seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  let p = t.len in
  t.len <- p + 1;
  sift_up t p i

(* ---- public api ---- *)

let size t = t.len
let is_empty t = t.len = 0

let add t ~time payload =
  let tick = tick_of_time time in
  let i = alloc_entry t in
  t.e_payload.(i) <- payload;
  enqueue t i tick;
  mk_handle t i

let cancel t h =
  let i = decode t h in
  (* In-flight and freed entries hold no heap position: no-op. *)
  if i >= 0 && t.e_pos.(i) >= 0 then begin
    remove_at t t.e_pos.(i);
    free_entry t i
  end

let is_live t h =
  let i = decode t h in
  i >= 0 && t.e_pos.(i) >= 0

let entry_time t h =
  let i = decode t h in
  if i < 0 then invalid_arg "Event_queue.entry_time: stale handle"
  else Int64.of_int t.e_time.(i)

let next_tick t = if t.len = 0 then no_tick else t.e_time.(t.heap.(0))

let[@hrt.cold] peek_time t =
  if t.len = 0 then None else Some (Int64.of_int t.e_time.(t.heap.(0)))

let take t =
  if t.len = 0 then none
  else begin
    let i = t.heap.(0) in
    remove_at t 0;
    t.e_pos.(i) <- p_inflight;
    mk_handle t i
  end

let inflight_tick t h = t.e_time.(h land idx_mask)
let payload t h = t.e_payload.(h land idx_mask)

let finish t h = free_entry t (h land idx_mask)

let defer_inflight t h ~time =
  (* Re-queue a taken entry (engine freeze deferral / busy-window
     gating) with a fresh sequence number but the SAME generation: the
     handle the owner holds stays valid, so a later precise cancel still
     reaches the deferred event. *)
  enqueue t (h land idx_mask) (tick_of_time time)

let[@hrt.cold] pop t =
  let h = take t in
  if h < 0 then None
  else begin
    let i = h land idx_mask in
    let p = t.e_payload.(i) in
    let time = Int64.of_int t.e_time.(i) in
    finish t h;
    Some (time, p)
  end
