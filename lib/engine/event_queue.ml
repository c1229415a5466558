(* Hierarchical timing wheel with a free-list entry pool.

   Geometry: 4 levels x 256 slots, 8 bits per level, 1 ns per level-0
   slot. An entry whose tick shares the current cursor's 2^(8(L+1))-window
   but not its 2^(8L)-window lives at level L; a level-0 slot therefore
   holds exactly one tick value, so appending to the slot list keeps the
   (time, seq) FIFO order without any per-slot sorting. Events beyond the
   wheel's 2^32 ns horizon and events added in the past (the cursor only
   moves forward) sit in one binary heap beside it. The minimum is the
   (tick, seq)-lesser of the wheel's head and the heap's root, so the pop
   sequence is identical to a single (time, seq) heap.

   Entries live in a structure-of-arrays pool recycled through a free
   list: steady-state add/pop traffic allocates nothing. Handles pack the
   pool index with a generation counter that is bumped whenever the slot
   is freed or re-targeted, so a stale handle's cancel is a safe no-op.

   Cancellation is O(1) and precise for wheel entries (doubly-linked slot
   lists); entries inside the heap are cancelled lazily (marked dead,
   reclaimed when they surface), exactly like the reference heap. *)

(* The whole module is engine hot path: steady-state add/take/defer
   traffic must stay allocation-free (see DESIGN.md section 10). The few
   allocating conveniences are marked [@@hrt.cold]. *)
[@@@hrt.hot]

type handle = int

let none = -1

(* Handle layout: low [idx_bits] bits are the pool index, the rest is the
   generation (wrapping). 2^21 simultaneous events is far beyond any
   simulated machine here; [add] fails hard if the pool would exceed it. *)
let idx_bits = 21
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl (62 - idx_bits)) - 1

let levels = 4
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits (* 256 *)
let wheel_slots = levels * slots_per_level

(* [where] codes: a wheel slot id >= 0, or one of: *)
let w_free = -1
let w_heap = -2 (* live, in the heap (overdue or beyond the horizon) *)
let w_dead = -3 (* cancelled, still buried in the heap *)
let w_inflight = -4 (* taken by the engine, not yet finished *)

type 'a t = {
  dummy : 'a;
  (* entry pool (structure of arrays) *)
  mutable e_time : int array; (* tick *)
  mutable e_seq : int array;
  mutable e_gen : int array;
  mutable e_prev : int array;
  mutable e_next : int array; (* doubles as the free-list link *)
  mutable e_where : int array;
  mutable e_payload : 'a array;
  mutable cap : int;
  mutable free_head : int;
  (* wheel *)
  mutable cur : int; (* cursor tick: last dispatched position *)
  head : int array; (* per-slot list head, -1 when empty *)
  tail : int array;
  occ : int array; (* occupancy bitmap, 32 slots per word *)
  mutable wheel_count : int;
  (* heap of pool indices ordered by (tick, seq), lazily cleaned *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable next_seq : int;
  mutable live : int;
  (* [find_min]'s answer, or [no_min] when it must be searched again. The
     engine asks for the minimum twice per event ([next_tick], then
     [take]); anything that can change the answer resets it. *)
  mutable min_entry : int;
}

let no_min = -2

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
    e_prev = [||];
    e_next = [||];
    e_where = [||];
    e_payload = [||];
    cap = 0;
    free_head = -1;
    cur = 0;
    head = Array.make wheel_slots (-1);
    tail = Array.make wheel_slots (-1);
    occ = Array.make (wheel_slots / 32) 0;
    wheel_count = 0;
    heap = [||];
    heap_len = 0;
    next_seq = 0;
    live = 0;
    min_entry = no_min;
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
  t.e_prev <- ext t.e_prev (-1);
  t.e_next <- ext t.e_next (-1);
  t.e_where <- ext t.e_where w_free;
  t.e_payload <- ext t.e_payload t.dummy;
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
  t.e_where.(i) <- w_free;
  t.e_next.(i) <- t.free_head;
  t.free_head <- i

let mk_handle t i = i lor (t.e_gen.(i) lsl idx_bits)

let decode t h =
  let i = h land idx_mask in
  if h >= 0 && i < t.cap && t.e_gen.(i) = h lsr idx_bits then i else -1

(* ---- (tick, seq) order ---- *)

let earlier t i j =
  t.e_time.(i) < t.e_time.(j)
  || (t.e_time.(i) = t.e_time.(j) && t.e_seq.(i) < t.e_seq.(j))

(* ---- int-index binary heap (overdue and beyond-horizon entries) ---- *)

let heap_push t i =
  let len = t.heap_len in
  if Array.length t.heap <= len then begin
    let n = Array.make (if len = 0 then 16 else 2 * len) (-1) in
    Array.blit t.heap 0 n 0 len;
    t.heap <- n
  end;
  let a = t.heap in
  a.(len) <- i;
  t.heap_len <- len + 1;
  let pos = ref len in
  while
    !pos > 0
    &&
    let p = (!pos - 1) / 2 in
    earlier t a.(!pos) a.(p)
  do
    let p = (!pos - 1) / 2 in
    let tmp = a.(!pos) in
    a.(!pos) <- a.(p);
    a.(p) <- tmp;
    pos := p
  done

let rec heap_sift_down t a len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < len && earlier t a.(l) a.(!m) then m := l;
  if r < len && earlier t a.(r) a.(!m) then m := r;
  if !m <> i then begin
    let tmp = a.(i) in
    a.(i) <- a.(!m);
    a.(!m) <- tmp;
    heap_sift_down t a len !m
  end

let heap_pop_root t =
  let i = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  if t.heap_len > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_len);
    heap_sift_down t t.heap t.heap_len 0
  end;
  i

(* Drop cancelled entries off the heap top so the root is live (or the
   heap empty). Dead entries are only reclaimed here: their pool slot must
   not be reused while their index is still buried in the heap array. *)
let rec heap_clean t =
  if t.heap_len > 0 && t.e_where.(t.heap.(0)) = w_dead then begin
    free_entry t (heap_pop_root t);
    heap_clean t
  end

(* ---- wheel slots ---- *)

let occ_set t s = t.occ.(s lsr 5) <- t.occ.(s lsr 5) lor (1 lsl (s land 31))

let occ_clear t s =
  t.occ.(s lsr 5) <- t.occ.(s lsr 5) land lnot (1 lsl (s land 31))

let ntz8 =
  (* Number of trailing zeros for each byte value 1..255. *)
  let a = Bytes.make 256 '\000' in
  for i = 1 to 255 do
    let n = ref 0 in
    while i land (1 lsl !n) = 0 do
      incr n
    done;
    Bytes.set a i (Char.chr !n)
  done;
  a
[@@hrt.unsynchronized
  "write-once lookup table, fully initialized at module load before any \
   domain is spawned; read-only afterwards"]

let ntz32 w =
  if w land 0xff <> 0 then Char.code (Bytes.get ntz8 (w land 0xff))
  else if w land 0xff00 <> 0 then
    8 + Char.code (Bytes.get ntz8 ((w lsr 8) land 0xff))
  else if w land 0xff0000 <> 0 then
    16 + Char.code (Bytes.get ntz8 ((w lsr 16) land 0xff))
  else 24 + Char.code (Bytes.get ntz8 ((w lsr 24) land 0xff))

(* Word-scan helper for [next_occupied], toplevel so the hot path builds
   no closure. *)
let rec scan_words t whi hi w =
  if w > whi then -1
  else if t.occ.(w) <> 0 then
    let s = (w lsl 5) + ntz32 t.occ.(w) in
    if s <= hi then s else -1
  else scan_words t whi hi (w + 1)

(* First occupied slot id in [lo, hi] (global slot ids), or -1. *)
let next_occupied t lo hi =
  if lo > hi then -1
  else begin
    let w0 = lo lsr 5 and whi = hi lsr 5 in
    let first = t.occ.(w0) lsr (lo land 31) in
    if first <> 0 then lo + ntz32 first
    else scan_words t whi hi (w0 + 1)
  end

let slot_append t s i =
  t.e_where.(i) <- s;
  t.e_next.(i) <- -1;
  let tl = t.tail.(s) in
  if tl < 0 then begin
    t.e_prev.(i) <- -1;
    t.head.(s) <- i;
    t.tail.(s) <- i;
    occ_set t s
  end
  else begin
    t.e_prev.(i) <- tl;
    t.e_next.(tl) <- i;
    t.tail.(s) <- i
  end;
  t.wheel_count <- t.wheel_count + 1

let slot_unlink t i =
  let s = t.e_where.(i) in
  let p = t.e_prev.(i) and n = t.e_next.(i) in
  if p >= 0 then t.e_next.(p) <- n else t.head.(s) <- n;
  if n >= 0 then t.e_prev.(n) <- p else t.tail.(s) <- p;
  if t.head.(s) < 0 then occ_clear t s;
  t.wheel_count <- t.wheel_count - 1

(* Place a live entry relative to the cursor. Level selection is by
   window equality (which byte of the tick differs from the cursor's), so
   within one level indices never wrap: scans always run upward. *)
let place t i =
  let tick = t.e_time.(i) in
  if tick < t.cur then begin
    t.e_where.(i) <- w_heap;
    heap_push t i
  end
  else if tick lsr slot_bits = t.cur lsr slot_bits then
    slot_append t (tick land 0xff) i
  else if tick lsr 16 = t.cur lsr 16 then
    slot_append t (slots_per_level + ((tick lsr 8) land 0xff)) i
  else if tick lsr 24 = t.cur lsr 24 then
    slot_append t ((2 * slots_per_level) + ((tick lsr 16) land 0xff)) i
  else if tick lsr 32 = t.cur lsr 32 then
    slot_append t ((3 * slots_per_level) + ((tick lsr 24) land 0xff)) i
  else begin
    t.e_where.(i) <- w_heap;
    heap_push t i
  end

(* Move every entry of a level-[lvl] slot down, after advancing the
   cursor to the slot's window base. Iterating in list order re-appends
   equal-tick entries in their original (seq) order. *)
let cascade t lvl s =
  let within = s land 0xff in
  let mask_above = -1 lsl (8 * (lvl + 1)) in
  let base = (t.cur land mask_above) lor (within lsl (8 * lvl)) in
  t.cur <- base;
  let i = ref t.head.(s) in
  t.head.(s) <- -1;
  t.tail.(s) <- -1;
  occ_clear t s;
  while !i >= 0 do
    let n = t.e_next.(!i) in
    t.wheel_count <- t.wheel_count - 1;
    place t !i;
    i := n
  done

(* Minimum live wheel entry (pool index), cascading upper-level slots as
   needed; -1 when the wheel is empty. The cursor only ever advances to
   window bases at or below the minimum tick, so placement of later adds
   stays consistent. *)
(* First occupied slot strictly after the cursor's position at [lvl],
   toplevel so [wheel_min] builds no closure. *)
let lvl_scan t lvl =
  let base = lvl * slots_per_level in
  let idx = (t.cur lsr (8 * lvl)) land 0xff in
  next_occupied t (base + idx + 1) (base + slots_per_level - 1)

let rec wheel_min t =
  if t.wheel_count = 0 then -1
  else begin
    match next_occupied t (t.cur land 0xff) (slots_per_level - 1) with
    | s when s >= 0 -> t.head.(s)
    | _ -> (
      match lvl_scan t 1 with
      | s when s >= 0 ->
        cascade t 1 s;
        wheel_min t
      | _ -> (
        match lvl_scan t 2 with
        | s when s >= 0 ->
          cascade t 2 s;
          wheel_min t
        | _ -> (
          match lvl_scan t 3 with
          | s when s >= 0 ->
            cascade t 3 s;
            wheel_min t
          | _ -> -1)))
  end

(* ---- minimum selection across the wheel and the heap ---- *)

(* The minimum is the (tick, seq)-lesser of the wheel's head and the
   heap's root. Overdue ticks are always below the cursor and wheel ticks
   at or above it, but a beyond-horizon entry needs a real comparison
   both ways: the heap keeps entries whose 2^32 window the cursor has
   since reached (they are never migrated into the wheel) and can even
   hold ticks the cursor has passed (its page jumped over them), which
   must still beat a later overdue entry. *)
let search_min t =
  heap_clean t;
  let best = wheel_min t in
  if t.heap_len > 0 && (best < 0 || earlier t t.heap.(0) best) then t.heap.(0)
  else best

(* A repeated search with no mutation in between returns the same entry:
   the first one already cleaned the heap tops and did the cascades. *)
let find_min t =
  if t.min_entry = no_min then t.min_entry <- search_min t;
  t.min_entry

let invalidate_min t = t.min_entry <- no_min

let remove_min t i =
  (* [i] must be the entry [find_min] returned. The cursor never moves
     backwards: a pop below it (overdue, or a passed-over far tick)
     leaves it in place, so the placement of existing wheel entries stays
     consistent with future scans. *)
  match t.e_where.(i) with
  | w when w >= 0 ->
    slot_unlink t i;
    t.cur <- t.e_time.(i)
  | w when w = w_heap ->
    ignore (heap_pop_root t : int);
    if t.e_time.(i) > t.cur then t.cur <- t.e_time.(i)
  | _ -> assert false

(* ---- public api ---- *)

let size t = t.live
let is_empty t = t.live = 0

let add t ~time payload =
  let tick = tick_of_time time in
  invalidate_min t;
  let i = alloc_entry t in
  t.e_time.(i) <- tick;
  t.e_seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.e_payload.(i) <- payload;
  place t i;
  t.live <- t.live + 1;
  mk_handle t i

let cancel t h =
  let i = decode t h in
  if i >= 0 then begin
    invalidate_min t;
    let w = t.e_where.(i) in
    if w >= 0 then begin
      slot_unlink t i;
      t.live <- t.live - 1;
      free_entry t i
    end
    else if w = w_heap then begin
      (* Lazy: the index stays buried in its heap; mark it dead, release
         the payload now, bump the generation so the handle dies. *)
      t.e_where.(i) <- w_dead;
      t.e_payload.(i) <- t.dummy;
      t.e_gen.(i) <- (t.e_gen.(i) + 1) land gen_mask;
      t.live <- t.live - 1
    end
    (* w_inflight / w_dead / w_free: no-op *)
  end

let is_live t h =
  let i = decode t h in
  i >= 0 && (t.e_where.(i) >= 0 || t.e_where.(i) = w_heap)

let entry_time t h =
  let i = decode t h in
  if i < 0 then invalid_arg "Event_queue.entry_time: stale handle"
  else Int64.of_int t.e_time.(i)

let next_tick t =
  let i = find_min t in
  if i < 0 then no_tick else t.e_time.(i)

let[@hrt.cold] peek_time t =
  let i = find_min t in
  if i < 0 then None else Some (Int64.of_int t.e_time.(i))

let take t =
  let i = find_min t in
  if i < 0 then none
  else begin
    invalidate_min t;
    remove_min t i;
    t.e_where.(i) <- w_inflight;
    t.live <- t.live - 1;
    mk_handle t i
  end

let inflight_tick t h = t.e_time.(h land idx_mask)
let payload t h = t.e_payload.(h land idx_mask)

let finish t h =
  let i = h land idx_mask in
  free_entry t i

let defer_inflight t h ~time =
  (* Re-insert a taken entry (engine freeze deferral / busy-window
     gating) with a fresh sequence number but the SAME generation: the
     handle the owner holds stays valid, so a later precise cancel still
     reaches the deferred event. *)
  let i = h land idx_mask in
  t.e_time.(i) <- tick_of_time time;
  invalidate_min t;
  t.e_seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  place t i;
  t.live <- t.live + 1

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
