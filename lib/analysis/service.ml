open Hrt_par

(* Shard choice folds the key's own bytes, eight at a time, instead of
   [Hashtbl.hash], so the mapping is fixed by the key alone — stable
   across runs, domains, and compiler versions. The final shift brings
   the high bits, which every byte reaches through the multiplications,
   down to the low bits the modulus reads. *)
let rec fold_key key i h =
  let n = String.length key in
  if i + 8 <= n then
    fold_key key (i + 8)
      ((h lxor Int64.to_int (String.get_int64_le key i)) * 0x100000001b3)
  else if i < n then
    fold_key key (i + 1) ((h lxor Char.code key.[i]) * 0x100000001b3)
  else h lxor (h lsr 32)

(* A shard's table compares keys with [String.equal], not the
   polymorphic compare of the generic [Hashtbl]. Its hash mixes
   [fold_key] once more: every key of a shard agrees on [fold_key mod
   shards], so without the mix they would share those low bits and
   crowd into a fraction of the buckets. *)
module Table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash key =
    let h = fold_key key 0 0 in
    let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

type shard = {
  table : Oracle.result Table.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
}

type t = {
  shards : shard array;
  capacity : int;  (* per shard *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(shards = 8) ?(capacity = 1024) () =
  let shards = Stdlib.max 1 (Stdlib.min 64 shards) in
  {
    shards =
      Array.init shards (fun _ ->
          { table = Table.create 64; order = Queue.create () });
    capacity = Stdlib.max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let shard_of t key =
  t.shards.((fold_key key 0 0 land max_int) mod Array.length t.shards)

(* Insert a key that just missed, evicting the shard's oldest key at
   capacity. Only a miss inserts, so [order] holds each resident key
   exactly once and a full table never meets an empty queue. *)
let insert t s key r =
  if Table.length s.table >= t.capacity then begin
    Table.remove s.table (Queue.take s.order);
    t.evictions <- t.evictions + 1
  end;
  Table.replace s.table key r;
  Queue.push key s.order

let find t key =
  match Table.find_opt (shard_of t key).table key with
  | Some _ as r ->
    t.hits <- t.hits + 1;
    r
  | None -> None

let query t ts =
  let key = Taskset.fingerprint ts in
  match find t key with
  | Some r -> r
  | None ->
    t.misses <- t.misses + 1;
    let r = Oracle.analyze ts in
    insert t (shard_of t key) key r;
    r

let sequential = Par.Pool.create ~jobs:1

(* Hits are answered while the batch is scanned; a repeat of a key the
   batch already missed is handed that analysis and counts a hit. The
   distinct misses are then analyzed, over the [pool]'s domains when one
   is given (the oracle is pure), and inserted here in the order the
   batch first named them. Hits, misses, inserts and evictions therefore
   depend on the batch and the cache it met, never on the pool. *)
let batch ?(pool = sequential) t tasksets =
  let missed = Table.create 8 in
  let todo = ref [] in
  let answers =
    List.map
      (fun ts ->
        let key = Taskset.fingerprint ts in
        match find t key with
        | Some r -> Either.Left r
        | None -> (
          match Table.find_opt missed key with
          | Some i ->
            t.hits <- t.hits + 1;
            Either.Right i
          | None ->
            let i = Table.length missed in
            Table.replace missed key i;
            todo := (shard_of t key, key, ts) :: !todo;
            Either.Right i))
      tasksets
  in
  let todo = Array.of_list (List.rev !todo) in
  t.misses <- t.misses + Array.length todo;
  let computed = Par.map pool (fun (_, _, ts) -> Oracle.analyze ts) todo in
  Array.iteri (fun i (s, key, _) -> insert t s key computed.(i)) todo;
  List.map (Either.fold ~left:Fun.id ~right:(Array.get computed)) answers

type stats = { hits : int; misses : int; evictions : int; entries : int }

let entries t =
  Array.fold_left (fun acc s -> acc + Table.length s.table) 0 t.shards

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; entries = entries t }

let register_probes (t : t) sink =
  let gauge name read = Hrt_obs.Sink.add_probe sink ~name read in
  gauge "admit.cache.hits" (fun () -> float_of_int t.hits);
  gauge "admit.cache.misses" (fun () -> float_of_int t.misses);
  gauge "admit.cache.evictions" (fun () -> float_of_int t.evictions);
  gauge "admit.cache.entries" (fun () -> float_of_int (entries t))
