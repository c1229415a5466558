open Hrt_par

(* One in-flight analysis: the first domain to miss on a key computes
   while every later domain waits on the condition instead of repeating
   the work (single-flight). [Abandoned] covers the computing domain
   dying with an exception — waiters then retry from scratch. *)
type flight = {
  fmu : Mutex.t;
  fcv : Condition.t;
  mutable outcome : flight_outcome;
}

and flight_outcome = Running | Done of Oracle.result | Abandoned

type shard = {
  lock : Mutex.t;
  table : (string, Oracle.result) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  inflight : (string, flight) Hashtbl.t;
}

type t = {
  shards : shard array;
  capacity : int;  (* per shard *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(shards = 8) ?(capacity = 1024) () =
  let shards = Stdlib.max 1 (Stdlib.min 64 shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 64;
            order = Queue.create ();
            inflight = Hashtbl.create 8;
          });
    capacity = Stdlib.max 1 capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

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

let shard_of t key =
  t.shards.((fold_key key 0 0 land max_int) mod Array.length t.shards)

(* Insert under the shard lock, evicting FIFO at capacity. Single-flight
   guarantees one insert per distinct computation, so the eviction queue
   carries exactly one entry per resident key. *)
let insert t s key r =
  if not (Hashtbl.mem s.table key) then begin
    if Hashtbl.length s.table >= t.capacity then begin
      match Queue.take_opt s.order with
      | Some victim ->
        Hashtbl.remove s.table victim;
        Atomic.incr t.evictions
      | None -> ()
    end;
    Hashtbl.replace s.table key r;
    Queue.push key s.order
  end

let rec query_key t s key ts =
  let role =
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some r -> `Hit r
        | None -> (
          match Hashtbl.find_opt s.inflight key with
          | Some f -> `Wait f
          | None ->
            let f =
              { fmu = Mutex.create (); fcv = Condition.create (); outcome = Running }
            in
            Hashtbl.replace s.inflight key f;
            `Compute f))
  in
  match role with
  | `Hit r ->
    Atomic.incr t.hits;
    r
  | `Wait f -> (
    (* Single-flight: a peer domain is already running this analysis;
       wait for its result instead of repeating the work. The waiter
       counts a hit — the result is served from (about-to-be) cache — so
       hit/miss totals are identical at any job count. *)
    let outcome =
      Mutex.protect f.fmu (fun () ->
          while f.outcome = Running do
            Condition.wait f.fcv f.fmu
          done;
          f.outcome)
    in
    match outcome with
    | Done r ->
      Atomic.incr t.hits;
      r
    | Running | Abandoned -> query_key t s key ts)
  | `Compute f -> (
    (* One miss per distinct computation, counted by the domain that
       actually runs the oracle. Analyze outside the shard lock: peers on
       other keys proceed, peers on this key wait on [f]. *)
    Atomic.incr t.misses;
    match Oracle.analyze ts with
    | r ->
      Mutex.protect s.lock (fun () ->
          insert t s key r;
          Hashtbl.remove s.inflight key);
      Mutex.protect f.fmu (fun () -> f.outcome <- Done r);
      Condition.broadcast f.fcv;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect s.lock (fun () -> Hashtbl.remove s.inflight key);
      Mutex.protect f.fmu (fun () -> f.outcome <- Abandoned);
      Condition.broadcast f.fcv;
      Printexc.raise_with_backtrace e bt)

let query t ts =
  let key = Taskset.fingerprint ts in
  let s = shard_of t key in
  query_key t s key ts

(* Hits are answered on the calling domain: fingerprint, shard, one
   lookup under the shard lock. Only the distinct missed keys go on to
   [query_key], fanned over the pool ([Par.map] spawns nothing for fewer
   than two), so an all-hit batch never leaves this domain. A repeat of a
   key the batch already analyzes is handed that result and counts a hit,
   as a single-flight waiter would; hits, misses and inserts therefore
   depend on the batch and the cache it met, never on the job count. *)
let batch ?pool t tasksets =
  let missed = Hashtbl.create 8 in
  let todo = ref [] in
  let answers =
    List.map
      (fun ts ->
        let key = Taskset.fingerprint ts in
        let s = shard_of t key in
        let cached =
          Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table key)
        in
        match cached with
        | Some r ->
          Atomic.incr t.hits;
          Either.Left r
        | None -> (
          match Hashtbl.find_opt missed key with
          | Some i ->
            Atomic.incr t.hits;
            Either.Right i
          | None ->
            let i = Hashtbl.length missed in
            Hashtbl.replace missed key i;
            todo := (s, key, ts) :: !todo;
            Either.Right i))
      tasksets
  in
  let todo = Array.of_list (List.rev !todo) in
  let analyze (s, key, ts) = query_key t s key ts in
  let computed =
    match pool with
    | Some pool -> Par.map pool analyze todo
    | None -> Array.map analyze todo
  in
  List.map (Either.fold ~left:Fun.id ~right:(Array.get computed)) answers

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats t =
  let entries =
    Array.fold_left
      (fun acc s ->
        acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.table))
      0 t.shards
  in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    entries;
  }

let register_probes (t : t) sink =
  let gauge name read = Hrt_obs.Sink.add_probe sink ~name read in
  gauge "admit.cache.hits" (fun () -> float_of_int (Atomic.get t.hits));
  gauge "admit.cache.misses" (fun () -> float_of_int (Atomic.get t.misses));
  gauge "admit.cache.evictions" (fun () ->
      float_of_int (Atomic.get t.evictions));
  gauge "admit.cache.entries" (fun () -> float_of_int (stats t).entries)
