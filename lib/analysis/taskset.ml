open Hrt_engine
open Hrt_core

type t = {
  config : Config.t;
  overhead_ns : Time.ns;
  tasks : Constraints.t list;
}

let make ?(config = Config.default) ?(overhead_ns = 0L) tasks =
  { config; overhead_ns; tasks }

(* The two analysis views the CLI and the serving daemon expose. The
   production view mirrors the ledger a scheduler boots with (periodic
   capacity limit, measured per-arrival overhead); the raw view asks the
   pure feasibility question (full CPU, zero overhead) — a rejection
   there with an exact certificate means no schedule exists at all. *)
let production_view ~policy ~platform tasks =
  make
    ~config:{ Config.default with Config.policy }
    ~overhead_ns:(Admission.overhead_of_platform platform)
    tasks

let raw_view ~policy tasks =
  make
    ~config:
      {
        Config.default with
        Config.policy;
        util_limit = 1.0;
        strict_reservations = false;
        sporadic_reservation = 1.0;
      }
    ~overhead_ns:0L tasks

(* Analysis-relevant view of one task as (kind, a, b). Periodic phases are
   dropped: every test assumes the synchronous (critical-instant) release
   pattern, which dominates any phasing. Sporadic deadlines are folded to
   the laxity window so two requests with equal demand shape hit the same
   cache line regardless of wall-clock anchoring. *)
type task_key = { kind : int; a : Time.ns; b : Time.ns }

let task_key = function
  | Constraints.Aperiodic _ -> { kind = 0; a = 0L; b = 0L }
  | Constraints.Periodic { period; slice; _ } ->
    { kind = 1; a = period; b = slice }
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    { kind = 2; a = size; b = Time.(deadline - phase) }

let compare_key x y =
  match Int.compare x.kind y.kind with
  | 0 -> (
    match Int64.compare x.a y.a with 0 -> Int64.compare x.b y.b | c -> c)
  | c -> c

(* The cache key, laid out here alone: the view prefix (the
   analysis-relevant config fields, the policy name length-prefixed and
   floats as their exact bits, then the overhead), then the task keys
   sorted by (kind, a, b) at 17 bytes each: the kind byte, then a and b
   as Int64 little-endian. It is injective, so it is itself the cache
   key: two sets share it only when they agree on every field the
   analysis reads. [fingerprint] and [key_of_us] both fill it through
   [write_prefix] and [set_record]. *)
let record_bytes = 17

let prefix_length cfg =
  52 + String.length (Config.policy_name cfg.Config.policy)

let write_prefix key t =
  let cfg = t.config in
  let policy = Config.policy_name cfg.Config.policy in
  let o = 1 + String.length policy in
  let bits o f = Bytes.set_int64_le key o (Int64.bits_of_float f) in
  Bytes.set_uint8 key 0 (String.length policy);
  Bytes.blit_string policy 0 key 1 (String.length policy);
  Bytes.set_uint8 key o
    (match cfg.Config.admission with
    | Config.Policy_bound -> 0
    | Config.Hyperperiod_sim -> 1);
  bits (o + 1) cfg.Config.util_limit;
  bits (o + 9) cfg.Config.sporadic_reservation;
  bits (o + 17) cfg.Config.aperiodic_reservation;
  Bytes.set_uint8 key (o + 25) (Bool.to_int cfg.Config.admission_control);
  Bytes.set_uint8 key (o + 26) (Bool.to_int cfg.Config.strict_reservations);
  Bytes.set_int64_le key (o + 27) cfg.Config.min_period;
  Bytes.set_int64_le key (o + 35) cfg.Config.min_slice;
  Bytes.set_int64_le key (o + 43) t.overhead_ns

let[@inline] set_record key ~prefix i kind a b =
  let o = prefix + (record_bytes * i) in
  Bytes.set_uint8 key o kind;
  Bytes.set_int64_le key (o + 1) a;
  Bytes.set_int64_le key (o + 9) b

let fingerprint t =
  let keys = List.sort compare_key (List.map task_key t.tasks) in
  let prefix = prefix_length t.config in
  let key = Bytes.create (prefix + (record_bytes * List.length keys)) in
  write_prefix key t;
  List.iteri (fun i k -> set_record key ~prefix i k.kind k.a k.b) keys;
  Bytes.unsafe_to_string key

let key_prefix t = fingerprint { t with tasks = [] }

(* Whether record [i] of [recs] sorts after the record (k, a, b).
   [sort_records] checks [n] once, so its accesses skip the bounds
   checks. *)
let[@inline] after (recs : int array) i k a b =
  let k' = Array.unsafe_get recs (3 * i)
  and a' = Array.unsafe_get recs ((3 * i) + 1) in
  k' > k
  || k' = k
     && (a' > a || (a' = a && Array.unsafe_get recs ((3 * i) + 2) > b))

(* Insertion sort of the first [n] records, in place: a query holds a
   few tasks, and the caller bounds [n]. Microseconds sort as the
   nanoseconds they scale to, since every field is at most
   [Int64.max_int / 1000]. *)
let sort_records (recs : int array) n =
  if n < 0 || 3 * n > Array.length recs then
    invalid_arg "Taskset.key_of_us: more records than the array holds";
  for i = 1 to n - 1 do
    let o = 3 * i in
    let k = Array.unsafe_get recs o
    and a = Array.unsafe_get recs (o + 1)
    and b = Array.unsafe_get recs (o + 2) in
    let j = ref i in
    while !j > 0 && after recs (!j - 1) k a b do
      let o = 3 * !j in
      Array.unsafe_set recs o (Array.unsafe_get recs (o - 3));
      Array.unsafe_set recs (o + 1) (Array.unsafe_get recs (o - 2));
      Array.unsafe_set recs (o + 2) (Array.unsafe_get recs (o - 1));
      decr j
    done;
    let o = 3 * !j in
    Array.unsafe_set recs o k;
    Array.unsafe_set recs (o + 1) a;
    Array.unsafe_set recs (o + 2) b
  done

let key_of_us ~prefix recs n =
  sort_records recs n;
  let p = String.length prefix in
  let key = Bytes.create (p + (record_bytes * n)) in
  Bytes.blit_string prefix 0 key 0 p;
  for i = 0 to n - 1 do
    let o = 3 * i in
    set_record key ~prefix:p i
      (Array.unsafe_get recs o)
      (Time.us (Array.unsafe_get recs (o + 1)))
      (Time.us (Array.unsafe_get recs (o + 2)))
  done;
  Bytes.unsafe_to_string key

let pp fmt t =
  Format.fprintf fmt "@[<v>%d tasks under %s (overhead %Ldns):@,%a@]"
    (List.length t.tasks)
    (Config.policy_name t.config.Config.policy)
    t.overhead_ns
    (Format.pp_print_list Constraints.pp)
    t.tasks
