open Hrt_stats

type t = {
  ghz : float;
  irq : Summary.t;
  other : Summary.t;
  resched : Summary.t;
  switch : Summary.t;
  miss_times : Summary.t;
  mutable invocations : int;
  mutable arrivals : int;
  mutable misses : int;
  mutable kicks : int;
  mutable steals : int;
}

let create ~ghz =
  {
    ghz;
    irq = Summary.create ();
    other = Summary.create ();
    resched = Summary.create ();
    switch = Summary.create ();
    miss_times = Summary.create ();
    invocations = 0;
    arrivals = 0;
    misses = 0;
    kicks = 0;
    steals = 0;
  }

(* Inlined into the scheduler pass, so the four overhead draws reach the
   summaries without being boxed on the way in. *)
let[@inline] cycles t ns = Int64.to_float ns *. t.ghz

let[@inline] record_invocation t ~irq_ns ~other_ns ~pass_ns ~switch_ns =
  t.invocations <- t.invocations + 1;
  Summary.add t.irq (cycles t irq_ns);
  Summary.add t.other (cycles t other_ns);
  Summary.add t.resched (cycles t pass_ns);
  if Int64.compare switch_ns 0L > 0 then Summary.add t.switch (cycles t switch_ns)

let record_arrival t = t.arrivals <- t.arrivals + 1
let record_miss t ~miss_time_ns =
  t.misses <- t.misses + 1;
  Summary.add t.miss_times (Int64.to_float miss_time_ns /. 1_000.)

let record_kick t = t.kicks <- t.kicks + 1
let record_steal t = t.steals <- t.steals + 1

let invocations t = t.invocations
let arrivals t = t.arrivals
let misses t = t.misses

let miss_rate t =
  if t.arrivals = 0 then 0.
  else float_of_int t.misses /. float_of_int t.arrivals

let kicks t = t.kicks
let steals t = t.steals

let irq_cycles t = t.irq
let other_cycles t = t.other
let resched_cycles t = t.resched
let switch_cycles t = t.switch
let miss_times_us t = t.miss_times

let total_overhead_cycles t =
  Summary.mean t.irq +. Summary.mean t.other +. Summary.mean t.resched
  +. Summary.mean t.switch

let merge a b =
  {
    ghz = a.ghz;
    irq = Summary.merge a.irq b.irq;
    other = Summary.merge a.other b.other;
    resched = Summary.merge a.resched b.resched;
    switch = Summary.merge a.switch b.switch;
    miss_times = Summary.merge a.miss_times b.miss_times;
    invocations = a.invocations + b.invocations;
    arrivals = a.arrivals + b.arrivals;
    misses = a.misses + b.misses;
    kicks = a.kicks + b.kicks;
    steals = a.steals + b.steals;
  }
