(* Deterministic fork-join parallelism over OCaml 5 domains.

   The contract that makes this library usable for the experiment harness
   is *determinism*: [map] returns results placed by submission index,
   never completion order, so a caller that runs independent deterministic
   jobs gets bit-identical output no matter how many domains execute them
   (and no matter how the domains interleave).

   Work distribution is a single shared index counter: each worker claims
   the next unclaimed job with [Atomic.fetch_and_add]. That is enough —
   jobs here are whole simulations (milliseconds to seconds each), so
   stealing granularity and queue locality are irrelevant; what matters is
   that no job runs twice and no job is skipped. The calling domain
   participates as a worker, so [jobs = 1] degenerates to a plain
   sequential [Array.map] with no domain spawned at all. *)

module Pool = struct
  type t = { jobs : int }

  (* OCaml 5 caps live domains at ~128 (including the main one); well
     before that, spawning more workers than cores only adds overhead.
     Clamp hard so a bad HRT_JOBS value cannot abort the runtime. *)
  let max_jobs = 64

  let create ~jobs = { jobs = Stdlib.max 1 (Stdlib.min jobs max_jobs) }
  let jobs t = t.jobs
end

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if Pool.jobs pool = 1 || n = 1 then Array.map f arr
  else begin
    (* Slots are written at most once, each by exactly one domain;
       [Domain.join] publishes them to the caller. *)
    let out = Array.make n None in
    let next = Atomic.make 0 in
    (* The lowest failing index so far ([n] = none), and each failure's
       exception and backtrace in its own slot. Indices are claimed in
       increasing order, so when index [k] fails every lower index has
       already been claimed and runs to completion: after the join, the
       lowest failure is the one a sequential [Array.map] would raise. *)
    let first_failed = Atomic.make n in
    let failures = Array.make n None in
    let rec lower_first_failed i =
      let cur = Atomic.get first_failed in
      if i < cur && not (Atomic.compare_and_set first_failed cur i) then
        lower_first_failed i
    in
    let worker () =
      let continue = ref true in
      while !continue do
        if Atomic.get first_failed < n then continue := false
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else begin
            match f arr.(i) with
            | y -> out.(i) <- Some y
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              failures.(i) <- Some (e, bt);
              lower_first_failed i;
              continue := false
          end
        end
      done
    in
    let helpers = Stdlib.min (Pool.jobs pool - 1) (n - 1) in
    let domains = Array.init helpers (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (let i = Atomic.get first_failed in
     if i < n then
       match failures.(i) with
       | Some (e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> assert false);
    Array.init n (fun i ->
        match out.(i) with
        | Some y -> y
        | None -> assert false (* every index < n was claimed exactly once *))
  end
