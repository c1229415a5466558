open Hrt_engine
open Hrt_hw
open Hrt_core
open Hrt_group

type mode = Aperiodic | Realtime of { period : Time.ns; slice : Time.ns }

type loop = {
  iterations : int;
  cost : Platform.cost;
  body : int -> unit;
  sync : [ `Barrier | `Timed ];
  mutable finished_chunks : int;
}

type team = {
  sys : Scheduler.t;
  mode : mode;
  nworkers : int;
  mutable workers : Thread.t list;
  barrier : Gbarrier.t;
  mutable loops : loop list;  (* reverse submission order *)
  mutable submitted : int;
  mutable completed : int;
  mutable admitted_all : bool;
  mutable shutting_down : bool;
  mutable last_completion : Time.ns;
}

let nth_loop t i = List.nth (List.rev t.loops) i

let chunk t ~iterations w =
  let lo = iterations * w / t.nworkers in
  let hi = iterations * (w + 1) / t.nworkers in
  (lo, hi)

(* The worker's main loop: fetch the next submitted loop, compute the
   chunk, apply its visible effects, synchronize per the loop's policy. *)
let worker_body t ~index =
  let my_loop = ref 0 in
  let stage = ref `Fetch in
  let crossing = ref None in
  fun ({ Thread.svc; self } as ctx : Thread.ctx) ->
    let rec step () =
      match !stage with
      | `Fetch ->
        if !my_loop < t.submitted then begin
          let l = nth_loop t !my_loop in
          let lo, hi = chunk t ~iterations:l.iterations index in
          let n = hi - lo in
          if n = 0 then begin
            stage := `Finish;
            step ()
          end
          else begin
            stage := `Apply;
            let c =
              Platform.cost
                (l.cost.Platform.mean_cycles *. float_of_int n)
                (l.cost.Platform.sigma_cycles *. sqrt (float_of_int n))
            in
            Thread.Compute (svc.Thread.sample self c)
          end
        end
        else if t.shutting_down then Thread.Exit
        else Thread.Block
      | `Apply ->
        let l = nth_loop t !my_loop in
        let lo, hi = chunk t ~iterations:l.iterations index in
        for i = lo to hi - 1 do
          l.body i
        done;
        stage := `Finish;
        step ()
      | `Finish ->
        let l = nth_loop t !my_loop in
        l.finished_chunks <- l.finished_chunks + 1;
        if l.finished_chunks = t.nworkers then begin
          t.completed <- t.completed + 1;
          t.last_completion <- svc.Thread.now ()
        end;
        (match l.sync with
        | `Timed ->
          incr my_loop;
          stage := `Fetch;
          step ()
        | `Barrier ->
          crossing := Some (Gbarrier.cross t.barrier);
          stage := `Join;
          step ())
      | `Join -> (
        match !crossing with
        | None -> assert false
        | Some body -> (
          match body ctx with
          | Thread.Exit ->
            crossing := None;
            incr my_loop;
            stage := `Fetch;
            step ()
          | op -> op))
    in
    step ()

let create_team sys ~cpus ~mode =
  if cpus = [] then invalid_arg "Omp.create_team: no CPUs";
  let nworkers = List.length cpus in
  let group = Group.create sys ~name:"omp-team" in
  let barrier = Gbarrier.create sys ~parties:nworkers in
  let t =
    {
      sys;
      mode;
      nworkers;
      workers = [];
      barrier;
      loops = [];
      submitted = 0;
      completed = 0;
      admitted_all = true;
      shutting_down = false;
      last_completion = 0L;
    }
  in
  let start_barrier = Gbarrier.create sys ~parties:nworkers in
  let session = ref None in
  let prelude =
    match mode with
    | Aperiodic -> fun _index -> []
    | Realtime { period; slice } ->
      fun _index ->
        [
          Group.join group;
          Gbarrier.cross start_barrier;
          (fun _ctx ->
            (if !session = None then
               session :=
                 Some
                   (Group_sched.prepare group
                      (Constraints.periodic ~period ~slice ())));
            Thread.Exit);
          (let b = ref None in
           fun ctx ->
             let body =
               match !b with
               | Some body -> body
               | None ->
                 let body =
                   Group_sched.change_constraints (Option.get !session)
                     ~on_result:(fun v ->
                       if not (Admission.admitted v) then
                         t.admitted_all <- false)
                 in
                 b := Some body;
                 body
             in
             body ctx);
        ]
  in
  List.iteri
    (fun index cpu ->
      let th =
        Scheduler.spawn sys ~name:(Printf.sprintf "omp-%d" index) ~cpu
          ~bound:true
          (Program.seq (prelude index @ [ worker_body t ~index ]))
      in
      t.workers <- th :: t.workers)
    cpus;
  t

let parallel_for t ?(sync = `Barrier) ~iterations ~cost_per_iteration body =
  (match (sync, t.mode) with
  | `Timed, Aperiodic ->
    invalid_arg
      "Omp.parallel_for: `Timed synchronization requires a real-time team"
  | (`Timed | `Barrier), _ -> ());
  if iterations < 0 then invalid_arg "Omp.parallel_for: negative iterations";
  t.loops <-
    { iterations; cost = cost_per_iteration; body; sync; finished_chunks = 0 }
    :: t.loops;
  t.submitted <- t.submitted + 1;
  List.iter (fun th -> Scheduler.wake t.sys th) t.workers

let loops_submitted t = t.submitted
let loops_completed t = t.completed

let run_to_completion ?(until = Time.sec 100) t =
  let eng = Scheduler.engine t.sys in
  let step = Time.ms 1 in
  let rec drive () =
    if t.completed < t.submitted && Time.(Engine.now eng < until) then begin
      Scheduler.run ~until:(Time.min until Time.(Engine.now eng + step)) t.sys;
      drive ()
    end
  in
  drive ()

let admitted t = t.admitted_all
let last_completion t = t.last_completion
let total_misses t =
  List.fold_left (fun acc (th : Thread.t) -> acc + th.Thread.misses) 0 t.workers

let shutdown t =
  t.shutting_down <- true;
  List.iter (fun th -> Scheduler.wake t.sys th) t.workers
