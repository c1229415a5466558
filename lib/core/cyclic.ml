open Hrt_engine

type job = { name : string; period : Time.ns; slice : Time.ns }

type table = {
  jobs : job list;
  hyperperiod : Time.ns;
  frame : Time.ns;
  assignments : (string * Time.ns) list array;
}

type error =
  | Empty_job_set
  | Invalid_job of string
  | Utilization_too_high of float
  | No_valid_frame
  | Unschedulable of string

let pp_error fmt = function
  | Empty_job_set -> Format.fprintf fmt "empty job set"
  | Invalid_job n -> Format.fprintf fmt "invalid job %s" n
  | Utilization_too_high u -> Format.fprintf fmt "utilization %.2f > 1" u
  | No_valid_frame -> Format.fprintf fmt "no valid frame size"
  | Unschedulable n -> Format.fprintf fmt "cannot pack job %s" n

let pairs jobs = List.map (fun j -> (j.period, j.slice)) jobs
let utilization_of jobs = Demand.utilization ~ovh:0L (pairs jobs)

(* Frame-size constraints (Liu, ch. 5):
   (1) f >= max slice (no instance is split);
   (2) f divides the hyperperiod;
   (3) 2f - gcd(f, T_i) <= T_i for every job (a full frame fits between
       any release and its deadline). *)
let frame_ok jobs f =
  List.for_all
    (fun j ->
      Time.(f >= j.slice)
      && Int64.compare
           (Int64.sub (Int64.mul 2L f) (Demand.gcd f j.period))
           j.period
         <= 0)
    jobs

let divisors h =
  (* Candidate frame sizes f = h/k, descending: every divisor that yields
     at most 100k frames (finer frames are never useful and keep this
     bounded). *)
  let out = ref [] in
  let k = ref 1L in
  while Int64.compare !k 100_000L <= 0 do
    if Int64.equal (Int64.rem h !k) 0L then out := Int64.div h !k :: !out;
    k := Int64.add !k 1L
  done;
  List.sort (fun a b -> Int64.compare b a) !out

let plan jobs =
  if jobs = [] then Error Empty_job_set
  else begin
    match
      List.find_opt
        (fun j ->
          Time.(j.period <= 0L) || Time.(j.slice <= 0L) || Time.(j.slice > j.period))
        jobs
    with
    | Some j -> Error (Invalid_job j.name)
    | None ->
      let u = utilization_of jobs in
      if u > 1. then Error (Utilization_too_high u)
      else begin
        match Demand.hyperperiod (pairs jobs) with
        | None -> Error No_valid_frame
        | Some h when Int64.compare h (Time.sec 100) > 0 -> Error No_valid_frame
        | Some h -> (
          match List.find_opt (frame_ok jobs) (divisors h) with
          | None -> Error No_valid_frame
          | Some f ->
            let nframes = Int64.to_int (Int64.div h f) in
            let capacity = Array.make nframes f in
            let assignments = Array.make nframes [] in
            (* All instances over the hyperperiod, EDF order. *)
            let instances =
              List.concat_map
                (fun j ->
                  let count = Int64.to_int (Int64.div h j.period) in
                  List.init count (fun k ->
                      let release = Int64.mul j.period (Int64.of_int k) in
                      let deadline = Int64.add release j.period in
                      (j, release, deadline)))
                jobs
            in
            let instances =
              List.sort
                (fun (_, _, d1) (_, _, d2) -> Int64.compare d1 d2)
                instances
            in
            (* Worst-fit: place each instance in the least-loaded eligible
               frame, which balances frames and keeps the executive's
               worst-frame slice (and hence its admission demand) low. *)
            let place (j, release, deadline) =
              let first = Int64.to_int (Int64.div (Int64.add release (Int64.sub f 1L)) f) in
              let last = Int64.to_int (Int64.div deadline f) - 1 in
              let best = ref None in
              for m = first to last do
                if Time.(capacity.(m) >= j.slice) then
                  match !best with
                  | Some b when Time.(capacity.(b) >= capacity.(m)) -> ()
                  | Some _ | None -> best := Some m
              done;
              match !best with
              | None -> false
              | Some m ->
                capacity.(m) <- Time.(capacity.(m) - j.slice);
                assignments.(m) <- (j.name, j.slice) :: assignments.(m);
                true
            in
            let rec pack = function
              | [] -> Ok ()
              | ((j, _, _) as inst) :: rest ->
                if place inst then pack rest else Error (Unschedulable j.name)
            in
            (match pack instances with
            | Error e -> Error e
            | Ok () ->
              Array.iteri
                (fun m pieces -> assignments.(m) <- List.rev pieces)
                assignments;
              Ok { jobs; hyperperiod = h; frame = f; assignments }))
      end
  end

let hyperperiod t = t.hyperperiod
let frame_size t = t.frame
let frames t = Array.copy t.assignments
let utilization t = utilization_of t.jobs

let frame_load pieces =
  List.fold_left (fun acc (_, s) -> Time.(acc + s)) 0L pieces

let validate t =
  let nframes = Array.length t.assignments in
  if Int64.compare (Int64.mul t.frame (Int64.of_int nframes)) t.hyperperiod <> 0
  then Error "frames do not tile the hyperperiod"
  else begin
    let overflow = ref None in
    Array.iteri
      (fun m pieces ->
        if Time.(frame_load pieces > t.frame) then
          overflow := Some (Printf.sprintf "frame %d overflows" m))
      t.assignments;
    match !overflow with
    | Some msg -> Error msg
    | None ->
      (* Every job must appear hyperperiod/period times, each instance in
         a frame within [release, deadline). *)
      let rec check_jobs = function
        | [] -> Ok ()
        | j :: rest ->
          let expected = Int64.to_int (Int64.div t.hyperperiod j.period) in
          let placements = ref [] in
          Array.iteri
            (fun m pieces ->
              List.iter
                (fun (n, _) -> if n = j.name then placements := m :: !placements)
                pieces)
            t.assignments;
          let placements = List.sort compare !placements in
          if List.length placements <> expected then
            Error (Printf.sprintf "job %s has %d placements, expected %d"
                     j.name (List.length placements) expected)
          else begin
            let ok =
              List.for_all2
                (fun k m ->
                  let release = Int64.mul j.period (Int64.of_int k) in
                  let deadline = Int64.add release j.period in
                  let fstart = Int64.mul t.frame (Int64.of_int m) in
                  let fend = Int64.add fstart t.frame in
                  Int64.compare fstart release >= 0
                  && Int64.compare fend deadline <= 0)
                (List.init expected Fun.id)
                placements
            in
            if ok then check_jobs rest
            else Error (Printf.sprintf "job %s placed outside a window" j.name)
          end
      in
      check_jobs t.jobs
  end

let spawn sys ~cpu ?(on_job = fun _ _ -> ()) t =
  let nframes = Array.length t.assignments in
  let max_load =
    Array.fold_left
      (fun acc pieces -> Time.max acc (frame_load pieces))
      0L t.assignments
  in
  let admitted = ref None in
  let served = ref 0 in
  let remaining = ref [] in
  let last_job = ref None in
  let body ({ Thread.svc; self } : Thread.ctx) =
    let flush_last () =
      match !last_job with
      | Some name ->
        on_job name (svc.Thread.now ());
        last_job := None
      | None -> ()
    in
    flush_last ();
    match !remaining with
    | (name, w) :: rest ->
      remaining := rest;
      last_job := Some name;
      Thread.Compute w
    | [] ->
      if self.Thread.arrivals > !served then begin
        served := self.Thread.arrivals;
        let frame = (self.Thread.arrivals - 1) mod nframes in
        match t.assignments.(frame) with
        | [] -> Thread.Sleep_until Time.(self.Thread.arrival + t.frame)
        | (name, w) :: rest ->
          remaining := rest;
          last_job := Some name;
          Thread.Compute w
      end
      else
        (* Frame finished early: sleep until the next frame boundary. *)
        Thread.Sleep_until Time.(self.Thread.arrival + t.frame)
  in
  let th =
    Scheduler.spawn sys ~name:"cyclic-exec" ~cpu ~bound:true
      (Program.seq
         [
           Program.of_steps
             (Scheduler.admission_ops sys
                (Constraints.periodic ~period:t.frame ~slice:max_load ())
                ~on_result:(fun v -> admitted := Some v));
           body;
         ])
  in
  (* Drive the admission through so the caller gets a crisp error. *)
  Scheduler.run
    ~until:Time.(Engine.now (Scheduler.engine sys) + Time.ms 1)
    sys;
  (match !admitted with
  | Some (Admission.Admitted _) -> ()
  | Some (Admission.Rejected { reason }) ->
    failwith
      ("Cyclic.spawn: executive rejected by admission: "
      ^ Admission.Rejection.describe reason)
  | None -> failwith "Cyclic.spawn: admission did not run");
  th
