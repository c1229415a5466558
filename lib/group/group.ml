open Hrt_engine
open Hrt_core

(* A contended spin section: the [p]-th thread to enter since the section
   went quiet spins for (p+1) holdings of the lock. "Quiet" is detected by
   wall-clock distance: contenders arriving within the window pile up. *)
type section = {
  mutable contenders : int;
  mutable last_enter : Time.ns;
  cost : Hrt_hw.Platform.cost;
}

type t = {
  sys : Scheduler.t;
  name : string;
  mutable members : Thread.t list; (* reverse join order *)
  mutable size : int;
  mutable constraints : Constraints.t option;
  mutable locked_by : Thread.t option;
  join_sec : section;
}

let create sys ~name =
  {
    sys;
    name;
    members = [];
    size = 0;
    constraints = None;
    locked_by = None;
    join_sec =
      {
        contenders = 0;
        last_enter = Int64.min_int;
        cost = (Scheduler.platform sys).Hrt_hw.Platform.group_join_step;
      };
  }

let name t = t.name
let size t = t.size
let members t = List.rev t.members
let scheduler t = t.sys

let set_constraints t c = t.constraints <- c
let constraints t = t.constraints

let lock t th =
  match t.locked_by with
  | Some owner when not (owner == th) -> invalid_arg "Group.lock: held"
  | Some _ | None -> t.locked_by <- Some th

let unlock t th =
  match t.locked_by with
  | Some owner when owner == th -> t.locked_by <- None
  | Some _ -> invalid_arg "Group.unlock: not owner"
  | None -> ()

let locked_by t = t.locked_by

let make_section _t cost = { contenders = 0; last_enter = Int64.min_int; cost }

let enter_section s =
  let pos = ref None in
  fun ({ Thread.svc; self } as _ctx : Thread.ctx) ->
    match !pos with
    | None ->
      let now = svc.Thread.now () in
      let window = Time.us 500 in
      if Time.(now - s.last_enter > window) then s.contenders <- 0;
      s.last_enter <- now;
      let p = s.contenders in
      s.contenders <- p + 1;
      pos := Some p;
      let hold = svc.Thread.sample self s.cost in
      Thread.Compute (Int64.mul hold (Int64.of_int (p + 1)))
    | Some _ -> Thread.Exit

let join t =
  let inner = enter_section t.join_sec in
  let registered = ref false in
  fun ctx ->
    if not !registered then begin
      registered := true;
      t.members <- ctx.Thread.self :: t.members;
      t.size <- t.size + 1
    end;
    inner ctx

let leave t =
  let inner = enter_section t.join_sec in
  let removed = ref false in
  fun ctx ->
    if not !removed then begin
      removed := true;
      t.members <- List.filter (fun m -> not (m == ctx.Thread.self)) t.members;
      t.size <- t.size - 1
    end;
    inner ctx
