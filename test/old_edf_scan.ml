(* The enumerating EDF processor-demand scan the oracle used before the
   closed form, kept verbatim (1 s hyperperiod cap, 4096 deadlines per
   task) as the reference the closed form is property-tested against.
   Inputs must keep [acc * p] inside Int64: this code wraps otherwise. *)

open Hrt_engine
open Hrt_core

type cert =
  | Edf_demand of { horizon : Time.ns; interval : Time.ns; demand : Time.ns }
  | Util of { util : float; bound : float }

let rec gcd64 a b = if Int64.equal b 0L then a else gcd64 b (Int64.rem a b)

(* Hyperperiod capped at 1 s, matching the runtime ledger: the sentinel
   routes pathological period combinations to the utilization test. *)
let hyperperiod set =
  let lcm_capped acc p =
    let l = Int64.div (Int64.mul acc p) (gcd64 acc p) in
    if Int64.compare l 1_000_000_000L > 0 then Int64.min_int else l
  in
  List.fold_left
    (fun acc (p, _) ->
      if Int64.equal acc Int64.min_int then acc else lcm_capped acc p)
    1L set

let edf_demand_at ~ovh set d =
  List.fold_left
    (fun acc (p, s) ->
      let jobs = Int64.div d p in
      Time.(acc + Int64.mul jobs Time.(s + ovh)))
    0L set

let deadline_cap = 4096

let edf_deadlines ~h set =
  let per_task =
    List.concat_map
      (fun (p, _) ->
        let count = Int64.to_int (Int64.div h p) in
        if count > deadline_cap then []
        else List.init count (fun k -> Int64.mul p (Int64.of_int (k + 1))))
      set
  in
  List.sort_uniq Int64.compare (h :: per_task)

let effective_util ~ovh set =
  List.fold_left
    (fun acc (p, s) -> acc +. (Int64.to_float Time.(s + ovh) /. Int64.to_float p))
    0. set

let slack ~capacity ~demand d =
  ((Int64.to_float d *. capacity) -. Int64.to_float demand) /. Int64.to_float d

let edf_analysis ~ovh ~capacity set =
  let h = hyperperiod set in
  let util = effective_util ~ovh set in
  if Int64.equal h Int64.min_int then begin
    let cert = Util { util; bound = capacity } in
    if util <= capacity then Ok (capacity -. util, cert)
    else
      Error
        ( Admission.Rejection.Utilization_bound { util; bound = capacity },
          cert )
  end
  else begin
    let rec scan min_slack witness = function
      | [] -> Ok (min_slack, witness)
      | d :: rest ->
        let demand = edf_demand_at ~ovh set d in
        if Int64.to_float demand <= Int64.to_float d *. capacity then begin
          let s = slack ~capacity ~demand d in
          if s < min_slack then
            scan s (Edf_demand { horizon = h; interval = d; demand }) rest
          else scan min_slack witness rest
        end
        else
          Error
            ( Admission.Rejection.Hyperperiod_demand { interval = d; demand },
              Edf_demand { horizon = h; interval = d; demand } )
    in
    let first = Edf_demand { horizon = h; interval = h; demand = 0L } in
    scan infinity first (edf_deadlines ~h set)
  end
