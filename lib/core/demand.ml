open Hrt_engine

let add a b =
  let s = Int64.add a b in
  if Bool.equal (Int64.compare b 0L >= 0) (Int64.compare s a >= 0) then Some s
  else None

(* Operands are non-negative: job counts and per-arrival costs. *)
let mul a b =
  if Int64.equal a 0L || Int64.compare b (Int64.div Int64.max_int a) <= 0 then
    Some (Int64.mul a b)
  else None

let ceil_div a b =
  let q = Int64.div a b in
  if Int64.equal (Int64.rem a b) 0L then q else Int64.succ q

let rec gcd a b = if Int64.equal b 0L then a else gcd b (Int64.rem a b)

let lcm a b = mul (Int64.div a (gcd a b)) b

let hyperperiod set =
  List.fold_left
    (fun acc (p, _) -> Option.bind acc (fun h -> lcm h p))
    (Some 1L) set

let cost ~ovh slice = add slice ovh

let demand ~ovh ~jobs set =
  List.fold_left
    (fun acc (p, s) ->
      match (acc, cost ~ovh s) with
      | Some a, Some c -> Option.bind (mul (jobs p) c) (add a)
      | _ -> None)
    (Some 0L) set

let utilization ~ovh set =
  List.fold_left
    (fun acc (p, s) ->
      acc +. ((Int64.to_float s +. Int64.to_float ovh) /. Int64.to_float p))
    0. set

let liu_layland n =
  if n <= 0 then 1.
  else begin
    let fn = float_of_int n in
    fn *. ((2. ** (1. /. fn)) -. 1.)
  end

let fits ~capacity ~interval = function
  | Some d -> Int64.to_float d <= Int64.to_float interval *. capacity
  | None -> false

let slack ~capacity ~interval demand =
  ((Int64.to_float interval *. capacity) -. Int64.to_float demand)
  /. Int64.to_float interval

type edf_witness =
  | Hyperperiod of { horizon : Time.ns; demand : Time.ns }
  | Utilization of { util : float }

type edf = { witness : edf_witness; admitted : bool; headroom : float }

let edf ~ovh ~capacity set =
  let exact =
    Option.bind (hyperperiod set) (fun h ->
        Option.map (fun d -> (h, d))
          (demand ~ovh ~jobs:(fun p -> Int64.div h p) set))
  in
  match exact with
  | Some (horizon, d) ->
    {
      witness = Hyperperiod { horizon; demand = d };
      admitted = fits ~capacity ~interval:horizon (Some d);
      headroom = slack ~capacity ~interval:horizon d;
    }
  | None ->
    let util = utilization ~ovh set in
    {
      witness = Utilization { util };
      admitted = util <= capacity;
      headroom = capacity -. util;
    }
