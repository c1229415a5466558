open Hrt_engine

(* SMI storms are the paper's worst-case interference: generation,
   stealing, and rescheduling run inside the event loop and must not
   allocate. *)
[@@@hrt.hot]

type config = {
  mean_interval : Time.ns;
  duration_mean : Time.ns;
  duration_jitter : float;
}

let default_config =
  { mean_interval = Time.ms 500; duration_mean = Time.us 80; duration_jitter = 0.2 }

type t = {
  engine : Engine.t;
  config : config;
  rng : Rng.t;
  mutable stopped : bool;
  mutable count : int;
  mutable stolen : Time.ns;
  mutable fire_event : Engine.t -> unit;
      (* One closure per generator: the self-rescheduling expiry event
         reuses it, so a storm allocates nothing. *)
}

let draw_interval t =
  let x = Rng.exponential t.rng ~mean:(Int64.to_float t.config.mean_interval) in
  Int64.of_float (Float.max 1. x)

let draw_duration t =
  let mu = Int64.to_float t.config.duration_mean in
  let sigma = mu *. t.config.duration_jitter in
  let x = Rng.gaussian t.rng ~mu ~sigma in
  Int64.of_float (Float.max (mu /. 4.) x)

(* Freeze [now, now + duration) and charge this generator only for the
   part not already covered by an open freeze window: when windows merge,
   the overlap was stolen once already, so counting the full duration
   again would overstate [total_stolen]. The overlap must be measured
   before the freeze extends the window. *)
let steal t eng ~duration =
  let now = Engine.now eng in
  let until = Time.(now + duration) in
  let already = Engine.frozen_overlap eng now until in
  t.count <- t.count + 1;
  t.stolen <- Time.(t.stolen + Time.max 0L (duration - already));
  Engine.freeze eng ~until

let rec fire t eng =
  if not t.stopped then begin
    steal t eng ~duration:(draw_duration t);
    schedule_next t
  end

and schedule_next t =
  ignore
    (Engine.schedule_after t.engine ~after:(draw_interval t) t.fire_event)

let[@hrt.cold] install ?rng engine config =
  let t =
    {
      engine;
      config;
      rng = (match rng with Some r -> r | None -> Rng.split (Engine.rng engine));
      stopped = false;
      count = 0;
      stolen = 0L;
      fire_event = ignore;
    }
  in
  t.fire_event <- fire t;
  schedule_next t;
  t

let stop t = t.stopped <- true

let inject eng ~duration = Engine.freeze eng ~until:Time.(Engine.now eng + duration)

let inject_on t ~duration = steal t t.engine ~duration

let count t = t.count
let total_stolen t = t.stolen
