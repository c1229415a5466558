open Hrt_engine
open Hrt_hw

(* ---- Tsc ---- *)

let test_tsc_counting () =
  let tsc = Tsc.create ~ghz:1.3 ~start_skew:0L in
  Alcotest.(check int64) "at zero" 0L (Tsc.read tsc ~now:0L);
  Alcotest.(check int64) "1us later" 1300L (Tsc.read tsc ~now:(Time.us 1))

let test_tsc_skew () =
  let tsc = Tsc.create ~ghz:1.3 ~start_skew:(Time.us 1) in
  (* Started 1us late: lags an ideal counter by 1300 cycles. *)
  Alcotest.(check int64) "lag" (-1300L) (Tsc.read tsc ~now:0L);
  Alcotest.(check int64) "offset" (-1300L) (Tsc.offset_cycles tsc)

let test_tsc_write () =
  let tsc = Tsc.create ~ghz:2.0 ~start_skew:(Time.us 3) in
  Tsc.write tsc ~now:(Time.us 10) 12345L;
  Alcotest.(check int64) "read back" 12345L (Tsc.read tsc ~now:(Time.us 10));
  (* Still counts at the same rate afterwards. *)
  Alcotest.(check int64) "counts on" (Int64.add 12345L 2000L)
    (Tsc.read tsc ~now:(Time.us 11))

let test_tsc_adjust () =
  let tsc = Tsc.create ~ghz:2.0 ~start_skew:0L in
  Tsc.adjust tsc 500L;
  Alcotest.(check int64) "adjusted" 500L (Tsc.read tsc ~now:0L);
  Tsc.adjust tsc (-200L);
  Alcotest.(check int64) "adjusted back" 300L (Tsc.read tsc ~now:0L)

(* ---- Apic ---- *)

let mk_apic ?(tick = 25) ?(tsc_deadline = false) ?(jitter = 0.) eng =
  Apic.create ~engine:eng ~rng:(Rng.create 5L) ~tick_ns:tick ~tsc_deadline
    ~jitter_max_cycles:jitter ~ghz:1.3

let test_apic_oneshot () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let fired = ref [] in
  Apic.set_timer_handler apic (fun eng -> fired := Engine.now eng :: !fired);
  Apic.arm apic ~at:100L;
  Engine.run eng;
  (match !fired with
  | [ t ] -> Alcotest.(check bool) "conservative, min one tick" true
               Time.(t <= 100L && t >= 25L)
  | _ -> Alcotest.fail "expected exactly one firing");
  Alcotest.(check bool) "disarmed after fire" true (Apic.timer_armed_at apic = None)

let test_apic_conservative_rounding () =
  let eng = Engine.create () in
  let apic = mk_apic ~tick:25 eng in
  let fired = ref 0L in
  Apic.set_timer_handler apic (fun eng -> fired := Engine.now eng);
  (* 110ns = 4.4 ticks -> fires at 4 ticks = 100ns, never later. *)
  Apic.arm apic ~at:110L;
  Engine.run eng;
  Alcotest.(check int64) "rounded down to tick" 100L !fired

let test_apic_tsc_deadline_exact () =
  let eng = Engine.create () in
  let apic = mk_apic ~tsc_deadline:true eng in
  let fired = ref 0L in
  Apic.set_timer_handler apic (fun eng -> fired := Engine.now eng);
  Apic.arm apic ~at:117L;
  Engine.run eng;
  Alcotest.(check int64) "cycle exact" 117L !fired

let test_apic_rearm_cancels () =
  let eng = Engine.create () in
  let apic = mk_apic ~tsc_deadline:true eng in
  let count = ref 0 in
  Apic.set_timer_handler apic (fun _ -> incr count);
  Apic.arm apic ~at:100L;
  Apic.arm apic ~at:200L;
  Engine.run eng;
  Alcotest.(check int) "only one firing" 1 !count;
  Alcotest.(check int64) "at second target" 200L (Engine.now eng)

let test_apic_cancel () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let count = ref 0 in
  Apic.set_timer_handler apic (fun _ -> incr count);
  Apic.arm apic ~at:100L;
  Apic.cancel_timer apic;
  Engine.run eng;
  Alcotest.(check int) "cancelled" 0 !count

let test_apic_ppr_gating () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~at:10L (fun eng ->
         Apic.set_ppr apic eng Apic.rt_ppr;
         (* Device priority 8: held pending. *)
         Apic.deliver apic eng ~prio:8 (fun _ -> log := "dev" :: !log);
         (* Scheduling priority 15: goes through. *)
         Apic.deliver apic eng ~prio:Apic.sched_prio (fun _ ->
             log := "sched" :: !log)));
  ignore
    (Engine.schedule eng ~at:50L (fun eng ->
         Alcotest.(check int) "one pending" 1 (Apic.pending_count apic);
         Apic.set_ppr apic eng 0));
  Engine.run eng;
  Alcotest.(check (list string)) "sched immediate, dev on unmask"
    [ "sched"; "dev" ] (List.rev !log);
  Alcotest.(check int) "pending drained" 0 (Apic.pending_count apic)

let test_apic_pending_priority_order () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~at:10L (fun eng ->
         Apic.set_ppr apic eng 14;
         Apic.deliver apic eng ~prio:5 (fun _ -> log := 5 :: !log);
         Apic.deliver apic eng ~prio:9 (fun _ -> log := 9 :: !log);
         Apic.deliver apic eng ~prio:7 (fun _ -> log := 7 :: !log)));
  ignore (Engine.schedule eng ~at:20L (fun eng -> Apic.set_ppr apic eng 0));
  Engine.run eng;
  Alcotest.(check (list int)) "highest priority first" [ 9; 7; 5 ]
    (List.rev !log)

(* ---- Smi ---- *)

let test_smi_inject () =
  let eng = Engine.create () in
  ignore
    (Engine.schedule eng ~at:10L (fun eng -> Smi.inject eng ~duration:100L));
  let fired = ref 0L in
  ignore (Engine.schedule eng ~at:50L (fun eng -> fired := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int64) "event deferred past SMI" 110L !fired

let test_smi_generator () =
  let eng = Engine.create () in
  let config =
    { Smi.mean_interval = Time.us 100; duration_mean = Time.us 10; duration_jitter = 0.1 }
  in
  let gen = Smi.install eng config in
  (* Keep the engine alive with a periodic heartbeat. *)
  let rec heartbeat at =
    if Time.(at < Time.ms 5) then
      ignore (Engine.schedule eng ~at (fun _ -> heartbeat Time.(at + Time.us 50)))
  in
  heartbeat 1L;
  Engine.run ~until:(Time.ms 5) eng;
  Alcotest.(check bool) "some SMIs happened" true (Smi.count gen > 10);
  Alcotest.(check bool) "stolen time positive" true
    Time.(Smi.total_stolen gen > 0L);
  Alcotest.(check bool) "stolen time matches engine" true
    (Int64.to_float (Engine.total_frozen eng)
     /. Int64.to_float (Smi.total_stolen gen)
    > 0.95)

(* Regression: two overlapping injections used to charge [total_stolen]
   with both full durations even though the freeze windows merged, so the
   books said 250us of missing time for a 150us freeze. Only the
   incremental extension may be charged. *)
let test_smi_overlap_accounting () =
  let eng = Engine.create () in
  let config =
    (* An effectively-infinite interval: only the forced injections run. *)
    { Smi.mean_interval = Time.sec 3600; duration_mean = Time.us 10; duration_jitter = 0. }
  in
  let gen = Smi.install eng config in
  ignore
    (Engine.schedule eng ~at:(Time.us 50) (fun _ ->
         Smi.inject_on gen ~duration:(Time.us 100);
         Smi.inject_on gen ~duration:(Time.us 150)));
  ignore (Engine.schedule eng ~at:(Time.ms 1) (fun _ -> ()));
  Engine.run ~until:(Time.ms 1) eng;
  Alcotest.(check int) "both counted" 2 (Smi.count gen);
  Alcotest.(check int64) "incremental extension only" (Time.us 150)
    (Smi.total_stolen gen);
  Alcotest.(check int64) "matches the engine's frozen time" (Time.us 150)
    (Engine.total_frozen eng)

let test_smi_stop () =
  let eng = Engine.create () in
  let config =
    { Smi.mean_interval = Time.us 50; duration_mean = Time.us 5; duration_jitter = 0. }
  in
  let gen = Smi.install eng config in
  ignore
    (Engine.schedule eng ~at:(Time.us 200) (fun _ -> Smi.stop gen));
  Engine.run ~until:(Time.ms 2) eng;
  let count_at_stop = Smi.count gen in
  Alcotest.(check bool) "stopped eventually" true (count_at_stop < 10)

(* ---- Gpio ---- *)

let test_gpio_transitions () =
  let eng = Engine.create () in
  let gpio = Gpio.create eng in
  ignore (Engine.schedule eng ~at:10L (fun _ -> Gpio.set gpio ~pin:0 true));
  ignore (Engine.schedule eng ~at:20L (fun _ -> Gpio.set gpio ~pin:0 true));
  ignore (Engine.schedule eng ~at:30L (fun _ -> Gpio.set gpio ~pin:0 false));
  Engine.run eng;
  let trans = Gpio.transitions gpio ~pin:0 in
  Alcotest.(check int) "redundant set not recorded" 2 (Array.length trans);
  Alcotest.(check bool) "levels" true
    (trans.(0) = (10L, true) && trans.(1) = (30L, false))

let test_gpio_intervals () =
  let eng = Engine.create () in
  let gpio = Gpio.create eng in
  List.iter
    (fun (t, v) ->
      ignore (Engine.schedule eng ~at:t (fun _ -> Gpio.set gpio ~pin:3 v)))
    [ (10L, true); (20L, false); (30L, true); (45L, false); (50L, true) ];
  Engine.run eng;
  let ivs = Gpio.high_intervals gpio ~pin:3 in
  Alcotest.(check int) "two complete pulses" 2 (Array.length ivs);
  Alcotest.(check bool) "bounds" true
    (ivs.(0) = (10L, 20L) && ivs.(1) = (30L, 45L));
  Alcotest.(check bool) "level now high" true (Gpio.level gpio ~pin:3)

let test_gpio_bad_pin () =
  let eng = Engine.create () in
  let gpio = Gpio.create eng in
  Alcotest.check_raises "pin range" (Invalid_argument "Gpio: pin out of range")
    (fun () -> Gpio.set gpio ~pin:8 true)

(* ---- Irq ---- *)

let test_irq_steering_round_robin () =
  let eng = Engine.create () in
  let apics = Array.init 4 (fun _ -> mk_apic eng) in
  let irq = Irq.create ~engine:eng ~apic_of:(fun i -> apics.(i)) in
  let hits = Array.make 4 0 in
  Irq.set_dispatch irq (fun ~cpu _dev _eng -> hits.(cpu) <- hits.(cpu) + 1);
  let dev =
    Irq.add_device irq ~name:"nic" ~prio:8 ~mean_interval:(Time.us 20)
      ~handler_cost:(Platform.cost 100. 0.)
  in
  Irq.steer irq dev ~cpus:[ 1; 2 ];
  Irq.start irq dev;
  Engine.run ~until:(Time.ms 2) eng;
  Alcotest.(check int) "cpu0 untouched" 0 hits.(0);
  Alcotest.(check int) "cpu3 untouched" 0 hits.(3);
  Alcotest.(check bool) "cpu1 and cpu2 share" true
    (hits.(1) > 10 && hits.(2) > 10 && abs (hits.(1) - hits.(2)) <= 1);
  Alcotest.(check int) "delivered counter" (hits.(1) + hits.(2))
    (Irq.delivered dev)

let test_irq_stop () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let irq = Irq.create ~engine:eng ~apic_of:(fun _ -> apic) in
  let count = ref 0 in
  Irq.set_dispatch irq (fun ~cpu:_ _ _ -> incr count);
  let dev =
    Irq.add_device irq ~name:"d" ~prio:8 ~mean_interval:(Time.us 10)
      ~handler_cost:(Platform.cost 10. 0.)
  in
  Irq.start irq dev;
  ignore (Engine.schedule eng ~at:(Time.us 100) (fun _ -> Irq.stop irq dev));
  Engine.run ~until:(Time.ms 1) eng;
  Alcotest.(check bool) "stopped" true (!count < 30)

let test_irq_empty_steer () =
  let eng = Engine.create () in
  let apic = mk_apic eng in
  let irq = Irq.create ~engine:eng ~apic_of:(fun _ -> apic) in
  let dev =
    Irq.add_device irq ~name:"d" ~prio:8 ~mean_interval:1L
      ~handler_cost:(Platform.cost 1. 0.)
  in
  Alcotest.check_raises "empty cpus" (Invalid_argument "Irq.steer: empty CPU list")
    (fun () -> Irq.steer irq dev ~cpus:[])

(* ---- Platform / Machine ---- *)

let test_platform_presets () =
  Alcotest.(check int) "phi cpus" 256 Platform.phi.Platform.num_cpus;
  Alcotest.(check int) "phi cores" 64 Platform.phi.Platform.cores;
  Alcotest.(check (float 1e-9)) "phi clock" 1.3 Platform.phi.Platform.ghz;
  Alcotest.(check int) "r415 cpus" 8 Platform.r415.Platform.num_cpus;
  (* The paper's headline numbers: ~6000 cycles of software overhead on
     Phi per invocation, about half in the pass. *)
  let p = Platform.phi in
  let total =
    p.Platform.irq_dispatch.Platform.mean_cycles
    +. p.Platform.sched_pass.Platform.mean_cycles
    +. p.Platform.ctx_switch.Platform.mean_cycles
    +. p.Platform.sched_other.Platform.mean_cycles
  in
  Alcotest.(check bool) "phi overhead ~6000 cycles" true
    (total > 5_000. && total < 7_000.)

let test_platform_conversions () =
  let p = Platform.phi in
  Alcotest.(check int64) "1300 cycles = 1us" (Time.us 1)
    (Platform.cycles_to_ns p 1300.);
  Alcotest.(check (float 1e-6)) "round trip" 1300.
    (Platform.ns_to_cycles p (Time.us 1));
  Alcotest.(check int64) "nonpositive clamps" 0L (Platform.cycles_to_ns p 0.);
  Alcotest.(check int64) "tiny cost at least 1ns" 1L (Platform.cycles_to_ns p 0.5)

let test_platform_sampling () =
  let p = Platform.phi in
  let rng = Rng.create 31L in
  let cost = Platform.cost 1000. 100. in
  for _ = 1 to 500 do
    let c = Platform.sample_cycles p rng cost in
    Alcotest.(check bool) "truncated below mean/4" true (c >= 250.)
  done;
  let zero_sigma = Platform.cost 1000. 0. in
  Alcotest.(check (float 0.)) "deterministic when sigma=0" 1000.
    (Platform.sample_cycles p rng zero_sigma)

let test_machine_topology () =
  let m = Machine.create ~seed:1L ~num_cpus:8 Platform.phi in
  Alcotest.(check int) "cpus" 8 (Machine.num_cpus m);
  Alcotest.(check int) "cpu0 id" 0 (Machine.cpu m 0).Machine.id;
  (* 4 hardware threads per core on Phi. *)
  Alcotest.(check int) "cpu 0 core" 0 (Machine.cpu m 0).Machine.core;
  Alcotest.(check int) "cpu 5 core" 1 (Machine.cpu m 5).Machine.core;
  (* CPU 0 is the reference: zero boot skew. *)
  Alcotest.(check int64) "cpu0 tsc offset" 0L
    (Tsc.offset_cycles (Machine.cpu m 0).Machine.tsc)

let test_machine_boot_skew () =
  let m = Machine.create ~seed:1L ~num_cpus:16 Platform.phi in
  let skewed = ref 0 in
  for i = 1 to 15 do
    if Tsc.offset_cycles (Machine.cpu m i).Machine.tsc <> 0L then incr skewed
  done;
  Alcotest.(check bool) "most CPUs have skew" true (!skewed >= 14)

let test_machine_invalid () =
  Alcotest.check_raises "zero cpus"
    (Invalid_argument "Machine.create: num_cpus 0") (fun () ->
      ignore (Machine.create ~num_cpus:0 Platform.phi))

let suite =
  [
    Alcotest.test_case "tsc counting" `Quick test_tsc_counting;
    Alcotest.test_case "tsc boot skew" `Quick test_tsc_skew;
    Alcotest.test_case "tsc write" `Quick test_tsc_write;
    Alcotest.test_case "tsc adjust" `Quick test_tsc_adjust;
    Alcotest.test_case "apic one-shot" `Quick test_apic_oneshot;
    Alcotest.test_case "apic conservative rounding" `Quick test_apic_conservative_rounding;
    Alcotest.test_case "apic tsc-deadline mode" `Quick test_apic_tsc_deadline_exact;
    Alcotest.test_case "apic rearm cancels" `Quick test_apic_rearm_cancels;
    Alcotest.test_case "apic cancel" `Quick test_apic_cancel;
    Alcotest.test_case "apic ppr gating" `Quick test_apic_ppr_gating;
    Alcotest.test_case "apic pending priority order" `Quick test_apic_pending_priority_order;
    Alcotest.test_case "smi inject freezes" `Quick test_smi_inject;
    Alcotest.test_case "smi generator" `Quick test_smi_generator;
    Alcotest.test_case "smi overlap accounting" `Quick
      test_smi_overlap_accounting;
    Alcotest.test_case "smi stop" `Quick test_smi_stop;
    Alcotest.test_case "gpio transitions" `Quick test_gpio_transitions;
    Alcotest.test_case "gpio high intervals" `Quick test_gpio_intervals;
    Alcotest.test_case "gpio pin bounds" `Quick test_gpio_bad_pin;
    Alcotest.test_case "irq steering round robin" `Quick test_irq_steering_round_robin;
    Alcotest.test_case "irq stop" `Quick test_irq_stop;
    Alcotest.test_case "irq empty steering rejected" `Quick test_irq_empty_steer;
    Alcotest.test_case "platform presets" `Quick test_platform_presets;
    Alcotest.test_case "platform conversions" `Quick test_platform_conversions;
    Alcotest.test_case "platform sampling" `Quick test_platform_sampling;
    Alcotest.test_case "machine topology" `Quick test_machine_topology;
    Alcotest.test_case "machine boot skew" `Quick test_machine_boot_skew;
    Alcotest.test_case "machine invalid args" `Quick test_machine_invalid;
  ]
