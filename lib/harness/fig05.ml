open Hrt_engine
open Hrt_core
open Hrt_stats

let measure ?ctx platform =
  let ctx = match ctx with Some c -> c | None -> Exp.Ctx.quick () in
  let horizon =
    match ctx.Exp.Ctx.scale with
    | Exp.Quick -> Time.ms 50
    | Exp.Full -> Time.ms 500
  in
  let sys =
    Scheduler.create ~seed:ctx.Exp.Ctx.seed ~num_cpus:2 ~obs:ctx.Exp.Ctx.sink
      platform
  in
  ignore
    (Exp.periodic_thread sys ~cpu:1 ~period:(Time.us 100) ~slice:(Time.us 50) ());
  Scheduler.run ~until:horizon sys;
  Local_sched.account (Scheduler.sched sys 1)

let run ?ctx () =
  let ctx = Exp.or_default ctx in
  let table =
    Table.create
      ~title:
        "Fig 5: local scheduler overhead breakdown per invocation (cycles)"
      ~columns:
        [
          ("platform", Table.Left);
          ("component", Table.Left);
          ("mean", Table.Right);
          ("stddev", Table.Right);
        ]
  in
  let accounts =
    (* One job per platform: the two accounting runs are independent. The
       tables take their rows in submission order, at any job count. *)
    Exp.parallel_map ctx
      (fun jctx plat -> (plat, measure ~ctx:jctx plat))
      [ Hrt_hw.Platform.phi; Hrt_hw.Platform.r415 ]
  in
  List.iter
    (fun (plat, acc) ->
      let row name s =
        Table.row table
          [
            plat.Hrt_hw.Platform.name;
            name;
            Printf.sprintf "%.0f" (Summary.mean s);
            Printf.sprintf "%.0f" (Summary.stddev s);
          ]
      in
      row "IRQ" (Account.irq_cycles acc);
      row "Other" (Account.other_cycles acc);
      row "Resched" (Account.resched_cycles acc);
      row "Switch" (Account.switch_cycles acc))
    accounts;
  let summary =
    Table.create ~title:"Fig 5: total software overhead per invocation"
      ~columns:
        [
          ("platform", Table.Left);
          ("total (cycles)", Table.Right);
          ("total (us)", Table.Right);
        ]
  in
  List.iter
    (fun (plat, acc) ->
      let cycles = Account.total_overhead_cycles acc in
      Table.row summary
        [
          plat.Hrt_hw.Platform.name;
          Printf.sprintf "%.0f" cycles;
          Printf.sprintf "%.2f" (cycles /. plat.Hrt_hw.Platform.ghz /. 1000.);
        ])
    accounts;
  [ table; summary ]
