type entry = {
  name : string;
  title : string;
  run : Exp.Ctx.t -> Hrt_stats.Table.t list;
}

let all =
  [
    {
      name = "fig3";
      title = "Cross-CPU cycle counter synchronization (histogram)";
      run = (fun ctx -> Fig03.run ~ctx ());
    };
    {
      name = "fig4";
      title = "External scope verification of a periodic thread";
      run = (fun ctx -> Fig04.run ~ctx ());
    };
    {
      name = "fig5";
      title = "Local scheduler overhead breakdown (Phi, R415)";
      run = (fun ctx -> Fig05.run ~ctx ());
    };
    {
      name = "fig6";
      title = "Deadline miss rate vs period/slice (Phi)";
      run = (fun ctx -> Fig06.run ~ctx ());
    };
    {
      name = "fig7";
      title = "Deadline miss rate vs period/slice (R415)";
      run = (fun ctx -> Fig07.run ~ctx ());
    };
    {
      name = "fig8";
      title = "Miss times for infeasible constraints (Phi)";
      run = (fun ctx -> Fig08.run ~ctx ());
    };
    {
      name = "fig9";
      title = "Miss times for infeasible constraints (R415)";
      run = (fun ctx -> Fig09.run ~ctx ());
    };
    {
      name = "fig10";
      title = "Group admission control costs vs group size";
      run = (fun ctx -> Fig10.run ~ctx ());
    };
    {
      name = "fig11";
      title = "Cross-CPU synchronization, 8-thread group";
      run = (fun ctx -> Fig11.run ~ctx ());
    };
    {
      name = "fig12";
      title = "Cross-CPU synchronization vs group size";
      run = (fun ctx -> Fig12.run ~ctx ());
    };
    {
      name = "fig13";
      title = "BSP resource control, coarsest granularity";
      run = (fun ctx -> Fig13.run ~ctx ());
    };
    {
      name = "fig14";
      title = "BSP resource control, finest granularity";
      run = (fun ctx -> Fig14.run ~ctx ());
    };
    {
      name = "fig15";
      title = "Barrier removal benefit, coarsest granularity";
      run = (fun ctx -> Fig15.run ~ctx ());
    };
    {
      name = "fig16";
      title = "Barrier removal benefit, finest granularity";
      run = (fun ctx -> Fig16.run ~ctx ());
    };
    {
      name = "ablation-eager";
      title = "Eager vs lazy EDF under SMIs";
      run = (fun ctx -> Ablations.eager_vs_lazy ~ctx ());
    };
    {
      name = "ablation-policy";
      title = "EDF vs rate-monotonic past the Liu-Layland bound";
      run = (fun ctx -> Ablations.edf_vs_rm ~ctx ());
    };
    {
      name = "ablation-steering";
      title = "Interrupt steering and priority segregation";
      run = (fun ctx -> Ablations.interrupt_steering ~ctx ());
    };
    {
      name = "ablation-util";
      title = "Utilization-limit knob under SMIs";
      run = (fun ctx -> Ablations.utilization_limit ~ctx ());
    };
    {
      name = "ablation-phase";
      title = "Phase correction on/off";
      run = (fun ctx -> Ablations.phase_correction ~ctx ());
    };
    {
      name = "ablation-cyclic";
      title = "EDF threads vs compiled cyclic executive";
      run = (fun ctx -> Ablations.cyclic_executive ~ctx ());
    };
    {
      name = "fault-intensity";
      title = "Miss rate vs fault intensity with graceful degradation";
      run = (fun ctx -> Fault_sweep.run ~ctx ());
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let run_and_print ?ctx entry =
  let ctx = Exp.or_default ctx in
  let t0 = Clock.now () in
  let tables = entry.run ctx in
  let elapsed = Clock.now () -. t0 in
  List.iter Hrt_stats.Table.print tables;
  Printf.printf "[%s completed in %.1fs wall, jobs=%d]\n\n%!" entry.name
    elapsed ctx.Exp.Ctx.jobs;
  tables
