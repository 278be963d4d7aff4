type config = {
  app : App_model.params;
  platform : Platform_model.params;
  workload : Workload.params;
  duration_ns : int64;
  scheduling : Codegen.Ir.scheduling;
  crc_on_accelerator : bool;
  dispatch_overhead_cycles : int;
  faults : Fault.Plan.t;
  fault_seed : int;
  engine : Efsm.Exec.engine;
  trace_backend : Sim.Trace.backend;
}

let default =
  {
    app = App_model.default_params;
    platform = Platform_model.default_params;
    workload = Workload.default_params;
    duration_ns = 2_000_000_000L;
    scheduling = Codegen.Ir.Priority_preemptive;
    crc_on_accelerator = true;
    dispatch_overhead_cycles = 20;
    faults = Fault.Plan.empty;
    fault_seed = 1;
    engine = Efsm.Exec.Compiled;
    trace_backend = Sim.Trace.Arena;
  }

let build_model config =
  Tut_profile.Builder.create "tutmac_tutwlan"
  |> App_model.add config.app
  |> Platform_model.add config.platform
  |> Mapping_model.add ~crc_on_accelerator:config.crc_on_accelerator

let validate config = Tut_profile.Builder.validate (build_model config)

let system config =
  let builder = build_model config in
  Codegen.Lower.lower
    ~dispatch_overhead_cycles:config.dispatch_overhead_cycles
    ~scheduling:config.scheduling
    ~environment:(Workload.environment config.workload)
    (Tut_profile.Builder.view builder)

type run_result = {
  report : Profiler.Report.t;
  trace : Sim.Trace.t;
  sys : Codegen.Ir.system;
  runtime : Codegen.Runtime.t;
  via_xmi : bool;
  fault_stats : Fault.Stats.t option;
}

(* Degradation re-mapping driven by the exploration engine: when the
   watchdog declares a PE dead, compile the cost kernel over the profile
   observed so far and search it exhaustively, with the dead PE's groups
   restricted to survivors and every other group pinned where it is. *)
let install_remap_hook view runtime =
  let groups = Profiler.Groups.of_view view in
  let platform = Dse.Cost.of_view view in
  let current = ref (Dse.Cost.current_assignment view) in
  Codegen.Runtime.set_remap_hook runtime (fun ~dead_pe ~survivors ->
      let report =
        Profiler.Report.build groups (Codegen.Runtime.trace runtime)
      in
      let profile = Dse.Cost.of_report report in
      let candidates =
        List.map
          (fun (group, pes) ->
            let assigned =
              match List.assoc_opt group !current with
              | Some pe -> pe
              | None -> dead_pe
            in
            if assigned = dead_pe then
              let alive = List.filter (fun pe -> List.mem pe survivors) pes in
              (group, if alive = [] then [ List.hd survivors ] else alive)
            else (group, [ assigned ]))
          (Dse.Cost.candidates view)
      in
      let kernel =
        Dse.Compiled.compile (Dse.Compiled.spec ~profile ~platform ())
          ~candidates
      in
      let result = Dse.Explore.exhaustive_compiled ~kernel () in
      current := result.Dse.Explore.best;
      List.concat_map
        (fun (group, pe) ->
          List.map
            (fun process -> (process, pe))
            (Profiler.Groups.members groups group))
        result.Dse.Explore.best)

let run_builder ?(via_xmi = false) ?obs ?flows config builder =
  let validation = Tut_profile.Builder.validate builder in
  if not (Tut_profile.Rules.is_valid validation) then
    Error
      (Format.asprintf "model validation failed:@ %a" Tut_profile.Rules.pp_report
         validation)
  else
    let view = Tut_profile.Builder.view builder in
    match
      Codegen.Lower.lower
        ~dispatch_overhead_cycles:config.dispatch_overhead_cycles
        ~scheduling:config.scheduling
        ~environment:(Workload.environment config.workload)
        view
    with
    | Error problems -> Error (String.concat "; " problems)
    | Ok sys -> (
      let injector =
        if Fault.Plan.is_empty config.faults then None
        else
          Some (Fault.Injector.create ~plan:config.faults ~seed:config.fault_seed)
      in
      let trace = Sim.Trace.create () in
      match
        Codegen.Runtime.create ~trace ?faults:injector ?obs ?flows
          ~engine:config.engine sys
      with
      | Error problems -> Error (String.concat "; " problems)
      | Ok runtime -> (
        if injector <> None then install_remap_hook view runtime;
        Codegen.Runtime.start runtime;
        ignore (Codegen.Runtime.run runtime ~until_ns:config.duration_ns);
        let groups_result =
          if via_xmi then
            (* Figure 2's profiling path: parse the XML presentation. *)
            let xml =
              Xmi.Write.to_string
                (Tut_profile.Builder.model builder)
                (Tut_profile.Builder.apps builder)
            in
            Profiler.Groups.of_xmi_string xml
          else Ok (Profiler.Groups.of_view view)
        in
        match groups_result with
        | Error e -> Error ("group extraction failed: " ^ e)
        | Ok groups ->
          let trace = Codegen.Runtime.trace runtime in
          let report = Profiler.Report.build groups trace in
          Ok
            {
              report;
              trace;
              sys;
              runtime;
              via_xmi;
              fault_stats = Codegen.Runtime.fault_stats runtime;
            }))

let run ?via_xmi ?obs ?flows config =
  run_builder ?via_xmi ?obs ?flows config (build_model config)

let render_figures config =
  let builder = build_model config in
  let view = Tut_profile.Builder.view builder in
  let model = Tut_profile.Builder.model builder in
  let annotate = Tut_profile.View.annotator view in
  let is_grouping (d : Uml.Dependency.t) =
    Profile.Apply.has
      (Tut_profile.Builder.apps builder)
      (Uml.Element.Dependency_ref d.Uml.Dependency.name)
      Tut_profile.Stereotypes.process_grouping
  in
  let is_mapping (d : Uml.Dependency.t) =
    Profile.Apply.has
      (Tut_profile.Builder.apps builder)
      (Uml.Element.Dependency_ref d.Uml.Dependency.name)
      Tut_profile.Stereotypes.platform_mapping
  in
  [
    ("figure3", Tut_profile.Summary.hierarchy ());
    ( "figure4",
      Uml.Render.class_diagram ~annotate model ~root:App_model.top_class );
    ( "figure5",
      Uml.Render.composite_structure ~annotate model
        ~class_name:App_model.top_class );
    ( "figure6",
      Uml.Render.dependency_diagram ~annotate ~filter:is_grouping model );
    ( "figure7",
      Uml.Render.composite_structure ~annotate model
        ~class_name:Platform_model.platform_class );
    ("figure8", Uml.Render.dependency_diagram ~annotate ~filter:is_mapping model);
  ]
