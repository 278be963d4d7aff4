(* tutflow: command-line driver for the TUT-Profile design and profiling
   flow (Figures 1 and 2 of the paper), exercised on the TUTMAC/TUTWLAN
   case study. *)

open Cmdliner

let config_of ~duration_ms ~arbitration ~fifo ~crc_sw ~faults ~fault_seed =
  let platform =
    {
      Tutmac.Platform_model.default_params with
      Tutmac.Platform_model.arbitration =
        (if arbitration = "round_robin" then
           Tut_profile.Stereotypes.arb_round_robin
         else Tut_profile.Stereotypes.arb_priority);
    }
  in
  {
    Tutmac.Scenario.default with
    Tutmac.Scenario.duration_ns = Int64.mul (Int64.of_int duration_ms) 1_000_000L;
    Tutmac.Scenario.platform = platform;
    Tutmac.Scenario.scheduling =
      (if fifo then Codegen.Ir.Fifo else Codegen.Ir.Priority_preemptive);
    Tutmac.Scenario.crc_on_accelerator = not crc_sw;
    Tutmac.Scenario.faults = Option.value ~default:Fault.Plan.empty faults;
    Tutmac.Scenario.fault_seed;
  }

let duration_arg =
  let doc = "Simulated duration in milliseconds." in
  Arg.(value & opt int 2000 & info [ "duration" ] ~docv:"MS" ~doc)

let arbitration_arg =
  let doc = "HIBI arbitration: priority or round_robin." in
  Arg.(value & opt string "priority" & info [ "arbitration" ] ~docv:"SCHEME" ~doc)

let fifo_arg =
  let doc = "Use FIFO run-to-completion scheduling instead of the RTOS." in
  Arg.(value & flag & info [ "fifo" ] ~doc)

let crc_sw_arg =
  let doc = "Map the CRC group to a processor instead of the accelerator." in
  Arg.(value & flag & info [ "crc-software" ] ~doc)

(* Parse the plan at option-parse time so malformed plans surface as
   argument errors with their line/field diagnostics, before any
   simulation starts. *)
let plan_conv =
  let parse path =
    match Fault.Plan.of_file path with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<fault plan>")

let faults_arg =
  let doc =
    "Inject faults from this JSON plan file (see $(b,tutflow faults --list) \
     for the injector catalog)."
  in
  Arg.(value & opt (some plan_conv) None & info [ "faults" ] ~docv:"FILE" ~doc)

let fault_seed_arg =
  let doc =
    "Seed of the fault-injection schedule; the same plan and seed replay \
     bit-identically."
  in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)

let config_term =
  Term.(
    const (fun duration_ms arbitration fifo crc_sw faults fault_seed ->
        config_of ~duration_ms ~arbitration ~fifo ~crc_sw ~faults ~fault_seed)
    $ duration_arg $ arbitration_arg $ fifo_arg $ crc_sw_arg $ faults_arg
    $ fault_seed_arg)

(* -- observability ----------------------------------------------------- *)

let metrics_out_arg =
  let doc = "Write a metrics snapshot (text exposition) here." in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let chrome_trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file here (open in Perfetto or \
     chrome://tracing)."
  in
  Arg.(
    value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

(* One scope per run: the tracer streams to the Chrome file as the
   simulation executes, metrics accumulate for --metrics-out.  With
   neither output requested the scope is null and the instrumented
   subsystems skip their hooks entirely. *)
(* [Sys_error] messages already name the offending path. *)
let die_write e =
  prerr_endline ("tutflow: cannot write " ^ e);
  exit 1

let obs_of ?(force = false) ~chrome_trace ~metrics_out () =
  if not force && chrome_trace = None && metrics_out = None then
    Obs.Scope.null ()
  else begin
    (* Fail on an unwritable --metrics-out now, not after the run. *)
    (match metrics_out with
    | None -> ()
    | Some path -> (
      match open_out path with
      | oc -> close_out oc
      | exception Sys_error e -> die_write e));
    let tracer =
      match chrome_trace with
      | None -> Obs.Tracer.null
      | Some path -> (
        try Obs.Tracer.create (Obs.Sink.chrome_file path)
        with Sys_error e -> die_write e)
    in
    Obs.Scope.create ~tracer ()
  end

let finish_obs ?(quiet = false) obs ~chrome_trace ~metrics_out =
  Obs.Tracer.close (Obs.Scope.tracer obs);
  (match chrome_trace with
  | Some path when not quiet -> Printf.printf "chrome trace written to %s\n" path
  | Some _ | None -> ());
  match metrics_out with
  | None -> ()
  | Some path ->
    let oc =
      match open_out path with
      | oc -> oc
      | exception Sys_error e -> die_write e
    in
    output_string oc
      (Obs.Metrics.render (Obs.Metrics.snapshot (Obs.Scope.metrics obs)));
    close_out oc;
    if not quiet then Printf.printf "metrics written to %s\n" path

(* -- model loading ----------------------------------------------------- *)

let model_arg =
  let doc =
    "Validate/render this XMI model file instead of the built-in \
     TUTMAC/TUTWLAN model."
  in
  Arg.(value & opt (some file) None & info [ "model" ] ~docv:"FILE" ~doc)

let builder_of config model_file =
  match model_file with
  | None -> Ok (Tutmac.Scenario.build_model config)
  | Some path -> (
    let ic = open_in path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match
      Xmi.Read.of_string ~profile:Tut_profile.Stereotypes.profile contents
    with
    | Ok (model, apps) ->
      Ok { Tut_profile.Builder.model; Tut_profile.Builder.apps }
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

(* Generic diagram rendering for any stereotyped model: class diagram and
   composite structure of the application and platform classes, grouping
   and mapping dependency diagrams. *)
let generic_figures builder =
  let view = Tut_profile.Builder.view builder in
  let model = Tut_profile.Builder.model builder in
  let apps = Tut_profile.Builder.apps builder in
  let annotate = Tut_profile.View.annotator view in
  let stereotyped_dep stereotype (d : Uml.Dependency.t) =
    Profile.Apply.has apps
      (Uml.Element.Dependency_ref d.Uml.Dependency.name)
      stereotype
  in
  [ ("figure3", Tut_profile.Summary.hierarchy ()) ]
  @ List.concat_map
      (fun root ->
        [
          ("figure4", Uml.Render.class_diagram ~annotate model ~root);
          ( "figure5",
            Uml.Render.composite_structure ~annotate model ~class_name:root );
        ])
      view.Tut_profile.View.application_classes
  @ [
      ( "figure6",
        Uml.Render.dependency_diagram ~annotate
          ~filter:(stereotyped_dep Tut_profile.Stereotypes.process_grouping)
          model );
    ]
  @ List.map
      (fun platform ->
        ( "figure7",
          Uml.Render.composite_structure ~annotate model ~class_name:platform ))
      view.Tut_profile.View.platform_classes
  @ [
      ( "figure8",
        Uml.Render.dependency_diagram ~annotate
          ~filter:(stereotyped_dep Tut_profile.Stereotypes.platform_mapping)
          model );
    ]

(* -- validate -------------------------------------------------------- *)

let validate_cmd =
  let run config model_file =
    match builder_of config model_file with
    | Error e ->
      prerr_endline e;
      1
    | Ok builder ->
      let report = Tut_profile.Builder.validate builder in
      Format.printf "%a@." Tut_profile.Rules.pp_report report;
      if Tut_profile.Rules.is_valid report then 0 else 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Check the model against the TUT-Profile design rules")
    Term.(const run $ config_term $ model_arg)

(* -- tables ---------------------------------------------------------- *)

let table_arg =
  let doc = "Which table to print (1, 2, 3 or 4)." in
  Arg.(value & opt int 1 & info [ "table" ] ~docv:"N" ~doc)

let via_xmi_arg =
  let doc = "Recover group info by serialising to XML and parsing it back." in
  Arg.(value & flag & info [ "via-xmi" ] ~doc)

let tables_cmd =
  let run config table via_xmi =
    match table with
    | 1 ->
      print_string (Tut_profile.Summary.table1 ());
      0
    | 2 ->
      print_string (Tut_profile.Summary.table2 ());
      0
    | 3 ->
      print_string (Tut_profile.Summary.table3 ());
      0
    | 4 -> (
      match Tutmac.Scenario.run ~via_xmi config with
      | Error e ->
        prerr_endline e;
        1
      | Ok result ->
        print_string (Profiler.Report.render result.Tutmac.Scenario.report);
        0)
    | n ->
      Printf.eprintf "no such table: %d\n" n;
      1
  in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate the paper's tables")
    Term.(const run $ config_term $ table_arg $ via_xmi_arg)

(* -- diagrams -------------------------------------------------------- *)

let figure_arg =
  let doc = "Which figure to print (3-8); 0 prints all." in
  Arg.(value & opt int 0 & info [ "figure" ] ~docv:"N" ~doc)

let diagrams_cmd =
  let run config figure model_file =
    match builder_of config model_file with
    | Error e ->
      prerr_endline e;
      1
    | Ok builder ->
      let figures =
        match model_file with
        | None -> Tutmac.Scenario.render_figures config
        | Some _ -> generic_figures builder
      in
      let wanted = Printf.sprintf "figure%d" figure in
      let matched =
        List.filter (fun (id, _) -> figure = 0 || id = wanted) figures
      in
      if matched = [] then begin
        Printf.eprintf "no such figure: %d\n" figure;
        1
      end
      else begin
        List.iter
          (fun (id, text) -> Printf.printf "---- %s ----\n%s\n" id text)
          matched;
        0
      end
  in
  Cmd.v (Cmd.info "diagrams" ~doc:"Render the paper's diagrams as text")
    Term.(const run $ config_term $ figure_arg $ model_arg)

(* -- xmi ------------------------------------------------------------- *)

let output_arg =
  let doc = "Output file (stdout when absent)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let xmi_cmd =
  let run config output =
    let builder = Tutmac.Scenario.build_model config in
    let xml =
      Xmi.Write.to_string
        (Tut_profile.Builder.model builder)
        (Tut_profile.Builder.apps builder)
    in
    (match output with
    | None -> print_string xml
    | Some path ->
      let oc = open_out path in
      output_string oc xml;
      close_out oc);
    0
  in
  Cmd.v (Cmd.info "xmi" ~doc:"Serialise the model to its XML presentation")
    Term.(const run $ config_term $ output_arg)

(* -- generate -------------------------------------------------------- *)

let outdir_arg =
  let doc = "Directory for the generated C sources." in
  Arg.(value & opt string "generated" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)

let generate_cmd =
  let run config dir =
    match Tutmac.Scenario.system config with
    | Error problems ->
      List.iter prerr_endline problems;
      1
    | Ok sys ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (name, contents) ->
          let path = Filename.concat dir name in
          let oc = open_out path in
          output_string oc contents;
          close_out oc;
          Printf.printf "wrote %s (%d bytes)\n" path (String.length contents))
        (Codegen.C_emit.all_files sys);
      0
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate application C code from the model")
    Term.(const run $ config_term $ outdir_arg)

(* -- simulate -------------------------------------------------------- *)

let log_arg =
  let doc = "Write the simulation log-file here." in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let simulate_flows_arg =
  let doc =
    "Also arm the causal flow tracker so flow hops (L lines) appear in the \
     log-file."
  in
  Arg.(value & flag & info [ "flows" ] ~doc)

let simulate_cmd =
  let run config log with_flows chrome_trace metrics_out =
    let obs = obs_of ~chrome_trace ~metrics_out () in
    let flows = if with_flows then Some (Obs.Flow.create ()) else None in
    match Tutmac.Scenario.run ~obs ?flows config with
    | Error e ->
      prerr_endline e;
      1
    | Ok result ->
      let trace = result.Tutmac.Scenario.trace in
      Printf.printf "simulated %Ld ms of protocol operation\n"
        (Int64.div config.Tutmac.Scenario.duration_ns 1_000_000L);
      Printf.printf "log events: %d\n" (Sim.Trace.length trace);
      List.iter
        (fun (pe, busy) -> Printf.printf "  %-14s busy %Ld ns\n" pe busy)
        (Codegen.Runtime.pe_busy_ns result.Tutmac.Scenario.runtime);
      List.iter
        (fun (seg, stats) ->
          Printf.printf "  %-14s %Ld words, %Ld grants, max queue %d\n" seg
            stats.Hibi.Network.words stats.Hibi.Network.grants
            stats.Hibi.Network.max_waiting)
        (Codegen.Runtime.segment_stats result.Tutmac.Scenario.runtime);
      (match result.Tutmac.Scenario.fault_stats with
      | None -> ()
      | Some fstats ->
        List.iter
          (fun (seg, stats) ->
            Printf.printf
              "  %-14s %Ld hops delivered, %Ld dropped, %Ld corrupted\n" seg
              stats.Hibi.Network.delivered stats.Hibi.Network.dropped
              stats.Hibi.Network.corrupted)
          (Codegen.Runtime.segment_stats result.Tutmac.Scenario.runtime);
        print_newline ();
        print_string (Profiler.Report.render_fault_section fstats));
      (match Codegen.Runtime.runtime_errors result.Tutmac.Scenario.runtime with
      | [] -> ()
      | errors ->
        Printf.printf "runtime errors:\n";
        List.iter (Printf.printf "  %s\n") errors);
      (match log with
      | None -> ()
      | Some path ->
        Sim.Trace.save trace path;
        Printf.printf "log written to %s\n" path);
      finish_obs obs ~chrome_trace ~metrics_out;
      0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the generated application on the platform model")
    Term.(
      const run $ config_term $ log_arg $ simulate_flows_arg $ chrome_trace_arg
      $ metrics_out_arg)

(* -- profile --------------------------------------------------------- *)

let transfers_arg =
  let doc = "Also print per-process transfer metrics." in
  Arg.(value & flag & info [ "transfers" ] ~doc)

let timeline_arg =
  let doc = "Also print the per-window load timeline (window in ms)." in
  Arg.(value & opt (some int) None & info [ "timeline" ] ~docv:"MS" ~doc)

let latency_arg =
  let doc = "Also print end-to-end MSDU latency (request to indication)." in
  Arg.(value & flag & info [ "latency" ] ~doc)

let profile_cmd =
  let run config via_xmi transfers timeline latency chrome_trace metrics_out =
    let obs = obs_of ~chrome_trace ~metrics_out () in
    match Tutmac.Scenario.run ~via_xmi ~obs config with
    | Error e ->
      prerr_endline e;
      1
    | Ok result ->
      print_string (Profiler.Report.render result.Tutmac.Scenario.report);
      (match result.Tutmac.Scenario.fault_stats with
      | None -> ()
      | Some fstats ->
        print_newline ();
        print_string (Profiler.Report.render_fault_section fstats));
      if transfers then begin
        print_newline ();
        print_string
          (Profiler.Report.render_transfers result.Tutmac.Scenario.report)
      end;
      (if latency then
         match
           Profiler.Latency.measure ~src_signal:Tutmac.Signals.msdu_req
             ~dst_signal:Tutmac.Signals.msdu_ind result.Tutmac.Scenario.trace
         with
         | Some stats ->
           print_newline ();
           print_string
             (Profiler.Latency.render ~label:"MSDU request -> indication" stats)
         | None -> print_endline "no MSDU latencies matched");
      (match timeline with
      | None -> ()
      | Some window_ms ->
        let builder = Tutmac.Scenario.build_model config in
        let groups =
          Profiler.Groups.of_view (Tut_profile.Builder.view builder)
        in
        print_newline ();
        print_string
          (Profiler.Timeline.render
             (Profiler.Timeline.build groups
                ~window_ns:(Int64.mul (Int64.of_int window_ms) 1_000_000L)
                result.Tutmac.Scenario.trace)));
      finish_obs obs ~chrome_trace ~metrics_out;
      0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the full profiling flow and print the Table 4 report")
    Term.(
      const run $ config_term $ via_xmi_arg $ transfers_arg $ timeline_arg
      $ latency_arg $ chrome_trace_arg $ metrics_out_arg)

(* -- stats ------------------------------------------------------------ *)

let stats_flows_arg =
  let doc =
    "Also arm the causal flow tracker so flow.* latency histograms (hdr \
     lines) appear in the snapshot."
  in
  Arg.(value & flag & info [ "flows" ] ~doc)

let stats_cmd =
  let run config with_flows chrome_trace metrics_out =
    let obs = obs_of ~force:true ~chrome_trace ~metrics_out () in
    let flows =
      if with_flows then
        Some (Obs.Flow.create ~metrics:(Obs.Scope.metrics obs) ())
      else None
    in
    match Tutmac.Scenario.run ~obs ?flows config with
    | Error e ->
      prerr_endline e;
      1
    | Ok result ->
      let snapshot = Obs.Metrics.snapshot (Obs.Scope.metrics obs) in
      print_string (Obs.Metrics.render snapshot);
      print_newline ();
      let status =
        match
          Profiler.Report.cross_check result.Tutmac.Scenario.report snapshot
        with
        | Ok () ->
          Printf.printf
            "cross-check: report total cycles match runtime counters (%Ld)\n"
            result.Tutmac.Scenario.report.Profiler.Report.total_cycles;
          0
        | Error e ->
          Printf.printf "cross-check FAILED: %s\n" e;
          1
      in
      finish_obs obs ~chrome_trace ~metrics_out;
      status
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the simulation with full instrumentation, print the metric \
          snapshot and cross-check it against the profiling report")
    Term.(
      const run $ config_term $ stats_flows_arg $ chrome_trace_arg
      $ metrics_out_arg)

(* -- report ----------------------------------------------------------- *)

let report_format_arg =
  let doc = "Output format: text or json." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let replay_arg =
  let doc =
    "Rebuild the flow report from this saved simulation log instead of \
     running a simulation (platform rows are omitted — busy times are not \
     in the log)."
  in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let report_cmd =
  let run config format replay log =
    let print report =
      match format with
      | `Text -> print_string (Profiler.Flow_report.render_text report)
      | `Json ->
        print_endline
          (Obs.Json.to_string (Profiler.Flow_report.render_json report))
    in
    match replay with
    | Some path -> (
      match Sim.Trace.load path with
      | Error e ->
        prerr_endline (path ^ ": " ^ e);
        1
      | Ok trace ->
        print (Profiler.Flow_report.of_trace trace);
        0)
    | None -> (
      (* A live scope (for the RTOS queue-depth gauges) plus an enabled
         flow tracker recording into the same registry. *)
      let obs = Obs.Scope.create () in
      let flows = Obs.Flow.create ~metrics:(Obs.Scope.metrics obs) () in
      match Tutmac.Scenario.run ~obs ~flows config with
      | Error e ->
        prerr_endline e;
        1
      | Ok result ->
        let runtime = result.Tutmac.Scenario.runtime in
        let segments =
          List.map
            (fun (seg, stats) ->
              (seg, stats.Hibi.Network.words, stats.Hibi.Network.max_waiting))
            (Codegen.Runtime.segment_stats runtime)
        in
        let report =
          Profiler.Flow_report.of_snapshot
            ~duration_ns:config.Tutmac.Scenario.duration_ns
            ~pe_busy:(Codegen.Runtime.pe_busy_ns runtime)
            ~segments
            ~pe_peaks:(Codegen.Runtime.pe_queue_high_water runtime)
            ~trace:result.Tutmac.Scenario.trace
            (Obs.Metrics.snapshot (Obs.Scope.metrics obs))
        in
        (match log with
        | None -> ()
        | Some path -> Sim.Trace.save result.Tutmac.Scenario.trace path);
        print report;
        0)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run (or replay) a simulation with causal flow tracing and print \
          the end-to-end latency report: per-traffic-class histograms, \
          stage decomposition, platform utilisation, ARQ retries")
    Term.(const run $ config_term $ report_format_arg $ replay_arg $ log_arg)

(* -- explore --------------------------------------------------------- *)

let algorithm_arg =
  let doc = "Exploration algorithm: greedy, sa, random or exhaustive." in
  Arg.(
    value
    & opt
        (enum
           [ ("greedy", `Greedy); ("sa", `Sa); ("random", `Random);
             ("exhaustive", `Exhaustive) ])
        `Greedy
    & info [ "algorithm" ] ~docv:"ALGO" ~doc)

let seed_arg =
  let doc = "Random seed for stochastic algorithms." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

(* An int with a lower bound, checked while parsing: an out-of-range
   value is a usage error naming the option, raised before any
   simulation. *)
let int_at_least lower =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lower -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lower s))
  in
  Arg.conv (parse, Format.pp_print_int)

let iterations_arg =
  let doc = "Iteration budget for stochastic algorithms (at least 1)." in
  Arg.(value & opt (int_at_least 1) 500 & info [ "iterations" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel exploration drivers (sa, random, \
     exhaustive).  0 means one per recommended core \
     (Domain.recommended_domain_count).  Every value returns identical \
     results, but more domains are not automatically faster: each task \
     compiles its own kernel and domains cost start-up.  On a 2-vCPU \
     Xeon VM, -j 2 ran the default 500 annealing iterations at \
     0.13-0.41x the speed of -j 1 and exhaustive search at 0.36-0.75x \
     (16k points) and 0.84-1.13x (262k points); only 2M-iteration \
     annealing gained (1.07-1.83x).  greedy is inherently sequential \
     and ignores this."
  in
  Arg.(value & opt (int_at_least 0) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let explore_cmd =
  let run config algorithm seed iterations jobs =
    match Tutmac.Scenario.run config with
    | Error e ->
      prerr_endline e;
      1
    | Ok result ->
      let builder = Tutmac.Scenario.build_model config in
      let view = Tut_profile.Builder.view builder in
      let spec =
        Dse.Compiled.spec
          ~profile:(Dse.Cost.of_report result.Tutmac.Scenario.report)
          ~platform:(Dse.Cost.of_view view) ()
      in
      let candidates = Dse.Cost.candidates view in
      let kernel = Dse.Compiled.compile spec ~candidates in
      let init = Dse.Cost.current_assignment view in
      let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
      let result =
        match algorithm with
        | `Greedy -> Dse.Explore.greedy_compiled ~kernel ~init ()
        | `Sa ->
          Dse.Parallel.simulated_annealing_compiled ~jobs ~seed ~iterations
            ~spec ~candidates ~init ()
        | `Random ->
          Dse.Parallel.random_search_compiled ~jobs ~seed ~iterations ~spec
            ~candidates ()
        | `Exhaustive ->
          Dse.Parallel.exhaustive_compiled ~jobs ~spec ~candidates ()
      in
      if jobs > 1 && algorithm <> `Greedy then
        Printf.printf "exploring with %d worker domains\n" jobs;
      Printf.printf "initial mapping cost: %.2f\n"
        (Dse.Compiled.full_cost kernel init);
      Printf.printf "best cost: %.2f after %d evaluations\n"
        result.Dse.Explore.best_cost result.Dse.Explore.evaluations;
      List.iter
        (fun (group, pe) -> Printf.printf "  %-10s -> %s\n" group pe)
        result.Dse.Explore.best;
      0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Explore alternative group-to-PE mappings over profiling data")
    Term.(
      const run $ config_term $ algorithm_arg $ seed_arg $ iterations_arg
      $ jobs_arg)

(* -- analyze --------------------------------------------------------- *)

let analyze_cmd =
  let run config =
    match Tutmac.Scenario.system config with
    | Error problems ->
      List.iter prerr_endline problems;
      1
    | Ok sys -> (
      print_string (Analysis.Rta.render (Analysis.Rta.of_system sys));
      print_newline ();
      match Tutmac.Scenario.run config with
      | Error e ->
        prerr_endline e;
        1
      | Ok result ->
        let builder = Tutmac.Scenario.build_model config in
        let report =
          Analysis.Platform_report.build
            ~view:(Tut_profile.Builder.view builder)
            ~busy:(Codegen.Runtime.pe_busy_ns result.Tutmac.Scenario.runtime)
            ~duration_ns:config.Tutmac.Scenario.duration_ns
        in
        print_string (Analysis.Platform_report.render report);
        0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static response-time analysis plus the measured platform \
          utilisation/energy report")
    Term.(const run $ config_term)

(* -- regroup --------------------------------------------------------- *)

let regroup_cmd =
  let run config =
    match Tutmac.Scenario.run config with
    | Error e ->
      prerr_endline e;
      1
    | Ok result ->
      let builder = Tutmac.Scenario.build_model config in
      let view = Tut_profile.Builder.view builder in
      let suggestion =
        Dse.Grouping.suggest ~view ~report:result.Tutmac.Scenario.report
      in
      Printf.printf "inter-group traffic: %d signals before, %d after\n"
        suggestion.Dse.Grouping.before suggestion.Dse.Grouping.after;
      if suggestion.Dse.Grouping.moves = [] then begin
        print_endline "the current grouping is locally optimal";
        0
      end
      else begin
        List.iter
          (fun (process, from_group, to_group) ->
            Printf.printf "  move %s: %s -> %s\n"
              (Uml.Element.to_string process)
              from_group to_group)
          suggestion.Dse.Grouping.moves;
        let builder' =
          Dse.Grouping.apply builder suggestion.Dse.Grouping.assignment
        in
        let validation = Tut_profile.Builder.validate builder' in
        Printf.printf "regrouped model validity: %s\n"
          (if Tut_profile.Rules.is_valid validation then "valid" else "INVALID");
        (* Close the loop: re-simulate the regrouped model and print the
           measured report, as the designer of Figure 2 would. *)
        match Tutmac.Scenario.run_builder config builder' with
        | Error e ->
          prerr_endline e;
          1
        | Ok result' ->
          print_newline ();
          print_endline "profiling report after regrouping:";
          print_string (Profiler.Report.render result'.Tutmac.Scenario.report);
          0
      end
  in
  Cmd.v
    (Cmd.info "regroup"
       ~doc:
         "Suggest an automatic process regrouping that minimises \
          inter-group communication (paper future work)")
    Term.(const run $ config_term)

(* -- lint ------------------------------------------------------------- *)

let lint_format_arg =
  let doc = "Output format: text or jsonl (one JSON diagnostic per line)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let max_severity_arg =
  let doc =
    "Exit non-zero when a diagnostic at or above this severity exists: \
     error (the default) or warning."
  in
  Arg.(value & opt string "error" & info [ "max-severity" ] ~docv:"SEV" ~doc)

let lint_list_arg =
  let doc = "List the lint passes and diagnostic codes instead of running." in
  Arg.(value & flag & info [ "list" ] ~doc)

let lint_passes_arg =
  let doc =
    "Run only this comma-separated subset of passes, named by pass name or \
     diagnostic code (e.g. 'deadlock' or 'L05,L09')."
  in
  Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"LIST" ~doc)

(* Resolve a --passes list to passes in registration order; an unknown
   entry is a usage error that lists every valid name and code. *)
let resolve_passes spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let matches (p : Lint.Pass.t) entry =
    p.Lint.Pass.name = entry || List.mem entry p.Lint.Pass.codes
  in
  match
    List.find_opt
      (fun entry ->
        not (List.exists (fun p -> matches p entry) Lint.Engine.passes))
      entries
  with
  | Some bad ->
    Error
      (Printf.sprintf "unknown pass or code %s (valid: %s)" bad
         (String.concat ", "
            (List.map
               (fun (p : Lint.Pass.t) ->
                 p.Lint.Pass.name ^ " ["
                 ^ String.concat "," p.Lint.Pass.codes
                 ^ "]")
               Lint.Engine.passes)))
  | None ->
    Ok
      (List.filter
         (fun p -> List.exists (matches p) entries)
         Lint.Engine.passes)

let lint_cmd =
  let run config model_file format max_severity list passes_spec chrome_trace
      metrics_out =
    if list then begin
      print_endline "passes:";
      List.iter
        (fun (p : Lint.Pass.t) ->
          Printf.printf "  %-12s %-14s %s\n" p.Lint.Pass.name
            (String.concat "," p.Lint.Pass.codes)
            p.Lint.Pass.describe)
        Lint.Engine.passes;
      print_endline "codes:";
      List.iter
        (fun (code, severity, summary) ->
          Printf.printf "  %s [%s] %s\n" code
            (Lint.Diagnostic.severity_to_string severity)
            summary)
        Lint.Engine.catalog;
      0
    end
    else
      match Lint.Diagnostic.severity_of_string max_severity with
      | None ->
        Printf.eprintf "unknown severity %s (expected error or warning)\n"
          max_severity;
        2
      | Some threshold -> (
        if format <> "text" && format <> "jsonl" then begin
          Printf.eprintf "unknown format %s (expected text or jsonl)\n" format;
          2
        end
        else
          match
            match passes_spec with
            | None -> Ok Lint.Engine.passes
            | Some spec -> resolve_passes spec
          with
          | Error e ->
            prerr_endline e;
            2
          | Ok selection -> (
          match builder_of config model_file with
          | Error e ->
            prerr_endline e;
            2
          | Ok builder ->
            let quiet = format = "jsonl" in
            let obs = obs_of ~chrome_trace ~metrics_out () in
            let model = Tut_profile.Builder.model builder in
            (* The model checker discharges or confirms L09's static
               over-approximation; everything else is unaffected. *)
            let ctx =
              {
                (Lint.Pass.context_of_model model) with
                Lint.Pass.deadlock_oracle =
                  Some (Mc.Check.deadlock_oracle model);
              }
            in
            let results = Lint.Engine.run ~obs ~selection ctx in
            let diagnostics = List.concat_map snd results in
            (if format = "jsonl" then
               List.iter
                 (fun d ->
                   print_endline
                     (Obs.Json.to_string (Lint.Diagnostic.to_json d)))
                 diagnostics
             else begin
               List.iter
                 (fun d -> print_endline (Lint.Diagnostic.render d))
                 diagnostics;
               Printf.printf "lint: %d passes, %d errors, %d warnings\n"
                 (List.length results)
                 (List.length (Lint.Diagnostic.errors diagnostics))
                 (List.length (Lint.Diagnostic.warnings diagnostics))
             end);
            finish_obs ~quiet obs ~chrome_trace ~metrics_out;
            if Lint.Diagnostic.at_or_above threshold diagnostics <> [] then 1
            else 0))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Behavioural static analysis of the EFSM network (codes L01-L09): \
          reachability, determinism, dataflow, signal flow, deadlock")
    Term.(
      const run $ config_term $ model_arg $ lint_format_arg $ max_severity_arg
      $ lint_list_arg $ lint_passes_arg $ chrome_trace_arg $ metrics_out_arg)

(* -- check (model checker) -------------------------------------------- *)

let check_format_arg =
  let doc = "Output format: text or jsonl (one JSON diagnostic per line)." in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)

let on_off default name doc =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) default
    & info [ name ] ~docv:"on|off" ~doc)

let max_states_arg =
  let doc = "Stop after storing this many global states." in
  Arg.(
    value
    & opt int Mc.Explore.default_budget.Mc.Explore.max_states
    & info [ "max-states" ] ~docv:"N" ~doc)

let max_depth_arg =
  let doc = "Do not explore schedules longer than this (0 = unlimited)." in
  Arg.(value & opt int 0 & info [ "max-depth" ] ~docv:"N" ~doc)

let queue_capacity_arg =
  let doc = "Signal queue capacity per instance; exceeding it is M02." in
  Arg.(
    value
    & opt int Mc.Explore.default_budget.Mc.Explore.queue_capacity
    & info [ "queue-capacity" ] ~docv:"N" ~doc)

let env_budget_arg =
  let doc = "Injections per environment input along any schedule." in
  Arg.(
    value
    & opt int Mc.Explore.default_budget.Mc.Explore.env_budget
    & info [ "env-budget" ] ~docv:"N" ~doc)

let timer_budget_arg =
  let doc = "Timer fires per instance along any schedule." in
  Arg.(
    value
    & opt int Mc.Explore.default_budget.Mc.Explore.timer_budget
    & info [ "timer-budget" ] ~docv:"N" ~doc)

let order_arg =
  let doc = "Exploration order: bfs (shortest counterexamples) or dfs." in
  Arg.(
    value
    & opt (enum [ ("bfs", Mc.Explore.Bfs); ("dfs", Mc.Explore.Dfs) ])
        Mc.Explore.Bfs
    & info [ "order" ] ~docv:"ORDER" ~doc)

let property_arg =
  let doc = "Property to check: all, deadlock or overflow." in
  Arg.(
    value
    & opt
        (enum
           [
             ("all", Mc.Check.P_all);
             ("deadlock", Mc.Check.P_deadlock);
             ("overflow", Mc.Check.P_overflow);
           ])
        Mc.Check.P_all
    & info [ "property" ] ~docv:"PROP" ~doc)

let trace_out_arg =
  let doc = "Write the counterexample trace (Sim.Trace format) here." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let replay_arg =
  let doc =
    "Replay this counterexample trace against the model instead of \
     exploring: re-execute its embedded schedule on the compiled engine \
     and require the regenerated trace to match byte for byte."
  in
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let check_cmd =
  let run config model_file format max_states max_depth queue_capacity
      env_budget timer_budget por coi order property trace_out replay
      chrome_trace metrics_out =
    if format <> "text" && format <> "jsonl" then begin
      Printf.eprintf "unknown format %s (expected text or jsonl)\n" format;
      2
    end
    else
      match builder_of config model_file with
      | Error e ->
        prerr_endline e;
        2
      | Ok builder -> (
        let model = Tut_profile.Builder.model builder in
        let options =
          {
            Mc.Check.order;
            budget =
              {
                Mc.Explore.max_states;
                max_depth;
                queue_capacity;
                env_budget;
                timer_budget;
              };
            por;
            coi;
            property;
          }
        in
        match replay with
        | Some path -> (
          match Sim.Trace.load path with
          | Error e ->
            prerr_endline e;
            2
          | Ok trace -> (
            let net = Mc.Net.build model in
            match
              Mc.Counterexample.replay net ~engine:Efsm.Exec.Compiled trace
            with
            | Error e ->
              prerr_endline e;
              1
            | Ok summary ->
              Printf.printf "replay: %d steps reproduced byte for byte\n"
                summary.Mc.Counterexample.s_steps;
              (match summary.Mc.Counterexample.s_verdict with
              | Mc.Counterexample.V_none -> print_endline "verdict: no violation"
              | Mc.Counterexample.V_deadlock members ->
                Printf.printf "verdict: deadlock among %s\n"
                  (String.concat ", " members)
              | Mc.Counterexample.V_overflow (path, signal) ->
                Printf.printf "verdict: queue overflow at %s (signal %s)\n"
                  path signal);
              List.iter
                (fun (path, state, qlen) ->
                  Printf.printf "  %s: state %s, %d queued\n" path state qlen)
                summary.Mc.Counterexample.s_final;
              0))
        | None -> (
          let quiet = format = "jsonl" in
          let obs = obs_of ~chrome_trace ~metrics_out () in
          let start = Unix.gettimeofday () in
          match Mc.Check.run ~obs ~options model with
          | Error e ->
            prerr_endline e;
            2
          | Ok report ->
            let elapsed = Unix.gettimeofday () -. start in
            (match (trace_out, report.Mc.Check.r_trace) with
            | Some path, Some trace ->
              Sim.Trace.save trace path;
              if not quiet then
                Printf.eprintf "counterexample written to %s\n" path
            | Some _, None ->
              if not quiet then
                Printf.eprintf "no violation found: no counterexample written\n"
            | None, _ -> ());
            (if format = "jsonl" then
               List.iter
                 (fun d ->
                   print_endline
                     (Obs.Json.to_string (Lint.Diagnostic.to_json d)))
                 report.Mc.Check.r_diagnostics
             else print_string (Mc.Check.render report));
            (* Throughput to stderr: stdout stays deterministic for the
               CI reference diff. *)
            if not quiet && elapsed > 0. then
              Printf.eprintf "explored %d states in %.3fs (%.0f states/sec)\n"
                report.Mc.Check.r_stats.Mc.Explore.states elapsed
                (float_of_int report.Mc.Check.r_stats.Mc.Explore.states
                /. elapsed);
            finish_obs ~quiet obs ~chrome_trace ~metrics_out;
            if
              Lint.Diagnostic.errors report.Mc.Check.r_diagnostics <> []
            then 1
            else 0))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Explicit-state model checking of the composed EFSM network (codes \
          M01-M06): deadlock, bounded-queue overflow, state and transition \
          coverage, with replayable counterexamples")
    Term.(
      const run $ config_term $ model_arg $ check_format_arg $ max_states_arg
      $ max_depth_arg $ queue_capacity_arg $ env_budget_arg $ timer_budget_arg
      $ on_off true "por"
          "Partial-order reduction: explore one representative \
           interleaving of provably independent steps."
      $ on_off true "coi"
          "Cone-of-influence abstraction: key the visited set on \
           control-relevant variables only."
      $ order_arg $ property_arg $ trace_out_arg $ replay_arg
      $ chrome_trace_arg $ metrics_out_arg)

(* -- wlan ------------------------------------------------------------- *)

let wlan_cmd =
  let terminals_arg =
    let doc = "Number of terminals in the fleet." in
    Arg.(value & opt int 8 & info [ "terminals" ] ~docv:"N" ~doc)
  in
  let slot_arg =
    let doc = "Channel slot (transmission airtime) in nanoseconds." in
    Arg.(value & opt int 50_000 & info [ "slot-ns" ] ~docv:"NS" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the arrival-jitter and backoff streams." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let mix_arg =
    (* Checked while parsing: an empty item (so also an empty list) or an
       unknown class is a usage error naming the option. *)
    let parse spec =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
          match String.trim item with
          | "" -> Error (`Msg (Printf.sprintf "empty traffic class in %S" spec))
          | name -> (
            match Tutmac.Workload.profile_of_name name with
            | Some p -> go (p :: acc) rest
            | None -> Error (`Msg (Printf.sprintf "unknown traffic class %S" name))))
      in
      go [] (String.split_on_char ',' spec)
    in
    let print ppf mix =
      Format.pp_print_string ppf
        (String.concat "," (List.map Tutmac.Workload.profile_name mix))
    in
    let doc =
      "Comma-separated traffic classes terminals cycle over: cbr, bursty, \
       video."
    in
    Arg.(
      value
      & opt (conv (parse, print)) Tutmac.Workload.default_mix
      & info [ "mix" ] ~docv:"MIX" ~doc)
  in
  let churn_arg =
    let doc =
      "Scripted churn: comma-separated TERMINAL@LEAVE_MS[-REJOIN_MS] items, \
       e.g. 4@200-800,5@300."
    in
    Arg.(value & opt string "" & info [ "churn" ] ~docv:"SPEC" ~doc)
  in
  let retries_arg =
    let doc = "Per-fragment transmission attempts before abandoning." in
    Arg.(value & opt int 6 & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc = "Output format: text or json." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let run duration_ms terminals slot_ns seed mix churn max_retries faults
      fault_seed format log chrome_trace metrics_out =
    match Tutmac.Wlan.churn_of_string churn with
    | Error e ->
      prerr_endline ("wlan: " ^ e);
      1
    | Ok churn -> (
      let obs = obs_of ~chrome_trace ~metrics_out () in
      let config =
        {
          Tutmac.Wlan.default with
          Tutmac.Wlan.terminals;
          Tutmac.Wlan.duration_ns = duration_ms * 1_000_000;
          Tutmac.Wlan.slot_ns;
          Tutmac.Wlan.seed;
          Tutmac.Wlan.mix;
          Tutmac.Wlan.max_retries;
          Tutmac.Wlan.churn;
          Tutmac.Wlan.faults = Option.value ~default:Fault.Plan.empty faults;
          Tutmac.Wlan.fault_seed;
        }
      in
      match Tutmac.Wlan.run ~obs config with
      | exception Invalid_argument e ->
        prerr_endline ("wlan: " ^ e);
        1
      | result ->
        (match format with
        | `Text -> print_string (Tutmac.Wlan.render result)
        | `Json ->
          print_endline (Obs.Json.to_string (Tutmac.Wlan.render_json result)));
        (match log with
        | None -> ()
        | Some path ->
          Sim.Trace.save result.Tutmac.Wlan.trace path;
          Printf.printf "log written to %s\n" path);
        finish_obs obs ~chrome_trace ~metrics_out;
        0)
  in
  Cmd.v
    (Cmd.info "wlan"
       ~doc:
         "Simulate a fleet of TUTWLAN terminals on a hostile shared channel \
          (collisions, channel faults, churn)")
    Term.(
      const run $ duration_arg $ terminals_arg $ slot_arg $ seed_arg $ mix_arg
      $ churn_arg $ retries_arg $ faults_arg $ fault_seed_arg $ format_arg $ log_arg $ chrome_trace_arg $ metrics_out_arg)

(* -- faults ----------------------------------------------------------- *)

let faults_cmd =
  let list_arg =
    let doc = "List the available fault injectors and their fields." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let plan_file_arg =
    let doc = "Validate this fault-plan file and print a summary." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PLAN" ~doc)
  in
  let run list plan_file =
    match list, plan_file with
    | false, None ->
      prerr_endline "faults: nothing to do (pass --list or a plan file)";
      2
    | _ ->
      if list then begin
        Printf.printf "Available fault injectors:\n";
        List.iter
          (fun (kind, descr) -> Printf.printf "  %-13s %s\n" kind descr)
          Fault.Plan.catalog;
        Printf.printf
          "\nA plan is JSON: {\"faults\": [{\"kind\": ..., ...}, ...], \
           \"recovery\": {\"ack_timeout_ns\", \"max_retries\", \
           \"watchdog_period_ns\", \"remap\"}}.\n\
           Targets accept \"*\"; omit until_ns (or use -1) for an unbounded \
           window.\n"
      end;
      (match plan_file with
      | None -> 0
      | Some path -> (
        match Fault.Plan.of_file path with
        | Error e ->
          prerr_endline e;
          1
        | Ok plan ->
          if list then print_newline ();
          Printf.printf "%s: valid plan, %d fault spec(s)\n" path
            (List.length plan.Fault.Plan.specs);
          List.iter
            (fun spec -> Printf.printf "  %s\n" (Fault.Plan.spec_kind spec))
            plan.Fault.Plan.specs;
          let r = plan.Fault.Plan.recovery in
          Printf.printf
            "  recovery: ack_timeout %Ld ns, %d retries, watchdog %Ld ns, \
             remap %b\n"
            r.Fault.Plan.ack_timeout_ns r.Fault.Plan.max_retries
            r.Fault.Plan.watchdog_period_ns r.Fault.Plan.remap;
          0))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Describe the fault-injection subsystem: list injectors, validate \
          plan files")
    Term.(const run $ list_arg $ plan_file_arg)

(* -- rules ------------------------------------------------------------ *)

let rules_cmd =
  let run () =
    List.iter
      (fun (code, severity, summary) ->
        Printf.printf "%s [%s] %s\n" code
          (match severity with
          | Tut_profile.Rules.Error -> "error  "
          | Tut_profile.Rules.Warning -> "warning")
          summary)
      Tut_profile.Rules.catalog;
    0
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List the TUT-Profile design rules (R01-R18)")
    Term.(const run $ const ())

let main_cmd =
  let doc =
    "TUT-Profile design and profiling flow (UML 2.0 Profile for Embedded \
     System Design, DATE 2005)"
  in
  Cmd.group (Cmd.info "tutflow" ~version:"1.0.0" ~doc)
    [
      validate_cmd;
      tables_cmd;
      diagrams_cmd;
      xmi_cmd;
      generate_cmd;
      simulate_cmd;
      profile_cmd;
      report_cmd;
      stats_cmd;
      explore_cmd;
      analyze_cmd;
      regroup_cmd;
      lint_cmd;
      check_cmd;
      wlan_cmd;
      faults_cmd;
      rules_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
