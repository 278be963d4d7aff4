(* Architecture exploration over profiling data — the tool extension the
   paper names as planned work ("tools for automatic grouping according
   to the profiling information ... will be implemented").

   The flow: profile the TUTMAC terminal once, compile the static cost
   model of the report into a search kernel, then compare exhaustive
   search, greedy descent, random search and simulated annealing on the
   group-to-PE mapping problem, and apply the best mapping back to the
   model.

   Run with: dune exec examples/design_exploration.exe *)

let () =
  let config =
    { Tutmac.Scenario.default with Tutmac.Scenario.duration_ns = 500_000_000L }
  in
  let result =
    match Tutmac.Scenario.run config with
    | Ok r -> r
    | Error e ->
      prerr_endline e;
      exit 1
  in
  let builder = Tutmac.Scenario.build_model config in
  let view = Tut_profile.Builder.view builder in

  let profile = Dse.Cost.of_report result.Tutmac.Scenario.report in
  let platform = Dse.Cost.of_view view in
  let candidates = Dse.Cost.candidates view in
  let kernel =
    Dse.Compiled.compile (Dse.Compiled.spec ~profile ~platform ()) ~candidates
  in
  let init = Dse.Cost.current_assignment view in

  Printf.printf "profiled workload: %Ld application cycles\n"
    result.Tutmac.Scenario.report.Profiler.Report.total_cycles;
  Printf.printf "paper mapping (Figure 8) cost: %.2f\n\n"
    (Dse.Compiled.full_cost kernel init);

  Printf.printf "candidate PEs per group:\n";
  List.iter
    (fun (group, pes) ->
      Printf.printf "  %-8s -> {%s}\n" group (String.concat ", " pes))
    candidates;
  print_newline ();

  let show name (r : Dse.Explore.result) =
    Printf.printf "%-12s cost %8.2f  (%4d evaluations)\n" name
      r.Dse.Explore.best_cost r.Dse.Explore.evaluations;
    List.iter
      (fun (group, pe) -> Printf.printf "    %-8s -> %s\n" group pe)
      r.Dse.Explore.best;
    r
  in
  let exhaustive = show "exhaustive" (Dse.Explore.exhaustive_compiled ~kernel ()) in
  let greedy = show "greedy" (Dse.Explore.greedy_compiled ~kernel ~init ()) in
  let random =
    show "random"
      (Dse.Explore.random_search_compiled ~seed:7 ~iterations:200 ~kernel ())
  in
  let annealing =
    show "annealing"
      (Dse.Explore.simulated_annealing_compiled ~seed:7 ~iterations:400 ~kernel
         ~init ())
  in
  ignore random;

  Printf.printf "\ngreedy reaches the optimum: %b\n"
    (greedy.Dse.Explore.best_cost = exhaustive.Dse.Explore.best_cost);
  Printf.printf "annealing reaches the optimum: %b\n"
    (annealing.Dse.Explore.best_cost = exhaustive.Dse.Explore.best_cost);

  (* Apply the best mapping back to the UML model and re-validate. *)
  let improved = Dse.Explore.apply builder exhaustive.Dse.Explore.best in
  let report = Tut_profile.Builder.validate improved in
  Printf.printf "re-validated after remapping: %s\n"
    (if Tut_profile.Rules.is_valid report then "valid" else "INVALID");

  (* Confirm by re-simulating the remapped model. *)
  match
    Codegen.Lower.lower
      ~environment:(Tutmac.Workload.environment config.Tutmac.Scenario.workload)
      (Tut_profile.Builder.view improved)
  with
  | Error problems -> List.iter prerr_endline problems
  | Ok sys -> (
    match Codegen.Runtime.create sys with
    | Error problems -> List.iter prerr_endline problems
    | Ok rt ->
      Codegen.Runtime.start rt;
      ignore (Codegen.Runtime.run rt ~until_ns:config.Tutmac.Scenario.duration_ns);
      Printf.printf "\nre-simulated best mapping; PE busy times:\n";
      List.iter
        (fun (pe, busy_ns) ->
          Printf.printf "  %-14s %8.3f ms\n" pe (Int64.to_float busy_ns /. 1e6))
        (Codegen.Runtime.pe_busy_ns rt))
