(* Benchmark and reproduction harness.

   Part 1 regenerates every table and figure of the paper (Tables 1-4,
   Figures 3-8) from the implementation, prints the Table 4 shape
   comparison against the paper's numbers, and runs the ablation studies
   called out in DESIGN.md (arbitration, CRC offload, RTOS scheduling,
   grouping objective).

   Part 2 runs Bechamel micro/macro benchmarks — one Test.make per
   regenerated table plus the component benchmarks.

   Environment: TUTBENCH_DURATION_MS overrides the Table 4 simulation
   horizon (default 2000 ms, the shape is stable from ~200 ms). *)

let section title =
  Printf.printf "\n================ %s ================\n\n" title

let duration_ms =
  match Sys.getenv_opt "TUTBENCH_DURATION_MS" with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2000)
  | None -> 2000

let table4_config =
  {
    Tutmac.Scenario.default with
    Tutmac.Scenario.duration_ns = Int64.mul (Int64.of_int duration_ms) 1_000_000L;
  }

let short_config =
  { Tutmac.Scenario.default with Tutmac.Scenario.duration_ns = 100_000_000L }

let run_scenario config =
  match Tutmac.Scenario.run config with
  | Ok result -> result
  | Error e ->
    prerr_endline e;
    exit 1

(* ---- Part 1: table and figure regeneration -------------------------- *)

let paper_table4a =
  [ ("Group1", 92.1); ("Group2", 5.2); ("Group3", 2.5); ("Group4", 0.2);
    ("Environment", 0.0) ]

let print_tables_1_2_3 () =
  section "Table 1 (stereotype summary)";
  print_string (Tut_profile.Summary.table1 ());
  section "Table 2 (application tagged values)";
  print_string (Tut_profile.Summary.table2 ());
  section "Table 3 (platform tagged values)";
  print_string (Tut_profile.Summary.table3 ())

let print_figures () =
  section "Figures 3-8";
  List.iter
    (fun (id, text) -> Printf.printf "---- %s ----\n%s\n" id text)
    (Tutmac.Scenario.render_figures table4_config)

let print_table4 () =
  section
    (Printf.sprintf "Table 4 (profiling report, %d ms simulated)" duration_ms);
  let obs = Obs.Scope.create () in
  let result =
    match Tutmac.Scenario.run ~obs table4_config with
    | Ok result -> result
    | Error e ->
      prerr_endline e;
      exit 1
  in
  let report = result.Tutmac.Scenario.report in
  (* Report-vs-runtime consistency check (the machine-readable snapshot
     itself is written by [bench_obs], the observability section). *)
  let snapshot = Obs.Metrics.snapshot (Obs.Scope.metrics obs) in
  (match Profiler.Report.cross_check report snapshot with
  | Ok () -> print_endline "cross-check: report cycles = runtime counter"
  | Error e -> Printf.printf "cross-check FAILED: %s\n" e);
  print_newline ();
  print_string (Profiler.Report.render report);
  Printf.printf "\nPaper vs. measured (execution-time proportion):\n";
  Printf.printf "  %-12s %10s %10s\n" "group" "paper" "measured";
  List.iter
    (fun (display, paper) ->
      let group =
        if display = "Environment" then Profiler.Groups.environment_group
        else "group" ^ String.sub display 5 1
      in
      Printf.printf "  %-12s %9.1f%% %9.1f%%\n" display paper
        (100.0 *. Profiler.Report.proportion report group))
    paper_table4a;
  (match
     Profiler.Latency.measure ~src_signal:Tutmac.Signals.msdu_req
       ~dst_signal:Tutmac.Signals.msdu_ind result.Tutmac.Scenario.trace
   with
  | Some stats ->
    print_newline ();
    print_string (Profiler.Latency.render ~label:"MSDU request -> indication" stats)
  | None -> ());
  report

(* ---- ablations -------------------------------------------------------- *)

let total_words result =
  List.fold_left
    (fun acc (_, s) -> Int64.add acc s.Hibi.Network.words)
    0L
    (Codegen.Runtime.segment_stats result.Tutmac.Scenario.runtime)

let ablation_arbitration () =
  section "Ablation: HIBI arbitration (Table 3's Arbitration tag)";
  let variant arbitration =
    let config =
      {
        short_config with
        Tutmac.Scenario.platform =
          { Tutmac.Platform_model.default_params with
            Tutmac.Platform_model.arbitration };
      }
    in
    run_scenario config
  in
  let pri = variant Tut_profile.Stereotypes.arb_priority in
  let rr = variant Tut_profile.Stereotypes.arb_round_robin in
  let queue result seg =
    (List.assoc seg (Codegen.Runtime.segment_stats result.Tutmac.Scenario.runtime))
      .Hibi.Network.max_waiting
  in
  Printf.printf "  %-22s %12s %12s\n" "" "priority" "round-robin";
  Printf.printf "  %-22s %12Ld %12Ld\n" "words transferred" (total_words pri)
    (total_words rr);
  List.iter
    (fun seg ->
      Printf.printf "  %-22s %12d %12d\n" ("max queue " ^ seg) (queue pri seg)
        (queue rr seg))
    [ "hibisegment1"; "hibisegment2"; "bridge" ]

let ablation_crc_offload () =
  section "Ablation: CRC offload (the Figure 8 mapping decision)";
  let hw = run_scenario short_config in
  let sw =
    run_scenario { short_config with Tutmac.Scenario.crc_on_accelerator = false }
  in
  let busy result pe =
    Int64.to_float
      (List.assoc pe (Codegen.Runtime.pe_busy_ns result.Tutmac.Scenario.runtime))
    /. 1e6
  in
  Printf.printf "  %-26s %14s %14s\n" "" "accelerator" "software(P3)";
  Printf.printf "  %-26s %11.3f ms %11.3f ms\n" "CRC engine busy"
    (busy hw "accelerator1") (busy sw "processor3");
  Printf.printf "  %-26s %11.3f ms %11.3f ms\n" "processor1 busy"
    (busy hw "processor1") (busy sw "processor1");
  Printf.printf
    "  the accelerator does the same CRC work in %.1fx less busy time\n"
    (busy sw "processor3" /. max 1e-9 (busy hw "accelerator1"));
  let msdu_latency result =
    match
      Profiler.Latency.measure ~src_signal:Tutmac.Signals.msdu_req
        ~dst_signal:Tutmac.Signals.msdu_ind result.Tutmac.Scenario.trace
    with
    | Some stats -> stats.Profiler.Latency.mean_ns /. 1e6
    | None -> nan
  in
  Printf.printf "  %-26s %11.3f ms %11.3f ms\n" "mean MSDU latency"
    (msdu_latency hw) (msdu_latency sw)

let ablation_rtos () =
  section "Ablation: RTOS scheduling (paper future work)";
  (* Saturating traffic (one MSDU per 2 ms) makes processor1 contended so
     the scheduling policy becomes visible in queueing latency. *)
  let loaded =
    {
      short_config with
      Tutmac.Scenario.workload =
        {
          Tutmac.Workload.default_params with
          Tutmac.Workload.msdu_period_ns = 2_000_000;
        };
    }
  in
  let pri = run_scenario loaded in
  let fifo =
    run_scenario { loaded with Tutmac.Scenario.scheduling = Codegen.Ir.Fifo }
  in
  let total r = r.Tutmac.Scenario.report.Profiler.Report.total_cycles in
  Printf.printf "  %-28s %14s %14s\n" "" "priority-rtos" "fifo";
  Printf.printf "  %-28s %14Ld %14Ld\n" "application cycles" (total pri)
    (total fifo);
  let busy r =
    Int64.to_float
      (List.assoc "processor1" (Codegen.Runtime.pe_busy_ns r.Tutmac.Scenario.runtime))
    /. 1e6
  in
  Printf.printf "  %-28s %11.3f ms %11.3f ms\n" "processor1 busy" (busy pri)
    (busy fifo);
  (* Scheduling changes latency, not work: the hard-real-time channel
     access process queues longer under FIFO because low-priority data
     work cannot be preempted. *)
  let rca_wait r =
    match
      List.assoc_opt "Tutmac_Protocol.rca"
        (Codegen.Runtime.queue_latencies r.Tutmac.Scenario.runtime)
    with
    | Some (_, mean, _) -> mean /. 1000.0
    | None -> 0.0
  in
  let rca_max r =
    match
      List.assoc_opt "Tutmac_Protocol.rca"
        (Codegen.Runtime.queue_latencies r.Tutmac.Scenario.runtime)
    with
    | Some (_, _, max_ns) -> Int64.to_float max_ns /. 1000.0
    | None -> 0.0
  in
  Printf.printf "  %-28s %11.3f us %11.3f us\n" "rca mean queue wait"
    (rca_wait pri) (rca_wait fifo);
  Printf.printf "  %-28s %11.3f us %11.3f us\n" "rca max queue wait"
    (rca_max pri) (rca_max fifo)

let ablation_grouping_objective report =
  section "Ablation: communication-minimising grouping (paper's objective)";
  (* Compare the paper mapping's remote-communication cost against all
     alternative feasible mappings (beta-only cost isolates the
     communication term the grouping was designed to minimise). *)
  let view =
    Tut_profile.Builder.view (Tutmac.Scenario.build_model table4_config)
  in
  let profile = Dse.Cost.of_report report in
  let platform = Dse.Cost.of_view view in
  let candidates = Dse.Cost.candidates view in
  let kernel =
    Dse.Compiled.compile
      (Dse.Compiled.spec ~alpha:0.0 ~beta:1.0 ~profile ~platform ())
      ~candidates
  in
  let comm_cost = Dse.Compiled.full_cost kernel in
  let paper = Dse.Cost.current_assignment view in
  let best = Dse.Explore.exhaustive_compiled ~kernel () in
  let costs = ref [] in
  let rec enumerate prefix = function
    | [] -> costs := comm_cost (List.rev prefix) :: !costs
    | (group, options) :: rest ->
      List.iter (fun pe -> enumerate ((group, pe) :: prefix) rest) options
  in
  enumerate [] candidates;
  let sorted = List.sort compare !costs in
  Printf.printf "  paper mapping comm cost:    %10.0f weighted signals\n"
    (comm_cost paper);
  Printf.printf "  best possible:              %10.0f\n" best.Dse.Explore.best_cost;
  Printf.printf "  median over all mappings:   %10.0f\n"
    (List.nth sorted (List.length sorted / 2));
  Printf.printf "  worst:                      %10.0f\n"
    (List.nth sorted (List.length sorted - 1))

let sweep_series () =
  section "Series: Table 4a shape vs offered load (100 ms horizon)";
  Printf.printf "  %-16s %8s %8s %8s %8s %14s\n" "MSDU period" "G1" "G2" "G3"
    "G4" "total cycles";
  List.iter
    (fun period_ms ->
      let config =
        {
          short_config with
          Tutmac.Scenario.workload =
            {
              Tutmac.Workload.default_params with
              Tutmac.Workload.msdu_period_ns = period_ms * 1_000_000;
            };
        }
      in
      let result = run_scenario config in
      let report = result.Tutmac.Scenario.report in
      let pct g = 100.0 *. Profiler.Report.proportion report g in
      Printf.printf "  %13d ms %7.1f%% %7.1f%% %7.1f%% %7.1f%% %14Ld\n"
        period_ms (pct "group1") (pct "group2") (pct "group3") (pct "group4")
        report.Profiler.Report.total_cycles)
    [ 5; 10; 20; 40; 80 ]

let analysis_section () =
  section "Analysis: response times and platform costs (Table 3 parameters)";
  (match Tutmac.Scenario.system short_config with
  | Error problems -> List.iter prerr_endline problems
  | Ok sys -> print_string (Analysis.Rta.render (Analysis.Rta.of_system sys)));
  print_newline ();
  let result = run_scenario short_config in
  let builder = Tutmac.Scenario.build_model short_config in
  print_string
    (Analysis.Platform_report.render
       (Analysis.Platform_report.build
          ~view:(Tut_profile.Builder.view builder)
          ~busy:(Codegen.Runtime.pe_busy_ns result.Tutmac.Scenario.runtime)
          ~duration_ns:short_config.Tutmac.Scenario.duration_ns))

let ablation_regrouping () =
  section "Ablation: automatic regrouping (paper future work)";
  let result = run_scenario short_config in
  let view = Tut_profile.Builder.view (Tutmac.Scenario.build_model short_config) in
  let suggestion =
    Dse.Grouping.suggest ~view ~report:result.Tutmac.Scenario.report
  in
  Printf.printf "  inter-group traffic: %d signals before, %d after (%d moves)\n"
    suggestion.Dse.Grouping.before suggestion.Dse.Grouping.after
    (List.length suggestion.Dse.Grouping.moves);
  List.iter
    (fun (process, from_group, to_group) ->
      Printf.printf "    move %s: %s -> %s\n"
        (Uml.Element.to_string process)
        from_group to_group)
    suggestion.Dse.Grouping.moves

(* ---- DSE macro-benchmark ---------------------------------------------- *)

(* Two measurements through the compiled cost kernel, written to
   BENCH_dse.json:

   - serial vs parallel exhaustive exploration of a synthetic lattice
     (TUTBENCH_DSE_GROUPS groups x 4 candidate PEs each, 1..9, default 9
     groups = 262144 points; 10 groups would pass exhaustive search's
     1,000,000-point cap), in wall-clock evaluations/sec, every run
     compiling its own kernels;
   - simulated annealing on the seed TUTMAC model
     (TUTBENCH_DSE_SA_ITERS iterations, default 50000).

   Every parallel run must reproduce the serial result bit for bit, and
   both serial measurements must reach [dse_floor_evals_per_sec] — the
   benchmark exits 1 otherwise, which is the CI perf smoke guard (run
   with TUTBENCH_ONLY=dse for just this section). *)

let dse_floor_evals_per_sec = 200_000.0

let same_dse_result (a : Dse.Explore.result) (b : Dse.Explore.result) =
  a.Dse.Explore.best = b.Dse.Explore.best
  && a.Dse.Explore.best_cost = b.Dse.Explore.best_cost
  && a.Dse.Explore.evaluations = b.Dse.Explore.evaluations
  && a.Dse.Explore.history = b.Dse.Explore.history

let bench_dse () =
  section "DSE macro-benchmark: serial vs parallel exhaustive";
  let groups =
    match Sys.getenv_opt "TUTBENCH_DSE_GROUPS" with
    | None -> 9
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 && n <= 9 -> n
      | _ ->
        Printf.printf
          "  TUTBENCH_DSE_GROUPS=%s ignored (1..9: 4^10 points exceed the \
           exhaustive search cap); using 9\n"
          s;
        9)
  in
  let n_pes = 4 in
  let group g = Printf.sprintf "g%d" g in
  let pes = List.init n_pes (fun i -> Printf.sprintf "pe%d" i) in
  let candidates = List.init groups (fun g -> (group g, pes)) in
  let profile =
    {
      Dse.Cost.group_cycles =
        List.init groups (fun g -> (group g, Int64.of_int (1000 + (137 * g))));
      Dse.Cost.comm =
        List.init (groups - 1) (fun g -> ((group g, group (g + 1)), 10 + (7 * g)))
        @ [ ((group 0, group (groups - 1)), 25) ];
    }
  in
  let platform =
    {
      Dse.Cost.pe_infos =
        List.mapi
          (fun i pe ->
            { Dse.Cost.pe; speed = 100.0 +. (25.0 *. float_of_int i);
              accelerator = false })
          pes;
      (* Deterministic symmetric pseudo-topology: 1 or 2 hops. *)
      Dse.Cost.hop_distance =
        (fun a b ->
          if a = b then 0
          else 1 + ((Hashtbl.hash a + Hashtbl.hash b) mod 2));
    }
  in
  let spec = Dse.Compiled.spec ~profile ~platform () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let space =
    match Dse.Explore.space_size candidates with Some n -> n | None -> 0
  in
  let serial, serial_s =
    time (fun () ->
        Dse.Explore.exhaustive_compiled
          ~kernel:(Dse.Compiled.compile spec ~candidates) ())
  in
  let eps evaluations seconds = float_of_int evaluations /. max 1e-9 seconds in
  let serial_eps = eps serial.Dse.Explore.evaluations serial_s in
  Printf.printf "  lattice: %d groups x %d PEs = %d points\n" groups n_pes space;
  Printf.printf "  %-10s %10s %14s %9s\n" "jobs" "seconds" "evals/sec" "speedup";
  Printf.printf "  %-10s %10.3f %14.0f %9s\n" "serial" serial_s serial_eps "1.00x";
  let parallel_rows =
    List.map
      (fun jobs ->
        let result, seconds =
          time (fun () ->
              Dse.Parallel.exhaustive_compiled ~jobs ~spec ~candidates ())
        in
        if not (same_dse_result serial result) then begin
          Printf.printf "  FAIL: -j %d diverged from the serial result\n" jobs;
          exit 1
        end;
        let speedup = serial_s /. max 1e-9 seconds in
        Printf.printf "  %-10s %10.3f %14.0f %8.2fx\n"
          (Printf.sprintf "-j %d" jobs)
          seconds
          (eps result.Dse.Explore.evaluations seconds)
          speedup;
        (jobs, seconds, eps result.Dse.Explore.evaluations seconds, speedup))
      [ 2; 4; Domain.recommended_domain_count () ]
  in
  Printf.printf
    "  (recommended_domain_count = %d on this machine; identical results \
     verified on every run)\n"
    (Domain.recommended_domain_count ());
  section "DSE macro-benchmark: annealing on the seed model";
  let sa_iters =
    match Sys.getenv_opt "TUTBENCH_DSE_SA_ITERS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50_000)
    | None -> 50_000
  in
  let seed_result = run_scenario short_config in
  let seed_view =
    Tut_profile.Builder.view (Tutmac.Scenario.build_model short_config)
  in
  let seed_candidates = Dse.Cost.candidates seed_view in
  let sa, sa_s =
    time (fun () ->
        let kernel =
          Dse.Compiled.compile
            (Dse.Compiled.spec
               ~profile:(Dse.Cost.of_report seed_result.Tutmac.Scenario.report)
               ~platform:(Dse.Cost.of_view seed_view) ())
            ~candidates:seed_candidates
        in
        Dse.Explore.simulated_annealing_compiled ~seed:1 ~iterations:sa_iters
          ~kernel ~init:(Dse.Cost.current_assignment seed_view) ())
  in
  let sa_eps = eps sa.Dse.Explore.evaluations sa_s in
  Printf.printf "  %-22s %10s %14s\n"
    (Printf.sprintf "annealing (TUTMAC %dk)" (sa_iters / 1000))
    "seconds" "evals/sec";
  Printf.printf "  %-22s %10.3f %14.0f\n" "compiled" sa_s sa_eps;
  if serial_eps < dse_floor_evals_per_sec || sa_eps < dse_floor_evals_per_sec
  then begin
    Printf.printf
      "  FAIL: compiled kernel below the %.0f evals/sec floor (%.0f \
       synthetic exhaustive, %.0f seed-model annealing)\n"
      dse_floor_evals_per_sec serial_eps sa_eps;
    exit 1
  end;
  let oc = open_out "BENCH_dse.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("space", Obs.Json.Int space);
            ("groups", Obs.Json.Int groups);
            ("pes", Obs.Json.Int n_pes);
            ( "recommended_domains",
              Obs.Json.Int (Domain.recommended_domain_count ()) );
            ("floor_evals_per_sec", Obs.Json.Float dse_floor_evals_per_sec);
            ( "serial",
              Obs.Json.Obj
                [
                  ("seconds", Obs.Json.Float serial_s);
                  ("evals_per_sec", Obs.Json.Float serial_eps);
                  ("best_cost", Obs.Json.Float serial.Dse.Explore.best_cost);
                  ("evaluations", Obs.Json.Int serial.Dse.Explore.evaluations);
                ] );
            ( "parallel",
              Obs.Json.List
                (List.map
                   (fun (jobs, seconds, evals_per_sec, speedup) ->
                     Obs.Json.Obj
                       [
                         ("jobs", Obs.Json.Int jobs);
                         ("seconds", Obs.Json.Float seconds);
                         ("evals_per_sec", Obs.Json.Float evals_per_sec);
                         ("speedup", Obs.Json.Float speedup);
                       ])
                   parallel_rows) );
            ( "seed_model_annealing",
              Obs.Json.Obj
                [
                  ("iterations", Obs.Json.Int sa_iters);
                  ("seconds", Obs.Json.Float sa_s);
                  ("evals_per_sec", Obs.Json.Float sa_eps);
                ] );
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  DSE benchmark written to BENCH_dse.json\n"

(* ---- Part 2: Bechamel benchmarks -------------------------------------- *)

open Bechamel
open Toolkit

let bench_config = { short_config with Tutmac.Scenario.duration_ns = 20_000_000L }

let staged_tests () =
  let builder = Tutmac.Scenario.build_model bench_config in
  let view = Tut_profile.Builder.view builder in
  let xml =
    Xmi.Write.to_string
      (Tut_profile.Builder.model builder)
      (Tut_profile.Builder.apps builder)
  in
  let sys =
    match Tutmac.Scenario.system bench_config with
    | Ok sys -> sys
    | Error _ -> exit 1
  in
  let payload = String.make 1500 'x' in
  let profile_data =
    let result = run_scenario bench_config in
    Dse.Cost.of_report result.Tutmac.Scenario.report
  in
  let platform_data = Dse.Cost.of_view view in
  [
    (* One Test.make per regenerated table. *)
    Test.make ~name:"table1_render"
      (Staged.stage (fun () -> Sys.opaque_identity (Tut_profile.Summary.table1 ())));
    Test.make ~name:"table2_render"
      (Staged.stage (fun () -> Sys.opaque_identity (Tut_profile.Summary.table2 ())));
    Test.make ~name:"table3_render"
      (Staged.stage (fun () -> Sys.opaque_identity (Tut_profile.Summary.table3 ())));
    Test.make ~name:"table4_profile_20ms"
      (Staged.stage (fun () ->
           match Tutmac.Scenario.run bench_config with
           | Ok result ->
             Sys.opaque_identity
               (Profiler.Report.render result.Tutmac.Scenario.report)
           | Error e -> failwith e));
    (* Figures. *)
    Test.make ~name:"figures_render"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Tutmac.Scenario.render_figures bench_config)));
    (* Flow stages. *)
    Test.make ~name:"validate_model"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Tut_profile.Builder.validate builder)));
    Test.make ~name:"xmi_write"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Xmi.Write.to_string
                (Tut_profile.Builder.model builder)
                (Tut_profile.Builder.apps builder))));
    Test.make ~name:"xmi_read"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Xmi.Read.of_string ~profile:Tut_profile.Stereotypes.profile xml)));
    Test.make ~name:"codegen_lower"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Codegen.Lower.lower
                ~environment:
                  (Tutmac.Workload.environment
                     bench_config.Tutmac.Scenario.workload)
                view)));
    Test.make ~name:"c_emit_all"
      (Staged.stage (fun () -> Sys.opaque_identity (Codegen.C_emit.all_files sys)));
    (* Substrates. *)
    Test.make ~name:"crc32_table_1500B"
      (Staged.stage (fun () -> Sys.opaque_identity (Crc.Crc32.digest payload)));
    Test.make ~name:"crc32_bitwise_1500B"
      (Staged.stage (fun () -> Sys.opaque_identity (Crc.Crc32.bitwise payload)));
    Test.make ~name:"hibi_transfer_3hop"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let net = Hibi.Network.create engine in
           Hibi.Network.add_segment net ~name:"s1" ~data_width_bits:32
             ~frequency_mhz:50 ~arbitration:Hibi.Network.Priority ();
           Hibi.Network.add_segment net ~name:"s2" ~data_width_bits:32
             ~frequency_mhz:50 ~arbitration:Hibi.Network.Priority ();
           Hibi.Network.add_segment net ~name:"br" ~data_width_bits:32
             ~frequency_mhz:50 ~arbitration:Hibi.Network.Priority ();
           Hibi.Network.add_agent_wrapper net ~name:"wa" ~agent:"a" ~address:1
             ~segment:"s1" ();
           Hibi.Network.add_agent_wrapper net ~name:"wb" ~agent:"b" ~address:2
             ~segment:"s2" ();
           Hibi.Network.add_bridge_wrapper net ~name:"b1" ~address:3
             ~segments:("s1", "br") ();
           Hibi.Network.add_bridge_wrapper net ~name:"b2" ~address:4
             ~segments:("s2", "br") ();
           ignore
             (Hibi.Network.send net ~src:"a" ~dst:"b" ~words:100
                ~on_delivered:(fun () -> ()));
           Sys.opaque_identity (Sim.Engine.run engine)));
    Test.make ~name:"engine_10k_events"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           for i = 1 to 10_000 do
             ignore
               (Sim.Engine.schedule engine
                  ~delay:(Int64.of_int (i mod 997))
                  (fun () -> ()))
           done;
           Sys.opaque_identity (Sim.Engine.run engine)));
    Test.make ~name:"rta_of_system"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Analysis.Rta.of_system sys)));
    Test.make ~name:"dse_greedy"
      (Staged.stage (fun () ->
           let kernel =
             Dse.Compiled.compile
               (Dse.Compiled.spec ~profile:profile_data ~platform:platform_data
                  ())
               ~candidates:(Dse.Cost.candidates view)
           in
           Sys.opaque_identity
             (Dse.Explore.greedy_compiled ~kernel
                ~init:(Dse.Cost.current_assignment view)
                ())));
  ]

(* ---- fault-injection overhead ----------------------------------------- *)

(* Written to BENCH_fault.json; run alone with TUTBENCH_ONLY=fault.

   Gated: the fault machinery must be free when no plan is given.  An
   empty plan compiles down to [faults = None] guards on the hot paths,
   so two interleaved populations of empty-plan runs must agree within
   2% — the gate trips if an "empty" plan ever starts arming the ARQ /
   framing / watchdog path (whose real cost shows up in the armed and
   faulty numbers below, reported but not gated). *)
let bench_fault () =
  (* A 100 ms horizon finishes in ~1 ms of wall time — far too little to
     resolve a 2% gap; 2 simulated seconds per run keeps the whole
     section under ~2 s while pushing scheduler noise below the gate. *)
  let fault_ms =
    match Sys.getenv_opt "TUTBENCH_FAULT_MS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2000)
    | None -> 2000
  in
  let horizon =
    {
      Tutmac.Scenario.default with
      Tutmac.Scenario.duration_ns =
        Int64.mul (Int64.of_int fault_ms) 1_000_000L;
    }
  in
  section (Printf.sprintf "Fault injection overhead (%d ms horizon)" fault_ms);
  let reps = 10 in
  let time f =
    (* Start every timed run from the same heap state: a retained trace
       from the previous run raises minor-collection pressure for
       whoever runs second in a pair. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let median samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let lossy_plan =
    {
      Fault.Plan.specs =
        [
          Fault.Plan.Hibi_drop
            { segment = "*"; rate = 0.1; window = Fault.Plan.always };
          Fault.Plan.Hibi_corrupt
            {
              segment = "*";
              rate = 0.05;
              max_flips = 3;
              window = Fault.Plan.always;
            };
        ];
      recovery =
        {
          Fault.Plan.default_recovery with
          Fault.Plan.ack_timeout_ns = 300_000L;
        };
    }
  in
  (* Armed but quiet: the injector is active (ARQ framing, CRC checks and
     the watchdog all run) yet the specs' windows start beyond the
     horizon, so no fault ever fires. *)
  let beyond =
    { Fault.Plan.from_ns = 1_000_000_000_000L; until_ns = None }
  in
  let quiet_plan =
    {
      lossy_plan with
      Fault.Plan.specs =
        [
          Fault.Plan.Hibi_drop { segment = "*"; rate = 0.1; window = beyond };
        ];
    }
  in
  let with_plan plan seed =
    { horizon with Tutmac.Scenario.faults = plan; fault_seed = seed }
  in
  ignore (run_scenario horizon);
  (* warm-up *)
  (* Back-to-back pairs, alternating order, min-of-3 per side: each pair
     shares its thermal and scheduler state, so the per-pair ratio
     isolates the code-path difference from machine drift, and the
     min-of-3 discards preemption spikes. *)
  let min3 f = min (f ()) (min (f ()) (f ())) in
  let measure_empty_overhead () =
    let base = ref [] and empty = ref [] and ratios = ref [] in
    for i = 1 to reps do
      let run_base () =
        min3 (fun () -> time (fun () -> run_scenario horizon))
      in
      let run_empty () =
        min3 (fun () ->
            time (fun () -> run_scenario (with_plan Fault.Plan.empty 42)))
      in
      let b, e =
        if i mod 2 = 0 then
          let b = run_base () in
          (b, run_empty ())
        else
          let e = run_empty () in
          (run_base (), e)
      in
      base := b :: !base;
      empty := e :: !empty;
      ratios := (e /. b) :: !ratios
    done;
    (median !base, median !empty, (median !ratios -. 1.0) *. 100.0)
  in
  let base_s, empty_s, overhead_pct =
    let ((_, _, o1) as first) = measure_empty_overhead () in
    if o1 <= 2.0 then first
    else begin
      (* An identical code path can still lose a coin-flip to scheduler
         noise; a genuine regression reproduces, noise does not. *)
      Printf.printf
        "  first pass measured %+.2f %%, re-measuring to rule out noise\n" o1;
      let ((_, _, o2) as second) = measure_empty_overhead () in
      if o2 < o1 then second else first
    end
  in
  let armed =
    List.init reps (fun _ -> time (fun () -> run_scenario (with_plan quiet_plan 42)))
  in
  let faulty =
    List.init reps (fun _ -> time (fun () -> run_scenario (with_plan lossy_plan 42)))
  in
  let armed_s = median armed and faulty_s = median faulty in
  let armed_pct = (armed_s -. base_s) /. base_s *. 100.0 in
  let faulty_pct = (faulty_s -. base_s) /. base_s *. 100.0 in
  Printf.printf "  %-28s %10.4f s\n" "baseline (no faults field)" base_s;
  Printf.printf "  %-28s %10.4f s %+7.2f %%\n" "empty plan" empty_s overhead_pct;
  Printf.printf "  %-28s %10.4f s %+7.2f %%\n" "armed, nothing fires" armed_s
    armed_pct;
  Printf.printf "  %-28s %10.4f s %+7.2f %%\n" "lossy plan (drop+corrupt)"
    faulty_s faulty_pct;
  let oc = open_out "BENCH_fault.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("reps", Obs.Json.Int reps);
            ("baseline_seconds", Obs.Json.Float base_s);
            ("empty_plan_seconds", Obs.Json.Float empty_s);
            ("empty_plan_overhead_pct", Obs.Json.Float overhead_pct);
            ("armed_quiet_seconds", Obs.Json.Float armed_s);
            ("armed_quiet_overhead_pct", Obs.Json.Float armed_pct);
            ("lossy_seconds", Obs.Json.Float faulty_s);
            ("lossy_overhead_pct", Obs.Json.Float faulty_pct);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  fault benchmark written to BENCH_fault.json\n";
  if overhead_pct > 2.0 then begin
    Printf.printf
      "  FAIL: an empty fault plan costs %.2f%% over the baseline (limit 2%%)\n"
      overhead_pct;
    exit 1
  end

(* ---- observability overhead ------------------------------------------- *)

(* Written to BENCH_obs.json; run alone with TUTBENCH_ONLY=obs.

   Gated: causal flow tracing must be free when off.  The default
   runtime carries a disabled tracker, and passing one explicitly takes
   the same [flows_on = false] guards, so two interleaved populations
   must agree within 2% — the gate trips if a disabled tracker ever
   starts minting flows or recording hops.  The flows-on overhead and
   the raw histogram record throughput are reported, not gated. *)
let bench_obs () =
  let obs_ms =
    match Sys.getenv_opt "TUTBENCH_OBS_MS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2000)
    | None -> 2000
  in
  let horizon =
    {
      Tutmac.Scenario.default with
      Tutmac.Scenario.duration_ns = Int64.mul (Int64.of_int obs_ms) 1_000_000L;
    }
  in
  section
    (Printf.sprintf "Causal flow tracing overhead (%d ms horizon)" obs_ms);
  let reps = 10 in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let median samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let run_flows flows config =
    match Tutmac.Scenario.run ~flows config with
    | Ok result -> result
    | Error e ->
      prerr_endline e;
      exit 1
  in
  ignore (run_scenario horizon);
  (* warm-up *)
  (* Same protocol as the fault gate: back-to-back pairs in alternating
     order, min-of-3 per side, median ratio, one re-measure on a trip. *)
  let min3 f = min (f ()) (min (f ()) (f ())) in
  let measure_disabled_overhead () =
    let base = ref [] and off = ref [] and ratios = ref [] in
    for i = 1 to reps do
      let run_base () = min3 (fun () -> time (fun () -> run_scenario horizon)) in
      let run_off () =
        min3 (fun () ->
            time (fun () -> run_flows (Obs.Flow.disabled ()) horizon))
      in
      let b, o =
        if i mod 2 = 0 then
          let b = run_base () in
          (b, run_off ())
        else
          let o = run_off () in
          (run_base (), o)
      in
      base := b :: !base;
      off := o :: !off;
      ratios := (o /. b) :: !ratios
    done;
    (median !base, median !off, (median !ratios -. 1.0) *. 100.0)
  in
  let base_s, off_s, overhead_pct =
    let ((_, _, o1) as first) = measure_disabled_overhead () in
    if o1 <= 2.0 then first
    else begin
      Printf.printf
        "  first pass measured %+.2f %%, re-measuring to rule out noise\n" o1;
      let ((_, _, o2) as second) = measure_disabled_overhead () in
      if o2 < o1 then second else first
    end
  in
  (* Flows on: fresh tracker per run so histograms never accumulate
     across reps.  Keep the last run's tracker for the snapshot. *)
  let last_flows = ref (Obs.Flow.disabled ()) in
  let on_samples =
    List.init reps (fun _ ->
        time (fun () ->
            let flows = Obs.Flow.create () in
            last_flows := flows;
            run_flows flows horizon))
  in
  let on_s = median on_samples in
  let on_pct = (on_s -. base_s) /. base_s *. 100.0 in
  Printf.printf "  %-28s %10.4f s\n" "baseline (no flows field)" base_s;
  Printf.printf "  %-28s %10.4f s %+7.2f %%\n" "disabled tracker" off_s
    overhead_pct;
  Printf.printf "  %-28s %10.4f s %+7.2f %%\n" "flow tracing on" on_s on_pct;
  let flow_snapshot = Obs.Metrics.snapshot (Obs.Flow.metrics !last_flows) in
  Printf.printf "  flows: %d minted, %d completed, %d metrics\n"
    (Obs.Flow.minted !last_flows)
    (Obs.Flow.completed !last_flows)
    (List.length flow_snapshot);
  (* Raw histogram record throughput: O(1) per record, no allocation. *)
  let records = 5_000_000 in
  let h = Obs.Histogram.create () in
  let record_s =
    time (fun () ->
        for i = 1 to records do
          Obs.Histogram.record h ((i * 2654435761) land 0xFFFFF)
        done)
  in
  let records_per_sec = float_of_int records /. max 1e-9 record_s in
  Printf.printf "  %-28s %10.1f M records/s (%d records in %.3f s)\n"
    "histogram record" (records_per_sec /. 1e6) records record_s;
  let oc = open_out "BENCH_obs.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("reps", Obs.Json.Int reps);
            ("baseline_seconds", Obs.Json.Float base_s);
            ("flows_off_seconds", Obs.Json.Float off_s);
            ("flows_off_overhead_pct", Obs.Json.Float overhead_pct);
            ("flows_on_seconds", Obs.Json.Float on_s);
            ("flows_on_overhead_pct", Obs.Json.Float on_pct);
            ("flows_minted", Obs.Json.Int (Obs.Flow.minted !last_flows));
            ("flows_completed", Obs.Json.Int (Obs.Flow.completed !last_flows));
            ("histogram_records_per_sec", Obs.Json.Float records_per_sec);
            ("metrics", Obs.Metrics.to_json flow_snapshot);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  observability benchmark written to BENCH_obs.json\n";
  if overhead_pct > 2.0 then begin
    Printf.printf
      "  FAIL: a disabled flow tracker costs %.2f%% over the baseline \
       (limit 2%%)\n"
      overhead_pct;
    exit 1
  end

(* ---- compiled simulation kernel --------------------------------------- *)

(* Written to BENCH_sim.json; run alone with TUTBENCH_ONLY=sim (the CI
   perf smoke).  Two measurements plus the gates:

   - end-to-end: the TUTMAC scenario under both EFSM engines, both on
     the packed trace store and the calendar event queue; per-engine
     minor words/event and events/sec, and the reference/compiled wall
     time ratio from alternating back-to-back pairs.  Gates: both traces
     must render byte-identically, and the compiled cell must stay
     under 32 minor words/event.  The ratio is printed, not gated: the
     reference engine is a test oracle nobody runs, and end-to-end wall
     time is guarded by the benchmark/ workloads' run_s and ops_per_s.
   - kernel: pure EFSM stepping on the real machines of the lowered
     TUTMAC system, no event queue or platform around them — the
     Interp-vs-Compiled ratio the bytecode engine is actually about.
     Gate: every step must agree (state, variables, error counts). *)
let bench_sim () =
  let sim_ms =
    match Sys.getenv_opt "TUTBENCH_SIM_MS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
    | None -> 10_000
  in
  section
    (Printf.sprintf "Compiled simulation kernel (%d ms horizon)" sim_ms);
  let config engine =
    {
      Tutmac.Scenario.default with
      Tutmac.Scenario.duration_ns = Int64.mul (Int64.of_int sim_ms) 1_000_000L;
      engine;
    }
  in
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let median samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let min3 f = min (f ()) (min (f ()) (f ())) in
  let run engine () =
    match Tutmac.Scenario.run (config engine) with
    | Ok result -> result
    | Error e ->
      prerr_endline e;
      exit 1
  in
  (* Divergence gate first: one run per engine, full-trace diff. *)
  let matrix =
    [
      ("reference", Efsm.Exec.Reference);
      ("compiled", Efsm.Exec.Compiled);
    ]
  in
  let lines engine = Sim.Trace.to_lines (run engine ()).Tutmac.Scenario.trace in
  let ref_lines = lines Efsm.Exec.Reference in
  let rec first i = function
    | [], [] -> None
    | a :: _, [] -> Some (i, a, "<end>")
    | [], b :: _ -> Some (i, "<end>", b)
    | a :: ra, b :: rb ->
      if a <> b then Some (i, a, b) else first (i + 1) (ra, rb)
  in
  (match first 0 (ref_lines, lines Efsm.Exec.Compiled) with
  | Some (i, a, b) ->
    Printf.printf
      "  FAIL: compiled diverges from reference at event %d\n\
      \    reference: %s\n    compiled:  %s\n"
      i a b;
    exit 1
  | None -> ());
  Printf.printf "  traces identical across both engines (%d events)\n"
    (List.length ref_lines);
  (* Engine-vs-engine end-to-end timing: alternating back-to-back pairs,
     min-of-3 each side, median of the per-pair ratios. *)
  let reps = 7 in
  let ref_s = ref [] and com_s = ref [] and ratios = ref [] in
  for i = 1 to reps do
    let measure engine () = min3 (fun () -> time (run engine)) in
    let measure_ref = measure Efsm.Exec.Reference in
    let measure_com = measure Efsm.Exec.Compiled in
    let r, c =
      if i mod 2 = 0 then
        let r = measure_ref () in
        (r, measure_com ())
      else
        let c = measure_com () in
        (measure_ref (), c)
    in
    ref_s := r :: !ref_s;
    com_s := c :: !com_s;
    ratios := (r /. c) :: !ratios
  done;
  let ref_med = median !ref_s and com_med = median !com_s in
  let engine_ratio = median !ratios in
  (* Minor words per event and recording throughput, one run per cell. *)
  let cell_stats =
    List.map
      (fun (label, engine) ->
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let result = run engine () in
        let dt = Unix.gettimeofday () -. t0 in
        let w1 = Gc.minor_words () in
        let events = max 1 (Sim.Trace.length result.Tutmac.Scenario.trace) in
        ( label,
          ((w1 -. w0) /. float_of_int events, float_of_int events /. dt) ))
      matrix
  in
  let cell_words label = fst (List.assoc label cell_stats) in
  Printf.printf "  %-28s %10.4f s\n" "reference engine" ref_med;
  Printf.printf "  %-28s %10.4f s\n" "compiled engine" com_med;
  Printf.printf "  %-28s %10.2f x (not gated)\n" "end-to-end engine ratio"
    engine_ratio;
  List.iter
    (fun (label, (words, events_per_sec)) ->
      Printf.printf "  %-28s %10.1f minor words/event %12.0f events/s\n" label
        words events_per_sec)
    cell_stats;
  (* Kernel microbenchmark: the lowered TUTMAC machines stepped
     directly.  Both engines consume the identical synthetic event
     sequence; every step is cross-checked. *)
  let sys =
    match Tutmac.Scenario.system Tutmac.Scenario.default with
    | Ok sys -> sys
    | Error problems ->
      prerr_endline (String.concat "; " problems);
      exit 1
  in
  let stimuli =
    List.filter_map
      (fun p ->
        let m = p.Codegen.Ir.machine in
        match Efsm.Machine.signals_consumed m with
        | [] -> None
        | signals ->
          let events =
            Array.of_list
              (List.map
                 (fun s ->
                   ( s,
                     List.mapi
                       (fun k name -> (name, Efsm.Action.V_int (k + 1)))
                       (Codegen.Ir.signal_params sys s) ))
                 signals)
          in
          Some (m, events))
      sys.Codegen.Ir.procs
  in
  let kernel_rounds = 60_000 in
  let dispatch_count =
    List.fold_left (fun acc (_, ev) -> acc + Array.length ev) 0 stimuli
    * kernel_rounds
  in
  (* drive (instance, dispatch, completions, state, vars) through the
     synthetic sequence; returns (errors, final states+vars digest) *)
  let drive create dispatch completions state vars =
    let errors = ref 0 in
    let digest = ref [] in
    List.iter
      (fun (m, events) ->
        let inst = create m in
        for round = 0 to kernel_rounds - 1 do
          let signal, args = events.(round mod Array.length events) in
          (try
             ignore (Sys.opaque_identity (dispatch inst ~signal ~args));
             ignore (Sys.opaque_identity (completions inst))
           with Efsm.Action.Type_error _ -> incr errors)
        done;
        digest := (state inst, List.sort compare (vars inst)) :: !digest)
      stimuli;
    (!errors, !digest)
  in
  let drive_reference () =
    drive Efsm.Interp.create
      (fun i ~signal ~args -> Efsm.Interp.dispatch i ~signal ~args)
      Efsm.Interp.run_completions Efsm.Interp.state Efsm.Interp.variables
  in
  let drive_compiled () =
    let programs = Hashtbl.create 8 in
    let create m =
      match Hashtbl.find_opt programs m.Efsm.Machine.name with
      | Some prog -> Efsm.Compiled.create prog
      | None ->
        let prog = Efsm.Compiled.compile m in
        Hashtbl.add programs m.Efsm.Machine.name prog;
        Efsm.Compiled.create prog
    in
    drive create
      (fun i ~signal ~args -> Efsm.Compiled.dispatch i ~signal ~args)
      Efsm.Compiled.run_completions Efsm.Compiled.state Efsm.Compiled.variables
  in
  let ref_out = drive_reference () in
  let com_out = drive_compiled () in
  if ref_out <> com_out then begin
    Printf.printf "  FAIL: kernel microbenchmark outcomes diverge\n";
    exit 1
  end;
  let kernel_ratios = ref [] in
  let kref = ref [] and kcom = ref [] in
  for i = 1 to reps do
    let r, c =
      if i mod 2 = 0 then
        let r = min3 (fun () -> time drive_reference) in
        (r, min3 (fun () -> time drive_compiled))
      else
        let c = min3 (fun () -> time drive_compiled) in
        (min3 (fun () -> time drive_reference), c)
    in
    kref := r :: !kref;
    kcom := c :: !kcom;
    kernel_ratios := (r /. c) :: !kernel_ratios
  done;
  let kref_med = median !kref and kcom_med = median !kcom in
  let kernel_speedup = median !kernel_ratios in
  let kernel_alloc f =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. float_of_int dispatch_count
  in
  let kref_words = kernel_alloc drive_reference in
  let kcom_words = kernel_alloc drive_compiled in
  (* Guard/action-heavy synthetic machine: where expression evaluation
     dominates the step (nested guards over many variables, a bounded
     loop per action), the tree-walking interpreter pays per-node
     allocation and O(vars) assoc lookups that the bytecode does not. *)
  let heavy_machine =
    let open Efsm.Action in
    let guard k =
      (v "a" * i 3) + (v "b" - v "c") > (v "d" * i k) - v "e"
      && (v "f" <= v "g" * i 4 || v "flag" = b false)
    in
    let body k =
      [
        assign "acc" (i 0);
        assign "j" (i 0);
        While
          ( v "j" < i 12,
            [
              assign "acc" (v "acc" + ((v "j" * v "a") mod i 97));
              assign "j" (v "j" + i 1);
            ] );
        assign "a" ((v "a" + v "acc" + p "k") mod i 1000);
        assign "b" ((v "b" + i k) mod i 997);
      ]
    in
    Efsm.Machine.make ~name:"heavy" ~states:[ "s0"; "s1" ] ~initial:"s0"
      ~variables:
        [
          ("a", V_int 3); ("b", V_int 14); ("c", V_int 15); ("d", V_int 9);
          ("e", V_int 2); ("f", V_int 6); ("g", V_int 5); ("flag", V_bool false);
          ("acc", V_int 0); ("j", V_int 0);
        ]
      [
        Efsm.Machine.transition ~guard:(guard 2) ~actions:(body 1) ~src:"s0"
          ~dst:"s1" (Efsm.Machine.On_signal "step");
        Efsm.Machine.transition ~guard:(guard 5) ~actions:(body 2) ~src:"s0"
          ~dst:"s0" (Efsm.Machine.On_signal "step");
        Efsm.Machine.transition ~actions:(body 3) ~src:"s0" ~dst:"s0"
          (Efsm.Machine.On_signal "step");
        Efsm.Machine.transition ~guard:(guard 3) ~actions:(body 4) ~src:"s1"
          ~dst:"s0" (Efsm.Machine.On_signal "step");
        Efsm.Machine.transition ~actions:(body 5) ~src:"s1" ~dst:"s1"
          (Efsm.Machine.On_signal "step");
      ]
  in
  let heavy_rounds = 200_000 in
  let heavy_args = [ ("k", Efsm.Action.V_int 11) ] in
  let drive_heavy_reference () =
    let inst = Efsm.Interp.create heavy_machine in
    for _ = 1 to heavy_rounds do
      ignore
        (Sys.opaque_identity (Efsm.Interp.dispatch inst ~signal:"step" ~args:heavy_args))
    done;
    (Efsm.Interp.state inst, List.sort compare (Efsm.Interp.variables inst))
  in
  let heavy_program = Efsm.Compiled.compile heavy_machine in
  let drive_heavy_compiled () =
    let inst = Efsm.Compiled.create heavy_program in
    for _ = 1 to heavy_rounds do
      ignore
        (Sys.opaque_identity
           (Efsm.Compiled.dispatch inst ~signal:"step" ~args:heavy_args))
    done;
    (Efsm.Compiled.state inst, List.sort compare (Efsm.Compiled.variables inst))
  in
  if drive_heavy_reference () <> drive_heavy_compiled () then begin
    Printf.printf "  FAIL: heavy-machine outcomes diverge\n";
    exit 1
  end;
  let heavy_ratios = ref [] in
  let href = ref [] and hcom = ref [] in
  for i = 1 to reps do
    let r, c =
      if i mod 2 = 0 then
        let r = min3 (fun () -> time drive_heavy_reference) in
        (r, min3 (fun () -> time drive_heavy_compiled))
      else
        let c = min3 (fun () -> time drive_heavy_compiled) in
        (min3 (fun () -> time drive_heavy_reference), c)
    in
    href := r :: !href;
    hcom := c :: !hcom;
    heavy_ratios := (r /. c) :: !heavy_ratios
  done;
  let href_med = median !href and hcom_med = median !hcom in
  let heavy_speedup = median !heavy_ratios in
  let heavy_alloc f =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. float_of_int heavy_rounds
  in
  let href_words = heavy_alloc drive_heavy_reference in
  let hcom_words = heavy_alloc drive_heavy_compiled in
  Printf.printf "  %-28s %10.4f s (%d dispatches)\n" "kernel: reference" kref_med
    dispatch_count;
  Printf.printf "  %-28s %10.4f s\n" "kernel: compiled" kcom_med;
  Printf.printf "  %-28s %10.2f x (target 5x)\n" "kernel speedup" kernel_speedup;
  Printf.printf "  %-28s %10.1f minor words/dispatch\n" "kernel: reference alloc"
    kref_words;
  Printf.printf "  %-28s %10.1f minor words/dispatch\n" "kernel: compiled alloc"
    kcom_words;
  Printf.printf "  %-28s %10.4f s (%d dispatches)\n" "heavy: reference" href_med
    heavy_rounds;
  Printf.printf "  %-28s %10.4f s\n" "heavy: compiled" hcom_med;
  Printf.printf "  %-28s %10.2f x (target 5x)\n" "heavy-machine speedup"
    heavy_speedup;
  Printf.printf "  %-28s %10.1f minor words/dispatch\n" "heavy: reference alloc"
    href_words;
  Printf.printf "  %-28s %10.1f minor words/dispatch\n" "heavy: compiled alloc"
    hcom_words;
  let oc = open_out "BENCH_sim.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("horizon_ms", Obs.Json.Int sim_ms);
            ("reps", Obs.Json.Int reps);
            ("trace_events", Obs.Json.Int (List.length ref_lines));
            ("traces_identical", Obs.Json.Bool true);
            ("scenario_reference_seconds", Obs.Json.Float ref_med);
            ("scenario_compiled_seconds", Obs.Json.Float com_med);
            ("scenario_engine_ratio", Obs.Json.Float engine_ratio);
            ( "scenario_cells",
              Obs.Json.Obj
                (List.map
                   (fun (label, (words, events_per_sec)) ->
                     ( label,
                       Obs.Json.Obj
                         [
                           ("minor_words_per_event", Obs.Json.Float words);
                           ("events_per_sec", Obs.Json.Float events_per_sec);
                         ] ))
                   cell_stats) );
            ("kernel_dispatches", Obs.Json.Int dispatch_count);
            ("kernel_reference_seconds", Obs.Json.Float kref_med);
            ("kernel_compiled_seconds", Obs.Json.Float kcom_med);
            ("kernel_speedup", Obs.Json.Float kernel_speedup);
            ("kernel_reference_minor_words_per_dispatch", Obs.Json.Float kref_words);
            ("kernel_compiled_minor_words_per_dispatch", Obs.Json.Float kcom_words);
            ("heavy_dispatches", Obs.Json.Int heavy_rounds);
            ("heavy_reference_seconds", Obs.Json.Float href_med);
            ("heavy_compiled_seconds", Obs.Json.Float hcom_med);
            ("heavy_speedup", Obs.Json.Float heavy_speedup);
            ("heavy_reference_minor_words_per_dispatch", Obs.Json.Float href_words);
            ("heavy_compiled_minor_words_per_dispatch", Obs.Json.Float hcom_words);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  simulation benchmark written to BENCH_sim.json\n";
  if cell_words "compiled" > 32.0 then begin
    Printf.printf
      "  FAIL: the compiled engine allocates %.1f minor words/event (limit 32)\n"
      (cell_words "compiled");
    exit 1
  end;
  if kernel_speedup < 1.0 then begin
    Printf.printf "  FAIL: compiled kernel is slower (%.2fx, limit 1x)\n"
      kernel_speedup;
    exit 1
  end

(* ---- fleet-scale TUTWLAN ---------------------------------------------- *)

(* Written to BENCH_wlan.json; run alone with TUTBENCH_ONLY=wlan (the
   CI perf smoke).  Two gates:

   - determinism: a 1-terminal fleet — the degenerate configuration
     closest to the seed single-terminal path — must render
     byte-identical reports and traces under both EFSM engines.
   - scale: a 200-terminal, fault-plan-driven fleet must finish inside
     the wall-clock budget with >= 99% of offered frames resolved as
     delivered, cleanly abandoned, or flushed by churn — nothing may
     wedge on the contended channel. *)
let bench_wlan () =
  let wlan_ms =
    match Sys.getenv_opt "TUTBENCH_WLAN_MS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2000)
    | None -> 2000
  in
  let wall_budget_s =
    match Sys.getenv_opt "TUTBENCH_WLAN_BUDGET_S" with
    | Some s -> (
      match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 20.0)
    | None -> 20.0
  in
  section
    (Printf.sprintf "Fleet-scale TUTWLAN (%d ms horizon, 200 terminals)"
       wlan_ms);
  let plan =
    match
      Fault.Plan.of_json_string
        {|{"faults":[
            {"kind":"chan_loss","terminals":"*","rate":0.08},
            {"kind":"chan_burst","terminals":"0-3","rate":0.02,
             "max_burst_ns":400000},
            {"kind":"term_crash","terminals":"5","at_ns":250000000}]}|}
    with
    | Ok p -> p
    | Error e ->
      prerr_endline e;
      exit 1
  in
  let config ~terminals ~faults engine =
    {
      Tutmac.Wlan.default with
      Tutmac.Wlan.terminals;
      duration_ns = wlan_ms * 1_000_000;
      seed = 7;
      faults;
      fault_seed = 42;
      engine;
    }
  in
  let fingerprint (r : Tutmac.Wlan.result) =
    Tutmac.Wlan.render r ^ "\n--\n"
    ^ String.concat "\n" (Sim.Trace.to_lines r.Tutmac.Wlan.trace)
  in
  (* Gate 1: the 1-terminal fleet replays byte-identically under both
     engines. *)
  let one_cell engine =
    fingerprint (Tutmac.Wlan.run (config ~terminals:1 ~faults:plan engine))
  in
  if one_cell Efsm.Exec.Compiled <> one_cell Efsm.Exec.Reference
  then begin
    Printf.printf "  FAIL: 1-terminal compiled fleet diverges from reference\n";
    exit 1
  end;
  Printf.printf "  1-terminal fleet byte-identical under both engines\n";
  (* Gate 2: 200 terminals under fire, inside the wall budget, with the
     offered load resolved rather than wedged. *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let r =
    Tutmac.Wlan.run (config ~terminals:200 ~faults:plan Efsm.Exec.Compiled)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let resolved =
    r.Tutmac.Wlan.delivered + r.Tutmac.Wlan.abandoned + r.Tutmac.Wlan.flushed
  in
  let resolved_rate =
    if r.Tutmac.Wlan.offered = 0 then 1.0
    else float_of_int resolved /. float_of_int r.Tutmac.Wlan.offered
  in
  let events_per_sec = float_of_int r.Tutmac.Wlan.events /. wall_s in
  Printf.printf "  %-28s %10.3f s (budget %.0f s)\n" "200-terminal wall clock"
    wall_s wall_budget_s;
  Printf.printf "  %-28s %10d offered  %d delivered  %d abandoned  %d flushed\n"
    "frames" r.Tutmac.Wlan.offered r.Tutmac.Wlan.delivered
    r.Tutmac.Wlan.abandoned r.Tutmac.Wlan.flushed;
  Printf.printf "  %-28s %10.4f (floor 0.99)\n" "resolved fraction"
    resolved_rate;
  Printf.printf "  %-28s %10d collisions  %d retries  %.0f events/s\n"
    "channel" r.Tutmac.Wlan.collisions r.Tutmac.Wlan.retries events_per_sec;
  let oc = open_out "BENCH_wlan.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("horizon_ms", Obs.Json.Int wlan_ms);
            ("terminals", Obs.Json.Int 200);
            ("one_terminal_identical", Obs.Json.Bool true);
            ("wall_seconds", Obs.Json.Float wall_s);
            ("wall_budget_seconds", Obs.Json.Float wall_budget_s);
            ("events", Obs.Json.Int r.Tutmac.Wlan.events);
            ("events_per_sec", Obs.Json.Float events_per_sec);
            ("offered", Obs.Json.Int r.Tutmac.Wlan.offered);
            ("delivered", Obs.Json.Int r.Tutmac.Wlan.delivered);
            ("abandoned", Obs.Json.Int r.Tutmac.Wlan.abandoned);
            ("flushed", Obs.Json.Int r.Tutmac.Wlan.flushed);
            ("unresolved", Obs.Json.Int r.Tutmac.Wlan.unresolved);
            ("resolved_rate", Obs.Json.Float resolved_rate);
            ("collisions", Obs.Json.Int r.Tutmac.Wlan.collisions);
            ("retries", Obs.Json.Int r.Tutmac.Wlan.retries);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wlan benchmark written to BENCH_wlan.json\n";
  if wall_s > wall_budget_s then begin
    Printf.printf "  FAIL: 200-terminal run took %.3f s (budget %.0f s)\n"
      wall_s wall_budget_s;
    exit 1
  end;
  if resolved_rate < 0.99 then begin
    Printf.printf "  FAIL: only %.4f of offered frames resolved (floor 0.99)\n"
      resolved_rate;
    exit 1
  end

(* Written to BENCH_mc.json; run alone with TUTBENCH_ONLY=mc (the CI
   perf smoke).  Explores the seed TUTMAC network twice at a budget
   small enough that the unreduced space stays cheap (one environment
   injection and one timer fire per instance), with and without
   partial-order reduction, once at the default `tutflow check` budget
   for a throughput figure, and once at the widened budget (two
   injections per environment input, one timer fire, ~243k states) for
   the state store's throughput and the process's peak heap
   ([top_heap_mb], from [Gc.quick_stat]).  Gates: the bounded and the
   widened explorations must be exhaustive, the bounded ones must agree
   on the verdict (the seed is deadlock-free), POR must visit strictly
   fewer states than the unreduced run, and throughput must clear a
   conservative floor. *)
let bench_mc () =
  section "Model checker (explicit-state exploration)";
  let states_per_sec_floor = 5_000.0 in
  let model =
    Tut_profile.Builder.model
      (Tutmac.Scenario.build_model Tutmac.Scenario.default)
  in
  let explore budget por =
    let net = Mc.Net.build model in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r =
      Mc.Explore.run
        ~config:{ Mc.Explore.default_config with Mc.Explore.budget; por }
        net
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let small_budget =
    {
      Mc.Explore.default_budget with
      Mc.Explore.env_budget = 1;
      timer_budget = 1;
      max_states = 500_000;
    }
  in
  let widened_budget =
    {
      Mc.Explore.default_budget with
      Mc.Explore.env_budget = 2;
      timer_budget = 1;
      max_states = 1_000_000;
    }
  in
  let reduced, reduced_s = explore small_budget true in
  let full, full_s = explore small_budget false in
  let deflt, deflt_s = explore Mc.Explore.default_budget true in
  let widened, widened_s = explore widened_budget true in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let states (r : Mc.Explore.result) = r.Mc.Explore.stats.Mc.Explore.states in
  let exhausted (r : Mc.Explore.result) =
    r.Mc.Explore.stats.Mc.Explore.exhausted
  in
  let verdict_agree =
    Option.is_none reduced.Mc.Explore.violation
    = Option.is_none full.Mc.Explore.violation
  in
  let deadlock_free =
    Option.is_none reduced.Mc.Explore.violation && exhausted reduced
  in
  let reduction = float_of_int (states full) /. float_of_int (states reduced) in
  let states_per_sec = float_of_int (states deflt) /. deflt_s in
  let widened_states_per_sec = float_of_int (states widened) /. widened_s in
  Printf.printf "  %-28s %10d states in %.3fs\n" "por on (env 1, timer 1)"
    (states reduced) reduced_s;
  Printf.printf "  %-28s %10d states in %.3fs\n" "por off (env 1, timer 1)"
    (states full) full_s;
  Printf.printf "  %-28s %10.1fx\n" "por reduction" reduction;
  Printf.printf "  %-28s %10d states in %.3fs (%.0f states/sec)\n"
    "default budget (por on)" (states deflt) deflt_s states_per_sec;
  Printf.printf "  %-28s %10d states in %.3fs (%.0f states/sec)\n"
    "widened (env 2, timer 1)" (states widened) widened_s
    widened_states_per_sec;
  Printf.printf "  %-28s %10.1f MB\n" "peak heap" top_heap_mb;
  let oc = open_out "BENCH_mc.json" in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("states_por", Obs.Json.Int (states reduced));
            ("states_full", Obs.Json.Int (states full));
            ("seconds_por", Obs.Json.Float reduced_s);
            ("seconds_full", Obs.Json.Float full_s);
            ("reduction_factor", Obs.Json.Float reduction);
            ("default_states", Obs.Json.Int (states deflt));
            ("default_seconds", Obs.Json.Float deflt_s);
            ("states_per_sec", Obs.Json.Float states_per_sec);
            ("widened_states", Obs.Json.Int (states widened));
            ("widened_seconds", Obs.Json.Float widened_s);
            ("widened_states_per_sec", Obs.Json.Float widened_states_per_sec);
            ("widened_exhaustive", Obs.Json.Bool (exhausted widened));
            ("top_heap_mb", Obs.Json.Float top_heap_mb);
            ("exhaustive", Obs.Json.Bool (exhausted reduced && exhausted full));
            ("verdict_agree", Obs.Json.Bool verdict_agree);
            ("deadlock_free", Obs.Json.Bool deadlock_free);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  model-checker benchmark written to BENCH_mc.json\n";
  if not (exhausted reduced && exhausted full && exhausted widened) then begin
    Printf.printf "  FAIL: bounded exploration did not exhaust\n";
    exit 1
  end;
  if not verdict_agree then begin
    Printf.printf "  FAIL: POR changed the verdict\n";
    exit 1
  end;
  if states reduced >= states full then begin
    Printf.printf "  FAIL: POR visited %d states, unreduced %d (no reduction)\n"
      (states reduced) (states full);
    exit 1
  end;
  if states_per_sec < states_per_sec_floor then begin
    Printf.printf "  FAIL: %.0f states/sec is below the %.0f floor\n"
      states_per_sec states_per_sec_floor;
    exit 1
  end

let run_benchmarks () =
  section "Bechamel benchmarks (monotonic clock, ns/run)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) ->
            Printf.printf "  %-26s %14.1f ns/run\n" name estimate
          | Some [] | None -> Printf.printf "  %-26s (no estimate)\n" name)
        analysed)
    (staged_tests ())

let () =
  (* TUTBENCH_ONLY=dse: just the DSE section (with its equivalence and
     compiled-not-slower guards) — the CI perf smoke mode. *)
  match Sys.getenv_opt "TUTBENCH_ONLY" with
  | Some "dse" -> bench_dse ()
  | Some "fault" -> bench_fault ()
  | Some "obs" -> bench_obs ()
  | Some "sim" -> bench_sim ()
  | Some "mc" -> bench_mc ()
  | Some "wlan" -> bench_wlan ()
  | Some other ->
    Printf.eprintf
      "unknown TUTBENCH_ONLY=%s (supported: dse, fault, obs, sim, mc, wlan)\n"
      other;
    exit 2
  | None ->
    print_tables_1_2_3 ();
    print_figures ();
    let report = print_table4 () in
    ablation_arbitration ();
    ablation_crc_offload ();
    ablation_rtos ();
    ablation_grouping_objective report;
    ablation_regrouping ();
    sweep_series ();
    analysis_section ();
    bench_dse ();
    bench_fault ();
    bench_obs ();
    bench_sim ();
    bench_mc ();
    bench_wlan ();
    run_benchmarks ();
    print_newline ()
