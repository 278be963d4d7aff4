(* Multiprocessor SoC co-design — the evaluation target named in the
   paper's conclusion ("the profile will also be evaluated for
   multiprocessor System-on-Chip co-design environment").

   The application is a dual-chain baseband receiver: two antenna chains
   (filter -> demodulate -> decode) running in parallel, joined by a
   combiner and a sink.  The platform is a six-PE SoC (four general
   processors + two DSPs) on three HIBI segments joined by bridges.
   The flow: validate, simulate a naive mapping (everything on one
   processor), explore, then re-simulate the best mapping and compare
   PE balance and bus traffic.

   Run with: dune exec examples/soc_codesign.exe *)

let part name class_name = { Uml.Classifier.name; Uml.Classifier.class_name }

let conn name a b =
  let ep (p, q) = Uml.Connector.endpoint ?part:p q in
  Uml.Connector.make ~name ~from_:(ep a) ~to_:(ep b)

let chains = [ "a"; "b" ]
let stages = [ ("filter", 2500); ("demod", 4000); ("decode", 6000) ]

let sig_in chain = Printf.sprintf "Samples_%s" chain
let sig_between chain stage = Printf.sprintf "%s_%s" stage chain

(* Stage machine: consume, compute, forward. *)
let stage_machine ~name ~in_signal ~out_signal ~cycles =
  let open Efsm.Action in
  Efsm.Machine.make ~name ~states:[ "run" ] ~initial:"run"
    ~variables:[ ("blocks", V_int 0) ]
    [
      Efsm.Machine.transition ~src:"run" ~dst:"run"
        (Efsm.Machine.On_signal in_signal)
        ~actions:
          [
            compute (i cycles);
            assign "blocks" (v "blocks" + i 1);
            send ~port:"out" out_signal ~args:[ p "n" ];
          ];
    ]

let combiner_machine =
  let open Efsm.Action in
  Efsm.Machine.make ~name:"Combiner" ~states:[ "run" ] ~initial:"run"
    ~variables:[ ("a", V_int 0); ("b", V_int 0); ("frames", V_int 0) ]
    [
      Efsm.Machine.transition ~src:"run" ~dst:"run"
        (Efsm.Machine.On_signal (sig_between "decode" "a"))
        ~actions:
          [
            compute (i 1200);
            assign "a" (v "a" + i 1);
            If
              ( v "a" > v "frames" && v "b" > v "frames",
                [
                  assign "frames" (v "frames" + i 1);
                  send ~port:"out" "Frame" ~args:[ v "frames" ];
                ],
                [] );
          ];
      Efsm.Machine.transition ~src:"run" ~dst:"run"
        (Efsm.Machine.On_signal (sig_between "decode" "b"))
        ~actions:
          [
            compute (i 1200);
            assign "b" (v "b" + i 1);
            If
              ( v "a" > v "frames" && v "b" > v "frames",
                [
                  assign "frames" (v "frames" + i 1);
                  send ~port:"out" "Frame" ~args:[ v "frames" ];
                ],
                [] );
          ];
    ]

let sink_machine =
  let open Efsm.Action in
  Efsm.Machine.make ~name:"FrameSink" ~states:[ "run" ] ~initial:"run"
    ~variables:[ ("frames", V_int 0) ]
    [
      Efsm.Machine.transition ~src:"run" ~dst:"run"
        (Efsm.Machine.On_signal "Frame")
        ~actions:[ compute (i 400); assign "frames" (v "frames" + i 1) ];
    ]

let builder () =
  let open Tut_profile.Builder in
  let dsp = Tut_profile.Stereotypes.pt_dsp in
  let b = create "soc_baseband" in
  (* Signals: per-chain input + inter-stage + combined output. *)
  let all_signals =
    List.concat_map
      (fun chain ->
        sig_in chain
        :: List.map (fun (stage, _) -> sig_between stage chain) stages)
      chains
    @ [ "Frame" ]
  in
  let b =
    List.fold_left
      (fun b name ->
        signal b
          (Uml.Signal.make ~params:[ ("n", Uml.Signal.P_int) ] ~payload_bytes:128
             name))
      b all_signals
  in
  (* Stage component classes, one per (chain, stage). *)
  let b =
    List.fold_left
      (fun b chain ->
        let rec add_stages b prev_signal = function
          | [] -> b
          | (stage, cycles) :: rest ->
            let out_signal = sig_between stage chain in
            let class_name =
              Printf.sprintf "%s_%s"
                (String.capitalize_ascii stage)
                (String.uppercase_ascii chain)
            in
            let b =
              component_class b
                (Uml.Classifier.make ~kind:Uml.Classifier.Active
                   ~ports:
                     [
                       Uml.Port.make "inp" ~receives:[ prev_signal ];
                       Uml.Port.make "out" ~sends:[ out_signal ];
                     ]
                   ~behavior:
                     (stage_machine ~name:class_name ~in_signal:prev_signal
                        ~out_signal ~cycles)
                   class_name)
            in
            add_stages b out_signal rest
        in
        add_stages b (sig_in chain) stages)
      b chains
  in
  let b =
    component_class b
      (Uml.Classifier.make ~kind:Uml.Classifier.Active
         ~ports:
           [
             Uml.Port.make "in_a" ~receives:[ sig_between "decode" "a" ];
             Uml.Port.make "in_b" ~receives:[ sig_between "decode" "b" ];
             Uml.Port.make "out" ~sends:[ "Frame" ];
           ]
         ~behavior:combiner_machine "Combiner")
  in
  let b =
    component_class b
      (Uml.Classifier.make ~kind:Uml.Classifier.Active
         ~ports:[ Uml.Port.make "inp" ~receives:[ "Frame" ] ]
         ~behavior:sink_machine "FrameSink")
  in
  (* Top class: two chains of three stages + combiner + sink; boundary
     ports for the two antennas. *)
  let chain_parts chain =
    List.map
      (fun (stage, _) ->
        part
          (Printf.sprintf "%s_%s" stage chain)
          (Printf.sprintf "%s_%s"
             (String.capitalize_ascii stage)
             (String.uppercase_ascii chain)))
      stages
  in
  let chain_connectors chain =
    [
      conn
        (Printf.sprintf "ant_%s" chain)
        (None, Printf.sprintf "pAnt_%s" chain)
        (Some ("filter_" ^ chain), "inp");
      conn
        (Printf.sprintf "f2d_%s" chain)
        (Some ("filter_" ^ chain), "out")
        (Some ("demod_" ^ chain), "inp");
      conn
        (Printf.sprintf "d2d_%s" chain)
        (Some ("demod_" ^ chain), "out")
        (Some ("decode_" ^ chain), "inp");
      conn
        (Printf.sprintf "dec2c_%s" chain)
        (Some ("decode_" ^ chain), "out")
        (Some "combiner", ("in_" ^ chain));
    ]
  in
  let b =
    application_class b
      (Uml.Classifier.make
         ~ports:
           [
             Uml.Port.make "pAnt_a" ~receives:[ sig_in "a" ];
             Uml.Port.make "pAnt_b" ~receives:[ sig_in "b" ];
           ]
         ~parts:
           (List.concat_map chain_parts chains
           @ [ part "combiner" "Combiner"; part "sink" "FrameSink" ])
         ~connectors:
           (List.concat_map chain_connectors chains
           @ [ conn "c2s" (Some "combiner", "out") (Some "sink", "inp") ])
         "Baseband")
  in
  let all_process_parts =
    List.concat_map
      (fun chain -> List.map (fun (stage, _) -> stage ^ "_" ^ chain) stages)
      chains
    @ [ "combiner"; "sink" ]
  in
  let process_type p =
    if String.length p >= 5 && (String.sub p 0 5 = "demod" || String.sub p 0 5 = "decod")
    then dsp
    else Tut_profile.Stereotypes.pt_general
  in
  let b =
    List.fold_left
      (fun b p ->
        process
          ~tags:[ tenum "ProcessType" (process_type p) ]
          b ~owner:"Baseband" ~part:p)
      b all_process_parts
  in
  (* One group per process: maximum mapping freedom for the explorer. *)
  let b = plain_class b (Uml.Classifier.make "Pgt") in
  let b =
    plain_class b
      (Uml.Classifier.make
         ~parts:(List.map (fun p -> part ("g_" ^ p) "Pgt") all_process_parts)
         "SocGroups")
  in
  let b =
    List.fold_left
      (fun b p ->
        let b =
          group ~process_type:(process_type p) b ~owner:"SocGroups"
            ~part:("g_" ^ p)
        in
        grouping b ~name:("grp_" ^ p) ~process:("Baseband", p)
          ~group:("SocGroups", "g_" ^ p))
      b all_process_parts
  in
  (* Platform: 4 RISCs + 2 DSPs over three bridged segments. *)
  let b =
    platform_component_class
      ~tags:[ tenum "Type" Tut_profile.Stereotypes.ct_general; tint "Frequency" 50 ]
      b
      (Uml.Classifier.make ~ports:[ Uml.Port.make "bus" ] "Risc")
  in
  let b =
    platform_component_class
      ~tags:
        [
          tenum "Type" Tut_profile.Stereotypes.ct_dsp;
          tint "Frequency" 100;
          tfloat "PerfFactor" 2.0;
        ]
      b
      (Uml.Classifier.make ~ports:[ Uml.Port.make "bus" ] "Dsp")
  in
  let b =
    plain_class b
      (Uml.Classifier.make
         ~ports:
           [
             Uml.Port.make "p0"; Uml.Port.make "p1"; Uml.Port.make "p2";
             Uml.Port.make "p3";
           ]
         "Seg")
  in
  let pes =
    [ ("risc1", "Risc", "seg1"); ("risc2", "Risc", "seg1");
      ("risc3", "Risc", "seg2"); ("risc4", "Risc", "seg2");
      ("dsp1", "Dsp", "seg3"); ("dsp2", "Dsp", "seg3") ]
  in
  let b =
    platform_class b
      (Uml.Classifier.make
         ~parts:
           (List.map (fun (n, c, _) -> part n c) pes
           @ [ part "seg1" "Seg"; part "seg2" "Seg"; part "seg3" "Seg" ])
         ~connectors:
           (List.mapi
              (fun idx (n, _, seg) ->
                conn ("w_" ^ n) (Some n, "bus")
                  (Some seg, Printf.sprintf "p%d" (idx mod 2)))
              pes
           @ [
               conn "br12" (Some "seg1", "p3") (Some "seg2", "p3");
               conn "br23" (Some "seg2", "p2") (Some "seg3", "p3");
             ])
         "SocPlatform")
  in
  let b, _ =
    List.fold_left
      (fun (b, id) (n, _, _) ->
        (pe_instance b ~owner:"SocPlatform" ~part:n ~id, id + 1))
      (b, 1) pes
  in
  let b =
    List.fold_left
      (fun b seg -> comm_segment ~hibi:true b ~owner:"SocPlatform" ~part:seg)
      b [ "seg1"; "seg2"; "seg3" ]
  in
  let b, _ =
    List.fold_left
      (fun (b, addr) (n, _, _) ->
        (comm_wrapper ~hibi:true b ~owner:"SocPlatform" ~connector:("w_" ^ n)
           ~address:addr, addr + 1))
      (b, 0x10) pes
  in
  let b = comm_wrapper ~hibi:true b ~owner:"SocPlatform" ~connector:"br12" ~address:0x30 in
  let b = comm_wrapper ~hibi:true b ~owner:"SocPlatform" ~connector:"br23" ~address:0x31 in
  (* Naive initial mapping: everything general on risc1, DSP work on dsp1. *)
  List.fold_left
    (fun b p ->
      let target = if process_type p = dsp then "dsp1" else "risc1" in
      mapping b ~name:("map_" ^ p) ~group:("SocGroups", "g_" ^ p)
        ~pe:("SocPlatform", target))
    b all_process_parts

(* Environment: both antennas deliver a sample block every 500 us. *)
let environment =
  let open Efsm.Action in
  List.map
    (fun chain ->
      let machine =
        Efsm.Machine.make
          ~name:("Antenna_" ^ chain)
          ~states:[ "run" ] ~initial:"run"
          ~variables:[ ("n", V_int 0) ]
          [
            Efsm.Machine.transition ~src:"run" ~dst:"run"
              (Efsm.Machine.After 500_000)
              ~actions:
                [
                  send ~port:"ant" (sig_in chain) ~args:[ v "n" ];
                  assign "n" (v "n" + i 1);
                ];
          ]
      in
      {
        Codegen.Lower.name = "antenna_" ^ chain;
        Codegen.Lower.machine = machine;
        Codegen.Lower.ports = [ Uml.Port.make "ant" ~sends:[ sig_in chain ] ];
        Codegen.Lower.attachments = [ ("ant", "pAnt_" ^ chain) ];
      })
    chains

let simulate builder =
  match Codegen.Lower.lower ~environment (Tut_profile.Builder.view builder) with
  | Error problems -> failwith (String.concat "; " problems)
  | Ok sys -> (
    match Codegen.Runtime.create sys with
    | Error problems -> failwith (String.concat "; " problems)
    | Ok rt ->
      Codegen.Runtime.start rt;
      ignore (Codegen.Runtime.run rt ~until_ns:200_000_000L);
      rt)

let describe label rt =
  Printf.printf "%s:\n" label;
  let busy = Codegen.Runtime.pe_busy_ns rt in
  List.iter
    (fun (pe, ns) ->
      Printf.printf "  %-8s busy %8.3f ms\n" pe (Int64.to_float ns /. 1e6))
    busy;
  let max_busy =
    List.fold_left (fun acc (_, ns) -> max acc ns) 0L busy
  in
  let frames =
    match Codegen.Runtime.process_var rt "Baseband.sink" "frames" with
    | Some (Efsm.Action.V_int n) -> n
    | _ -> 0
  in
  Printf.printf "  frames delivered: %d; most-loaded PE: %.3f ms\n\n" frames
    (Int64.to_float max_busy /. 1e6);
  (frames, max_busy)

let () =
  let b = builder () in
  let validation = Tut_profile.Builder.validate b in
  if not (Tut_profile.Rules.is_valid validation) then begin
    Format.printf "%a@." Tut_profile.Rules.pp_report validation;
    exit 1
  end;
  print_endline "SoC baseband model valid (8 processes, 6 PEs, 3 segments)\n";

  (* Naive mapping. *)
  let rt_naive = simulate b in
  let naive_frames, naive_peak = describe "naive mapping (all on risc1/dsp1)" rt_naive in

  (* Profile the naive run and explore. *)
  let view = Tut_profile.Builder.view b in
  let groups = Profiler.Groups.of_view view in
  let report = Profiler.Report.build groups (Codegen.Runtime.trace rt_naive) in
  let profile = Dse.Cost.of_report report in
  let platform = Dse.Cost.of_view view in
  let candidates = Dse.Cost.candidates view in
  let kernel =
    Dse.Compiled.compile
      (Dse.Compiled.spec ~alpha:1.0 ~beta:0.05 ~profile ~platform ())
      ~candidates
  in
  let init = Dse.Cost.current_assignment view in
  let result =
    Dse.Explore.simulated_annealing_compiled ~seed:3 ~iterations:3000 ~kernel
      ~init ()
  in
  Printf.printf "exploration: cost %.1f -> %.1f in %d evaluations\n\n"
    (Dse.Compiled.full_cost kernel init)
    result.Dse.Explore.best_cost result.Dse.Explore.evaluations;
  List.iter
    (fun (group, pe) -> Printf.printf "  %-12s -> %s\n" group pe)
    result.Dse.Explore.best;
  print_newline ();

  (* Re-simulate the explored mapping. *)
  let b' = Dse.Explore.apply b result.Dse.Explore.best in
  let rt_best = simulate b' in
  let best_frames, best_peak = describe "explored mapping" rt_best in

  Printf.printf "summary: frames %d -> %d; most-loaded PE %.3f ms -> %.3f ms\n"
    naive_frames best_frames
    (Int64.to_float naive_peak /. 1e6)
    (Int64.to_float best_peak /. 1e6)
