(* The five workloads.  A rep is a closed loop of public library calls
   made from outside, on the same inputs every rep.  [rep] does the
   timed work and returns a thunk that, after the clock stops, digests
   what the rep produced and lists the invariants it found broken.  With
   a recording [Spans.t] every call gets a span, and the simulation is
   decomposed into the calls [Tutmac.Scenario.run_builder] makes, so the
   trace shows the layers inside it. *)

type sizes = {
  nominal_ns : int64;
  stress_ns : int64;
  fleet_terminals : int;
  fleet_ns : int;
  loop_iterations : int;
  loop_sim_ns : int64;
  loop_sa_iterations : int;
  mc_env_budget : int;
}

let full =
  {
    nominal_ns = 60_000_000_000L;
    stress_ns = 20_000_000_000L;
    fleet_terminals = 200;
    fleet_ns = 10_000_000_000;
    loop_iterations = 8;
    loop_sim_ns = 200_000_000L;
    loop_sa_iterations = 50_000;
    mc_env_budget = 2;
  }

let quick =
  {
    nominal_ns = 100_000_000L;
    stress_ns = 50_000_000L;
    fleet_terminals = 8;
    fleet_ns = 50_000_000;
    loop_iterations = 1;
    loop_sim_ns = 20_000_000L;
    loop_sa_iterations = 500;
    mc_env_budget = 1;
  }

type outcome = {
  ops : int option;  (* work items done; [None] when the path cannot count them *)
  op_s : float option;  (* seconds of the calls doing them, when narrower than the rep *)
  digest : string;
  problems : string list;
  counts : (string * float) list;  (* per-layer counts read off the results *)
  sim : Replay.input option;  (* the rep's last traced simulation call *)
}

type t = {
  name : string;
  seeded : bool;  (* whether the seed changes the inputs *)
  setup : unit -> unit;
  rep : Spans.t -> Obs.Scope.t option -> unit -> outcome;
}

let names =
  [ "tutmac_nominal"; "tutmac_stress"; "wlan_fleet"; "design_loop"; "check_exhaustive" ]

(* ---- digests and invariants ------------------------------------------- *)

(* Every field of every logged event, digested in 64 KiB chunks so the
   log is never materialised as one string.  A binary encoding: it
   costs half of rendering the log's text lines. *)
let trace_digest trace =
  let buf = Buffer.create 65_536 and acc = ref "" in
  let flush () =
    acc := Digest.string (!acc ^ Digest.string (Buffer.contents buf));
    Buffer.clear buf
  in
  let tag = Buffer.add_char buf and i64 = Buffer.add_int64_le buf in
  let int x = i64 (Int64.of_int x) in
  let str x =
    Buffer.add_string buf x;
    Buffer.add_char buf '\000'
  in
  Sim.Trace.iter trace (fun ev ->
      (match ev with
      | Sim.Trace.Exec { time; process; cycles } ->
        tag 'E'; i64 time; str process; i64 cycles
      | Signal { time; sender; receiver; signal; words; tag = t } ->
        tag 'S'; i64 time; str sender; str receiver; str signal; int words; int t
      | State_change { time; process; from_; to_ } ->
        tag 'T'; i64 time; str process; str from_; str to_
      | Discard { time; process; signal } -> tag 'D'; i64 time; str process; str signal
      | Fault { time; kind; target; info } ->
        tag 'F'; i64 time; str kind; str target; str info
      | Retransmit { time; sender; receiver; signal; attempt } ->
        tag 'R'; i64 time; str sender; str receiver; str signal; int attempt
      | Flow_hop { time; flow; stage; where_; dur } ->
        tag 'L'; i64 time; int flow; str stage; str where_; i64 dur);
      if Buffer.length buf >= 65_536 then flush ());
  flush ();
  Digest.to_hex !acc

let digest parts = Digest.to_hex (Digest.string (String.concat "\n--\n" parts))

let check problems ok what = if not ok then problems := what :: !problems

let cycles_invariant problems (r : Tutmac.Scenario.run_result) =
  let traced =
    List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L
      (Sim.Trace.total_cycles r.trace)
  in
  check problems
    (r.report.Profiler.Report.total_cycles = traced)
    (Printf.sprintf "report cycles %Ld <> trace cycles %Ld"
       r.report.Profiler.Report.total_cycles traced)

let failed problems () =
  { ops = None; op_s = None; digest = ""; problems; counts = []; sim = None }

(* ---- the simulate-and-report step --------------------------------------- *)

(* The set-up half of [Tutmac.Scenario.run_builder], one public call per
   span: validate, view, lower, [Codegen.Runtime.create] and [start].  The
   engine and trace store come from [config], as in [run_builder]. *)
let prepare spans ?obs ?flows (config : Tutmac.Scenario.config) builder =
  let ( let* ) = Result.bind in
  let span name f = Spans.span spans name f in
  let validation = span "core.validate" (fun () -> Tut_profile.Builder.validate builder) in
  let* () =
    if Tut_profile.Rules.is_valid validation then Ok ()
    else Error "model validation failed"
  in
  let view = span "core.view" (fun () -> Tut_profile.Builder.view builder) in
  let* sys =
    span "codegen.lower" (fun () ->
        Codegen.Lower.lower ~dispatch_overhead_cycles:config.dispatch_overhead_cycles
          ~scheduling:config.scheduling
          ~environment:(Tutmac.Workload.environment config.workload)
          view)
    |> Result.map_error (String.concat "; ")
  in
  span "codegen.create" (fun () ->
      let faults =
        if Fault.Plan.is_empty config.faults then None
        else Some (Fault.Injector.create ~plan:config.faults ~seed:config.fault_seed)
      in
      let trace = Sim.Trace.create ~backend:config.trace_backend () in
      match Codegen.Runtime.create ~trace ?faults ?obs ?flows ~engine:config.engine sys with
      | Ok runtime ->
        Codegen.Runtime.start runtime;
        Ok (view, sys, runtime)
      | Error problems -> Error (String.concat "; " problems))

(* [Tutmac.Scenario.run_builder] itself when untraced.  Traced, the same
   public calls one by one, each in its own span, also returning the
   events the [Codegen.Runtime.run] call fired and its host seconds. *)
let simulate spans ?obs ?flows config builder =
  if not (Spans.enabled spans) then
    Result.map (fun r -> (r, None))
      (Tutmac.Scenario.run_builder ?obs ?flows config builder)
  else
    let ( let* ) = Result.bind in
    let span name f = Spans.span spans name f in
    let* view, sys, runtime = prepare spans ?obs ?flows config builder in
    let fired, run_s =
      Spans.timed spans "codegen.run" (fun () ->
          Codegen.Runtime.run runtime ~until_ns:config.duration_ns)
    in
    let groups = span "profiler.groups" (fun () -> Profiler.Groups.of_view view) in
    let trace = Codegen.Runtime.trace runtime in
    let report = span "profiler.report" (fun () -> Profiler.Report.build groups trace) in
    Ok
      ( {
          Tutmac.Scenario.report;
          trace;
          sys;
          runtime;
          via_xmi = false;
          fault_stats = Codegen.Runtime.fault_stats runtime;
        },
        Some (fired, run_s) )

let replay_input (r : Tutmac.Scenario.run_result) faults call_s =
  let pe = Codegen.Runtime.process_pe r.runtime in
  {
    Replay.trace = r.trace;
    call_s;
    machine_of =
      (fun name ->
        Option.map (fun p -> p.Codegen.Ir.machine) (Codegen.Ir.find_proc r.sys name));
    framed =
      (fun ~sender ~receiver ->
        (not (Fault.Plan.is_empty faults))
        && match (pe sender, pe receiver) with
           | Some a, Some b -> a <> b
           | _ -> false);
  }

(* ---- TUTMAC: nominal and stressed --------------------------------------- *)

(* Owned by the benchmark: every injector of the CI plan except the PE
   crash, so the run stays on one mapping. *)
let stress_plan =
  match
    Fault.Plan.of_json_string
      {|{"faults":[
          {"kind":"hibi_corrupt","segment":"*","rate":0.05,"max_flips":3},
          {"kind":"hibi_drop","segment":"hibisegment1","rate":0.03},
          {"kind":"hibi_stall","segment":"bridge","rate":0.02,"max_stall_ns":5000},
          {"kind":"signal_loss","process":"*","rate":0.01},
          {"kind":"signal_dup","process":"*","rate":0.01}],
        "recovery":{"ack_timeout_ns":2000000,"max_retries":5,
                    "watchdog_period_ns":10000000,"remap":true}}|}
  with
  | Ok plan -> plan
  | Error e -> failwith ("stress plan: " ^ e)

let tutmac ~name ~stress ~seeded (config : Tutmac.Scenario.config) =
  let setup () =
    let flows = if stress then Some (Obs.Flow.create ()) else None in
    match
      prepare (Spans.disabled ()) ?flows config (Tutmac.Scenario.build_model config)
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let rep spans obs =
    let span name f = Spans.span spans name f in
    let flows = if stress then Some (Obs.Flow.create ()) else None in
    let builder = span "core.build" (fun () -> Tutmac.Scenario.build_model config) in
    match simulate spans ?obs ?flows config builder with
    | Error e -> failed [ e ]
    | Ok (r, traced) ->
      let text = span "profiler.render" (fun () -> Profiler.Report.render r.report) in
      let flow =
        if stress then
          Some
            (span "profiler.flow_report" (fun () ->
                 let f = Profiler.Flow_report.of_trace r.trace in
                 (f, Profiler.Flow_report.render_text f)))
        else None
      in
      let fault_text =
        span "profiler.render" (fun () ->
            Option.fold ~none:"" ~some:Profiler.Report.render_fault_section r.fault_stats)
      in
      fun () ->
        let problems = ref [] in
        cycles_invariant problems r;
        let flow_counts =
          match flow with
          | Some (f, _) ->
            [
              ("obs.flow.minted", float_of_int f.minted);
              ( "obs.flow.hops",
                float_of_int
                  (List.fold_left
                     (fun acc (s : Profiler.Flow_report.stage_row) -> acc + s.hops)
                     0 f.stages) );
            ]
          | None -> []
        in
        let fault_counts =
          match r.fault_stats with
          | Some s ->
            [
              ("fault.injected", float_of_int (Fault.Stats.injected s));
              ("fault.retransmits", float_of_int s.retransmits);
            ]
          | None -> []
        in
        {
          (* Engine events: only the decomposed path sees the count. *)
          ops = Option.map fst traced;
          op_s = None;
          digest =
            digest
              [
                text;
                Option.fold ~none:"" ~some:snd flow;
                fault_text;
                trace_digest r.trace;
              ];
          problems = !problems;
          counts = flow_counts @ fault_counts;
          sim = Option.map (fun (_, s) -> replay_input r config.faults s) traced;
        }
  in
  { name; seeded; setup; rep }

let tutmac_nominal sizes =
  tutmac ~name:"tutmac_nominal" ~stress:false ~seeded:false
    { Tutmac.Scenario.default with duration_ns = sizes.nominal_ns }

let tutmac_stress sizes ~seed =
  tutmac ~name:"tutmac_stress" ~stress:true ~seeded:true
    {
      Tutmac.Scenario.default with
      duration_ns = sizes.stress_ns;
      workload =
        { Tutmac.Workload.default_params with Tutmac.Workload.msdu_period_ns = 2_000_000 };
      faults = stress_plan;
      fault_seed = seed;
    }

(* ---- TUTWLAN fleet ------------------------------------------------------ *)

let fleet_plan =
  match
    Fault.Plan.of_json_string
      {|{"faults":[
          {"kind":"chan_loss","terminals":"*","rate":0.08},
          {"kind":"chan_burst","terminals":"0-3","rate":0.02,"max_burst_ns":400000},
          {"kind":"term_crash","terminals":"5","at_ns":250000000}]}|}
  with
  | Ok plan -> plan
  | Error e -> failwith ("fleet plan: " ^ e)

let wlan_fleet sizes ~seed =
  let config =
    {
      Tutmac.Wlan.default with
      terminals = sizes.fleet_terminals;
      duration_ns = sizes.fleet_ns;
      seed;
      faults = fleet_plan;
      fault_seed = seed;
      jobs = 1;
    }
  in
  let setup () = ignore (Tutmac.Wlan.run { config with duration_ns = config.slot_ns }) in
  let mac =
    Tutmac.Wlan.mac_machine ~max_retries:config.max_retries ~cw_min:config.cw_min
      ~cw_max:config.cw_max
  in
  let rep spans obs =
    let r, call_s = Spans.timed spans "wlan.run" (fun () -> Tutmac.Wlan.run ?obs config) in
    let text = Spans.span spans "wlan.render" (fun () -> Tutmac.Wlan.render r) in
    fun () ->
      let problems = ref [] in
      check problems
        (r.offered = r.delivered + r.abandoned + r.flushed + r.unresolved)
        (Printf.sprintf
           "offered %d <> delivered %d + abandoned %d + flushed %d + unresolved %d"
           r.offered r.delivered r.abandoned r.flushed r.unresolved);
      (* Every process that changes state or discards is a terminal MAC. *)
      let macs = Hashtbl.create 256 in
      Sim.Trace.iter r.trace (function
        | Sim.Trace.State_change { process; _ } | Discard { process; _ } ->
          Hashtbl.replace macs process ()
        | _ -> ());
      {
        ops = Some r.events;
        op_s = None;
        digest = digest [ text; trace_digest r.trace ];
        problems = !problems;
        counts =
          [
            ("wlan.attempts", float_of_int r.attempts);
            ( "wlan.collision_ratio",
              float_of_int r.collisions /. float_of_int (max 1 r.attempts) );
          ];
        sim =
          (if Spans.enabled spans then
             Some
               {
                 Replay.trace = r.trace;
                 call_s;
                 machine_of = (fun name -> if Hashtbl.mem macs name then Some mac else None);
                 framed = (fun ~sender:_ ~receiver:_ -> false);
               }
           else None);
      }
  in
  { name = "wlan_fleet"; seeded = true; setup; rep }

(* ---- the designer's re-mapping loop --------------------------------------- *)

let design_loop sizes ~seed =
  let config = { Tutmac.Scenario.default with duration_ns = sizes.loop_sim_ns } in
  let base = Tutmac.Scenario.build_model config in
  let setup () =
    ignore (Tut_profile.Builder.validate (Tutmac.Scenario.build_model config))
  in
  let rep spans obs =
    let span name f = Spans.span spans name f in
    (* Checks and digests wait for the thunk, outside the timed rep. *)
    let deferred = ref [] and evaluations = ref 0 and search_s = ref 0.0 in
    let defer f = deferred := f :: !deferred in
    let sim = ref None in
    let simulate_and_report builder =
      match simulate spans ?obs config builder with
      | Error e ->
        defer (fun problems -> problems := e :: !problems; []);
        None
      | Ok (r, traced) ->
        let text = span "profiler.render" (fun () -> Profiler.Report.render r.report) in
        Option.iter (fun (_, s) -> sim := Some (replay_input r config.faults s)) traced;
        defer (fun problems ->
            cycles_invariant problems r;
            [ text; trace_digest r.trace ]);
        Some r
    in
    for i = 0 to sizes.loop_iterations - 1 do
      let validation = span "core.validate" (fun () -> Tut_profile.Builder.validate base) in
      let model = Tut_profile.Builder.model base in
      let diags = span "lint.analyze" (fun () -> Lint.Engine.analyze ?obs model) in
      let xml =
        span "xmi.write" (fun () -> Xmi.Write.to_string model (Tut_profile.Builder.apps base))
      in
      let groups = span "xmi.read" (fun () -> Profiler.Groups.of_xmi_string xml) in
      defer (fun problems ->
          check problems (Tut_profile.Rules.is_valid validation) "seed model invalid";
          (match groups with Error e -> problems := e :: !problems | Ok _ -> ());
          [
            String.concat "\n" (List.map Lint.Diagnostic.render diags);
            (match groups with
            | Ok g ->
              String.concat " "
                (List.map (fun (p, g) -> p ^ "=" ^ g) (Profiler.Groups.to_alist g))
            | Error _ -> "");
          ]);
      match simulate_and_report base with
      | None -> ()
      | Some r ->
        let kernel, init =
          span "dse.compile" (fun () ->
              let view = Tut_profile.Builder.view base in
              let spec =
                Dse.Compiled.spec ~profile:(Dse.Cost.of_report r.report)
                  ~platform:(Dse.Cost.of_view view) ()
              in
              ( Dse.Compiled.compile spec ~candidates:(Dse.Cost.candidates view),
                Dse.Cost.current_assignment view ))
        in
        let sa, s =
          Spans.timed spans "dse.search" (fun () ->
              Dse.Explore.simulated_annealing_compiled ?obs ~seed:(seed + i)
                ~iterations:sizes.loop_sa_iterations ~kernel ~init ())
        in
        evaluations := !evaluations + sa.evaluations;
        search_s := !search_s +. s;
        defer (fun problems ->
            let full = Dse.Compiled.full_cost kernel sa.best in
            check problems (sa.best_cost = full)
              (Printf.sprintf "annealing best cost %h <> full cost %h" sa.best_cost full);
            [
              Printf.sprintf "%s %h %d"
                (String.concat " " (List.map (fun (g, pe) -> g ^ "->" ^ pe) sa.best))
                sa.best_cost sa.evaluations;
            ]);
        let remapped = span "dse.apply" (fun () -> Dse.Explore.apply base sa.best) in
        ignore (simulate_and_report remapped)
    done;
    fun () ->
      let problems = ref [] in
      let parts = List.concat_map (fun f -> f problems) (List.rev !deferred) in
      {
        ops = Some !evaluations;
        op_s = Some !search_s;
        digest = digest parts;
        problems = !problems;
        counts = [ ("dse.evaluations", float_of_int !evaluations) ];
        sim = !sim;
      }
  in
  { name = "design_loop"; seeded = true; setup; rep }

(* ---- exhaustive model check ---------------------------------------------- *)

let check_exhaustive sizes =
  let config =
    {
      Mc.Explore.default_config with
      budget =
        {
          Mc.Explore.default_budget with
          env_budget = sizes.mc_env_budget;
          timer_budget = 1;
          max_states = 1_000_000;
        };
      por = true;
    }
  in
  let model () =
    Tut_profile.Builder.model (Tutmac.Scenario.build_model Tutmac.Scenario.default)
  in
  let seed_model = model () in
  let setup () = ignore (Mc.Net.build (model ())) in
  let rep spans _obs =
    let net = Spans.span spans "mc.net_build" (fun () -> Mc.Net.build seed_model) in
    let r = Spans.span spans "mc.explore" (fun () -> Mc.Explore.run ~config net) in
    fun () ->
      let st = r.Mc.Explore.stats in
      let problems = ref [] in
      check problems st.exhausted "exploration not exhausted";
      check problems (Option.is_none r.violation) "violation found";
      let ratio a b = float_of_int a /. float_of_int (max 1 b) in
      {
        ops = Some st.states;
        op_s = None;
        digest =
          digest
            [
              Printf.sprintf "states %d steps %d dedup %d frontier %d" st.states st.steps
                st.dedup st.frontier_peak;
              String.concat " " (List.map (fun (p, s) -> p ^ ":" ^ s) r.unreached_states);
              String.concat " "
                (List.map (fun (p, k) -> Printf.sprintf "%s#%d" p k) r.unfired_transitions);
              String.concat "\n" r.caveats;
            ];
        problems = !problems;
        counts =
          [
            ("mc.states", float_of_int st.states);
            ("mc.steps", float_of_int st.steps);
            ("mc.dedup_ratio", ratio st.dedup st.steps);
            ("mc.frontier_peak", float_of_int st.frontier_peak);
          ];
        sim = None;
      }
  in
  { name = "check_exhaustive"; seeded = false; setup; rep }

let make sizes ~seed = function
  | "tutmac_nominal" -> Some (tutmac_nominal sizes)
  | "tutmac_stress" -> Some (tutmac_stress sizes ~seed)
  | "wlan_fleet" -> Some (wlan_fleet sizes ~seed)
  | "design_loop" -> Some (design_loop sizes ~seed)
  | "check_exhaustive" -> Some (check_exhaustive sizes)
  | _ -> None
