(* Tests for the explicit-state model checker: exhaustive exploration
   of the seed TUTMAC network, verdict determinism across exploration
   orders and runs, partial-order-reduction soundness, mutation models
   with reachable deadlocks and queue overflows whose counterexamples
   replay byte for byte under both execution engines, coverage
   reporting, the L09 lint-oracle bridge, exact state counts pinned
   under seven configurations, and runtime action failures reported
   with their step. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let seed_model () =
  Tut_profile.Builder.model (Tutmac.Scenario.build_model Tutmac.Scenario.default)

let machine ?variables ?entry_actions name states initial transitions =
  Efsm.Machine.make ~name ~states ~initial ?variables ?entry_actions
    transitions

let transition ?guard ?actions ~src ~dst trigger =
  Efsm.Machine.transition ?guard ?actions ~src ~dst trigger

(* A ping-pong pair: statically a textbook L09 wait-for cycle (each
   machine sits in a state it can only leave on the other's signal).
   With [bound = None] one message is always in flight, so the checker
   proves the cycle spurious; with [bound = Some n] the responder stops
   replying after [n] pings and the pair genuinely deadlocks. *)
let pingpong_model ~bound =
  (* The entry action re-fires on the self-transition, so it alone
     sustains the ping-pong: exactly one message stays in flight. *)
  let a =
    machine "Pinger" [ "W" ] "W"
      ~entry_actions:[ ("W", [ Efsm.Action.send ~port:"pa" "ping" ]) ]
      [ transition ~src:"W" ~dst:"W" (Efsm.Machine.On_signal "pong") ]
  in
  let b =
    let reply =
      [
        Efsm.Action.assign "cnt" Efsm.Action.(v "cnt" + i 1);
        Efsm.Action.send ~port:"pb" "pong";
      ]
    in
    match bound with
    | None ->
      machine "Ponger" [ "W" ] "W"
        ~variables:[ ("cnt", Efsm.Action.V_int 0) ]
        [
          transition ~src:"W" ~dst:"W" ~actions:reply
            (Efsm.Machine.On_signal "ping");
        ]
    | Some n ->
      machine "Ponger" [ "W" ] "W"
        ~variables:[ ("cnt", Efsm.Action.V_int 0) ]
        [
          transition ~src:"W" ~dst:"W"
            ~guard:Efsm.Action.(v "cnt" < i n)
            ~actions:reply
            (Efsm.Machine.On_signal "ping");
          transition ~src:"W" ~dst:"W"
            ~guard:Efsm.Action.(i n <= v "cnt")
            ~actions:
              [ Efsm.Action.assign "cnt" Efsm.Action.(v "cnt" + i 1) ]
            (Efsm.Machine.On_signal "ping");
        ]
  in
  let model = Uml.Model.empty "pp" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "ping"; Uml.Signal.make "pong" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:a
         ~ports:
           [
             Uml.Port.make ~sends:[ "ping" ] "pa";
             Uml.Port.make ~receives:[ "pong" ] "pin";
           ]
         "Pinger")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:b
         ~ports:
           [
             Uml.Port.make ~sends:[ "pong" ] "pb";
             Uml.Port.make ~receives:[ "ping" ] "pin";
           ]
         "Ponger")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~parts:
         [
           { Uml.Classifier.name = "a"; class_name = "Pinger" };
           { Uml.Classifier.name = "b"; class_name = "Ponger" };
         ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint ~part:"a" "pa")
             ~to_:(Uml.Connector.endpoint ~part:"b" "pin");
           Uml.Connector.make ~name:"c2"
             ~from_:(Uml.Connector.endpoint ~part:"b" "pb")
             ~to_:(Uml.Connector.endpoint ~part:"a" "pin");
         ]
       "Sys")

(* A producer that answers one environment kick with a burst of [n]
   messages to a consumer; [n] above the queue capacity overflows. *)
let burst_model ~n =
  let p =
    machine "Burster" [ "Idle" ] "Idle"
      ~variables:[ ("k", Efsm.Action.V_int 0) ]
      [
        transition ~src:"Idle" ~dst:"Idle"
          ~actions:
            [
              Efsm.Action.assign "k" (Efsm.Action.i 0);
              Efsm.Action.While
                ( Efsm.Action.(v "k" < i n),
                  [
                    Efsm.Action.send ~port:"out" "m";
                    Efsm.Action.assign "k" Efsm.Action.(v "k" + i 1);
                  ] );
            ]
          (Efsm.Machine.On_signal "kick");
      ]
  in
  let c =
    machine "Sink" [ "W" ] "W"
      [ transition ~src:"W" ~dst:"W" (Efsm.Machine.On_signal "m") ]
  in
  let model = Uml.Model.empty "burst" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "kick"; Uml.Signal.make "m" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:p
         ~ports:
           [
             Uml.Port.make ~sends:[ "m" ] "out";
             Uml.Port.make ~receives:[ "kick" ] "pin";
           ]
         "Burster")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:c
         ~ports:[ Uml.Port.make ~receives:[ "m" ] "pin" ]
         "Sink")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "kick" ] "env_in" ]
       ~parts:
         [
           { Uml.Classifier.name = "p"; class_name = "Burster" };
           { Uml.Classifier.name = "c"; class_name = "Sink" };
         ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint ~part:"p" "out")
             ~to_:(Uml.Connector.endpoint ~part:"c" "pin");
           Uml.Connector.make ~name:"c2"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"p" "pin");
         ]
       "Sys")

(* One machine with an orphan state and a transition whose trigger no
   one ever produces: exhaustive exploration reports both. *)
let coverage_model () =
  let m =
    machine "Cov" [ "s0"; "s1"; "orphan" ] "s0"
      [
        transition ~src:"s0" ~dst:"s1" (Efsm.Machine.On_signal "go");
        transition ~src:"s1" ~dst:"s1" (Efsm.Machine.On_signal "never");
      ]
  in
  let model = Uml.Model.empty "cov" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "go"; Uml.Signal.make "never" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:m
         ~ports:[ Uml.Port.make ~receives:[ "go"; "never" ] "pin" ]
         "Cov")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "go" ] "env_in" ]
       ~parts:[ { Uml.Classifier.name = "m"; class_name = "Cov" } ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"m" "pin");
         ]
       "Sys")

(* A guard that reads a parameter of an environment-injected signal:
   the canonical-payload caveat (M06) must surface. *)
let env_param_model () =
  let m =
    machine "Gate" [ "s0"; "s1" ] "s0"
      [
        transition ~src:"s0" ~dst:"s1"
          ~guard:Efsm.Action.(i 0 < p "n")
          (Efsm.Machine.On_signal "kick");
      ]
  in
  let model = Uml.Model.empty "envp" in
  let model =
    Uml.Model.add_signal model
      (Uml.Signal.make ~params:[ ("n", Uml.Signal.P_int) ] "kick")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:m
         ~ports:[ Uml.Port.make ~receives:[ "kick" ] "pin" ]
         "Gate")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "kick" ] "env_in" ]
       ~parts:[ { Uml.Classifier.name = "m"; class_name = "Gate" } ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"m" "pin");
         ]
       "Sys")

(* A timer-driven countdown that divides by its counter: the second
   timer fire computes [10 / 0].  Elaboration succeeds; the failure is
   reachable only by exploring. *)
let countdown_model () =
  let m =
    machine "Countdown" [ "W" ] "W"
      ~variables:[ ("n", Efsm.Action.V_int 2); ("x", Efsm.Action.V_int 0) ]
      [
        transition ~src:"W" ~dst:"W"
          ~actions:
            [
              Efsm.Action.assign "n" Efsm.Action.(v "n" - i 1);
              Efsm.Action.assign "x" Efsm.Action.(i 10 / v "n");
            ]
          (Efsm.Machine.After 5);
      ]
  in
  let model = Uml.Model.empty "countdown" in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:m "Countdown")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~parts:[ { Uml.Classifier.name = "m"; class_name = "Countdown" } ]
       "Sys")

let rules ds rule =
  List.filter (fun d -> d.Lint.Diagnostic.rule = rule) ds

let run_check ?options model =
  match Mc.Check.run ?options model with
  | Ok r -> r
  | Error e -> Alcotest.fail ("check failed: " ^ e)

let pin_t = Alcotest.(list int)

let pin_of (r : Mc.Check.report) =
  let s = r.Mc.Check.r_stats in
  [
    s.Mc.Explore.states;
    s.Mc.Explore.steps;
    s.Mc.Explore.dedup;
    s.Mc.Explore.frontier_peak;
    r.Mc.Check.r_unreached;
    r.Mc.Check.r_unfired;
  ]

(* -- seed model --------------------------------------------------------- *)

let test_seed_exhaustive () =
  let r = run_check (seed_model ()) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "no errors" 0
    (List.length (Lint.Diagnostic.errors r.Mc.Check.r_diagnostics));
  check bool_t "non-trivial space" true
    (r.Mc.Check.r_stats.Mc.Explore.states > 10_000);
  check bool_t "every control state reached" true
    (r.Mc.Check.r_unreached = 0);
  (* The report renders deterministically. *)
  check string_t "render stable" (Mc.Check.render r)
    (Mc.Check.render (run_check (seed_model ())))

let explore ?(config = Mc.Explore.default_config) model =
  Mc.Explore.run ~config (Mc.Net.build model)

let test_seed_determinism () =
  let a = explore (seed_model ()) in
  let b = explore (seed_model ()) in
  check bool_t "same stats across runs" true
    (a.Mc.Explore.stats = b.Mc.Explore.stats);
  let dfs =
    explore
      ~config:{ Mc.Explore.default_config with Mc.Explore.order = Mc.Explore.Dfs }
      (seed_model ())
  in
  check int_t "states agree across orders" a.Mc.Explore.stats.Mc.Explore.states
    dfs.Mc.Explore.stats.Mc.Explore.states;
  check int_t "steps agree across orders" a.Mc.Explore.stats.Mc.Explore.steps
    dfs.Mc.Explore.stats.Mc.Explore.steps;
  check bool_t "verdicts agree across orders" true
    (Option.is_none a.Mc.Explore.violation
    = Option.is_none dfs.Mc.Explore.violation)

let test_seed_por_sound () =
  (* A budget small enough that the unreduced space stays cheap. *)
  let budget =
    { Mc.Explore.default_budget with Mc.Explore.env_budget = 1; timer_budget = 1 }
  in
  let cfg por = { Mc.Explore.default_config with Mc.Explore.budget; por } in
  let reduced = explore ~config:(cfg true) (seed_model ()) in
  let full = explore ~config:(cfg false) (seed_model ()) in
  check bool_t "both exhausted" true
    (reduced.Mc.Explore.stats.Mc.Explore.exhausted
    && full.Mc.Explore.stats.Mc.Explore.exhausted);
  check bool_t "same verdict" true
    (Option.is_none reduced.Mc.Explore.violation
    = Option.is_none full.Mc.Explore.violation);
  check bool_t "reduction is strict" true
    (reduced.Mc.Explore.stats.Mc.Explore.states
    < full.Mc.Explore.stats.Mc.Explore.states)

let test_env_budget_two_overflow_free () =
  (* Two environment injections in flight once drove the radio
     configurator's RChConfig queue past capacity (the M02 that shipped
     with the checker).  Admission control at the rca — a window-of-one
     PduConf credit — closes it; this pins the whole env-budget-2 space
     as overflow-free so the regression cannot come back silently. *)
  let budget =
    {
      Mc.Explore.default_budget with
      Mc.Explore.env_budget = 2;
      timer_budget = 1;
      max_states = 1_000_000;
    }
  in
  let options = { Mc.Check.default_options with Mc.Check.budget } in
  let r = run_check ~options (seed_model ()) in
  check bool_t "exhausted within 1M states" true
    r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "no M02 queue overflow" 0
    (List.length (rules r.Mc.Check.r_diagnostics "M02"));
  check int_t "no errors at all" 0
    (List.length (Lint.Diagnostic.errors r.Mc.Check.r_diagnostics));
  check pin_t "pinned counts" [ 243_209; 716_595; 473_387; 11_917; 0; 2 ]
    (pin_of r)

(* -- behaviour pins ------------------------------------------------------ *)

(* Exact (states, steps, dedup, frontier peak, unreached, unfired) of
   the seed network under the `tutflow check` configurations CI and the
   benchmark exercise.  Any change to the state store, the successor
   order or the reductions that alters what is explored moves one of
   these numbers. *)
let test_seed_pins () =
  let d = Mc.Check.default_options and b = Mc.Explore.default_budget in
  let timer1 = { b with Mc.Explore.timer_budget = 1 } in
  List.iter
    (fun (name, options, expected) ->
      check pin_t name expected (pin_of (run_check ~options (seed_model ()))))
    [
      ("default", d, [ 13_140; 34_423; 21_284; 744; 0; 1 ]);
      ( "order dfs",
        { d with Mc.Check.order = Mc.Explore.Dfs },
        [ 13_140; 34_423; 21_284; 36; 0; 1 ] );
      ( "por off, timer 1",
        { d with Mc.Check.por = false; budget = timer1 },
        [ 30_814; 128_563; 97_750; 1_824; 0; 2 ] );
      ( "coi off",
        { d with Mc.Check.coi = false },
        [ 16_620; 40_167; 23_548; 926; 0; 1 ] );
      ( "dfs, coi off, por off, timer 1",
        {
          d with
          Mc.Check.order = Mc.Explore.Dfs;
          coi = false;
          por = false;
          budget = timer1;
        },
        [ 30_814; 128_563; 97_750; 54; 0; 2 ] );
      ( "max-states 100",
        { d with Mc.Check.budget = { b with Mc.Explore.max_states = 100 } },
        [ 100; 159; 59; 65; 1; 6 ] );
    ]

(* The unbounded ping-pong counter with the cone of influence off: every
   state is distinct, so a depth cap of 16 400 walks the counter past 63
   and 8 191, the one- and two-byte limits of a packed record slot.  A
   store that truncated or aliased large values would merge states. *)
let test_pingpong_wide_counter () =
  let config =
    {
      Mc.Explore.default_config with
      Mc.Explore.coi = false;
      budget = { Mc.Explore.default_budget with Mc.Explore.max_depth = 16_400 };
    }
  in
  let r = explore ~config (pingpong_model ~bound:None) in
  let s = r.Mc.Explore.stats in
  check int_t "one state per depth" 16_401 s.Mc.Explore.states;
  check int_t "one step per state" 16_401 s.Mc.Explore.steps;
  check int_t "no merges" 0 s.Mc.Explore.dedup;
  check bool_t "truncated by the depth cap" false s.Mc.Explore.exhausted

(* -- deadlock mutation --------------------------------------------------- *)

let test_pingpong_free () =
  let r = run_check (pingpong_model ~bound:None) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "deadlock-free" 0
    (List.length (rules r.Mc.Check.r_diagnostics "M01"));
  (* The static pass still warns without the oracle... *)
  let static =
    Lint.Deadlock.pass.Lint.Pass.run
      (Lint.Pass.context_of_model (pingpong_model ~bound:None))
  in
  check int_t "static L09 fires" 1 (List.length static);
  (* ...and the checker discharges it through the oracle. *)
  let ctx =
    {
      (Lint.Pass.context_of_model (pingpong_model ~bound:None)) with
      Lint.Pass.deadlock_oracle =
        Some (Mc.Check.deadlock_oracle (pingpong_model ~bound:None));
    }
  in
  check int_t "oracle discharges L09" 0
    (List.length (Lint.Deadlock.pass.Lint.Pass.run ctx))

let replay_both model (trace : Sim.Trace.t) =
  let net = Mc.Net.build model in
  let replay engine =
    match Mc.Counterexample.replay net ~engine trace with
    | Ok s -> s
    | Error e -> Alcotest.fail ("replay failed: " ^ e)
  in
  (replay Efsm.Exec.Reference, replay Efsm.Exec.Compiled)

let test_pingpong_deadlock () =
  let model = pingpong_model ~bound:(Some 2) in
  let r = run_check model in
  check int_t "M01 error" 1 (List.length (rules r.Mc.Check.r_diagnostics "M01"));
  let trace =
    match r.Mc.Check.r_trace with
    | Some t -> t
    | None -> Alcotest.fail "no counterexample trace"
  in
  (* The trace survives the Sim.Trace line codec. *)
  (match Sim.Trace.of_lines (Sim.Trace.to_lines trace) with
  | Ok t2 ->
    check bool_t "line round-trip" true
      (Sim.Trace.to_lines t2 = Sim.Trace.to_lines trace)
  | Error e -> Alcotest.fail ("trace does not re-parse: " ^ e));
  (* Byte-for-byte replay under both engines, ending in the same stuck
     global state. *)
  let ref_s, comp_s = replay_both model trace in
  check bool_t "verdict is deadlock" true
    (match ref_s.Mc.Counterexample.s_verdict with
    | Mc.Counterexample.V_deadlock [ _; _ ] -> true
    | _ -> false);
  check bool_t "engines agree on the stuck state" true
    (ref_s.Mc.Counterexample.s_final = comp_s.Mc.Counterexample.s_final);
  check bool_t "all queues drained" true
    (List.for_all
       (fun (_, _, qlen) -> qlen = 0)
       ref_s.Mc.Counterexample.s_final)

let test_oracle_confirms () =
  let model = pingpong_model ~bound:(Some 2) in
  let ctx =
    {
      (Lint.Pass.context_of_model model) with
      Lint.Pass.deadlock_oracle = Some (Mc.Check.deadlock_oracle model);
    }
  in
  match Lint.Deadlock.pass.Lint.Pass.run ctx with
  | [ d ] ->
    check bool_t "upgraded to error" true
      (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error);
    check bool_t "names the checker" true
      (contains d.Lint.Diagnostic.message "confirmed by the model checker")
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d" (List.length ds))

(* -- queue overflow ------------------------------------------------------ *)

let test_overflow_counterexample () =
  let model = burst_model ~n:10 in
  let r = run_check model in
  check int_t "M02 error" 1 (List.length (rules r.Mc.Check.r_diagnostics "M02"));
  let trace = Option.get r.Mc.Check.r_trace in
  let ref_s, comp_s = replay_both model trace in
  check bool_t "verdict is overflow at the sink" true
    (match ref_s.Mc.Counterexample.s_verdict with
    | Mc.Counterexample.V_overflow (path, "m") -> contains path "/c"
    | _ -> false);
  check bool_t "engines agree" true
    (ref_s.Mc.Counterexample.s_final = comp_s.Mc.Counterexample.s_final);
  (* Below the capacity the same model is clean. *)
  let ok = run_check (burst_model ~n:3) in
  check int_t "no overflow below capacity" 0
    (List.length (rules ok.Mc.Check.r_diagnostics "M02"))

(* -- coverage and caveats ------------------------------------------------ *)

let test_coverage_reports () =
  (* Deadlock is off: the machine legitimately parks in s1 forever, and
     the point here is the coverage verdicts of an exhausted space. *)
  let options =
    { Mc.Check.default_options with Mc.Check.property = Mc.Check.P_overflow }
  in
  let r = run_check ~options (coverage_model ()) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  let m03 = rules r.Mc.Check.r_diagnostics "M03" in
  let m04 = rules r.Mc.Check.r_diagnostics "M04" in
  check int_t "one unreached state" 1 (List.length m03);
  check bool_t "names the orphan" true
    (contains (List.hd m03).Lint.Diagnostic.message "orphan");
  check int_t "one unfired transition" 1 (List.length m04);
  check bool_t "names the trigger" true
    (contains (List.hd m04).Lint.Diagnostic.message "on never")

let test_env_param_caveat () =
  let r = run_check (env_param_model ()) in
  check int_t "M06 caveat" 1 (List.length (rules r.Mc.Check.r_diagnostics "M06"));
  check bool_t "names the signal" true
    (contains (List.hd (rules r.Mc.Check.r_diagnostics "M06")).Lint.Diagnostic.message
       "kick")

(* -- runtime failures ------------------------------------------------------ *)

let test_runtime_error_located () =
  match Mc.Check.run (countdown_model ()) with
  | Ok _ -> Alcotest.fail "division by zero went unreported"
  | Error e ->
    List.iter
      (fun needle ->
        check bool_t (Printf.sprintf "%S mentions %S" e needle) true
          (contains e needle))
      [
        "exploration failed";
        "division by zero";
        "/m";
        "firing its timer";
        "after 2 states explored";
      ];
    check bool_t "not blamed on elaboration" false
      (contains e "elaboration")

(* -- seed lint end-to-end ------------------------------------------------ *)

let test_seed_lint_discharged () =
  let model = seed_model () in
  let ctx =
    {
      (Lint.Pass.context_of_model model) with
      Lint.Pass.deadlock_oracle = Some (Mc.Check.deadlock_oracle model);
    }
  in
  let ds = List.concat_map snd (Lint.Engine.run ctx) in
  check int_t "L09 discharged on the seed" 0 (List.length (rules ds "L09"));
  check int_t "errors" 0 (List.length (Lint.Diagnostic.errors ds));
  check int_t "warnings" 5 (List.length (Lint.Diagnostic.warnings ds))

let () =
  Alcotest.run "mc"
    [
      ( "seed",
        [
          Alcotest.test_case "exhaustive and clean" `Quick test_seed_exhaustive;
          Alcotest.test_case "determinism across runs and orders" `Quick
            test_seed_determinism;
          Alcotest.test_case "por preserves verdicts" `Quick test_seed_por_sound;
          Alcotest.test_case "env-budget 2 is overflow-free" `Slow
            test_env_budget_two_overflow_free;
          Alcotest.test_case "lint L09 discharged" `Quick
            test_seed_lint_discharged;
        ] );
      ( "pins",
        [
          Alcotest.test_case "seed counts under seven configurations" `Quick
            test_seed_pins;
          Alcotest.test_case "wide counter survives the packed store" `Quick
            test_pingpong_wide_counter;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "spurious cycle discharged" `Quick
            test_pingpong_free;
          Alcotest.test_case "mutation deadlocks, replay agrees" `Quick
            test_pingpong_deadlock;
          Alcotest.test_case "oracle confirms real deadlock" `Quick
            test_oracle_confirms;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "burst overflows, replay agrees" `Quick
            test_overflow_counterexample;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "unreached state and unfired transition" `Quick
            test_coverage_reports;
          Alcotest.test_case "environment payload caveat" `Quick
            test_env_param_caveat;
        ] );
      ( "failure",
        [
          Alcotest.test_case "runtime type error names its step" `Quick
            test_runtime_error_located;
        ] );
    ]
