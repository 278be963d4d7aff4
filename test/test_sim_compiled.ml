(* Differential testing of the compiled execution path against the
   reference one, at every layer:

   - machine level: random EFSMs (nested guards, random actions,
     hierarchical machines flattened with Efsm.Hsm) driven in lockstep
     through Efsm.Interp and Efsm.Compiled — states, variables, fired
     transitions, effects, timer requests and error messages must agree
     on every step — and through the Efsm.Exec seam under both engines;
   - network level: random process networks (self-sends, fan-out
     bindings, local and HIBI-routed signals) run under both
     Codegen.Runtime engines — the simulation traces must be
     byte-identical, event for event;
   - scenario level: the TUTMAC case study (fault-free, fault-injected,
     flow-traced) under both engines with full-trace diffs;
   - queue level: QCheck properties pinning Sim.Engine's calendar queue
     to the exact (time, seq) total order of a sorted-list model,
     including FIFO within a timestamp, ordering across buckets, lazy
     dead-entry dropping, in-place timer re-arming, and resize
     behaviour. *)

open Efsm

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* -- machine-level lockstep ------------------------------------------ *)

(* Same action-language generators as test_efsm's notation round-trips:
   they produce ill-typed programs on purpose, so the differential also
   covers Type_error parity (message and evaluation order). *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              map (fun n -> Action.Int n) (int_range 0 1000);
              map (fun b -> Action.Bool b) bool;
              map (fun s -> Action.Var s) (oneofl [ "x"; "y"; "count" ]);
              map (fun s -> Action.Param s) (oneofl [ "seq"; "frag" ]);
            ]
        in
        if size <= 1 then leaf
        else
          oneof
            [
              leaf;
              map (fun e -> Action.Neg e) (self (size / 2));
              map (fun e -> Action.Not e) (self (size / 2));
              (let* op =
                 oneofl
                   [
                     Action.Add; Action.Sub; Action.Mul; Action.Div; Action.Mod;
                     Action.Eq; Action.Ne; Action.Lt; Action.Le; Action.Gt;
                     Action.Ge; Action.And; Action.Or;
                   ]
               in
               let* a = self (size / 2) in
               let* b = self (size / 2) in
               return (Action.Bin (op, a, b)));
            ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              (let* name = oneofl [ "x"; "y" ] in
               let* e = gen_expr in
               return (Action.Assign (name, e)));
              (let* port = oneofl [ "out"; "dp" ] in
               let* signal = oneofl [ "Sig"; "Data" ] in
               let* n = int_range 0 2 in
               let* args = list_repeat n gen_expr in
               return (Action.Send { port; signal; args }));
              map (fun e -> Action.Compute e) gen_expr;
            ]
        in
        if size <= 1 then leaf
        else
          oneof
            [
              leaf;
              (let* cond = gen_expr in
               let* nthen = int_range 1 2 in
               let* then_ = list_repeat nthen (self (size / 2)) in
               let* nelse = int_range 0 2 in
               let* else_ = list_repeat nelse (self (size / 2)) in
               return (Action.If (cond, then_, else_)));
              (let* cond = gen_expr in
               let* n = int_range 1 2 in
               let* body = list_repeat n (self (size / 2)) in
               return (Action.While (cond, body)));
            ]))

let gen_transition states =
  QCheck.Gen.(
    let* src = oneofl states in
    let* dst = oneofl states in
    let* trigger =
      oneof
        [
          map (fun s -> Machine.On_signal s) (oneofl [ "go"; "stop"; "tick" ]);
          map (fun n -> Machine.After n) (int_range 1 100_000);
          return Machine.Completion;
        ]
    in
    let* has_guard = bool in
    let* guard = gen_expr in
    let* n_actions = int_range 0 2 in
    let* actions = list_repeat n_actions gen_stmt in
    return
      (Machine.transition
         ?guard:(if has_guard then Some guard else None)
         ~actions ~src ~dst trigger))

let gen_machine =
  QCheck.Gen.(
    let states = [ "s0"; "s1"; "s2" ] in
    let* n_transitions = int_range 0 8 in
    let* transitions = list_repeat n_transitions (gen_transition states) in
    let* variables =
      let* vx = int_range (-50) 50 in
      let* vb = bool in
      return [ ("x", Action.V_int vx); ("done_", Action.V_bool vb) ]
    in
    let gen_state_actions =
      let* with_actions = bool in
      if not with_actions then return []
      else
        let* state = oneofl states in
        let* n = int_range 1 2 in
        let* stmts = list_repeat n gen_stmt in
        return [ (state, stmts) ]
    in
    let* entry_actions = gen_state_actions in
    let* exit_actions = gen_state_actions in
    return
      (Machine.make ~name:"gen" ~states ~initial:"s0" ~variables ~entry_actions
         ~exit_actions transitions))

(* Well-typed machines whose transitions and entry/exit actions emit
   several effects: the generators above produce ill-typed programs on
   purpose, so most of their runs stop at the first error, before a step
   has left more than one effect. *)
let gen_typed_stmt =
  QCheck.Gen.(
    let x = Action.Var "x" in
    oneof
      [
        map (fun n -> Action.Compute (Action.Int n)) (int_range 1 50);
        map
          (fun n ->
            Action.Send { port = "out"; signal = "Sig"; args = [ x; Action.Int n ] })
          (int_range 0 9);
        map (fun n -> Action.Assign ("x", Action.Bin (Action.Add, x, Action.Int n)))
          (int_range (-3) 3);
        map
          (fun n ->
            Action.If
              ( Action.Bin (Action.Gt, x, Action.Int n),
                [ Action.Send { port = "dp"; signal = "Data"; args = [ x ] } ],
                [ Action.Compute (Action.Int 3) ] ))
          (int_range (-2) 2);
      ])

let gen_typed_machine =
  QCheck.Gen.(
    let states = [ "s0"; "s1"; "s2" ] in
    let stmts = list_size (int_range 1 3) gen_typed_stmt in
    let gen_transition =
      let* src = oneofl states in
      let* dst = oneofl states in
      let* limit = int_range 0 4 in
      let* actions = stmts in
      let* kind = int_range 0 2 in
      return
        (match kind with
        | 0 ->
          (* a guarded count-up, so completion chains end *)
          Machine.transition ~src ~dst
            ~guard:(Action.Bin (Action.Lt, Action.Var "x", Action.Int limit))
            ~actions:
              (Action.Assign
                 ("x", Action.Bin (Action.Add, Action.Var "x", Action.Int 1))
              :: actions)
            Machine.Completion
        | 1 -> Machine.transition ~src ~dst ~actions (Machine.After (1 + limit))
        | _ ->
          Machine.transition ~src ~dst ~actions
            (Machine.On_signal (List.nth [ "go"; "stop"; "tick" ] (limit mod 3))))
    in
    let* transitions = list_size (int_range 2 7) gen_transition in
    let state_actions =
      map List.concat
        (flatten_l
           (List.map
              (fun st ->
                let* on = bool in
                let* block = stmts in
                return (if on then [ (st, block) ] else []))
              states))
    in
    let* entry_actions = state_actions in
    let* exit_actions = state_actions in
    return
      (Machine.make ~name:"typed" ~states ~initial:"s0"
         ~variables:[ ("x", Action.V_int 0) ]
         ~entry_actions ~exit_actions transitions))

(* Hierarchical machines: a fixed two-level shape (composite [c] with
   substates, one optionally nested composite) with random transitions
   over all state names, flattened to a flat machine.  Flattening is the
   interesting part — inherited transitions, inner-first priority and
   initial-chain entry all end up as ordinary declaration-order
   transitions both engines must read identically. *)
let gen_hsm_machine =
  QCheck.Gen.(
    let* nested = bool in
    let inner =
      if nested then
        Hsm.composite ~name:"c2" ~initial:"d1" [ Hsm.simple "d1"; Hsm.simple "d2" ]
      else Hsm.simple "c2"
    in
    let states =
      [
        Hsm.simple "a";
        Hsm.composite ~name:"c" ~initial:"c1" [ Hsm.simple "c1"; inner ];
        Hsm.simple "b";
      ]
    in
    let names =
      [ "a"; "b"; "c"; "c1"; "c2" ] @ if nested then [ "d1"; "d2" ] else []
    in
    let* n_transitions = int_range 1 8 in
    let* transitions = list_repeat n_transitions (gen_transition names) in
    let* vx = int_range (-50) 50 in
    let hsm =
      {
        Hsm.name = "hgen";
        states;
        initial = "a";
        variables = [ ("x", Action.V_int vx); ("done_", Action.V_bool false) ];
        transitions;
      }
    in
    match Hsm.check hsm with
    | [] -> (
      match Hsm.flatten hsm with Ok m -> return (Some m) | Error _ -> return None)
    | _ -> return None)

type op =
  | Op_dispatch of string * (string * Action.value) list
  | Op_timer of bool  (** [true]: entered_state is the current state *)
  | Op_completions

let gen_op =
  QCheck.Gen.(
    oneof
      [
        (let* signal = oneofl [ "go"; "stop"; "tick"; "other" ] in
         let* n_args = int_range 0 3 in
         let* args =
           list_repeat n_args
             (let* name = oneofl [ "seq"; "frag"; "seq" ] in
              let* value =
                oneof
                  [
                    map (fun n -> Action.V_int n) (int_range (-5) 20);
                    map (fun b -> Action.V_bool b) bool;
                  ]
              in
              return (name, value))
         in
         return (Op_dispatch (signal, args)));
        map (fun valid -> Op_timer valid) bool;
        return Op_completions;
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 1 25) gen_op)

let print_op = function
  | Op_dispatch (s, args) ->
    Printf.sprintf "dispatch %s(%s)" s
      (String.concat ","
         (List.map
            (fun (n, v) ->
              Printf.sprintf "%s=%s" n
                (match v with
                | Action.V_int i -> string_of_int i
                | Action.V_bool b -> string_of_bool b))
            args))
  | Op_timer valid -> if valid then "timer" else "stale-timer"
  | Op_completions -> "completions"

type outcome =
  | O_step of Machine.transition option * Action.effect list
  | O_effects of Action.effect list
  | O_error of string

(* Run one op on either engine, funnelled through the same outcome type
   so the comparison is a structural equality. *)
let catching f = try f () with Action.Type_error m -> O_error m

let interp_op inst op =
  catching (fun () ->
      match op with
      | Op_dispatch (signal, args) ->
        let st = Interp.dispatch inst ~signal ~args in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_timer valid ->
        let entered = if valid then Interp.state inst else "__stale__" in
        let st = Interp.fire_timer inst ~entered_state:entered in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_completions -> O_effects (Interp.run_completions inst))

let compiled_op inst op =
  catching (fun () ->
      match op with
      | Op_dispatch (signal, args) ->
        let st = Compiled.dispatch inst ~signal ~args in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_timer valid ->
        let entered = if valid then Compiled.state inst else "__stale__" in
        let st = Compiled.fire_timer inst ~entered_state:entered in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_completions -> O_effects (Compiled.run_completions inst))

let sorted_vars l = List.sort compare l

let pp_outcome = function
  | O_error m -> "error: " ^ m
  | O_step (fired, effects) ->
    Printf.sprintf "step fired=%s effects=%d"
      (match fired with None -> "-" | Some t -> t.Machine.source ^ "->" ^ t.Machine.target)
      (List.length effects)
  | O_effects effects -> Printf.sprintf "effects=%d" (List.length effects)

(* Drive both engines through [ops] in lockstep; true iff every step
   agrees.  Stops at the first error (the instance state after an
   exception is unspecified, but the message must match). *)
let lockstep machine ops =
  let ri = Interp.create machine in
  let ci = Compiled.of_machine machine in
  let fail op_label a b =
    QCheck.Test.fail_reportf "engines diverge on %s:\n  reference: %s\n  compiled:  %s\n%s"
      op_label (pp_outcome a) (pp_outcome b)
      (Notation.print_machine machine)
  in
  let agree op_label a b =
    if a <> b then fail op_label a b;
    match (a, b) with O_error _, _ -> false | _ -> true
  in
  let sync op_label =
    if Interp.state ri <> Compiled.state ci then
      QCheck.Test.fail_reportf "state diverges after %s: %s vs %s\n%s" op_label
        (Interp.state ri) (Compiled.state ci)
        (Notation.print_machine machine);
    if sorted_vars (Interp.variables ri) <> sorted_vars (Compiled.variables ci)
    then
      QCheck.Test.fail_reportf "variables diverge after %s\n%s" op_label
        (Notation.print_machine machine);
    if Interp.timer_request ri <> Compiled.timer_request ci then
      QCheck.Test.fail_reportf "timer request diverges after %s\n%s" op_label
        (Notation.print_machine machine)
  in
  let init_r = catching (fun () -> O_effects (Interp.initial_entry ri)) in
  let init_c = catching (fun () -> O_effects (Compiled.initial_entry ci)) in
  if agree "initial entry" init_r init_c then begin
    sync "initial entry";
    let rec go = function
      | [] -> ()
      | op :: rest ->
        let label = print_op op in
        if agree label (interp_op ri op) (compiled_op ci op) then begin
          sync label;
          go rest
        end
    in
    go ops
  end;
  true

(* The same ops through the executor seam, {!Efsm.Exec}, under both
   engines, against the interpreter's step results: fired flag, the
   [effect_at] walk, state, every variable, timer request and
   [Type_error] text.  The seam starts a machine with one step (initial
   entry, then completions), as the runtime does, and has no completion
   step of its own: a fired step chains completions to quiescence, so
   there the interpreter's [Op_completions] must fire nothing. *)
type seam_outcome = S_step of bool * Action.effect list | S_error of string

let seam_catching f = try f () with Action.Type_error m -> S_error m

let seam_effects x = List.init (Exec.effect_count x) (Exec.effect_at x)

let seam_step x fired = S_step (fired, if fired then seam_effects x else [])

let oracle_step (st : Interp.step) = S_step (st.Interp.fired <> None, st.Interp.effects)

let seam_op x op =
  seam_catching (fun () ->
      match op with
      | Op_dispatch (signal, args) ->
        seam_step x (Exec.dispatch_id x ~sid:(Exec.signal_id x signal) ~args)
      | Op_timer valid ->
        let entered = if valid then Exec.state x else "__stale__" in
        seam_step x (Exec.fire_timer_id x ~entered_state:entered)
      | Op_completions -> S_step (false, []))

let oracle_op ri op =
  seam_catching (fun () ->
      match op with
      | Op_dispatch (signal, args) -> oracle_step (Interp.dispatch ri ~signal ~args)
      | Op_timer valid ->
        let entered = if valid then Interp.state ri else "__stale__" in
        oracle_step (Interp.fire_timer ri ~entered_state:entered)
      | Op_completions -> S_step (false, Interp.run_completions ri))

let pp_seam = function
  | S_error m -> "error: " ^ m
  | S_step (fired, effects) ->
    Printf.sprintf "fired=%b effects=%d" fired (List.length effects)

let seam_lockstep machine ops =
  let prog = Compiled.compile machine in
  let ri = Interp.create machine in
  let seams =
    [ ("reference", Exec.create Exec.Reference prog);
      ("compiled", Exec.create Exec.Compiled prog) ]
  in
  let diverge what label expected got =
    QCheck.Test.fail_reportf "seam (%s) diverges on %s:\n  oracle: %s\n  seam:   %s\n%s"
      what label expected got (Notation.print_machine machine)
  in
  (* true iff every seam agrees with the oracle and no error stopped it *)
  let agree label expected outcomes =
    List.iter2
      (fun (what, _) got ->
        if got <> expected then
          diverge what label (pp_seam expected) (pp_seam got))
      seams outcomes;
    match expected with S_error _ -> false | S_step _ -> true
  in
  let sync label =
    List.iter
      (fun (what, x) ->
        if Exec.state x <> Interp.state ri then
          diverge what (label ^ " (state)") (Interp.state ri) (Exec.state x);
        for v = 0 to Compiled.n_vars prog - 1 do
          let name = Compiled.var_name_of_id prog v in
          if Exec.read_var x name <> Interp.read_var ri name then
            diverge what (label ^ " (variable " ^ name ^ ")") "" ""
        done;
        if Exec.timer_request x <> Interp.timer_request ri then
          diverge what (label ^ " (timer request)") "" "")
      seams
  in
  let start =
    seam_catching (fun () ->
        let entry = Interp.initial_entry ri in
        S_step (true, entry @ Interp.run_completions ri))
  in
  let started =
    List.map
      (fun (_, x) -> seam_catching (fun () -> Exec.start x; seam_step x true))
      seams
  in
  if agree "start" start started then begin
    sync "start";
    let rec go = function
      | [] -> ()
      | op :: rest ->
        let label = print_op op in
        let expected = oracle_op ri op in
        if agree label expected (List.map (fun (_, x) -> seam_op x op) seams)
        then begin
          sync label;
          go rest
        end
    in
    go ops
  end;
  true

let prop_lockstep_flat =
  QCheck.Test.make ~name:"lockstep: random flat machines" ~count:600
    (QCheck.make
       ~print:(fun (m, ops) ->
         Notation.print_machine m ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair (oneof [ gen_machine; gen_typed_machine ]) gen_ops))
    (fun (machine, ops) -> lockstep machine ops && seam_lockstep machine ops)

let prop_lockstep_hsm =
  QCheck.Test.make ~name:"lockstep: flattened hierarchical machines" ~count:200
    (QCheck.make
       ~print:(fun (m, ops) ->
         (match m with
         | Some m -> Notation.print_machine m
         | None -> "<ill-formed hsm>")
         ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair gen_hsm_machine gen_ops))
    (fun (machine, ops) ->
      match machine with
      | None -> true
      | Some m -> lockstep m ops && seam_lockstep m ops)

(* -- network-level differential -------------------------------------- *)

(* Random well-typed process networks: three processes on one or two
   PEs, each emitting its own signal on timer loops; random binding
   fan-out (a signal may go to several destinations, including the
   sender itself — self-sends and TUTMAC-fragmentation-like fan-out).
   Receives update variables; completions are guarded counters.  Both
   runtimes execute the same Ir.system and the traces must be
   byte-identical. *)

let net_machine ~name ~sends ~receives ~recv_in_s1 ~use_completion ~after1
    ~after2 ~cost ~limit ~guard_recv =
  let half_cost = cost / 2 in
  let open Action in
  let send_all = List.map (fun (port, s) -> send ~port s ~args:[ v "n" ]) sends in
  let recv_handler src =
    List.map
      (fun signal ->
        Machine.transition ~src ~dst:src (Machine.On_signal signal)
          ?guard:(if guard_recv then Some (v "n" < i 1_000_000) else None)
          ~actions:[ assign "n" (v "n" + p "k") ])
      receives
  in
  Machine.make ~name ~states:[ "s0"; "s1" ] ~initial:"s0"
    ~variables:[ ("n", V_int 0); ("c", V_int 0) ]
    ([
       Machine.transition ~src:"s0" ~dst:"s1" (Machine.After after1)
         ~actions:((compute (i cost) :: send_all) @ [ assign "n" (v "n" + i 1) ]);
       Machine.transition ~src:"s1" ~dst:"s0" (Machine.After after2)
         ~actions:(send_all @ [ compute (i half_cost) ]);
     ]
    @ recv_handler "s0"
    @ (if recv_in_s1 then recv_handler "s1" else [])
    @
    if use_completion then
      [
        Machine.transition ~src:"s1" ~dst:"s1" Machine.Completion
          ~guard:(v "c" < i limit)
          ~actions:[ assign "c" (v "c" + i 1) ];
      ]
    else [])

let gen_system =
  QCheck.Gen.(
    let proc_names = [| "net.p0"; "net.p1"; "net.p2" |] in
    let signal_of = [| "S0"; "S1"; "S2" |] in
    let gen_dsts =
      let* a = bool in
      let* b = bool in
      let* c = bool in
      let picked =
        List.concat
          [
            (if a then [ 0 ] else []);
            (if b then [ 1 ] else []);
            (if c then [ 2 ] else []);
          ]
      in
      if picked = [] then map (fun x -> [ x ]) (int_range 0 2) else return picked
    in
    let* dsts = array_repeat 3 gen_dsts in
    let* pe_of = array_repeat 3 (oneofl [ "pe0"; "pe1" ]) in
    let* scheduling = oneofl [ Codegen.Ir.Fifo; Codegen.Ir.Priority_preemptive ] in
    let gen_proc i =
      let receives =
        List.filter_map
          (fun j -> if List.mem i dsts.(j) then Some signal_of.(j) else None)
          [ 0; 1; 2 ]
      in
      let* recv_in_s1 = bool in
      let* use_completion = bool in
      let* after1 = int_range 5_000 60_000 in
      let* after2 = int_range 5_000 60_000 in
      let* cost = int_range 20 400 in
      let* limit = int_range 2 30 in
      let* guard_recv = bool in
      return
        {
          Codegen.Ir.proc_name = proc_names.(i);
          machine =
            net_machine ~name:("M" ^ string_of_int i)
              ~sends:[ ("io", signal_of.(i)) ]
              ~receives ~recv_in_s1 ~use_completion ~after1 ~after2 ~cost ~limit
              ~guard_recv;
          priority = i + 1;
          pe = Some pe_of.(i);
          group = Some "g";
        }
    in
    let* procs = flatten_l (List.map gen_proc [ 0; 1; 2 ]) in
    let bindings =
      List.concat_map
        (fun j ->
          List.map
            (fun d ->
              {
                Codegen.Ir.b_src = proc_names.(j);
                b_port = "io";
                b_signal = signal_of.(j);
                b_dst = proc_names.(d);
              })
            dsts.(j))
        [ 0; 1; 2 ]
    in
    let pe name =
      { Codegen.Ir.pe_name = name; frequency_mhz = 100; perf_factor = 1.0; scheduling }
    in
    let wrapper name agent address =
      Codegen.Ir.Agent_wrapper
        {
          name;
          agent;
          address;
          segment = "seg";
          buffer_size = 8;
          max_time = 100;
          bus_priority = address;
        }
    in
    return
      {
        Codegen.Ir.sys_name = "net";
        procs;
        bindings;
        pes = [ pe "pe0"; pe "pe1" ];
        segments =
          [
            {
              Codegen.Ir.seg_name = "seg";
              data_width_bits = 32;
              seg_frequency_mhz = 100;
              arbitration = Codegen.Ir.Priority;
              max_send_size = 16;
            };
          ];
        wrappers = [ wrapper "w0" "pe0" 1; wrapper "w1" "pe1" 2 ];
        signal_words = [ ("S0", 1); ("S1", 2); ("S2", 1) ];
        signal_params = [ ("S0", [ "k" ]); ("S1", [ "k" ]); ("S2", [ "k" ]) ];
        dispatch_overhead_cycles = 10;
      })

let run_network engine sys ~until_ns =
  match Codegen.Runtime.create ~engine sys with
  | Error problems ->
    QCheck.Test.fail_reportf "runtime create failed: %s"
      (String.concat "; " problems)
  | Ok rt ->
    Codegen.Runtime.start rt;
    ignore (Codegen.Runtime.run rt ~until_ns);
    let final =
      List.map
        (fun p ->
          let name = p.Codegen.Ir.proc_name in
          ( name,
            Codegen.Runtime.process_state rt name,
            Codegen.Runtime.process_var rt name "n",
            Codegen.Runtime.process_var rt name "c" ))
        sys.Codegen.Ir.procs
    in
    (Sim.Trace.to_lines (Codegen.Runtime.trace rt), final,
     Codegen.Runtime.runtime_errors rt)

let first_diff la lb =
  let rec go i = function
    | [], [] -> None
    | a :: _, [] -> Some (i, a, "<end of trace>")
    | [], b :: _ -> Some (i, "<end of trace>", b)
    | a :: ra, b :: rb -> if a <> b then Some (i, a, b) else go (i + 1) (ra, rb)
  in
  go 0 (la, lb)

let prop_network_differential =
  QCheck.Test.make ~name:"network traces bit-identical across engines"
    ~count:120
    (QCheck.make
       ~print:(fun sys -> Format.asprintf "%a" Codegen.Ir.pp sys)
       gen_system)
    (fun sys ->
      if Codegen.Ir.check sys <> [] then
        QCheck.Test.fail_reportf "generated system fails Ir.check: %s"
          (String.concat "; " (Codegen.Ir.check sys));
      let lr, fr, er = run_network Efsm.Exec.Reference sys ~until_ns:1_000_000L in
      let lc, fc, ec = run_network Efsm.Exec.Compiled sys ~until_ns:1_000_000L in
      (match first_diff lr lc with
      | Some (i, a, b) ->
        QCheck.Test.fail_reportf
          "traces diverge at event %d:\n  reference: %s\n  compiled:  %s" i a b
      | None -> ());
      if fr <> fc then QCheck.Test.fail_reportf "final process states diverge";
      if er <> ec then QCheck.Test.fail_reportf "runtime errors diverge";
      true)

(* -- scenario-level differential (TUTMAC case study) ------------------ *)

let scenario_trace ?obs ?flows config =
  match Tutmac.Scenario.run ?obs ?flows config with
  | Error e -> Alcotest.failf "scenario run failed: %s" e
  | Ok result ->
    ( Sim.Trace.to_lines result.Tutmac.Scenario.trace,
      Profiler.Report.render result.Tutmac.Scenario.report )

let check_traces_equal name (lr, rr) (lc, rc) =
  (match first_diff lr lc with
  | Some (i, a, b) ->
    Alcotest.failf "%s: traces diverge at event %d:\n  reference: %s\n  compiled:  %s"
      name i a b
  | None -> ());
  check int_t (name ^ ": same event count") (List.length lr) (List.length lc);
  check string_t (name ^ ": same report") rr rc

let engine_config engine duration_ns =
  { Tutmac.Scenario.default with Tutmac.Scenario.duration_ns; engine }

let test_scenario_differential () =
  let d = 50_000_000L in
  check_traces_equal "fault-free"
    (scenario_trace (engine_config Efsm.Exec.Reference d))
    (scenario_trace (engine_config Efsm.Exec.Compiled d))

let fault_plan =
  {
    Fault.Plan.specs =
      [
        Fault.Plan.Hibi_drop
          { segment = "*"; rate = 0.05; window = Fault.Plan.always };
        Fault.Plan.Hibi_corrupt
          { segment = "*"; rate = 0.03; max_flips = 2; window = Fault.Plan.always };
        Fault.Plan.Signal_dup
          { process = "*"; rate = 0.02; window = Fault.Plan.always };
      ];
    recovery = Fault.Plan.default_recovery;
  }

let test_scenario_differential_faults () =
  let config engine =
    {
      (engine_config engine 50_000_000L) with
      Tutmac.Scenario.faults = fault_plan;
      fault_seed = 42;
    }
  in
  check_traces_equal "fault-injected"
    (scenario_trace (config Efsm.Exec.Reference))
    (scenario_trace (config Efsm.Exec.Compiled))

let test_scenario_differential_flows () =
  let run engine =
    let obs = Obs.Scope.create () in
    let flows = Obs.Flow.create ~metrics:(Obs.Scope.metrics obs) () in
    let t = scenario_trace ~obs ~flows (engine_config engine 50_000_000L) in
    (t, Obs.Flow.minted flows, Obs.Flow.completed flows)
  in
  let tr, mr, cr = run Efsm.Exec.Reference in
  let tc, mc, cc = run Efsm.Exec.Compiled in
  check_traces_equal "flow-traced" tr tc;
  check int_t "same flows minted" mr mc;
  check int_t "same flows completed" cr cc;
  check bool_t "flows were minted" true (mr > 0)

(* -- event queue properties -------------------------------------------- *)

(* Sim.Engine's calendar queue must fire events in the exact (time, seq)
   total order; these properties check it against a sorted-list model.
   Every event records its own key when it fires.  The engine draws one
   seq per schedule call, so numbering the calls in the test reproduces
   its tie-break order. *)

let insert_sorted key l =
  let rec go = function
    | [] -> [ key ]
    | k :: rest -> if compare key k < 0 then key :: k :: rest else k :: go rest
  in
  go l

(* Fire the next event and return the key it recorded; [None] when the
   queue is empty. *)
let step_key engine last =
  last := None;
  if Sim.Engine.step engine then
    match !last with
    | Some _ as key -> key
    | None -> QCheck.Test.fail_reportf "step fired an event that recorded nothing"
  else None

let expect_pop ~what got expected =
  match (got, expected) with
  | Some (gt, gs), Some (et, es) ->
    if (gt, gs) <> (et, es) then
      QCheck.Test.fail_reportf "%s: got (%d,%d), expected (%d,%d)" what gt gs et
        es
  | None, Some (et, es) ->
    QCheck.Test.fail_reportf "%s: queue empty, expected (%d,%d)" what et es
  | Some (gt, gs), None ->
    QCheck.Test.fail_reportf "%s: fired (%d,%d) beyond the model" what gt gs
  | None, None -> ()

(* [spread] controls how times map to buckets: a small spread packs many
   events (and timestamp collisions — FIFO territory) into one bucket; a
   large spread crosses buckets and laps. *)
let calendar_order_prop ~spread ops =
  let engine = Sim.Engine.create () in
  let last = ref None in
  let model = ref [] in
  let seq = ref 0 in
  let pop () =
    match !model with
    | [] -> expect_pop ~what:"pop order" (step_key engine last) None
    | expected :: rest ->
      expect_pop ~what:"pop order" (step_key engine last) (Some expected);
      model := rest
  in
  List.iter
    (fun v ->
      if v mod 5 = 0 && !model <> [] then pop ()
      else begin
        let key = (Sim.Engine.now_ns engine + (v mod spread), !seq) in
        incr seq;
        ignore
          (Sim.Engine.schedule_at_ns engine ~time:(fst key) (fun () ->
               last := Some key));
        model := insert_sorted key !model
      end)
    ops;
  while !model <> [] do
    pop ()
  done;
  pop ();
  true

let gen_calendar_ops =
  QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 10_000))

let prop_calendar_fifo =
  QCheck.Test.make ~name:"calendar: FIFO within a timestamp" ~count:200
    gen_calendar_ops (calendar_order_prop ~spread:3)

let prop_calendar_buckets =
  QCheck.Test.make ~name:"calendar: order across buckets" ~count:200
    gen_calendar_ops (calendar_order_prop ~spread:9973)

(* Lazy cancellation: dead entries never fire, live order is unchanged,
   and under a live scope the drop counter ends at exactly the number
   of entries cancelled while still queued (a full drain drops each
   one once). *)
let prop_calendar_dead =
  QCheck.Test.make ~name:"calendar: dead entries are dropped" ~count:200
    gen_calendar_ops (fun ops ->
      let obs = Obs.Scope.create () in
      let engine = Sim.Engine.create ~obs () in
      let last = ref None in
      let handles = Hashtbl.create 64 in
      let dead = Hashtbl.create 64 in
      let cancelled_queued = ref 0 in
      let model = ref [] in
      let seq = ref 0 in
      let pop ~what =
        model := List.filter (fun k -> not (Hashtbl.mem dead (snd k))) !model;
        match !model with
        | [] -> expect_pop ~what (step_key engine last) None
        | expected :: rest ->
          expect_pop ~what (step_key engine last) (Some expected);
          model := rest
      in
      List.iter
        (fun v ->
          match v mod 7 with
          | 0 -> if !model <> [] then pop ~what:"dead-drop pop order"
          | 1 | 2 ->
            (* cancel a random entry, pending or already fired *)
            if !seq > 0 then begin
              let s = v mod !seq in
              let h = Hashtbl.find handles s in
              if not (Sim.Engine.cancelled h) then incr cancelled_queued;
              Sim.Engine.cancel h;
              Hashtbl.replace dead s ()
            end
          | _ ->
            let key = (Sim.Engine.now_ns engine + (v mod 500), !seq) in
            incr seq;
            Hashtbl.replace handles (snd key)
              (Sim.Engine.schedule_at_ns engine ~time:(fst key) (fun () ->
                   last := Some key));
            model := insert_sorted key !model)
        ops;
      while !model <> [] do
        pop ~what:"drain order"
      done;
      pop ~what:"drain order";
      let dropped =
        Obs.Metrics.counter_value
          (Obs.Metrics.snapshot (Obs.Scope.metrics obs))
          "sim.engine.dead_entries_dropped"
      in
      if Option.value ~default:0 dropped <> !cancelled_queued then
        QCheck.Test.fail_reportf "dead_entries_dropped = %d, cancelled %d queued"
          (Option.value ~default:0 dropped)
          !cancelled_queued;
      true)

(* In-place re-arming must be indistinguishable from cancel-then-
   schedule.  A few timers, each with one fixed callback like an EFSM
   After timer, are re-armed between one-shot schedules, cancels (of
   timers and one-shots) and steps.  The model treats a re-arm as the
   removal of the timer's pending arming plus a fresh schedule drawing
   the next seq.  Fill and drain phases alternate, so the queue grows
   and shrinks through several resizes. *)
type rearm_label = Shot of int | Timer of int

module Rearm_model = Set.Make (struct
  type t = int * int * rearm_label

  let compare = compare
end)

let n_timers = 3
let rearm_phase = 1_000

let rearm_prop (spread, ops) =
  let engine = Sim.Engine.create () in
  let fired = ref None in
  let model = ref Rearm_model.empty in
  let seq = ref 0 in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let timer_fire = Array.init n_timers (fun k () -> fired := Some (Timer k)) in
  let timers = Array.make n_timers Sim.Engine.never in
  let timer_key = Array.make n_timers None in
  let shots = Hashtbl.create 256 in
  let forget = function
    | _, _, Timer k -> timer_key.(k) <- None
    | _, s, Shot _ -> Hashtbl.remove shots s
  in
  let step () =
    fired := None;
    let stepped = Sim.Engine.step engine in
    match Rearm_model.min_elt_opt !model with
    | None -> if stepped then QCheck.Test.fail_reportf "fired beyond the model"
    | Some ((time, s, label) as key) ->
      if not stepped then
        QCheck.Test.fail_reportf "queue empty, expected seq %d at %d" s time;
      if !fired <> Some label || Sim.Engine.now_ns engine <> time then
        QCheck.Test.fail_reportf "expected seq %d at %d, fired another event" s
          time;
      model := Rearm_model.remove key !model;
      forget key
  in
  List.iteri
    (fun i v ->
      if
        i mod rearm_phase = 0
        && Sim.Engine.pending engine <> Rearm_model.cardinal !model
      then QCheck.Test.fail_reportf "pending disagrees with the model at op %d" i;
      (* Out of 20: [steps] steps, then 2 re-arms, 1 cancel and the rest
         one-shot schedules — 10% steps while filling, 70% draining. *)
      let steps = if i / rearm_phase mod 2 = 0 then 2 else 14 in
      let r = v mod 20 and arg = v / 20 in
      if r < steps then step ()
      else if r < steps + 2 then begin
        let k = arg mod n_timers in
        Option.iter
          (fun key -> model := Rearm_model.remove key !model)
          timer_key.(k);
        let delay = arg / n_timers mod spread in
        let key = (Sim.Engine.now_ns engine + delay, next_seq (), Timer k) in
        timers.(k) <- Sim.Engine.rearm_ns engine timers.(k) ~delay timer_fire.(k);
        timer_key.(k) <- Some key;
        model := Rearm_model.add key !model
      end
      else if r = steps + 2 then begin
        let cancel h key =
          Sim.Engine.cancel h;
          model := Rearm_model.remove key !model;
          forget key
        in
        if arg mod 4 = 0 then begin
          let k = arg / 4 mod n_timers in
          Option.iter (cancel timers.(k)) timer_key.(k)
        end
        else if !seq > 0 then
          Option.iter
            (fun (h, key) -> cancel h key)
            (Hashtbl.find_opt shots (arg mod !seq))
      end
      else begin
        let s = next_seq () in
        let time = Sim.Engine.now_ns engine + (arg mod spread) in
        let key = (time, s, Shot s) in
        let h =
          Sim.Engine.schedule_at_ns engine ~time (fun () -> fired := Some (Shot s))
        in
        Hashtbl.replace shots s (h, key);
        model := Rearm_model.add key !model
      end)
    ops;
  while not (Rearm_model.is_empty !model) do
    step ()
  done;
  step ();
  true

let prop_calendar_rearm =
  QCheck.Test.make ~name:"calendar: re-arm matches cancel-then-schedule"
    ~count:60
    QCheck.(
      pair (oneofl [ 3; 500; 100_000 ])
        (list_of_size (Gen.int_range 1 4_000) (int_range 0 1_000_000)))
    rearm_prop

(* Deterministic resize stress: enough entries to force bucket growth
   and a spread that forces shrink on the way down. *)
let test_calendar_resize () =
  let engine = Sim.Engine.create () in
  let lcg = ref 12345 in
  let next () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg
  in
  let n = 5_000 in
  let last = ref None in
  for s = 1 to n do
    let t = next () mod 1_000_000 in
    ignore (Sim.Engine.schedule_at_ns engine ~time:t (fun () -> last := Some (t, s)))
  done;
  check int_t "all stored" n (Sim.Engine.pending engine);
  let prev = ref (-1, -1) in
  let popped = ref 0 in
  let rec drain () =
    match step_key engine last with
    | None -> ()
    | Some k ->
      check bool_t "strictly increasing (time,seq)" true (compare !prev k < 0);
      prev := k;
      incr popped;
      drain ()
  in
  drain ();
  check int_t "all popped" n !popped

(* -- mailbox ----------------------------------------------------------- *)

let test_mailbox_fifo () =
  let mb = Sim.Mailbox.Flat.create ~capacity:4 ~dummy:0 () in
  check bool_t "empty" true (Sim.Mailbox.Flat.is_empty mb);
  (* interleave pushes and pops so head wraps around the ring while the
     buffer grows past its initial capacity *)
  let out = ref [] in
  let next_in = ref 0 in
  let pop () =
    let a = Sim.Mailbox.Flat.head_a mb in
    let payload = Sim.Mailbox.Flat.pop mb in
    check int_t "lane and payload in step" a payload;
    out := payload :: !out
  in
  for round = 1 to 50 do
    for _ = 1 to round mod 7 do
      incr next_in;
      Sim.Mailbox.Flat.push mb !next_in 0 0 !next_in
    done;
    for _ = 1 to round mod 3 do
      if not (Sim.Mailbox.Flat.is_empty mb) then pop ()
    done
  done;
  while not (Sim.Mailbox.Flat.is_empty mb) do
    pop ()
  done;
  let got = List.rev !out in
  check int_t "nothing lost" !next_in (List.length got);
  check bool_t "FIFO order" true (got = List.init !next_in (fun i -> i + 1));
  check bool_t "empty again" true (Sim.Mailbox.Flat.is_empty mb)

(* High-water mark: tracks the peak length across wrap-around and
   growth, and only [clear] resets it — popping to empty does not. *)
let test_mailbox_high_water () =
  let mb = Sim.Mailbox.Flat.create ~capacity:4 ~dummy:0 () in
  let push i = Sim.Mailbox.Flat.push mb i i i i in
  check int_t "starts at 0" 0 (Sim.Mailbox.Flat.high_water mb);
  for i = 1 to 3 do
    push i
  done;
  check int_t "tracks pushes" 3 (Sim.Mailbox.Flat.high_water mb);
  (* wrap the head: drain, then push enough to cross the ring boundary
     without growing (capacity rounds 4 up to the 8 minimum) *)
  while not (Sim.Mailbox.Flat.is_empty mb) do
    ignore (Sim.Mailbox.Flat.pop mb)
  done;
  check int_t "draining keeps the peak" 3 (Sim.Mailbox.Flat.high_water mb);
  for i = 1 to 2 do
    push i
  done;
  check int_t "lower refills keep the peak" 3 (Sim.Mailbox.Flat.high_water mb);
  (* grow past the backing array: peak follows the new maximum *)
  for i = 3 to 40 do
    push i
  done;
  check int_t "growth raises the peak" 40 (Sim.Mailbox.Flat.high_water mb);
  Sim.Mailbox.Flat.clear mb;
  check bool_t "clear empties" true (Sim.Mailbox.Flat.is_empty mb);
  check int_t "clear resets the peak" 0 (Sim.Mailbox.Flat.high_water mb);
  push 7;
  check int_t "peak restarts after clear" 1 (Sim.Mailbox.Flat.high_water mb)

(* The flat ring keeps its three int lanes and the payload in step
   through wrap-around and growth. *)
let test_mailbox_flat_lanes () =
  let mb = Sim.Mailbox.Flat.create ~capacity:4 ~dummy:"" () in
  let popped = ref [] in
  let next_in = ref 0 in
  for round = 1 to 60 do
    for _ = 1 to round mod 8 do
      incr next_in;
      let n = !next_in in
      Sim.Mailbox.Flat.push mb n (n * 2) (n * 3) (string_of_int n)
    done;
    for _ = 1 to round mod 5 do
      if not (Sim.Mailbox.Flat.is_empty mb) then begin
        let a = Sim.Mailbox.Flat.head_a mb in
        let b = Sim.Mailbox.Flat.head_b mb in
        let c = Sim.Mailbox.Flat.head_c mb in
        let payload = Sim.Mailbox.Flat.pop mb in
        popped := (a, b, c, payload) :: !popped
      end
    done
  done;
  while not (Sim.Mailbox.Flat.is_empty mb) do
    let a = Sim.Mailbox.Flat.head_a mb in
    let b = Sim.Mailbox.Flat.head_b mb in
    let c = Sim.Mailbox.Flat.head_c mb in
    let payload = Sim.Mailbox.Flat.pop mb in
    popped := (a, b, c, payload) :: !popped
  done;
  let got = List.rev !popped in
  check int_t "nothing lost" !next_in (List.length got);
  List.iteri
    (fun i (a, b, c, payload) ->
      let n = i + 1 in
      if (a, b, c, payload) <> (n, n * 2, n * 3, string_of_int n) then
        Alcotest.failf "entry %d lanes out of step: %d %d %d %s" n a b c payload)
    got;
  check bool_t "high-water saw the peak" true
    (Sim.Mailbox.Flat.high_water mb >= 8);
  Sim.Mailbox.Flat.clear mb;
  check int_t "clear resets the peak" 0 (Sim.Mailbox.Flat.high_water mb);
  check bool_t "empty after clear" true (Sim.Mailbox.Flat.is_empty mb)

let () =
  Alcotest.run "sim_compiled"
    [
      ( "lockstep",
        [
          QCheck_alcotest.to_alcotest prop_lockstep_flat;
          QCheck_alcotest.to_alcotest prop_lockstep_hsm;
        ] );
      ("network", [ QCheck_alcotest.to_alcotest prop_network_differential ]);
      ( "scenario",
        [
          Alcotest.test_case "fault-free traces identical" `Slow
            test_scenario_differential;
          Alcotest.test_case "fault-injected traces identical" `Slow
            test_scenario_differential_faults;
          Alcotest.test_case "flow-traced runs identical" `Slow
            test_scenario_differential_flows;
        ] );
      ( "calendar",
        [
          QCheck_alcotest.to_alcotest prop_calendar_fifo;
          QCheck_alcotest.to_alcotest prop_calendar_buckets;
          QCheck_alcotest.to_alcotest prop_calendar_dead;
          QCheck_alcotest.to_alcotest prop_calendar_rearm;
          Alcotest.test_case "resize stress" `Quick test_calendar_resize;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "growable ring FIFO" `Quick test_mailbox_fifo;
          Alcotest.test_case "high-water marks" `Quick test_mailbox_high_water;
          Alcotest.test_case "flat ring lanes" `Quick test_mailbox_flat_lanes;
        ] );
    ]
