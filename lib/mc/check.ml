(* The `tutflow check` property checker.

   Orchestrates {!Net} elaboration, {!Explore} search and
   {!Counterexample} emission into a report of {!Lint.Diagnostic}
   values with stable M-codes, mirroring the lint engine so the two
   front ends share rendering, JSONL encoding and severity gating:

   - M01 error: reachable global deadlock (with replayable schedule);
   - M02 error: bounded-queue overflow (with replayable schedule);
   - M03 warning: control state unreached in an exhaustive exploration;
   - M04 warning: triggered transition that never fires;
   - M05 warning: exploration truncated, absence verdicts not exhaustive;
   - M06 warning: environment-payload caveat (a guard reads a parameter
     of an injected signal; only the canonical zero payload explored).

   The rendered text report is deterministic — no wall-clock times, no
   hash-order dependence — so CI pins it byte for byte. *)

type property = P_all | P_deadlock | P_overflow

let property_of_string = function
  | "all" -> Some P_all
  | "deadlock" -> Some P_deadlock
  | "overflow" -> Some P_overflow
  | _ -> None

let property_to_string = function
  | P_all -> "all"
  | P_deadlock -> "deadlock"
  | P_overflow -> "overflow"

type options = {
  order : Explore.order;
  budget : Explore.budget;
  por : bool;
  coi : bool;
  property : property;
}

let default_options =
  {
    order = Explore.Bfs;
    budget = Explore.default_budget;
    por = true;
    coi = true;
    property = P_all;
  }

type report = {
  r_options : options;
  r_insts : int;
  r_env_inputs : int;
  r_stats : Explore.stats;
  r_total_states : int;  (** control states across all instances *)
  r_total_transitions : int;  (** [On_signal]/[After] transitions *)
  r_unreached : int;
  r_unfired : int;
  r_diagnostics : Lint.Diagnostic.t list;
  r_trace : Sim.Trace.t option;  (** counterexample, when violated *)
  r_cx : Counterexample.summary option;
}

let catalog =
  [
    ("M01", Lint.Diagnostic.Error, "reachable global deadlock");
    ("M02", Lint.Diagnostic.Error, "bounded signal queue overflow");
    ( "M03",
      Lint.Diagnostic.Warning,
      "control state unreached in exhaustive exploration" );
    ("M04", Lint.Diagnostic.Warning, "triggered transition never fires");
    ( "M05",
      Lint.Diagnostic.Warning,
      "exploration truncated: absence verdicts are not exhaustive" );
    ( "M06",
      Lint.Diagnostic.Warning,
      "environment payload caveat: only the canonical zero payload explored"
    );
  ]

let trigger_label = function
  | Efsm.Machine.On_signal s -> "on " ^ s
  | Efsm.Machine.After n -> Printf.sprintf "after %d" n
  | Efsm.Machine.Completion -> "completion"

let config_of options =
  {
    Explore.order = options.order;
    budget = options.budget;
    por = options.por;
    coi = options.coi;
    check_deadlock = options.property <> P_overflow;
    check_overflow = options.property <> P_deadlock;
  }

let diagnostics_of (net : Net.t) options (res : Explore.result) =
  let mk = Lint.Diagnostic.make in
  let violation =
    match res.Explore.violation with
    | Some (Explore.V_deadlock { members }, schedule) ->
      let paths = List.map (fun ix -> net.Net.insts.(ix).Net.path) members in
      [
        mk ~rule:"M01" Lint.Diagnostic.Error
          (Printf.sprintf
             "reachable deadlock: %s all waiting on empty queues after %d \
              steps, with no timer or environment escape"
             (String.concat ", " paths)
             (List.length schedule));
      ]
    | Some (Explore.V_overflow { dest; gsig }, schedule) ->
      [
        mk ~rule:"M02" Lint.Diagnostic.Error
          (Printf.sprintf
             "queue overflow at %s: signal %s exceeds capacity %d after %d \
              steps"
             net.Net.insts.(dest).Net.path (Net.sig_name net gsig)
             options.budget.Explore.queue_capacity (List.length schedule));
      ]
    | None -> []
  in
  let truncated =
    if res.Explore.stats.Explore.exhausted || violation <> [] then []
    else
      [
        mk ~rule:"M05" Lint.Diagnostic.Warning
          (Printf.sprintf
             "exploration truncated after %d states; unreached-state and \
              unfired-transition verdicts are suppressed (raise --max-states)"
             res.Explore.stats.Explore.states);
      ]
  in
  let caveats =
    List.map
      (fun c -> mk ~rule:"M06" Lint.Diagnostic.Warning c)
      res.Explore.caveats
  in
  (* Coverage warnings only mean something when the bounded state space
     was fully explored without hitting a violation first. *)
  let coverage =
    if not res.Explore.stats.Explore.exhausted then []
    else
      List.map
        (fun (path, state) ->
          mk ~rule:"M03" Lint.Diagnostic.Warning
            (Printf.sprintf "%s: control state %s is never reached" path state))
        res.Explore.unreached_states
      @ List.map
          (fun (path, k) ->
            let inst =
              net.Net.insts.(Hashtbl.find net.Net.ix_of_path path)
            in
            let tr = inst.Net.transitions.(k) in
            mk ~rule:"M04" Lint.Diagnostic.Warning
              (Printf.sprintf "%s: transition %s -> %s (%s) never fires" path
                 tr.Efsm.Machine.source tr.Efsm.Machine.target
                 (trigger_label tr.Efsm.Machine.trigger)))
          res.Explore.unfired_transitions
  in
  violation @ truncated @ caveats @ coverage

let totals (net : Net.t) =
  Array.fold_left
    (fun (states, triggered) (inst : Net.inst) ->
      let t =
        Array.fold_left
          (fun acc (tr : Efsm.Machine.transition) ->
            match tr.Efsm.Machine.trigger with
            | Efsm.Machine.On_signal _ | Efsm.Machine.After _ -> acc + 1
            | Efsm.Machine.Completion -> acc)
          0 inst.Net.transitions
      in
      (states + Efsm.Compiled.n_states inst.Net.prog, triggered + t))
    (0, 0) net.Net.insts

(* Elaboration and exploration fail differently: the first on a model
   the checker cannot compose, the second on a machine action that
   fails at a reachable state (its message locates the step). *)
let elaborate_then_explore options model =
  match Net.build model with
  | exception (Efsm.Action.Type_error m | Invalid_argument m) ->
    Error ("model elaboration failed: " ^ m)
  | exception Not_found -> Error "model elaboration failed: unresolved name"
  | net -> (
    match Explore.run ~config:(config_of options) net with
    | exception (Efsm.Action.Type_error m | Invalid_argument m) ->
      Error ("exploration failed: " ^ m)
    | exception Not_found -> Error "exploration failed: unresolved name"
    | res -> Ok (net, res))

let run ?(obs = Obs.Scope.null ()) ?(options = default_options) model =
  match elaborate_then_explore options model with
  | Error _ as e -> e
  | Ok (net, res) ->
    let stats = res.Explore.stats in
    (if Obs.Scope.live obs then begin
       let metrics = Obs.Scope.metrics obs in
       let c name v =
         Obs.Metrics.inc ~by:v (Obs.Metrics.counter metrics name)
       in
       c "mc.states_total" stats.Explore.states;
       c "mc.steps_total" stats.Explore.steps;
       c "mc.dedup_total" stats.Explore.dedup;
       c "mc.frontier_peak" stats.Explore.frontier_peak;
       let tracer = Obs.Scope.tracer obs in
       if Obs.Tracer.enabled tracer then
         Obs.Tracer.complete tracer ~ts_ns:0L
           ~dur_ns:(Int64.of_int (max 1 stats.Explore.steps))
           ~cat:"mc" ~track:"mc"
           ~args:
             [
               ("states", Obs.Span.Int stats.Explore.states);
               ("steps", Obs.Span.Int stats.Explore.steps);
               ("exhausted", Obs.Span.Bool stats.Explore.exhausted);
             ]
           "mc.explore"
     end);
    let trace, cx =
      match res.Explore.violation with
      | None -> (None, None)
      | Some (_, schedule) -> (
        match
          Counterexample.emit_result net ~engine:Efsm.Exec.Compiled
            ~capacity:options.budget.Explore.queue_capacity ~schedule
        with
        | Ok (t, s) -> (Some t, Some s)
        | Error _ -> (None, None))
    in
    let total_states, total_transitions = totals net in
    Ok
      {
        r_options = options;
        r_insts = Net.n_insts net;
        r_env_inputs = Array.length net.Net.env_inputs;
        r_stats = stats;
        r_total_states = total_states;
        r_total_transitions = total_transitions;
        r_unreached = List.length res.Explore.unreached_states;
        r_unfired = List.length res.Explore.unfired_transitions;
        r_diagnostics = diagnostics_of net options res;
        r_trace = trace;
        r_cx = cx;
      }

(* ---- deterministic text report ---------------------------------------- *)

let render r =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let o = r.r_options in
  line "model checker: %d machine instances, %d environment inputs" r.r_insts
    r.r_env_inputs;
  line "budget: max-states %d, max-depth %s, queue-capacity %d, env %d, timer %d"
    o.budget.Explore.max_states
    (if o.budget.Explore.max_depth = 0 then "unlimited"
     else string_of_int o.budget.Explore.max_depth)
    o.budget.Explore.queue_capacity o.budget.Explore.env_budget
    o.budget.Explore.timer_budget;
  line "options: order %s, por %s, coi %s, property %s"
    (match o.order with Explore.Bfs -> "bfs" | Explore.Dfs -> "dfs")
    (if o.por then "on" else "off")
    (if o.coi then "on" else "off")
    (property_to_string o.property);
  line "explored: %d states, %d transitions%s" r.r_stats.Explore.states
    r.r_stats.Explore.steps
    (if r.r_stats.Explore.exhausted then " (exhaustive within bounds)" else "");
  let violated rule =
    List.exists
      (fun (d : Lint.Diagnostic.t) -> d.Lint.Diagnostic.rule = rule)
      r.r_diagnostics
  in
  (match o.property with
  | P_overflow -> line "deadlock: not checked"
  | P_all | P_deadlock ->
    if violated "M01" then line "deadlock: REACHABLE"
    else line "deadlock: none reachable within bounds");
  (match o.property with
  | P_deadlock -> line "queue overflow: not checked"
  | P_all | P_overflow ->
    if violated "M02" then line "queue overflow: REACHABLE"
    else
      line "queue overflow: none reachable within bounds (capacity %d)"
        o.budget.Explore.queue_capacity);
  line "state coverage: %d/%d control states reached"
    (r.r_total_states - r.r_unreached)
    r.r_total_states;
  line "transition coverage: %d/%d triggered transitions fired"
    (r.r_total_transitions - r.r_unfired)
    r.r_total_transitions;
  List.iter
    (fun d -> line "%s" (Lint.Diagnostic.render d))
    r.r_diagnostics;
  (match r.r_cx with
  | Some s when s.Counterexample.s_verdict <> Counterexample.V_none ->
    line "counterexample: %d steps, replayable (see --trace-out)"
      s.Counterexample.s_steps
  | _ -> ());
  line "check: %d errors, %d warnings"
    (List.length (Lint.Diagnostic.errors r.r_diagnostics))
    (List.length (Lint.Diagnostic.warnings r.r_diagnostics));
  Buffer.contents b

(* ---- lint bridge ------------------------------------------------------ *)

(* A memoised deadlock oracle for {!Lint.Pass.context}: one bounded
   exploration on first use, shared by every cycle the static pass
   asks about.  Failures (lint often runs on models the checker cannot
   elaborate) degrade to [Deadlock_unknown] rather than aborting the
   lint run. *)
let deadlock_oracle ?(options = default_options) model =
  let verdict = ref None in
  let explore () =
    match
      let net = Net.build model in
      ( net,
        Explore.run
          ~config:{ (config_of options) with Explore.check_overflow = false }
          net )
    with
    | exception _ -> `Failed
    | net, res -> (
      match res.Explore.violation with
      | Some (Explore.V_deadlock { members }, _) ->
        `Witness (List.map (fun ix -> net.Net.insts.(ix).Net.path) members)
      | Some (Explore.V_overflow _, _) | None ->
        if res.Explore.stats.Explore.exhausted then
          `Free (res.Explore.stats.Explore.states, true)
        else `Truncated res.Explore.stats.Explore.states)
  in
  fun ~members:_ ->
    let v =
      match !verdict with
      | Some v -> v
      | None ->
        let v = explore () in
        verdict := Some v;
        v
    in
    match v with
    | `Witness paths -> Lint.Pass.Deadlock_witness { members = paths }
    | `Free (states, exhaustive) ->
      Lint.Pass.Deadlock_free { states; exhaustive }
    | `Truncated states -> Lint.Pass.Deadlock_unknown { states }
    | `Failed -> Lint.Pass.Deadlock_unknown { states = 0 }
