(* Replayable counterexamples.

   A violation found by {!Explore} is a schedule: the exact sequence of
   global steps (environment injections, queue-head deliveries, timer
   fires) from the initial state.  This module re-executes a schedule
   and renders it in the {!Sim.Trace} line format, so `tutflow
   simulate`-family tooling can consume it:

   {v
     F 0 mc_init network cap=<queue capacity>
     F <t> mc_inject <instance> <signal>      + S <t> env <instance> ...
     F <t> mc_deliver <instance> <signal>     + E/S effect lines, then T or D
     F <t> mc_timer <instance> <delay_ns>     + E/S effect lines, then T or D
     F <t> mc_deadlock <member,member,...> -      (final verdict marker)
     F <t> mc_overflow <instance> <signal>        (at the overflowing step)
   v}

   Simulated time is the step ordinal, so every event of one global
   step shares a timestamp.  Replay ({!replay}) extracts the schedule
   back out of the [mc_*] markers, re-executes it under either engine
   (the reference interpreter or the compiled bytecode VM), re-renders,
   and compares byte for byte — the emitted trace is its own oracle,
   and the verdict marker is recomputed, never copied. *)

type verdict =
  | V_none
  | V_deadlock of string list  (** blocked instance paths *)
  | V_overflow of string * string  (** overflowing instance, signal *)

type summary = {
  s_steps : int;
  s_verdict : verdict;
  s_final : (string * string * int) list;
      (** per instance: (path, control state, queue length) *)
}

type qmsg = { q_gsig : int; q_args : Efsm.Action.value array }

exception Replay_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Replay_error s)) fmt

(* ---- schedule execution with trace emission --------------------------- *)

let emit (net : Net.t) ~engine ~capacity ~(schedule : Explore.step list) =
  let trace = Sim.Trace.create () in
  let execs =
    Array.map (fun inst -> Efsm.Exec.create engine inst.Net.prog) net.Net.insts
  in
  let queues = Array.make (Net.n_insts net) ([] : qmsg list) in
  let overflowed = ref None in
  let record e = Sim.Trace.record trace e in
  let enqueue ~time ~sender dest gsig args =
    let path = net.Net.insts.(dest).Net.path in
    record
      (Sim.Trace.Signal
         {
           time;
           sender;
           receiver = path;
           signal = Net.sig_name net gsig;
           words = Net.sig_words net gsig;
           tag = -1;
         });
    if List.length queues.(dest) >= capacity then begin
      record
        (Sim.Trace.Fault
           {
             time;
             kind = "mc_overflow";
             target = path;
             info = Net.sig_name net gsig;
           });
      overflowed := Some (path, Net.sig_name net gsig)
    end
    else queues.(dest) <- queues.(dest) @ [ { q_gsig = gsig; q_args = args } ]
  in
  (* Route the effects the instance's last step left in its buffer. *)
  let route_effects ~time (inst : Net.inst) =
    let e = execs.(inst.Net.ix) in
    for i = 0 to Efsm.Exec.effect_count e - 1 do
      if !overflowed = None then
        match Efsm.Exec.effect_at e i with
        | Efsm.Action.Eff_compute cycles ->
          record
            (Sim.Trace.Exec
               {
                 time;
                 process = inst.Net.path;
                 cycles = Int64.of_int cycles;
               })
        | Efsm.Action.Eff_send { port; signal; args } -> (
          match Net.find_route inst ~port ~signal with
          | None -> ()
          | Some r ->
            if Array.length r.Net.rt_dests = 0 then begin
              if r.Net.rt_env then
                record
                  (Sim.Trace.Signal
                     {
                       time;
                       sender = inst.Net.path;
                       receiver = "env";
                       signal;
                       words = Net.sig_words net r.Net.rt_gsig;
                       tag = -1;
                     })
            end
            else
              let args = Array.of_list args in
              Array.iter
                (fun dest ->
                  if !overflowed = None then
                    enqueue ~time ~sender:inst.Net.path dest r.Net.rt_gsig
                      args)
                r.Net.rt_dests)
    done
  in
  let marker ~time kind target info =
    record (Sim.Trace.Fault { time; kind; target; info })
  in
  (* initial state *)
  marker ~time:0L "mc_init" "network" (Printf.sprintf "cap=%d" capacity);
  Array.iter
    (fun (inst : Net.inst) ->
      if !overflowed = None then begin
        Efsm.Exec.start execs.(inst.Net.ix);
        route_effects ~time:0L inst
      end)
    net.Net.insts;
  (* the schedule *)
  let steps_run = ref 0 in
  let run_step t step =
    let time = Int64.of_int t in
    (match step with
    | Explore.S_inject e ->
      let input = net.Net.env_inputs.(e) in
      let inst = net.Net.insts.(input.Net.ei_target) in
      marker ~time "mc_inject" inst.Net.path
        (Net.sig_name net input.Net.ei_gsig);
      enqueue ~time ~sender:"env" input.Net.ei_target input.Net.ei_gsig
        (Net.canonical_args net input.Net.ei_gsig)
    | Explore.S_deliver ix -> (
      let inst = net.Net.insts.(ix) in
      match queues.(ix) with
      | [] -> fail "mc_deliver at t=%d: %s has an empty queue" t inst.Net.path
      | m :: rest ->
        queues.(ix) <- rest;
        let signal = Net.sig_name net m.q_gsig in
        marker ~time "mc_deliver" inst.Net.path signal;
        let e = execs.(ix) in
        let before = Efsm.Exec.state e in
        if
          Efsm.Exec.dispatch_id e ~sid:(Efsm.Exec.signal_id e signal)
            ~args:(Net.bind_args net m.q_gsig m.q_args)
        then begin
          route_effects ~time inst;
          record
            (Sim.Trace.State_change
               {
                 time;
                 process = inst.Net.path;
                 from_ = before;
                 to_ = Efsm.Exec.state e;
               })
        end
        else
          record (Sim.Trace.Discard { time; process = inst.Net.path; signal }))
    | Explore.S_timer ix ->
      let inst = net.Net.insts.(ix) in
      let e = execs.(ix) in
      let delay =
        match Efsm.Exec.timer_request e with
        | Some d -> d
        | None -> fail "mc_timer at t=%d: no timer armed at %s" t inst.Net.path
      in
      marker ~time "mc_timer" inst.Net.path (string_of_int delay);
      let before = Efsm.Exec.state e in
      if Efsm.Exec.fire_timer_id e ~entered_state:before then begin
        route_effects ~time inst;
        record
          (Sim.Trace.State_change
             {
               time;
               process = inst.Net.path;
               from_ = before;
               to_ = Efsm.Exec.state e;
             })
      end
      else
        record
          (Sim.Trace.Discard { time; process = inst.Net.path; signal = "timer" }));
    incr steps_run
  in
  (try
     List.iteri
       (fun k step -> if !overflowed = None then run_step (k + 1) step)
       schedule
   with Replay_error _ as e -> raise e);
  (* verdict: recomputed from the final state, never copied in *)
  let verdict =
    match !overflowed with
    | Some (path, signal) -> V_overflow (path, signal)
    | None ->
      let members =
        Net.blocked_set net
          ~state_of:(fun ix ->
            let inst = net.Net.insts.(ix) in
            match
              Efsm.Compiled.state_id_of_name inst.Net.prog
                (Efsm.Exec.state execs.(ix))
            with
            | Some s -> s
            | None -> fail "unknown state at %s" inst.Net.path)
          ~queue_empty:(fun ix -> queues.(ix) = [])
      in
      if members = [] then V_none
      else begin
        let paths =
          List.map (fun ix -> net.Net.insts.(ix).Net.path) members
        in
        marker
          ~time:(Int64.of_int (List.length schedule + 1))
          "mc_deadlock"
          (String.concat "," paths)
          "-";
        V_deadlock paths
      end
  in
  let final =
    Array.to_list net.Net.insts
    |> List.map (fun (inst : Net.inst) ->
           ( inst.Net.path,
             Efsm.Exec.state execs.(inst.Net.ix),
             List.length queues.(inst.Net.ix) ))
  in
  (trace, { s_steps = !steps_run; s_verdict = verdict; s_final = final })

let emit_result net ~engine ~capacity ~schedule =
  match emit net ~engine ~capacity ~schedule with
  | r -> Ok r
  | exception Replay_error m -> Error m
  | exception Efsm.Action.Type_error m -> Error ("action error: " ^ m)

(* ---- schedule extraction and byte-for-byte replay --------------------- *)

let parse_schedule (net : Net.t) trace =
  let capacity = ref None in
  let schedule = ref [] in
  let ix_of path =
    match Hashtbl.find_opt net.Net.ix_of_path path with
    | Some ix -> ix
    | None -> fail "unknown instance %s in trace" path
  in
  Sim.Trace.iter trace
    (fun event ->
      match event with
      | Sim.Trace.Fault { kind = "mc_init"; info; _ } -> (
        match int_of_string_opt (Option.value ~default:"" (
            if String.length info > 4 && String.sub info 0 4 = "cap=" then
              Some (String.sub info 4 (String.length info - 4))
            else None))
        with
        | Some c -> capacity := Some c
        | None -> fail "malformed mc_init marker (info %S)" info)
      | Sim.Trace.Fault { kind = "mc_inject"; target; info; _ } ->
        let ix = ix_of target in
        let gsig =
          match Hashtbl.find_opt net.Net.sig_ids info with
          | Some g -> g
          | None -> fail "unknown signal %s in mc_inject" info
        in
        let input = ref None in
        Array.iteri
          (fun e (i : Net.env_input) ->
            if !input = None && i.Net.ei_target = ix && i.Net.ei_gsig = gsig
            then input := Some e)
          net.Net.env_inputs;
        (match !input with
        | Some e -> schedule := Explore.S_inject e :: !schedule
        | None ->
          fail "the environment cannot inject %s at %s" info target)
      | Sim.Trace.Fault { kind = "mc_deliver"; target; _ } ->
        schedule := Explore.S_deliver (ix_of target) :: !schedule
      | Sim.Trace.Fault { kind = "mc_timer"; target; _ } ->
        schedule := Explore.S_timer (ix_of target) :: !schedule
      | _ -> ());
  match !capacity with
  | None -> fail "no mc_init marker: not a model-checker counterexample"
  | Some c -> (c, List.rev !schedule)

(* Re-execute the embedded schedule under [engine] and require the
   regenerated trace to equal the input byte for byte. *)
let replay (net : Net.t) ~engine trace =
  match
    let capacity, schedule = parse_schedule net trace in
    let regenerated, summary = emit net ~engine ~capacity ~schedule in
    (Sim.Trace.to_lines trace, Sim.Trace.to_lines regenerated, summary)
  with
  | original, regenerated, summary ->
    let rec compare i a b =
      match (a, b) with
      | [], [] -> Ok summary
      | x :: a', y :: b' ->
        if String.equal x y then compare (i + 1) a' b'
        else
          Error
            (Printf.sprintf "replay diverges at line %d:\n  trace:  %s\n  replay: %s"
               i x y)
      | x :: _, [] ->
        Error (Printf.sprintf "replay ends early at line %d (trace has %s)" i x)
      | [], y :: _ ->
        Error (Printf.sprintf "replay continues past the trace at line %d (%s)" i y)
    in
    compare 1 original regenerated
  | exception Replay_error m -> Error m
  | exception Efsm.Action.Type_error m -> Error ("action error: " ^ m)
