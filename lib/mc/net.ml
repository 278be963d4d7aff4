(* Checker-side elaboration of the instance network.

   [Lint.Network] answers the structural questions (who receives a
   signal sent through a port, what the environment injects/absorbs);
   this module freezes those answers into integer-indexed tables the
   explorer can consult without allocation: one compiled program per
   class, one route table per instance, globally interned signal names,
   and the per-(state, signal) "silent step" and wait-state summaries
   that partial-order reduction and deadlock detection are built on. *)

type route = {
  rt_port : string;
  rt_signal : string;
  rt_gsig : int;  (** global signal id of [rt_signal] *)
  rt_dests : int array;  (** receiving machine instances, sorted by path *)
  rt_env : bool;  (** a root boundary port absorbs the signal *)
}

type sig_info = {
  sg_name : string;
  sg_params : (string * Uml.Signal.param_type) array;
  sg_words : int;
      (** bus words of one message: payload words plus one header word
          per parameter, at least 1 — the same formula the code
          generator uses *)
}

(* Static wait summary of one control state: what the deadlock fixpoint
   needs.  [None] when the state is not a wait candidate (it has a
   timer escape, a completion, or no outgoing transitions at all). *)
type wait = {
  w_env : bool;  (** some trigger is environment-injectable *)
  w_producers : int array array;
      (** per trigger signal: machine instances that can deliver it *)
}

type inst = {
  ix : int;
  path : string;
  class_name : string;
  machine : Efsm.Machine.t;
  prog : Efsm.Compiled.program;
  routes : route array;  (** one per distinct (port, signal) send site *)
  waits : wait option array;  (** per state id *)
  silent_on : bool array array;  (** [state].(gsig): delivery is silent *)
  silent_after : bool array;  (** [state]: the armed timer step is silent *)
  transitions : Efsm.Machine.transition array;  (** declaration order *)
}

type env_input = {
  ei_target : int;
  ei_gsig : int;
  ei_guard_read : bool;
      (** some parameter of the signal is control-relevant at the
          target — injecting only the canonical zero payload is then a
          documented under-approximation (see {!Coi}) *)
}

type t = {
  model : Uml.Model.t;
  network : Lint.Network.t;
  insts : inst array;
  sigs : sig_info array;
  sig_ids : (string, int) Hashtbl.t;
  env_inputs : env_input array;
  ix_of_path : (string, int) Hashtbl.t;
}

let words_of_signal (s : Uml.Signal.t) =
  max 1 (((s.Uml.Signal.payload_bytes + 3) / 4) + List.length s.Uml.Signal.params)

(* ---- statement walking ------------------------------------------------ *)

let rec expr_names vars params = function
  | Efsm.Action.Int _ | Efsm.Action.Bool _ -> ()
  | Efsm.Action.Var v -> Hashtbl.replace vars v ()
  | Efsm.Action.Param p -> Hashtbl.replace params p ()
  | Efsm.Action.Neg e | Efsm.Action.Not e -> expr_names vars params e
  | Efsm.Action.Bin (_, a, b) ->
    expr_names vars params a;
    expr_names vars params b

(* All [Send] statements of a block, branches included. *)
let rec sends_of_stmts acc = function
  | [] -> acc
  | Efsm.Action.Send { port; signal; args } :: rest ->
    sends_of_stmts ((port, signal, args) :: acc) rest
  | Efsm.Action.If (_, t, e) :: rest ->
    sends_of_stmts (sends_of_stmts (sends_of_stmts acc t) e) rest
  | Efsm.Action.While (_, body) :: rest ->
    sends_of_stmts (sends_of_stmts acc body) rest
  | (Efsm.Action.Assign _ | Efsm.Action.Compute _) :: rest ->
    sends_of_stmts acc rest

let machine_send_sites (m : Efsm.Machine.t) =
  let blocks =
    List.map (fun (tr : Efsm.Machine.transition) -> tr.Efsm.Machine.actions)
      m.Efsm.Machine.transitions
    @ List.map snd m.Efsm.Machine.entry_actions
    @ List.map snd m.Efsm.Machine.exit_actions
  in
  List.concat_map (fun b -> sends_of_stmts [] b) blocks

(* ---- route lookup ----------------------------------------------------- *)
(* An instance has a handful of send sites, so a scan of its route array
   beats hashing the (port, signal) pair, and allocates nothing. *)

let rec route_from routes ~port ~signal i =
  if i >= Array.length routes then -1
  else
    let r = routes.(i) in
    if String.equal r.rt_signal signal && String.equal r.rt_port port then i
    else route_from routes ~port ~signal (i + 1)

(* Index into [inst.routes], -1 when the send site has no route. *)
let route_index inst ~port ~signal = route_from inst.routes ~port ~signal 0

let find_route inst ~port ~signal =
  match route_index inst ~port ~signal with
  | -1 -> None
  | i -> Some inst.routes.(i)

(* ---- construction ----------------------------------------------------- *)

let intern_signal sigs sig_ids (s : Uml.Signal.t) =
  match Hashtbl.find_opt sig_ids s.Uml.Signal.name with
  | Some id -> id
  | None ->
    let id = List.length !sigs in
    Hashtbl.add sig_ids s.Uml.Signal.name id;
    sigs :=
      !sigs
      @ [
          {
            sg_name = s.Uml.Signal.name;
            sg_params = Array.of_list s.Uml.Signal.params;
            sg_words = words_of_signal s;
          };
        ];
    id

let build model =
  let network = Lint.Network.elaborate model in
  let machine_instances = Lint.Network.machine_instances network in
  let sigs = ref [] and sig_ids = Hashtbl.create 32 in
  List.iter
    (fun s -> ignore (intern_signal sigs sig_ids s))
    model.Uml.Model.signals;
  (* signals referenced by behaviour but not declared in the model (a
     lint error, but the checker must still terminate on such models) *)
  let intern_name name =
    match Hashtbl.find_opt sig_ids name with
    | Some id -> id
    | None -> intern_signal sigs sig_ids (Uml.Signal.make ~payload_bytes:4 name)
  in
  List.iter
    (fun (i : Lint.Network.instance) ->
      match i.Lint.Network.machine with
      | None -> ()
      | Some m ->
        List.iter (fun s -> ignore (intern_name s)) (Efsm.Machine.signals_consumed m);
        List.iter (fun (_, s) -> ignore (intern_name s)) (Efsm.Machine.signals_sent m))
    machine_instances;
  let ix_of_path = Hashtbl.create 16 in
  List.iteri
    (fun ix (i : Lint.Network.instance) ->
      Hashtbl.add ix_of_path i.Lint.Network.path ix)
    machine_instances;
  let progs = Hashtbl.create 8 in
  let prog_of class_name machine =
    match Hashtbl.find_opt progs class_name with
    | Some p -> p
    | None ->
      let p = Efsm.Compiled.compile machine in
      Hashtbl.add progs class_name p;
      p
  in
  let insts =
    Array.of_list
      (List.mapi
         (fun ix (i : Lint.Network.instance) ->
           let machine = Option.get i.Lint.Network.machine in
           let path = i.Lint.Network.path in
           let prog = prog_of i.Lint.Network.class_name machine in
           (* routes: one per distinct (port, signal) send site *)
           let routes =
             Efsm.Machine.signals_sent machine
             |> List.map (fun (port, signal) ->
                    let dests =
                      Lint.Network.receivers network ~sender:path ~port ~signal
                      |> List.filter_map (fun p -> Hashtbl.find_opt ix_of_path p)
                      |> Array.of_list
                    in
                    {
                      rt_port = port;
                      rt_signal = signal;
                      rt_gsig = intern_name signal;
                      rt_dests = dests;
                      rt_env =
                        Lint.Network.env_absorbs network ~sender:path ~port
                          ~signal;
                    })
             |> Array.of_list
           in
           {
             ix;
             path;
             class_name = i.Lint.Network.class_name;
             machine;
             prog;
             routes;
             waits = [||] (* filled below, needs every instance's routes *);
             silent_on = [||];
             silent_after = [||];
             transitions = Array.of_list machine.Efsm.Machine.transitions;
           })
         machine_instances)
  in
  let n_sigs = Hashtbl.length sig_ids in
  (* -- silent-step tables (for partial-order reduction) --------------
     A step of instance [i] is *silent* when it provably emits nothing
     to another machine instance: every candidate transition's exit +
     action + entry blocks are machine-send-free and the target state's
     completion closure is quiet.  Environment-absorbed and routeless
     sends stay silent — they touch no other instance's queue. *)
  let stmts_machine_send_free inst stmts =
    List.for_all
      (fun (port, signal, _) ->
        match find_route inst ~port ~signal with
        | None -> true
        | Some r -> Array.length r.rt_dests = 0)
      (sends_of_stmts [] stmts)
  in
  let quiet_entry inst =
    (* quiet.(s): entering state s (entry actions + any chain of
       completion transitions) emits nothing to another machine.
       Greatest fixpoint: start optimistic, refute until stable. *)
    let m = inst.machine in
    let n = Efsm.Compiled.n_states inst.prog in
    let quiet = Array.make n true in
    let sid name = Option.get (Efsm.Compiled.state_id_of_name inst.prog name) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun state ->
          let s = sid state in
          if quiet.(s) then begin
            let ok =
              stmts_machine_send_free inst (Efsm.Machine.entry_of m state)
              && List.for_all
                   (fun (tr : Efsm.Machine.transition) ->
                     match tr.Efsm.Machine.trigger with
                     | Efsm.Machine.Completion ->
                       stmts_machine_send_free inst (Efsm.Machine.exit_of m state)
                       && stmts_machine_send_free inst tr.Efsm.Machine.actions
                       && quiet.(sid tr.Efsm.Machine.target)
                     | Efsm.Machine.On_signal _ | Efsm.Machine.After _ -> true)
                   (Efsm.Machine.outgoing m state)
            in
            if not ok then begin
              quiet.(s) <- false;
              changed := true
            end
          end)
        m.Efsm.Machine.states
    done;
    quiet
  in
  let fill_silent inst =
    let m = inst.machine in
    let n = Efsm.Compiled.n_states inst.prog in
    let quiet = quiet_entry inst in
    let sid name = Option.get (Efsm.Compiled.state_id_of_name inst.prog name) in
    let silent_tr state (tr : Efsm.Machine.transition) =
      stmts_machine_send_free inst (Efsm.Machine.exit_of m state)
      && stmts_machine_send_free inst tr.Efsm.Machine.actions
      && quiet.(sid tr.Efsm.Machine.target)
    in
    let silent_on = Array.make_matrix n n_sigs true in
    let silent_after = Array.make n true in
    List.iter
      (fun state ->
        let s = sid state in
        let outs = Efsm.Machine.outgoing m state in
        let after_min = Efsm.Compiled.after_min_of inst.prog s in
        List.iter
          (fun (tr : Efsm.Machine.transition) ->
            match tr.Efsm.Machine.trigger with
            | Efsm.Machine.On_signal sg -> (
              match Hashtbl.find_opt sig_ids sg with
              | Some g ->
                if not (silent_tr state tr) then silent_on.(s).(g) <- false
              | None -> ())
            | Efsm.Machine.After d ->
              (* only minimum-delay transitions can fire on the armed
                 timer; longer ones never run from this state *)
              if d = after_min && not (silent_tr state tr) then
                silent_after.(s) <- false
            | Efsm.Machine.Completion -> ())
          outs)
      m.Efsm.Machine.states;
    { inst with silent_on; silent_after }
  in
  (* -- wait summaries (for deadlock detection) ----------------------- *)
  let fill_waits inst =
    let m = inst.machine in
    let n = Efsm.Compiled.n_states inst.prog in
    let waits = Array.make n None in
    List.iter
      (fun state ->
        let s = Option.get (Efsm.Compiled.state_id_of_name inst.prog state) in
        let outs = Efsm.Machine.outgoing m state in
        let triggers =
          List.filter_map
            (fun (tr : Efsm.Machine.transition) ->
              match tr.Efsm.Machine.trigger with
              | Efsm.Machine.On_signal sg -> Some sg
              | Efsm.Machine.After _ | Efsm.Machine.Completion -> None)
            outs
          |> List.sort_uniq compare
        in
        (* A wait candidate leaves only on signal reception: any timer
           is a permanent escape (it re-arms on every entry), and a
           completion transition, were it enabled, would already have
           fired during quiescence — its guard reads only variables,
           which cannot change while the instance takes no step. *)
        let has_after =
          List.exists
            (fun (tr : Efsm.Machine.transition) ->
              match tr.Efsm.Machine.trigger with
              | Efsm.Machine.After _ -> true
              | _ -> false)
            outs
        in
        if triggers <> [] && not has_after then begin
          let env =
            List.exists
              (fun sg ->
                Lint.Network.env_injects network ~receiver:inst.path ~signal:sg)
              triggers
          in
          let producers =
            List.map
              (fun sg ->
                Lint.Network.producers network ~receiver:inst.path ~signal:sg
                |> List.filter_map (fun p -> Hashtbl.find_opt ix_of_path p)
                |> Array.of_list)
              triggers
          in
          waits.(s) <-
            Some { w_env = env; w_producers = Array.of_list producers }
        end)
      m.Efsm.Machine.states;
    { inst with waits }
  in
  let insts = Array.map (fun i -> fill_waits (fill_silent i)) insts in
  (* -- environment inputs -------------------------------------------- *)
  let env_inputs =
    Array.to_list insts
    |> List.concat_map (fun inst ->
           Efsm.Machine.signals_consumed inst.machine
           |> List.filter (fun sg ->
                  Lint.Network.env_injects network ~receiver:inst.path
                    ~signal:sg)
           |> List.map (fun sg ->
                  {
                    ei_target = inst.ix;
                    ei_gsig = Hashtbl.find sig_ids sg;
                    ei_guard_read = false (* refined by {!Coi.apply} *);
                  }))
    |> Array.of_list
  in
  {
    model;
    network;
    insts;
    sigs = Array.of_list !sigs;
    sig_ids;
    env_inputs;
    ix_of_path;
  }

let n_insts t = Array.length t.insts
let sig_name t g = t.sigs.(g).sg_name
let sig_words t g = t.sigs.(g).sg_words

let canonical_args t g =
  Array.map
    (fun (_, ty) ->
      match ty with
      | Uml.Signal.P_int -> Efsm.Action.V_int 0
      | Uml.Signal.P_bool -> Efsm.Action.V_bool false)
    t.sigs.(g).sg_params

(* Positional values -> named bindings for {!Efsm.Compiled.dispatch},
   pairing like the code generator's runtime does. *)
let bind_args t g (values : Efsm.Action.value array) =
  let params = t.sigs.(g).sg_params in
  let n = min (Array.length params) (Array.length values) in
  List.init n (fun i -> (fst params.(i), values.(i)))

(* ---- deadlock: blocked-set greatest fixpoint ------------------------- *)

(* Instances permanently stuck in the given global state: every member
   sits in a wait state with an empty queue, none of its trigger
   signals is environment-injectable, and every machine that could
   produce one of them is itself a member.  Sound because a member can
   only be woken by a delivery, deliveries come from the environment,
   from in-flight messages (excluded: queues are empty), or from
   producers — and all producers are stuck too.  Greatest fixpoint:
   start from all candidates and peel off anyone with a live escape. *)
let rec live_producer blocked (producers : int array) j =
  j < Array.length producers
  && ((not blocked.(producers.(j))) || live_producer blocked producers (j + 1))

let rec live_trigger blocked (w_producers : int array array) k =
  k < Array.length w_producers
  && (live_producer blocked w_producers.(k) 0
     || live_trigger blocked w_producers (k + 1))

(* The fixpoint into [blocked] (one flag per instance, overwritten);
   returns whether any instance is blocked.  Allocates nothing, so the
   explorer can run it on every new state. *)
let mark_blocked t blocked ~state_of ~queue_empty =
  let n = Array.length t.insts in
  let any = ref false in
  for ix = 0 to n - 1 do
    let b =
      match t.insts.(ix).waits.(state_of ix) with
      | Some w -> (not w.w_env) && queue_empty ix
      | None -> false
    in
    blocked.(ix) <- b;
    if b then any := true
  done;
  let changed = ref !any in
  while !changed do
    changed := false;
    any := false;
    for ix = 0 to n - 1 do
      if blocked.(ix) then
        match t.insts.(ix).waits.(state_of ix) with
        | Some w when live_trigger blocked w.w_producers 0 ->
          blocked.(ix) <- false;
          changed := true
        | _ -> any := true
    done
  done;
  !any

let blocked_set t ~state_of ~queue_empty =
  let n = Array.length t.insts in
  let blocked = Array.make n false in
  if not (mark_blocked t blocked ~state_of ~queue_empty) then []
  else List.filter (fun i -> blocked.(i)) (List.init n Fun.id)
