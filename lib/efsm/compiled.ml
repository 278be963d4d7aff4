(* Compiled EFSM engine.

   A {!Machine.t} is compiled once into integer-indexed tables — interned
   states/signals/variables/parameters, per-(state, signal) candidate
   transition arrays, and guards/actions flattened into a small stack
   bytecode — and then executed over preallocated int arrays.  The hot
   path (dispatching a signal, evaluating guards, running actions)
   allocates nothing except the values the public API is obliged to
   return ([Action.effect] lists and their argument values), exactly
   like the reference interpreter does.

   Semantics mirror {!Interp} bit for bit, including the exact
   [Action.Type_error] messages, evaluation order (left-to-right
   operands, short-circuit [&&]/[||], divisor checked after both
   operands), the [While] iteration bound and the completion-chain
   bound.  The differential suite (test/test_sim_compiled.ml) holds the
   two engines together under fuzzing. *)

(* ---- value tags ------------------------------------------------------ *)

let tag_unbound = '\000'
let tag_int = '\001'
let tag_bool = '\002'

(* ---- opcodes --------------------------------------------------------- *)
(* Operands follow their opcode inline in the code array. *)

let op_ret = 0
let op_push_int = 1 (* value *)
let op_push_bool = 2 (* 0/1 *)
let op_load_var = 3 (* var id *)
let op_load_param = 4 (* param id *)
let op_neg = 5
let op_not = 6
let op_add = 7
let op_sub = 8
let op_mul = 9
let op_div = 10
let op_mod = 11
let op_lt = 12
let op_le = 13
let op_gt = 14
let op_ge = 15
let op_eq = 16
let op_ne = 17
let op_jmp = 18 (* addr *)
let op_jz_bool = 19 (* addr; pop, must be bool, jump when false *)
let op_jnz_bool = 20 (* addr; pop, must be bool, jump when true *)
let op_check_bool = 21 (* top of stack must be bool *)
let op_store_var = 22 (* var id *)
let op_send = 23 (* send-site id *)
let op_compute = 24
let op_iter_reset = 25 (* loop counter id *)
let op_iter_check = 26 (* loop counter id *)
let op_check_int = 27 (* top of stack must be an int; not popped *)
let op_compute_const = 28 (* const-effect id; literal positive Compute *)

type send_site = { s_port : string; s_signal : string; s_argc : int }

type ctrans = {
  t_guard : int;  (** entry pc of the guard program, -1 = no guard *)
  t_actions : int;  (** entry pc of the transition-action program *)
  t_target : int;  (** target state id *)
  t_delay : int;  (** [After] delay, -1 otherwise *)
  t_machine_tr : Machine.transition;  (** original record, for [step.fired] *)
  t_fired : Machine.transition option;
      (** [Some t_machine_tr], boxed once at compile time so a firing
          dispatch does not allocate the option *)
}

type program = {
  machine : Machine.t;
  code : int array;
  (* interning tables *)
  state_names : string array;
  var_names : string array;
  var_ids : (string, int) Hashtbl.t;
  param_names : string array;
  param_ids : (string, int) Hashtbl.t;
  signal_ids : (string, int) Hashtbl.t;  (** consumed signals only *)
  signal_names : string array;  (** inverse of [signal_ids] *)
  sites : send_site array;
  consts : Action.effect array;
      (** preallocated [Eff_compute] effects of literal compute costs *)
  (* initial variable values, pre-unpacked: (-1, unbound) for names only
     ever assigned at runtime *)
  var_init_v : int array;
  var_init_t : Bytes.t;
  initial_state : int;
  (* per-state dispatch tables, all in declaration order *)
  on_signal : ctrans array array array;  (** [state].(signal id) *)
  afters : ctrans array array;  (** only min-delay transitions; see below *)
  after_min : int array;  (** earliest After delay per state, -1 = none *)
  completions : ctrans array array;
  entry_pc : int array;  (** -1 = no entry actions *)
  exit_pc : int array;
  max_stack : int;
  n_loops : int;
}

(* ---- compilation ----------------------------------------------------- *)

type emitter = {
  mutable buf : int array;
  mutable len : int;
  mutable loops : int;
  prog_sites : send_site list ref;
  prog_consts : Action.effect list ref;
  p_state_ids : (string, int) Hashtbl.t;
  p_var_ids : (string, int) Hashtbl.t;
  p_var_names : string list ref;
  p_param_ids : (string, int) Hashtbl.t;
  p_param_names : string list ref;
}

let emit e op =
  if e.len = Array.length e.buf then begin
    let bigger = Array.make (2 * e.len) 0 in
    Array.blit e.buf 0 bigger 0 e.len;
    e.buf <- bigger
  end;
  e.buf.(e.len) <- op;
  e.len <- e.len + 1

let patch e at value = e.buf.(at) <- value

let intern ids names name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ids in
    Hashtbl.add ids name id;
    names := name :: !names;
    id

let var_id e name = intern e.p_var_ids e.p_var_names name
let param_id e name = intern e.p_param_ids e.p_param_names name

(* Stack need of an expression/statement, for sizing the preallocated
   evaluation stack.  Left operands stay on the stack while the right
   operand evaluates, hence the [+ 1]. *)
let rec expr_depth = function
  | Action.Int _ | Action.Bool _ | Action.Var _ | Action.Param _ -> 1
  | Action.Neg e | Action.Not e -> expr_depth e
  | Action.Bin ((Action.And | Action.Or), a, b) ->
    max (expr_depth a) (expr_depth b)
  | Action.Bin (_, a, b) -> max (expr_depth a) (expr_depth b + 1)

let rec stmt_depth = function
  | Action.Assign (_, e) | Action.Compute e -> expr_depth e
  | Action.Send { args; _ } ->
    List.fold_left
      (fun (i, acc) arg -> (i + 1, max acc (i + expr_depth arg)))
      (0, 1) args
    |> snd
  | Action.If (cond, then_, else_) ->
    max (expr_depth cond)
      (max (stmts_depth then_) (stmts_depth else_))
  | Action.While (cond, body) -> max (expr_depth cond) (stmts_depth body)

and stmts_depth stmts =
  List.fold_left (fun acc s -> max acc (stmt_depth s)) 1 stmts

let rec compile_expr e expr =
  match expr with
  | Action.Int n ->
    emit e op_push_int;
    emit e n
  | Action.Bool b ->
    emit e op_push_bool;
    emit e (if b then 1 else 0)
  | Action.Var name ->
    emit e op_load_var;
    emit e (var_id e name)
  | Action.Param name ->
    emit e op_load_param;
    emit e (param_id e name)
  | Action.Neg x ->
    compile_expr e x;
    emit e op_neg
  | Action.Not x ->
    compile_expr e x;
    emit e op_not
  | Action.Bin (Action.And, a, b) ->
    (* a && b: if a is false the result is false and b is never
       evaluated (so an error in b stays silent), matching [&&]. *)
    compile_expr e a;
    emit e op_jz_bool;
    let to_false = e.len in
    emit e 0;
    compile_expr e b;
    emit e op_check_bool;
    emit e op_jmp;
    let to_end = e.len in
    emit e 0;
    patch e to_false e.len;
    emit e op_push_bool;
    emit e 0;
    patch e to_end e.len
  | Action.Bin (Action.Or, a, b) ->
    compile_expr e a;
    emit e op_jnz_bool;
    let to_true = e.len in
    emit e 0;
    compile_expr e b;
    emit e op_check_bool;
    emit e op_jmp;
    let to_end = e.len in
    emit e 0;
    patch e to_true e.len;
    emit e op_push_bool;
    emit e 1;
    patch e to_end e.len
  | Action.Bin (((Action.Eq | Action.Ne) as op), a, b) ->
    (* no operand type checks: [V_int _ = V_bool _] is plain [false] *)
    compile_expr e a;
    compile_expr e b;
    emit e (if op = Action.Eq then op_eq else op_ne)
  | Action.Bin (op, a, b) ->
    (* The reference checks the left operand is an integer *before*
       evaluating the right one ([eval_int a] then [eval_int b]), so a
       boolean left operand must win over an error inside the right —
       hence the CHECK_INT between the operands. *)
    compile_expr e a;
    emit e op_check_int;
    compile_expr e b;
    emit e
      (match op with
      | Action.Add -> op_add
      | Action.Sub -> op_sub
      | Action.Mul -> op_mul
      | Action.Div -> op_div
      | Action.Mod -> op_mod
      | Action.Lt -> op_lt
      | Action.Le -> op_le
      | Action.Gt -> op_gt
      | Action.Ge -> op_ge
      | Action.Eq | Action.Ne | Action.And | Action.Or -> assert false)

let rec compile_stmt e stmt =
  match stmt with
  | Action.Assign (name, expr) ->
    compile_expr e expr;
    emit e op_store_var;
    emit e (var_id e name)
  | Action.Send { port; signal; args } ->
    List.iter (compile_expr e) args;
    let site = { s_port = port; s_signal = signal; s_argc = List.length args } in
    let id = List.length !(e.prog_sites) in
    e.prog_sites := site :: !(e.prog_sites);
    emit e op_send;
    emit e id
  | Action.Compute (Action.Int n) when n >= 0 ->
    (* a literal non-negative cost can neither fail the int check nor
       the negativity check, so the effect is boxed once at compile
       time; zero-cost computes emit no effect in the reference either *)
    if n > 0 then begin
      let id = List.length !(e.prog_consts) in
      e.prog_consts := Action.Eff_compute n :: !(e.prog_consts);
      emit e op_compute_const;
      emit e id
    end
  | Action.Compute expr ->
    compile_expr e expr;
    emit e op_compute
  | Action.If (cond, then_, else_) ->
    compile_expr e cond;
    emit e op_jz_bool;
    let to_else = e.len in
    emit e 0;
    List.iter (compile_stmt e) then_;
    emit e op_jmp;
    let to_end = e.len in
    emit e 0;
    patch e to_else e.len;
    List.iter (compile_stmt e) else_;
    patch e to_end e.len
  | Action.While (cond, body) ->
    let k = e.loops in
    e.loops <- e.loops + 1;
    emit e op_iter_reset;
    emit e k;
    let head = e.len in
    emit e op_iter_check;
    emit e k;
    compile_expr e cond;
    emit e op_jz_bool;
    let to_end = e.len in
    emit e 0;
    List.iter (compile_stmt e) body;
    emit e op_jmp;
    emit e head;
    patch e to_end e.len

(* Compile a statement block; returns its entry pc, or -1 for an empty
   block (nothing to run). *)
let compile_block e stmts =
  match stmts with
  | [] -> -1
  | _ ->
    let entry = e.len in
    List.iter (compile_stmt e) stmts;
    emit e op_ret;
    entry

let compile_guard e = function
  | None -> -1
  | Some expr ->
    let entry = e.len in
    compile_expr e expr;
    emit e op_ret;
    entry

let unpack_value = function
  | Action.V_int n -> (n, tag_int)
  | Action.V_bool b -> ((if b then 1 else 0), tag_bool)

let compile machine =
  let e =
    {
      buf = Array.make 256 0;
      len = 0;
      loops = 0;
      prog_sites = ref [];
      prog_consts = ref [];
      p_state_ids = Hashtbl.create 16;
      p_var_ids = Hashtbl.create 16;
      p_var_names = ref [];
      p_param_ids = Hashtbl.create 8;
      p_param_names = ref [];
    }
  in
  (* intern states in declaration order *)
  List.iteri
    (fun i s -> Hashtbl.add e.p_state_ids s i)
    machine.Machine.states;
  let n_states = List.length machine.Machine.states in
  (* declared variables first, so initial values line up *)
  List.iter (fun (name, _) -> ignore (var_id e name)) machine.Machine.variables;
  (* guards/actions: compile per transition and per state block *)
  let trans_compiled =
    List.map
      (fun (tr : Machine.transition) ->
        let guard = compile_guard e tr.Machine.guard in
        let actions = compile_block e tr.Machine.actions in
        (tr, guard, actions))
      machine.Machine.transitions
  in
  let block_of assoc state =
    compile_block e
      (Option.value ~default:[] (List.assoc_opt state assoc))
  in
  let states = Array.of_list machine.Machine.states in
  let entry_pc = Array.map (block_of machine.Machine.entry_actions) states in
  let exit_pc = Array.map (block_of machine.Machine.exit_actions) states in
  (* interning of consumed signals *)
  let signal_names = Array.of_list (Machine.signals_consumed machine) in
  let signal_ids = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.add signal_ids s i) signal_names;
  let n_signals = Array.length signal_names in
  let state_id s = Hashtbl.find e.p_state_ids s in
  let ctrans_of (tr : Machine.transition) guard actions =
    {
      t_guard = guard;
      t_actions = actions;
      t_target = state_id tr.Machine.target;
      t_delay =
        (match tr.Machine.trigger with
        | Machine.After d -> d
        | Machine.On_signal _ | Machine.Completion -> -1);
      t_machine_tr = tr;
      t_fired = Some tr;
    }
  in
  (* per-state candidate tables, declaration order *)
  let on_signal =
    Array.init n_states (fun _ -> Array.make n_signals [||])
  in
  let afters = Array.make n_states [||] in
  let after_min = Array.make n_states (-1) in
  let completions = Array.make n_states [||] in
  for s = 0 to n_states - 1 do
    let from_here =
      List.filter_map
        (fun ((tr : Machine.transition), g, a) ->
          if state_id tr.Machine.source = s then Some (ctrans_of tr g a)
          else None)
        trans_compiled
    in
    for sig_ = 0 to n_signals - 1 do
      on_signal.(s).(sig_) <-
        Array.of_list
          (List.filter
             (fun c ->
               match c.t_machine_tr.Machine.trigger with
               | Machine.On_signal name ->
                 Hashtbl.find signal_ids name = sig_
               | Machine.After _ | Machine.Completion -> false)
             from_here)
    done;
    let all_afters = List.filter (fun c -> c.t_delay >= 0) from_here in
    let min_delay =
      List.fold_left
        (fun acc c -> if acc < 0 || c.t_delay < acc then c.t_delay else acc)
        (-1) all_afters
    in
    after_min.(s) <- min_delay;
    (* Only minimum-delay transitions can fire when the armed timer
       expires ({!Interp.fire_timer}); longer ones are not due yet. *)
    afters.(s) <-
      Array.of_list (List.filter (fun c -> c.t_delay = min_delay) all_afters);
    completions.(s) <-
      Array.of_list
        (List.filter
           (fun c ->
             match c.t_machine_tr.Machine.trigger with
             | Machine.Completion -> true
             | Machine.On_signal _ | Machine.After _ -> false)
           from_here)
  done;
  let var_names = Array.of_list (List.rev !(e.p_var_names)) in
  let n_vars = Array.length var_names in
  let var_init_v = Array.make n_vars 0 in
  let var_init_t = Bytes.make n_vars tag_unbound in
  List.iter
    (fun (name, value) ->
      let id = Hashtbl.find e.p_var_ids name in
      let v, tag = unpack_value value in
      var_init_v.(id) <- v;
      Bytes.set var_init_t id tag)
    machine.Machine.variables;
  let max_stack =
    let block_depth stmts = stmts_depth stmts in
    let guard_depth = function None -> 1 | Some g -> expr_depth g in
    let tr_depth (tr : Machine.transition) =
      max (guard_depth tr.Machine.guard) (block_depth tr.Machine.actions)
    in
    let assoc_depth assoc =
      List.fold_left (fun acc (_, stmts) -> max acc (block_depth stmts)) 1 assoc
    in
    List.fold_left
      (fun acc tr -> max acc (tr_depth tr))
      (max
         (assoc_depth machine.Machine.entry_actions)
         (assoc_depth machine.Machine.exit_actions))
      machine.Machine.transitions
  in
  {
    machine;
    code = Array.sub e.buf 0 e.len;
    state_names = states;
    var_names;
    var_ids = e.p_var_ids;
    param_names = Array.of_list (List.rev !(e.p_param_names));
    param_ids = e.p_param_ids;
    signal_ids;
    signal_names;
    sites = Array.of_list (List.rev !(e.prog_sites));
    consts = Array.of_list (List.rev !(e.prog_consts));
    var_init_v;
    var_init_t;
    initial_state = state_id machine.Machine.initial;
    on_signal;
    afters;
    after_min;
    completions;
    entry_pc;
    exit_pc;
    max_stack = max_stack + 1;
    n_loops = max e.loops 1;
  }

(* ---- instances ------------------------------------------------------- *)

type t = {
  prog : program;
  mutable state : int;
  var_v : int array;
  var_t : Bytes.t;
  (* parameter slots: a slot is bound iff its generation matches the
     current one, so clearing all parameters is one increment *)
  par_v : int array;
  par_t : Bytes.t;
  par_gen : int array;
  mutable gen : int;
  (* evaluation stack *)
  stk_v : int array;
  stk_t : Bytes.t;
  loop_counters : int array;
  (* effect accumulator for the current step *)
  mutable eff : Action.effect array;
  mutable eff_len : int;
}

let create prog =
  let n_params = Array.length prog.param_names in
  {
    prog;
    state = prog.initial_state;
    var_v = Array.copy prog.var_init_v;
    var_t = Bytes.copy prog.var_init_t;
    par_v = Array.make (max n_params 1) 0;
    par_t = Bytes.make (max n_params 1) tag_unbound;
    par_gen = Array.make (max n_params 1) (-1);
    gen = 0;
    stk_v = Array.make prog.max_stack 0;
    stk_t = Bytes.make prog.max_stack tag_unbound;
    loop_counters = Array.make prog.n_loops 0;
    eff = Array.make 8 (Action.Eff_compute 0);
    eff_len = 0;
  }

let of_machine machine = create (compile machine)
let machine t = t.prog.machine
let program t = t.prog
let state t = t.prog.state_names.(t.state)

let pack_value v tag =
  if tag = tag_int then Action.V_int v else Action.V_bool (v <> 0)

let variables t =
  let acc = ref [] in
  for i = Array.length t.prog.var_names - 1 downto 0 do
    let tag = Bytes.get t.var_t i in
    if tag <> tag_unbound then
      acc := (t.prog.var_names.(i), pack_value t.var_v.(i) tag) :: !acc
  done;
  List.sort compare !acc

let read_var t name =
  match Hashtbl.find_opt t.prog.var_ids name with
  | None -> None
  | Some i ->
    let tag = Bytes.get t.var_t i in
    if tag = tag_unbound then None else Some (pack_value t.var_v.(i) tag)

let reset t =
  t.state <- t.prog.initial_state;
  Array.blit t.prog.var_init_v 0 t.var_v 0 (Array.length t.var_v);
  Bytes.blit t.prog.var_init_t 0 t.var_t 0 (Bytes.length t.var_t);
  t.gen <- t.gen + 1;
  t.eff_len <- 0

(* ---- the VM ---------------------------------------------------------- *)

let type_error fmt = Printf.ksprintf (fun s -> raise (Action.Type_error s)) fmt

let push_effect t effect =
  if t.eff_len = Array.length t.eff then begin
    let bigger = Array.make (2 * t.eff_len) (Action.Eff_compute 0) in
    Array.blit t.eff 0 bigger 0 t.eff_len;
    t.eff <- bigger
  end;
  t.eff.(t.eff_len) <- effect;
  t.eff_len <- t.eff_len + 1

let effects_list t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (t.eff.(i) :: acc)
  in
  build (t.eff_len - 1) []

(* Run the program at [pc]; returns the stack depth on RET (1 for
   guards, 0 for action blocks). *)
let run_prog t pc =
  let code = t.prog.code in
  let stk_v = t.stk_v and stk_t = t.stk_t in
  (* One tail-recursive loop over (pc, sp) as plain ints: without
     flambda, refs and the helper closures of the obvious while-loop
     formulation heap-allocate on every call, and [run_prog] runs once
     per guard and per action block — the hot path must not allocate.
     Dispatch is a [match] on the (dense, 0..27) opcode literals so the
     compiler emits a jump table instead of a compare chain, and array
     accesses are unchecked: every index is emitter-produced — pc stays
     inside [code] because blocks end in RET, the stack arrays are sized
     to the analytic max depth, and var/param/site/loop ids are interned
     at compile time.  Tag-check order matches {!Action.eval} exactly: a
     binary op checks the right (top) operand, then the left, then
     computes. *)
  let rec loop pc sp =
    match Array.unsafe_get code pc with
    | 0 (* op_ret *) -> sp
    | 1 (* op_push_int *) ->
      Array.unsafe_set stk_v sp (Array.unsafe_get code (pc + 1));
      Bytes.unsafe_set stk_t sp tag_int;
      loop (pc + 2) (sp + 1)
    | 2 (* op_push_bool *) ->
      Array.unsafe_set stk_v sp
        (if Array.unsafe_get code (pc + 1) <> 0 then 1 else 0);
      Bytes.unsafe_set stk_t sp tag_bool;
      loop (pc + 2) (sp + 1)
    | 3 (* op_load_var *) ->
      let i = Array.unsafe_get code (pc + 1) in
      let tag = Bytes.unsafe_get t.var_t i in
      if tag = tag_unbound then
        type_error "unbound variable %s" t.prog.var_names.(i);
      Array.unsafe_set stk_v sp (Array.unsafe_get t.var_v i);
      Bytes.unsafe_set stk_t sp tag;
      loop (pc + 2) (sp + 1)
    | 4 (* op_load_param *) ->
      let i = Array.unsafe_get code (pc + 1) in
      if Array.unsafe_get t.par_gen i <> t.gen then
        type_error "unbound signal parameter %s" t.prog.param_names.(i);
      Array.unsafe_set stk_v sp (Array.unsafe_get t.par_v i);
      Bytes.unsafe_set stk_t sp (Bytes.unsafe_get t.par_t i);
      loop (pc + 2) (sp + 1)
    | 5 (* op_neg *) ->
      let i = sp - 1 in
      if Bytes.unsafe_get stk_t i <> tag_int then type_error "expected an integer";
      Array.unsafe_set stk_v i (-Array.unsafe_get stk_v i);
      loop (pc + 1) sp
    | 6 (* op_not *) ->
      let i = sp - 1 in
      if Bytes.unsafe_get stk_t i <> tag_bool then type_error "expected a boolean";
      Array.unsafe_set stk_v i (1 - Array.unsafe_get stk_v i);
      loop (pc + 1) sp
    | 7 (* op_add *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (Array.unsafe_get stk_v (sp - 2) + Array.unsafe_get stk_v (sp - 1));
      loop (pc + 1) (sp - 1)
    | 8 (* op_sub *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (Array.unsafe_get stk_v (sp - 2) - Array.unsafe_get stk_v (sp - 1));
      loop (pc + 1) (sp - 1)
    | 9 (* op_mul *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (Array.unsafe_get stk_v (sp - 2) * Array.unsafe_get stk_v (sp - 1));
      loop (pc + 1) (sp - 1)
    | 10 (* op_div *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      let d = Array.unsafe_get stk_v (sp - 1) in
      if d = 0 then type_error "division by zero";
      Array.unsafe_set stk_v (sp - 2) (Array.unsafe_get stk_v (sp - 2) / d);
      loop (pc + 1) (sp - 1)
    | 11 (* op_mod *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      let d = Array.unsafe_get stk_v (sp - 1) in
      if d = 0 then type_error "modulo by zero";
      Array.unsafe_set stk_v (sp - 2) (Array.unsafe_get stk_v (sp - 2) mod d);
      loop (pc + 1) (sp - 1)
    | 12 (* op_lt *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (if Array.unsafe_get stk_v (sp - 2) < Array.unsafe_get stk_v (sp - 1)
         then 1
         else 0);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 13 (* op_le *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (if Array.unsafe_get stk_v (sp - 2) <= Array.unsafe_get stk_v (sp - 1)
         then 1
         else 0);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 14 (* op_gt *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (if Array.unsafe_get stk_v (sp - 2) > Array.unsafe_get stk_v (sp - 1)
         then 1
         else 0);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 15 (* op_ge *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      if Bytes.unsafe_get stk_t (sp - 2) <> tag_int then
        type_error "expected an integer";
      Array.unsafe_set stk_v (sp - 2)
        (if Array.unsafe_get stk_v (sp - 2) >= Array.unsafe_get stk_v (sp - 1)
         then 1
         else 0);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 16 (* op_eq *) ->
      (* polymorphic comparison of tagged values, like [V_int _ = V_bool _]
         being plain [false] in the reference *)
      let equal =
        Bytes.unsafe_get stk_t (sp - 2) = Bytes.unsafe_get stk_t (sp - 1)
        && Array.unsafe_get stk_v (sp - 2) = Array.unsafe_get stk_v (sp - 1)
      in
      Array.unsafe_set stk_v (sp - 2) (if equal then 1 else 0);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 17 (* op_ne *) ->
      let equal =
        Bytes.unsafe_get stk_t (sp - 2) = Bytes.unsafe_get stk_t (sp - 1)
        && Array.unsafe_get stk_v (sp - 2) = Array.unsafe_get stk_v (sp - 1)
      in
      Array.unsafe_set stk_v (sp - 2) (if equal then 0 else 1);
      Bytes.unsafe_set stk_t (sp - 2) tag_bool;
      loop (pc + 1) (sp - 1)
    | 18 (* op_jmp *) -> loop (Array.unsafe_get code (pc + 1)) sp
    | 19 (* op_jz_bool *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_bool then
        type_error "expected a boolean";
      if Array.unsafe_get stk_v (sp - 1) = 0 then
        loop (Array.unsafe_get code (pc + 1)) (sp - 1)
      else loop (pc + 2) (sp - 1)
    | 20 (* op_jnz_bool *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_bool then
        type_error "expected a boolean";
      if Array.unsafe_get stk_v (sp - 1) <> 0 then
        loop (Array.unsafe_get code (pc + 1)) (sp - 1)
      else loop (pc + 2) (sp - 1)
    | 21 (* op_check_bool *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_bool then
        type_error "expected a boolean";
      loop (pc + 1) sp
    | 22 (* op_store_var *) ->
      let i = Array.unsafe_get code (pc + 1) in
      Array.unsafe_set t.var_v i (Array.unsafe_get stk_v (sp - 1));
      Bytes.unsafe_set t.var_t i (Bytes.unsafe_get stk_t (sp - 1));
      loop (pc + 2) (sp - 1)
    | 23 (* op_send *) ->
      let site = t.prog.sites.(Array.unsafe_get code (pc + 1)) in
      (* arguments were pushed left-to-right: walk the stack top-down,
         consing, to rebuild them in positional order *)
      let argc = site.s_argc in
      let rec build j acc =
        if j < sp - argc then acc
        else build (j - 1) (pack_value stk_v.(j) (Bytes.get stk_t j) :: acc)
      in
      push_effect t
        (Action.Eff_send
           {
             port = site.s_port;
             signal = site.s_signal;
             args = build (sp - 1) [];
           });
      loop (pc + 2) (sp - argc)
    | 24 (* op_compute *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      let cycles = Array.unsafe_get stk_v (sp - 1) in
      if cycles < 0 then type_error "negative computation cost";
      if cycles > 0 then push_effect t (Action.Eff_compute cycles);
      loop (pc + 1) (sp - 1)
    | 25 (* op_iter_reset *) ->
      Array.unsafe_set t.loop_counters (Array.unsafe_get code (pc + 1)) 0;
      loop (pc + 2) sp
    | 26 (* op_iter_check *) ->
      let k = Array.unsafe_get code (pc + 1) in
      let count = Array.unsafe_get t.loop_counters k in
      if count > Action.max_loop_iterations then
        type_error "loop exceeded %d iterations" Action.max_loop_iterations;
      Array.unsafe_set t.loop_counters k (count + 1);
      loop (pc + 2) sp
    | 27 (* op_check_int *) ->
      if Bytes.unsafe_get stk_t (sp - 1) <> tag_int then
        type_error "expected an integer";
      loop (pc + 1) sp
    | 28 (* op_compute_const *) ->
      push_effect t
        (Array.unsafe_get t.prog.consts (Array.unsafe_get code (pc + 1)));
      loop (pc + 2) sp
    | _ -> assert false
  in
  loop pc 0

(* Reference [While] counts an iteration only after the body ran, and
   checks before evaluating the condition: counter starts at 0, the
   check precedes the condition, the increment follows the body.  Our
   op order is ITER_RESET / head: ITER_CHECK; cond; JZ end; body; JMP
   head — the counter increments at ITER_CHECK, i.e. once per condition
   evaluation, so it reads one higher than the reference's count at the
   same point; both raise after [max_loop_iterations] completed
   iterations because the reference checks [count > max] with the
   pre-increment value and we check before incrementing. *)

let guard_holds t c =
  c.t_guard < 0
  ||
  let sp = run_prog t c.t_guard in
  ignore sp;
  (* the guard left exactly one value; it must be a boolean *)
  (if Bytes.get t.stk_t 0 <> tag_bool then type_error "expected a boolean");
  t.stk_v.(0) <> 0

let run_block t pc = if pc >= 0 then ignore (run_prog t pc)

(* Exit actions of the source, the transition's own actions, entry
   actions of the target — the same external-transition order as
   {!Interp.fire}; effects accumulate in execution order, which equals
   the reference's list concatenation. *)
let fire t c =
  run_block t t.prog.exit_pc.(t.state);
  run_block t c.t_actions;
  t.state <- c.t_target;
  run_block t t.prog.entry_pc.(t.state)

let clear_params t = t.gen <- t.gen + 1

(* Plain recursion (no [List.iter] closure) and inline tag unpacking
   (no [unpack_value] tuple): binding allocates nothing. *)
let rec bind_args t = function
  | [] -> ()
  | (name, value) :: rest ->
    (match Hashtbl.find t.prog.param_ids name with
    | exception Not_found -> ()
    | i ->
      (* first occurrence wins, like [List.assoc_opt] *)
      if t.par_gen.(i) <> t.gen then begin
        (match value with
        | Action.V_int n ->
          t.par_v.(i) <- n;
          Bytes.set t.par_t i tag_int
        | Action.V_bool b ->
          t.par_v.(i) <- (if b then 1 else 0);
          Bytes.set t.par_t i tag_bool);
        t.par_gen.(i) <- t.gen
      end);
    bind_args t rest

let bind_params t args =
  clear_params t;
  bind_args t args

(* Index of the first candidate whose guard holds, -1 if none: the
   per-dispatch option box of a [Some cand] result would be the only
   allocation on a transition miss. *)
let first_enabled_idx t cands =
  let n = Array.length cands in
  let rec find i =
    if i >= n then -1 else if guard_holds t cands.(i) then i else find (i + 1)
  in
  find 0

(* Completion chaining appends to the current effect buffer; parameters
   are never visible to completion guards or actions. *)
let run_completions_into t =
  clear_params t;
  let rec loop count =
    if count > Interp.max_completion_chain then
      raise (Action.Type_error Interp.completion_livelock_message);
    let cands = t.prog.completions.(t.state) in
    let i = first_enabled_idx t cands in
    if i >= 0 then begin
      fire t cands.(i);
      loop (count + 1)
    end
  in
  loop 0

(* The no-transition outcome is immutable and carries nothing, so every
   miss shares one preallocated step. *)
let no_step = { Interp.fired = None; Interp.effects = [] }

let dispatch t ~signal ~args =
  match Hashtbl.find t.prog.signal_ids signal with
  | exception Not_found -> no_step
  | sid ->
    bind_params t args;
    let cands = t.prog.on_signal.(t.state).(sid) in
    let i = first_enabled_idx t cands in
    if i < 0 then no_step
    else begin
      let c = cands.(i) in
      t.eff_len <- 0;
      fire t c;
      run_completions_into t;
      { Interp.fired = c.t_fired; Interp.effects = effects_list t }
    end

let signal_id t signal =
  match Hashtbl.find t.prog.signal_ids signal with
  | sid -> sid
  | exception Not_found -> -1

let dispatch_id t ~sid ~args =
  if sid < 0 then false
  else begin
    bind_params t args;
    let cands = t.prog.on_signal.(t.state).(sid) in
    let i = first_enabled_idx t cands in
    if i < 0 then false
    else begin
      t.eff_len <- 0;
      fire t cands.(i);
      run_completions_into t;
      true
    end
  end

let fire_timer_id t ~entered_state =
  if t.prog.state_names.(t.state) <> entered_state then false
  else begin
    clear_params t;
    let cands = t.prog.afters.(t.state) in
    let i = first_enabled_idx t cands in
    if i < 0 then false
    else begin
      t.eff_len <- 0;
      fire t cands.(i);
      run_completions_into t;
      true
    end
  end

let start_id t =
  clear_params t;
  t.eff_len <- 0;
  run_block t t.prog.entry_pc.(t.prog.initial_state);
  run_completions_into t

let effect_count t = t.eff_len
let effect_at t i = t.eff.(i)

let fire_timer t ~entered_state =
  if t.prog.state_names.(t.state) <> entered_state then no_step
  else begin
    clear_params t;
    let cands = t.prog.afters.(t.state) in
    let i = first_enabled_idx t cands in
    if i < 0 then no_step
    else begin
      let c = cands.(i) in
      t.eff_len <- 0;
      fire t c;
      run_completions_into t;
      { Interp.fired = c.t_fired; Interp.effects = effects_list t }
    end
  end

let timer_request t =
  let d = t.prog.after_min.(t.state) in
  if d < 0 then None else Some d

let initial_entry t =
  clear_params t;
  t.eff_len <- 0;
  run_block t t.prog.entry_pc.(t.prog.initial_state);
  effects_list t

let run_completions t =
  t.eff_len <- 0;
  run_completions_into t;
  effects_list t

(* ---- introspection / direct state access ----------------------------- *)
(* The model checker stores global states as flat id-indexed vectors and
   needs to snapshot/restore an instance without going through names.
   The persistent cross-step state of an instance is exactly
   [state] + [var_v]/[var_t]: parameter slots are generation-cleared on
   every dispatch, loop counters are reset by ITER_RESET before each
   loop, and the effect buffer is truncated at the start of each step. *)

let n_states prog = Array.length prog.state_names
let n_vars prog = Array.length prog.var_names
let state_name_of_id prog i = prog.state_names.(i)
let var_name_of_id prog i = prog.var_names.(i)
let var_id_of_name prog name = Hashtbl.find_opt prog.var_ids name

let state_id_of_name prog name =
  let n = Array.length prog.state_names in
  let rec find i =
    if i >= n then None
    else if String.equal prog.state_names.(i) name then Some i
    else find (i + 1)
  in
  find 0

let signal_id_of_name prog name = Hashtbl.find_opt prog.signal_ids name
let signal_name_of_id prog i = prog.signal_names.(i)
let program_machine prog = prog.machine
let after_min_of prog s = prog.after_min.(s)
let state_id t = t.state
let set_state_id t i = t.state <- i

let var_tag t i = Char.code (Bytes.get t.var_t i)
let var_value t i = t.var_v.(i)

let set_var_raw t i tag value =
  Bytes.set t.var_t i (Char.chr tag);
  t.var_v.(i) <- value
