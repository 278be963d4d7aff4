type engine = Reference | Compiled

(* The interpreter side: the oracle steps by signal name, so ids are
   mapped back through the program; a fired step's effect list is
   copied into a buffer of the VM's shape. *)
type oracle = {
  interp : Interp.t;
  prog : Compiled.program;
  mutable buf : Action.effect array;
  mutable len : int;
}

type t = Vm of Compiled.t | Oracle of oracle

let create engine prog =
  match engine with
  | Compiled -> Vm (Compiled.create prog)
  | Reference ->
    Oracle
      {
        interp = Interp.create (Compiled.program_machine prog);
        prog;
        buf = [||];
        len = 0;
      }

let fill o effects =
  let n = List.length effects in
  if n > Array.length o.buf then
    o.buf <- Array.make (max n (2 * Array.length o.buf)) (Action.Eff_compute 0);
  List.iteri (fun i e -> o.buf.(i) <- e) effects;
  o.len <- n

let fired o (step : Interp.step) =
  match step.Interp.fired with
  | None -> false
  | Some _ ->
    fill o step.Interp.effects;
    true

let signal_id t signal =
  match t with
  | Vm c -> Compiled.signal_id c signal
  | Oracle o ->
    Option.value ~default:(-1) (Compiled.signal_id_of_name o.prog signal)

let start = function
  | Vm c -> Compiled.start_id c
  | Oracle o ->
    let entry = Interp.initial_entry o.interp in
    fill o (entry @ Interp.run_completions o.interp)

let dispatch_id t ~sid ~args =
  match t with
  | Vm c -> Compiled.dispatch_id c ~sid ~args
  | Oracle o ->
    sid >= 0
    && fired o
         (Interp.dispatch o.interp
            ~signal:(Compiled.signal_name_of_id o.prog sid)
            ~args)

let fire_timer_id t ~entered_state =
  match t with
  | Vm c -> Compiled.fire_timer_id c ~entered_state
  | Oracle o -> fired o (Interp.fire_timer o.interp ~entered_state)

let effect_count = function
  | Vm c -> Compiled.effect_count c
  | Oracle o -> o.len

let effect_at t i =
  match t with Vm c -> Compiled.effect_at c i | Oracle o -> o.buf.(i)

let state = function
  | Vm c -> Compiled.state c
  | Oracle o -> Interp.state o.interp

let read_var t name =
  match t with
  | Vm c -> Compiled.read_var c name
  | Oracle o -> Interp.read_var o.interp name

let timer_request = function
  | Vm c -> Compiled.timer_request c
  | Oracle o -> Interp.timer_request o.interp
