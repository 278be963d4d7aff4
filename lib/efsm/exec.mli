(** The one EFSM executor.

    Every layer that runs machines — the co-simulation runtime, the WLAN
    fleet and the model checker's counterexample replay — steps them
    through this module, and this is the only place the execution engine
    is chosen.  The interface is {!Compiled}'s id/buffer contract: a
    signal is resolved once to a dispatch-table id ({!signal_id}), a
    step reports only whether a transition fired, and the step's effects
    stay in a buffer that the caller walks in place ({!effect_count},
    {!effect_at}).

    [Compiled] runs the {!Compiled} VM; each call below is one direct
    call into it and allocates nothing.  [Reference] runs the tree-walking
    {!Interp}, the readable semantics the differential suites compare
    the VM against: it is keyed by the same program's signal ids, and the
    effects of each fired step are copied into the buffer.  Both engines
    fire the same transitions and leave the same effects, so callers
    cannot tell them apart except by speed. *)

type engine = Reference | Compiled

type t

val create : engine -> Compiled.program -> t
(** A fresh instance of the program's machine, in its initial state with
    initial variable values.  A program is shared by every instance of
    its machine, under either engine. *)

val signal_id : t -> string -> int
(** Dispatch-table id of [signal], [-1] if the machine never listens
    for it ({!Compiled.signal_id}).  Resolve once and reuse. *)

val start : t -> unit
(** Start-of-world step: run the initial state's entry actions, then
    the completion transitions to quiescence.  The entry effects and
    then the completion effects are left in the buffer.  Call once,
    before any dispatch. *)

val dispatch_id : t -> sid:int -> args:(string * Action.value) list -> bool
(** Consume one signal event by {!signal_id} ([sid = -1] discards);
    {!Interp.dispatch} gives the semantics.  Returns whether a
    transition fired; on [true] its effects, completions included, are
    in the buffer until the next step of this instance.  On [false] the
    buffer is not touched. *)

val fire_timer_id : t -> entered_state:string -> bool
(** Fire the armed [After] transition ({!Interp.fire_timer}), buffered
    like {!dispatch_id}. *)

val effect_count : t -> int
(** Number of effects the last fired step (or {!start}) left. *)

val effect_at : t -> int -> Action.effect
(** The [i]th of those effects, in execution order; valid below
    {!effect_count} and only until the next step of this instance. *)

val state : t -> string
val read_var : t -> string -> Action.value option

val timer_request : t -> int option
(** Delay of the earliest [After] transition leaving the current state
    ({!Interp.timer_request}). *)
