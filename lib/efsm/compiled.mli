(** Compiled EFSM engine.

    A {!Machine.t} is compiled once ({!compile}) into integer-indexed
    dispatch tables: interned states/signals/variables/parameters,
    per-(state, signal) candidate transition arrays in declaration
    order, and guards/actions flattened into a small stack bytecode
    executed over preallocated arrays.  An instance ({!t}) then steps
    without allocating on the hot path, except for the [Action.effect]
    lists the API is obliged to return.

    Observable behaviour is bit-identical to {!Interp} — same firing
    choices, same effect order, same [Action.Type_error] messages in the
    same evaluation order, same loop/completion bounds.  The
    differential suite (test/test_sim_compiled.ml) enforces this under
    fuzzing; a single compiled {!program} can be shared by many
    instances (one per process in a network). *)

type program
(** Immutable compiled form of one machine; shareable across instances. *)

type t
(** Running instance: current state id, variable slots, parameter slots. *)

val compile : Machine.t -> program
(** Validate nothing (callers run {!Machine.check} first, like they do
    for {!Interp.create}) and flatten the machine.  O(states x signals +
    code size); call once per machine, not per instance. *)

val create : program -> t
(** Fresh instance in the initial state with initial variable values. *)

val of_machine : Machine.t -> t
(** [create (compile m)] — convenience for single-instance use. *)

val machine : t -> Machine.t
val program : t -> program
val state : t -> string
val variables : t -> (string * Action.value) list
val read_var : t -> string -> Action.value option

val dispatch :
  t -> signal:string -> args:(string * Action.value) list -> Interp.step
(** Same contract as {!Interp.dispatch}: first enabled [On_signal]
    transition in declaration order fires (exit, actions, entry, then
    chained completions); the event is discarded if none is enabled. *)

val fire_timer : t -> entered_state:string -> Interp.step
(** Same contract as {!Interp.fire_timer}: fires an enabled [After]
    transition whose delay equals the armed ({!timer_request}) delay,
    discarding stale timers. *)

val initial_entry : t -> Action.effect list
(** Same contract as {!Interp.initial_entry}. *)

val run_completions : t -> Action.effect list
(** Same contract as {!Interp.run_completions}. *)

val timer_request : t -> int option
(** Same contract as {!Interp.timer_request}. *)

(** {2 Allocation-free dispatch}

    The [Interp.step]-returning entry points above materialise the
    fired transition and the effect list per event — fine for tests
    and the model checker, measurable on the simulation hot path.  The
    [_id] variants below keep the outcome as a boolean and leave the
    effects in the instance's internal buffer, to be walked in place
    via {!effect_count} / {!effect_at}. *)

val signal_id : t -> string -> int
(** Dispatch-table id of [signal] in this machine, [-1] if the machine
    never listens for it.  Resolve once and reuse with {!dispatch_id} —
    this is the only string lookup on the id path. *)

val dispatch_id : t -> sid:int -> args:(string * Action.value) list -> bool
(** Same transition semantics as {!dispatch}, keyed by a {!signal_id}
    result ([sid = -1] discards).  Returns whether a transition fired;
    on [true] the effects are in the buffer until the next dispatch. *)

val fire_timer_id : t -> entered_state:string -> bool
(** Same transition semantics as {!fire_timer}, buffer-backed like
    {!dispatch_id}. *)

val start_id : t -> unit
(** {!initial_entry} followed by {!run_completions}, buffer-backed: the
    initial-entry effects and then the completion effects are left in
    the buffer, as one sequence. *)

val effect_count : t -> int
(** Number of effects produced by the last fired [_id] dispatch. *)

val effect_at : t -> int -> Action.effect
(** The [i]th effect, in execution order; valid below {!effect_count}
    and only until the next dispatch on this instance. *)

val reset : t -> unit
(** Back to the initial state and initial variable values. *)

(** {2 Introspection and direct state access}

    Used by the model checker to encode global states as flat
    id-indexed vectors.  The persistent cross-step state of an instance
    is exactly its state id plus its variable slots — parameter slots,
    loop counters and the effect accumulator are per-step. *)

val n_states : program -> int
val n_vars : program -> int
val state_name_of_id : program -> int -> string
val var_name_of_id : program -> int -> string
val var_id_of_name : program -> string -> int option
val state_id_of_name : program -> string -> int option

val signal_id_of_name : program -> string -> int option
(** Consumed signals only; [None] means a dispatch of this signal is
    discarded without looking at the state. *)

val signal_name_of_id : program -> int -> string
(** Inverse of {!signal_id_of_name}, for ids [0 .. n - 1]. *)

val program_machine : program -> Machine.t
(** The machine the program was compiled from. *)

val after_min_of : program -> int -> int
(** Earliest [After] delay out of the given state id, [-1] when the
    state has no timer transition (mirrors {!timer_request}). *)

val state_id : t -> int
val set_state_id : t -> int -> unit

(** A variable slot is a tag and an int: tag [0] is unbound, [1] an
    integer (the int is its value), [2] a boolean (the int is [0] or
    [1]).  These read and write a slot by id as that pair, without
    boxing an {!Action.value}; the value of an unbound slot is
    meaningless. *)

val var_tag : t -> int -> int
val var_value : t -> int -> int

val set_var_raw : t -> int -> int -> int -> unit
(** [set_var_raw t i tag value]; [tag] must be [0], [1] or [2]. *)
