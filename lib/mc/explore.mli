(** Explicit-state exploration of the composed EFSM network.

    Breadth- or depth-first search over global states — every machine
    instance's control state and variables, every bounded mailbox, the
    remaining budgets — with partial-order reduction and cone-of-influence
    state merging, checking for reachable global deadlocks and queue
    overflows.  States live in a packed byte store inside this module; a
    run allocates little beyond what the EFSM engine returns per step. *)

type order = Dfs | Bfs

type budget = {
  max_states : int;
  max_depth : int;  (** 0 = unlimited *)
  queue_capacity : int;
  env_budget : int;  (** injections per environment input *)
  timer_budget : int;  (** timer fires per instance *)
}

type config = {
  order : order;
  budget : budget;
  por : bool;  (** partial-order reduction *)
  coi : bool;  (** merge states that differ only in irrelevant slots *)
  check_deadlock : bool;
  check_overflow : bool;
}

type step =
  | S_deliver of int  (** instance delivers its queue head *)
  | S_timer of int  (** instance's armed timer fires *)
  | S_inject of int  (** environment input injects its signal *)

type violation =
  | V_deadlock of { members : int list }
      (** detected at the end of the returned schedule *)
  | V_overflow of { dest : int; gsig : int }
      (** the schedule's last step enqueues past capacity at [dest] *)

type stats = {
  states : int;
  steps : int;  (** global transitions executed *)
  dedup : int;  (** successors merged into an already-visited state *)
  frontier_peak : int;
  exhausted : bool;
}

type result = {
  stats : stats;
  violation : (violation * step list) option;
      (** with the schedule reaching it from the initial state *)
  unreached_states : (string * string) list;  (** (instance path, state) *)
  unfired_transitions : (string * int) list;
      (** (instance path, index into the machine's transition list);
          [On_signal]/[After] transitions only — completions are
          tracked through state coverage *)
  caveats : string list;
}

val default_budget : budget
(** 200 000 states, unlimited depth, queues of 8, one injection per
    environment input, two timer fires per instance. *)

val default_config : config
(** Breadth-first, {!default_budget}, both reductions, both properties. *)

val run : ?config:config -> Net.t -> result
(** Explore until the frontier empties, a budget cuts the search, or a
    checked property is violated.  Deterministic: the same network and
    config give the same result.

    @raise Efsm.Action.Type_error when a machine action fails at a
    reachable state; the message names the error, the instance path, the
    step it was taking and how many states had been explored. *)
