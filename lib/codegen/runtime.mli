(** Co-simulation runtime: executes an {!Ir.system} on the discrete-event
    kernel, with one RTOS scheduler per processing element and signal
    transport over the HIBI network.

    This stands in for the paper's "executable application" running on
    the FPGA platform (Figure 2, right column): computation effects are
    charged to the mapped PE (scaled by frequency and performance
    factor), inter-PE signals arbitrate for HIBI segments, and every
    execution burst / signal / state change is recorded in the
    simulation log ({!Sim.Trace}) for the profiling tool.

    Environment processes run outside the platform on an ideal PE; their
    execution is not logged (the paper's Table 4 reports the Environment
    group with 0 cycles) but their signals are. *)

type t

val create :
  ?trace:Sim.Trace.t ->
  ?faults:Fault.Injector.t ->
  ?obs:Obs.Scope.t ->
  ?flows:Obs.Flow.t ->
  ?engine:Efsm.Exec.engine ->
  Ir.system ->
  (t, string list) result
(** Builds PEs, the HIBI network and process instances; returns errors
    from {!Ir.check} or inconsistent wrappers.  [engine] selects the
    {!Efsm.Exec} engine every process runs on (default [Compiled]; the
    [Reference] interpreter is the oracle of the differential tests,
    and yields a bit-identical trace).  [obs] is threaded through
    every layer (engine, schedulers, HIBI) and additionally receives
    per-process send/discard counters, the [app.exec_cycles_total]
    counter (cross-checkable against the profiling report) and one trace
    span per handled signal on the ["proc/<name>"] lane.

    [faults] arms the fault-injection subsystem: HIBI hops consult the
    injector (drop / corrupt / stall), PE crash and slowdown specs are
    scheduled at {!start}, and the fault-tolerance machinery switches
    on — inter-PE signals travel as CRC-32-framed messages under
    stop-and-wait ARQ (timeout, exponential backoff, [max_retries]),
    a periodic watchdog detects crashed PEs, and detection triggers
    degradation re-mapping when the plan's recovery says so.  An
    inactive (empty-plan) injector is ignored entirely: behaviour,
    traces and reports stay byte-identical to a fault-free run.

    [flows] enables causal flow tracing ({!Obs.Flow}): a flow id is
    minted per context-free signal emission, inherited by every signal
    sent while handling a flow-carrying event (fan-out through TUTMAC
    fragmentation/reassembly included), carried through RTOS jobs and
    HIBI transfers, and accounted per hop — queue wait, processing,
    bus transfer, ARQ retransmission — plus end-to-end on each delivery
    into an environment process.  Hops are also recorded as [Flow_hop]
    trace events, so a saved log can be replayed into the same report.
    Defaults to {!Obs.Flow.disabled}, which keeps traces, reports and
    timing byte-identical to an untraced run. *)

val engine : t -> Sim.Engine.t
val trace : t -> Sim.Trace.t
val system : t -> Ir.system

val start : t -> unit
(** Run initial completion transitions and arm initial timers of every
    process.  Call once before {!run}. *)

val run : t -> until_ns:int64 -> int
(** Advance simulated time; returns the number of events fired. *)

val inject :
  t -> dst:string -> signal:string -> args:(string * Efsm.Action.value) list -> unit
(** Deliver an external signal to a process (test stimulus). *)

val process_state : t -> string -> string option
val process_var : t -> string -> string -> Efsm.Action.value option

val pe_busy_ns : t -> (string * int64) list
val pe_executed_cycles : t -> (string * int64) list
val segment_stats : t -> (string * Hibi.Network.segment_stats) list
val queue_latencies : t -> (string * (int * float * int64)) list
(** Per process: [(events handled, mean queueing wait ns, max wait ns)] —
    the time signal events spend in the input queue before the EFSM
    dispatches them.  Scheduling policy changes these latencies even when
    total work is identical. *)

val queue_high_water : t -> (string * int) list
(** Per process: peak input-queue depth (pending signals), read straight
    from the mailbox ring's high-water mark; sorted by process name. *)

val pe_queue_high_water : t -> (string * int) list
(** Per PE (the environment pseudo-PE included): peak ready-queue length
    of its scheduler ({!Sim.Rtos}), sorted by PE name.  Maintained by the
    schedulers themselves — available with no metrics scope attached. *)

val runtime_errors : t -> string list
(** Routing failures observed during execution (should stay empty for a
    validated model). *)

(** Fault tolerance (active only when [create] received an active
    injector). *)

val fault_stats : t -> Fault.Stats.t option
(** The injector's shared counter record, including the runtime-side
    detection/recovery counts; [None] when faults are off. *)

val set_remap_hook :
  t -> (dead_pe:string -> survivors:string list -> (string * string) list) -> unit
(** Override degradation placement: on watchdog detection of [dead_pe]
    the hook receives the surviving PEs and returns [(process, pe)]
    placements for the dead PE's processes.  Processes it leaves out
    (or maps to a dead PE) fall back to the first survivor.  Without a
    hook the runtime round-robins processes over survivors in sorted
    order.  No-op when faults are off. *)

val process_pe : t -> string -> string option
(** The PE a process is currently mapped to (tracking degradation
    re-mapping); [None] for unknown or environment processes. *)

val flows : t -> Obs.Flow.t
(** The causal flow tracker (the disabled default unless [create]
    received one). *)
