(** End-to-end driver for the Figure 2 flow on the TUTMAC/TUTWLAN case:
    build the model, validate it against TUT-Profile, generate the
    executable (lower to IR), simulate with environment workload, and
    produce the Table 4 profiling report.

    Under a fault plan with re-mapping enabled, a PE the watchdog
    declares dead closes the Figure 2 loop inside the run: the report
    of the trace so far is compiled into a {!Dse.Compiled} kernel and
    searched exhaustively ({!Dse.Explore.exhaustive_compiled}) with the
    dead PE's groups restricted to survivors and every other group
    pinned, and the winning mapping moves the processes. *)

type config = {
  app : App_model.params;
  platform : Platform_model.params;
  workload : Workload.params;
  duration_ns : int64;
  scheduling : Codegen.Ir.scheduling;
  crc_on_accelerator : bool;
  dispatch_overhead_cycles : int;
  faults : Fault.Plan.t;
      (** Fault-injection plan; {!Fault.Plan.empty} (the default) keeps
          the run byte-identical to a fault-free one. *)
  fault_seed : int;  (** Seed of the injection schedule (default 1). *)
  engine : Efsm.Exec.engine;
      (** EFSM execution engine (default [Compiled]).  [Reference] runs
          the interpreter oracle the differential tests compare
          against; traces are bit-identical. *)
  trace_backend : Sim.Trace.backend;
      (** Event-log store; [Arena] is the only one. *)
}

val default : config
(** 2 simulated seconds, the Figure 7/8 platform and mapping, no
    faults, the compiled engine. *)

val build_model : config -> Tut_profile.Builder.t
(** Application + platform + mapping in one model. *)

val validate : config -> Tut_profile.Rules.report

val system : config -> (Codegen.Ir.system, string list) result
(** The generated process network. *)

type run_result = {
  report : Profiler.Report.t;
  trace : Sim.Trace.t;
  sys : Codegen.Ir.system;
  runtime : Codegen.Runtime.t;
  via_xmi : bool;
  fault_stats : Fault.Stats.t option;
      (** Injection/detection/recovery counters when the config carried
          a non-empty fault plan; [None] otherwise. *)
}

val run :
  ?via_xmi:bool ->
  ?obs:Obs.Scope.t ->
  ?flows:Obs.Flow.t ->
  config ->
  (run_result, string) result
(** Simulate for [duration_ns] and profile.  With [via_xmi:true] the
    process-group information is recovered by serialising the model to
    XML and parsing it back — the authentic tool-chain path of the
    paper's profiling tool (slower, bit-identical result).  [obs] is
    threaded through the whole runtime (engine, RTOS, HIBI, process
    network) and [flows] enables causal flow tracing; see
    {!Codegen.Runtime.create}. *)

val run_builder :
  ?via_xmi:bool ->
  ?obs:Obs.Scope.t ->
  ?flows:Obs.Flow.t ->
  config ->
  Tut_profile.Builder.t ->
  (run_result, string) result
(** Like {!run} but on a caller-supplied model (e.g. one remapped or
    regrouped by the exploration tools); [config] supplies the workload,
    duration and scheduling. *)

val render_figures : config -> (string * string) list
(** [(figure id, rendered text)] for Figures 4-8. *)
