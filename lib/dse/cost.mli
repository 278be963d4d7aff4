(** Static cost model for mapping exploration.

    The paper's profiling report feeds regrouping/remapping decisions;
    this model turns report data into a scalar objective:

    [cost = alpha * makespan + beta * remote_traffic]

    where makespan is the most-loaded PE's execution time (group cycles
    divided by effective PE speed) and remote_traffic weighs each
    inter-group signal by the hop distance between the PEs hosting the
    two groups (0 when co-located).  Minimising the second term is
    exactly the paper's stated grouping objective ("minimize the
    communication between process groups ... if groups are mapped to
    different processing elements"). *)

type profile_data = {
  group_cycles : (string * int64) list;
  comm : ((string * string) * int) list;  (** signals between group pairs *)
}

type pe_info = {
  pe : string;
  speed : float;  (** frequency_mhz * perf_factor *)
  accelerator : bool;
}

type platform_info = {
  pe_infos : pe_info list;
  hop_distance : string -> string -> int;
      (** segments crossed between two PEs; 0 for the same PE *)
}

type assignment = (string * string) list
(** [(group, pe)] — total map over the groups being explored. *)

val unreachable_hops : int
(** Hop distance assigned to PE pairs with no segment path (1000, a
    prohibitive penalty).  Shared by {!of_view} and the compiled kernel
    so both paths price unreachability identically. *)

val of_report : Profiler.Report.t -> profile_data
(** Drop the Environment pseudo group. *)

val of_view : Tut_profile.View.t -> platform_info
(** PE speeds from the platform model; hop distances by breadth-first
    search over segments and bridge wrappers. *)

val current_assignment : Tut_profile.View.t -> assignment

val feasible : Tut_profile.View.t -> assignment -> bool
(** Respects rule R15 (hardware groups on accelerators and conversely)
    and keeps every [Fixed] mapping of the view unchanged. *)

val candidates : Tut_profile.View.t -> (string * string list) list
(** For each group, the PEs it may map to (fixed mappings yield a
    singleton). *)

val cost :
  ?alpha:float ->
  ?beta:float ->
  profile:profile_data ->
  platform:platform_info ->
  assignment ->
  float
(** The objective written out directly — the definition {!Compiled}
    reproduces bit for bit and the oracle its tests check it against.
    The searches never call it: they score through a compiled kernel.
    Defaults [alpha = 1.0], [beta = 1.0].  Groups absent from the
    assignment contribute nothing; callers should ensure assignments are
    total.  Raises [Invalid_argument] if the assignment names a PE that
    is not in [platform.pe_infos] (it used to silently price unknown PEs
    at [speed = 1.0]). *)
