(** Mapping exploration algorithms over a compiled cost kernel.

    Every search scores points through a {!Compiled.t} — the
    (profile, platform, candidate lattice) triple compiled once into
    integer tables with O(degree) single-group move evaluation — and is
    deterministic given the seed.  Results ([best], [best_cost],
    [evaluations], [history]) are bit-identical to scoring every point
    with {!Cost.cost}: the kernel preserves the readable model's float
    summation order, and each search its RNG draws and list
    materialization.  The closure-scored formulations of the four
    searches live in the test suite as the oracle that pins this.

    Every algorithm accepts an optional {!Obs.Scope.t}: the registry
    counts [dse.evaluations], [dse.best_updates], [dse.delta_evals]
    (incremental move evaluations), [dse.full_evals] (full
    recomputations) and, for annealing,
    [dse.moves_accepted]/[dse.moves_rejected]; the tracer receives the
    best-cost trajectory as counter samples on the ["dse"] track, with
    the evaluation index as the time axis.  {!Parallel} runs the same
    searches over worker domains. *)

type result = {
  best : Cost.assignment;
  best_cost : float;
  evaluations : int;
  history : (int * float) list;
      (** (evaluation index, best-so-far) at improvement points *)
}

val space_size : (string * string list) list -> int option
(** Number of points in the candidate lattice, or [None] when the
    product overflows [int] (which {!exhaustive_compiled} treats as
    "space too large" rather than wrapping silently). *)

val exhaustive_compiled :
  ?obs:Obs.Scope.t -> kernel:Compiled.t -> unit -> result
(** Try every combination, walking the lattice depth-first (first group
    varying slowest) with one incremental single-group update per point.
    Raises [Invalid_argument] when the space exceeds 1_000_000 points
    (or overflows [int]) or any group has no candidate. *)

val random_search_compiled :
  ?obs:Obs.Scope.t -> seed:int -> iterations:int -> kernel:Compiled.t ->
  unit -> result
(** Score [iterations] uniformly drawn lattice points, each a full
    recomputation.  Raises [Invalid_argument] when a group has no
    candidate. *)

val greedy_compiled :
  ?obs:Obs.Scope.t -> kernel:Compiled.t -> init:Cost.assignment -> unit ->
  result
(** Steepest-descent single-group moves until no move improves.
    Neighbours are scored in candidates order, each group's options in
    option order, skipping the group's current PE; the first strict
    minimum wins ties — pinned by unit tests. *)

val simulated_annealing_compiled :
  ?obs:Obs.Scope.t ->
  seed:int ->
  iterations:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  kernel:Compiled.t ->
  init:Cost.assignment ->
  unit ->
  result
(** Defaults: temperature 1.0 (scaled by the initial cost), geometric
    cooling 0.995 per iteration.  Moves are sampled from the {e movable}
    groups only (those with more than one candidate PE), so no iteration
    is wasted proposing a no-op on a fixed group; when every group is
    fixed the walk is skipped entirely and the result is just the
    scored [init].  Proposals are delta-evaluated and committed or
    reverted in place. *)

val apply :
  Tut_profile.Builder.t -> Cost.assignment -> Tut_profile.Builder.t
(** Remap the builder's model to the assignment (groups whose mapping
    already matches are untouched).  Raises [Not_found] when a group has
    no existing mapping dependency to update, [Invalid_argument] when
    the assignment violates a Fixed mapping. *)
