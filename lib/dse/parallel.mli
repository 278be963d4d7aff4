(** Parallel exploration drivers over a fixed-size domain {!Pool}.

    Work decomposition is deterministic and {e independent of [jobs]}:
    [jobs] (default 1; 0 means [Domain.recommended_domain_count ()];
    negative values raise [Invalid_argument]) only chooses how many
    worker domains execute the task list, so every jobs value returns
    bit-for-bit identical results — [jobs = 1] runs the same tasks
    inline without spawning a domain.  Each task compiles its own
    {!Compiled.t} from [spec] {e inside the task body}, i.e. on the
    worker domain that runs it, so neither kernels nor their mutable
    evaluation states ever cross domains.

    Merging is deterministic: the best assignment is the lowest cost
    with ties broken by lowest task index then earliest evaluation
    (the serial tracker's first-winner rule); [evaluations] is the exact
    sum over tasks; histories are re-based onto a single global
    evaluation axis by cumulative task offsets and filtered to global
    improvements.  When a live {!Obs.Scope.t} is passed, each task runs
    against its own registry and the snapshots are merged back with
    {!Obs.Metrics.absorb}, so counters such as [dse.evaluations] stay
    exact, and the merged best-cost trajectory is replayed to the
    caller's tracer.

    More domains are not automatically faster: every task pays a kernel
    compile and the pool pays domain start-up, so small searches (the
    seed model's default 500 annealing iterations, lattices of a few
    thousand points) run slower at [jobs = 2] than inline; see
    EXPERIMENTS.md for measured ratios. *)

val exhaustive_compiled :
  ?obs:Obs.Scope.t ->
  ?jobs:int ->
  spec:Compiled.spec ->
  candidates:(string * string list) list ->
  unit ->
  Explore.result
(** Statically partitions the lattice into blocks (fixing a prefix of
    groups) that enumerate in the serial engine's order, so the result
    equals {!Explore.exhaustive_compiled} exactly — best, cost,
    evaluation count and history.  Raises [Invalid_argument] on an empty
    candidate list or when the space exceeds 1_000_000 points (or
    overflows [int]). *)

val random_search_compiled :
  ?obs:Obs.Scope.t ->
  ?jobs:int ->
  ?streams:int ->
  seed:int ->
  iterations:int ->
  spec:Compiled.spec ->
  candidates:(string * string list) list ->
  unit ->
  Explore.result
(** Splits the iteration budget over [streams] (default 16) independent
    {!Rng.split} streams.  Note the decomposition — not [jobs] — defines
    the sampled points, so results differ from the single-stream
    {!Explore.random_search_compiled} but are identical across jobs
    values. *)

val simulated_annealing_compiled :
  ?obs:Obs.Scope.t ->
  ?jobs:int ->
  ?restarts:int ->
  seed:int ->
  iterations:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  spec:Compiled.spec ->
  candidates:(string * string list) list ->
  init:Cost.assignment ->
  unit ->
  Explore.result
(** Multi-start annealing: [restarts] (default 8) chains share the
    iteration budget; chain 0 starts from [init], the others from
    deterministic random assignments, each chain on its own seed
    stream. *)
