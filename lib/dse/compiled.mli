(** Compiled cost kernel with incremental (delta) move evaluation — the
    one scoring path of every mapping search ({!Explore},
    {!Parallel}).

    {!Cost.cost} is the readable model and the kernel's test oracle,
    with no production caller: per evaluation it rebuilds a hashtable,
    resolves groups and PEs through association lists and re-runs the
    platform's [hop_distance] (a BFS for view-derived platforms) for
    every communication pair.  The search algorithms score millions of
    mapping candidates, so this module compiles a (profile, platform,
    candidates) triple {e once} into integer-indexed tables — interned
    group/PE names, a precomputed PE×PE hop matrix, per-entry time
    matrices (cycles ÷ speed) and a CSR-style adjacency of the
    communication matrix — and then evaluates single-group moves
    against a mutable {!state} in O(entries + PEs + degree(group)) with
    no allocation.

    {2 Bit-identical equivalence}

    The kernel is {e not} an approximation: for any assignment it
    produces the exact float {!Cost.cost} would, so search results
    (best, best cost, improvement history) are bit-for-bit identical to
    the closure-scored searches the test suite keeps as the oracle.  Two mechanisms make incremental updates exact:

    - Per-PE execution-time loads are float sums whose value depends on
      summation order, so a move never adjusts a load in place (float
      subtraction does not undo addition); instead the loads of the two
      affected PEs are re-folded over the cycle entries in the
      reference's list order.
    - The remote-traffic term is a sum of [count × hop] products —
      integers, which float addition computes exactly (hence
      order-independently) as long as every term and partial sum fits in
      2{^52}.  [compile] verifies that bound and then maintains the sum
      as a plain [int] delta; in the (pathological) out-of-range case it
      falls back to re-folding the pair list in reference order.

    States are cheap and unshared: {!Dse.Parallel} compiles one kernel
    per worker domain, so no mutable state ever crosses a domain.
    [platform.hop_distance] is only called during [compile].

    Unknown names are errors, not silent defaults: any PE name (in the
    candidate lattice or an assignment) that is not in
    [platform.pe_infos] raises [Invalid_argument] — see
    {!Cost.unreachable_hops} for the related reachability penalty. *)

type spec = {
  alpha : float;
  beta : float;
  profile : Cost.profile_data;
  platform : Cost.platform_info;
}
(** Everything except the candidate lattice, so parallel drivers can
    compile per-task kernels for per-task lattices. *)

val spec :
  ?alpha:float ->
  ?beta:float ->
  profile:Cost.profile_data ->
  platform:Cost.platform_info ->
  unit ->
  spec
(** Defaults [alpha = 1.0], [beta = 1.0] — the same as {!Cost.cost}. *)

type t
(** Immutable compiled tables; safe to share across domains. *)

type state
(** Mutable evaluation state over one kernel.  Not thread-safe: use one
    state per domain. *)

val compile : spec -> candidates:(string * string list) list -> t
(** One-time compilation.  Raises [Invalid_argument] on duplicate group
    names in [candidates] or on candidate PE names unknown to the
    platform. *)

val candidates : t -> (string * string list) list
(** The lattice as given to {!compile}. *)

val n_groups : t -> int
(** Groups are numbered [0 .. n_groups - 1] in [candidates] order. *)

val options : t -> int -> int array
(** Candidate PE ids of a group, in the group's option-list order.  The
    returned array is the kernel's own — do not mutate. *)

(** {2 States} *)

val fresh_state : t -> state
(** Every group unassigned; {!assignment} materializes in [candidates]
    order. *)

val state_of : t -> Cost.assignment -> state
(** State holding the given assignment, which must bind {e exactly} the
    candidate groups (in any order — {!assignment} preserves it).  PEs
    need not be candidate options of their group, but must exist in the
    platform.  Raises [Invalid_argument] on unknown/duplicate/missing
    group names or unknown PE names. *)

val load_assignment : state -> Cost.assignment -> unit
(** Re-point an existing state at a new total assignment (full
    recomputation, same validation as {!state_of}) without
    re-allocating.  Clears any pending move. *)

val pe_of : state -> int -> int
(** Current PE id of a group; [-1] when unassigned. *)

(** {2 Evaluation} *)

val current_cost : state -> float
(** Cost of the state's current assignment (groups left unassigned
    contribute nothing, exactly as the reference treats unbound
    groups).  O(PEs). *)

val delta_cost : state -> group:int -> pe:int -> float
(** Cost of the current assignment with [group] moved to [pe], without
    applying the move.  The move is remembered as {e pending} for
    {!commit}/{!revert}/{!proposal_assignment}.  O(entries + PEs +
    degree(group)). *)

val commit : state -> unit
(** Apply the pending move.  Raises [Invalid_argument] when no move is
    pending. *)

val revert : state -> unit
(** Discard the pending move (the state was never modified). *)

val assign : state -> group:int -> pe:int -> unit
(** Move [group] to [pe] immediately (no pending bookkeeping) — the
    enumeration primitive for lattice walks.  Clears any pending
    move. *)

val assignment : state -> Cost.assignment
(** Materialize the current assignment in the state's output order
    ({!fresh_state}: candidates order; {!state_of}: the input list's
    order) — the same list the reference search would have built.
    Raises [Invalid_argument] if a group is unassigned. *)

val proposal_assignment : state -> Cost.assignment
(** {!assignment} with the pending move applied.  Raises
    [Invalid_argument] when no move is pending. *)

val full_cost : t -> Cost.assignment -> float
(** One-shot full evaluation ({!state_of} + {!current_cost}): a drop-in,
    allocation-heavy oracle equal to {!Cost.cost} on total
    assignments. *)
