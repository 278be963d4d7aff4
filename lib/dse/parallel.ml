(* Parallel drivers for the compiled exploration algorithms.

   The key design rule is that the *decomposition* of the work into
   tasks is deterministic and independent of [jobs]: [jobs] only decides
   how many worker domains execute the task list, never what the tasks
   are.  Results are then merged by task index, so any jobs value —
   including 1, which runs the tasks inline on the calling domain —
   produces bit-for-bit identical results.  The serial-equivalence test
   suite (test_dse_parallel.ml) holds this over random lattices.

   - [exhaustive_compiled] statically partitions the candidate lattice
     into blocks by fixing a prefix of groups; each block is explored by
     the serial engine (the prefix is encoded as singleton candidate
     lists), and blocks enumerate in exactly the serial engine's order,
     so the merged result equals [Explore.exhaustive_compiled] point for
     point.
   - [random_search_compiled] splits the iteration budget over a fixed
     number of [streams], each drawing from its own [Rng.split] stream.
   - [simulated_annealing_compiled] becomes multi-start: [restarts]
     independent chains (chain 0 from the caller's init, the rest from
     random starting points), each with its own seed stream.

   Every task compiles its own kernel from the spec inside the task
   body, i.e. on the worker domain that runs it, so kernels and their
   mutable states never cross domains.  Each task also gets its own
   [Obs.Scope] (a fresh registry, when the caller passed a live scope)
   so worker domains never contend on metric cells; the per-task
   snapshots are merged and absorbed into the caller's registry
   afterwards, keeping counts like dse.evaluations exact. *)

let require_options name candidates =
  if List.exists (fun (_, options) -> options = []) candidates then
    invalid_arg ("Dse.Parallel." ^ name ^ ": a group has no candidate PE")

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Dse.Parallel: negative jobs"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

(* With jobs <= 1 the tasks run inline, in order, with no domain ever
   spawned — the pool path and this path see the same task list. *)
let run_tasks ~jobs tasks =
  let jobs = min jobs (List.length tasks) in
  if jobs <= 1 then List.map (fun f -> f ()) tasks
  else Pool.with_pool ~domains:jobs (fun pool -> Pool.map pool tasks)

let task_scopes ~obs n =
  match obs with
  | Some s when Obs.Scope.live s -> List.init n (fun _ -> Obs.Scope.create ())
  | Some _ | None -> List.init n (fun _ -> Obs.Scope.null ())

(* Fold the per-task registries back into the caller's scope and replay
   the merged best-cost trajectory to its tracer (the per-task tracers
   are null: sinks are not safe to share across domains). *)
let finish_obs ~obs ~history scopes =
  match obs with
  | Some s when Obs.Scope.live s ->
    let merged =
      List.fold_left
        (fun acc scope ->
          Obs.Metrics.merge acc
            (Obs.Metrics.snapshot (Obs.Scope.metrics scope)))
        [] scopes
    in
    Obs.Metrics.absorb (Obs.Scope.metrics s) merged;
    let tracer = Obs.Scope.tracer s in
    if Obs.Tracer.enabled tracer then
      List.iter
        (fun (index, cost) ->
          Obs.Tracer.sample tracer
            ~ts_ns:(Int64.of_int index)
            ~cat:"dse" ~track:"dse"
            ~args:[ ("cost", Obs.Span.Float cost) ]
            "best_cost")
        history
  | Some _ | None -> ()

(* Merge per-task results in task order.  Evaluation indices are
   re-based by the cumulative evaluation counts of earlier tasks, so the
   merged history lives on a single global evaluation axis; a prefix-min
   filter then keeps only global improvements (per-task histories record
   task-local improvements, a superset).  Best selection uses strict
   [<], so ties go to the lowest task index and, within a task, to the
   earliest evaluation — the same first-winner rule the serial tracker
   applies. *)
let merge_results results =
  let results = Array.of_list results in
  let offsets = Array.make (Array.length results) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (r : Explore.result) ->
      offsets.(i) <- !total;
      total := !total + r.Explore.evaluations)
    results;
  let best = ref [] and best_cost = ref infinity in
  Array.iter
    (fun (r : Explore.result) ->
      if r.Explore.best_cost < !best_cost then begin
        best := r.Explore.best;
        best_cost := r.Explore.best_cost
      end)
    results;
  let history =
    List.concat
      (List.mapi
         (fun i (r : Explore.result) ->
           List.map (fun (j, c) -> (offsets.(i) + j, c)) r.Explore.history)
         (Array.to_list results))
  in
  let _, history =
    List.fold_left
      (fun (floor, acc) (i, c) ->
        if c < floor then (c, (i, c) :: acc) else (floor, acc))
      (infinity, []) history
  in
  {
    Explore.best = !best;
    best_cost = !best_cost;
    evaluations = !total;
    history = List.rev history;
  }

let run ~jobs ~obs tasks =
  let scopes = task_scopes ~obs (List.length tasks) in
  let results =
    run_tasks ~jobs (List.map2 (fun task scope () -> task scope) tasks scopes)
  in
  let merged = merge_results results in
  finish_obs ~obs ~history:merged.Explore.history scopes;
  merged

(* -- exhaustive --------------------------------------------------------- *)

(* Fix enough leading groups that the block count reaches [target]; the
   returned prefixes enumerate in the serial engine's order (first group
   varies slowest), so concatenating the blocks replays the serial
   evaluation sequence exactly. *)
let chunk_prefixes ~target candidates =
  let rec split acc count rest =
    if count >= target then (List.rev acc, rest)
    else
      match rest with
      | [] -> (List.rev acc, [])
      | (group, options) :: tl ->
        split ((group, options) :: acc) (count * List.length options) tl
  in
  let prefix_groups, rest = split [] 1 candidates in
  let rec enum prefix = function
    | [] -> [ List.rev prefix ]
    | (group, options) :: tl ->
      List.concat_map (fun pe -> enum ((group, pe) :: prefix) tl) options
  in
  (enum [] prefix_groups, rest)

let exhaustive_compiled ?obs ?(jobs = 1) ~spec ~candidates () =
  require_options "exhaustive" candidates;
  (match Explore.space_size candidates with
  | Some n when n <= 1_000_000 -> ()
  | Some _ | None -> invalid_arg "Dse.Parallel.exhaustive: space too large");
  let jobs = resolve_jobs jobs in
  let prefixes, rest =
    chunk_prefixes ~target:(if jobs <= 1 then 1 else jobs * 4) candidates
  in
  let tasks =
    List.map
      (fun prefix scope ->
        let fixed = List.map (fun (group, pe) -> (group, [ pe ])) prefix in
        let kernel = Compiled.compile spec ~candidates:(fixed @ rest) in
        Explore.exhaustive_compiled ~obs:scope ~kernel ())
      prefixes
  in
  run ~jobs ~obs tasks

(* -- random search ------------------------------------------------------ *)

(* Iterations split as evenly as possible, the remainder going to the
   lowest stream indices — a function of (iterations, streams) only. *)
let share ~total ~parts k = (total / parts) + if k < total mod parts then 1 else 0

let random_search_compiled ?obs ?(jobs = 1) ?(streams = 16) ~seed ~iterations
    ~spec ~candidates () =
  require_options "random_search" candidates;
  if streams < 1 then invalid_arg "Dse.Parallel.random_search: streams < 1";
  let jobs = resolve_jobs jobs in
  let tasks =
    List.init streams (fun k scope ->
        let kernel = Compiled.compile spec ~candidates in
        Explore.random_search_compiled ~obs:scope
          ~seed:(Rng.split_seed ~seed ~stream:k)
          ~iterations:(share ~total:iterations ~parts:streams k)
          ~kernel ())
  in
  run ~jobs ~obs tasks

(* -- multi-start simulated annealing ------------------------------------ *)

let random_assignment rng candidates =
  List.map (fun (group, options) -> (group, Rng.pick rng options)) candidates

let simulated_annealing_compiled ?obs ?(jobs = 1) ?(restarts = 8) ~seed
    ~iterations ?initial_temperature ?cooling ~spec ~candidates ~init () =
  require_options "simulated_annealing" candidates;
  if restarts < 1 then
    invalid_arg "Dse.Parallel.simulated_annealing: restarts < 1";
  let jobs = resolve_jobs jobs in
  (* Even stream indices seed the chains, odd ones their starting
     points, so adding restarts never perturbs existing chains. *)
  let tasks =
    List.init restarts (fun k scope ->
        let init =
          if k = 0 then init
          else random_assignment (Rng.split ~seed ~stream:((2 * k) + 1)) candidates
        in
        let kernel = Compiled.compile spec ~candidates in
        Explore.simulated_annealing_compiled ~obs:scope
          ~seed:(Rng.split_seed ~seed ~stream:(2 * k))
          ~iterations:(share ~total:iterations ~parts:restarts k)
          ?initial_temperature ?cooling ~kernel ~init ())
  in
  run ~jobs ~obs tasks
