type result = {
  best : Cost.assignment;
  best_cost : float;
  evaluations : int;
  history : (int * float) list;
}

type tracker = {
  mutable best : Cost.assignment;
  mutable best_cost : float;
  mutable evaluations : int;
  mutable history : (int * float) list;
  m_evals : Obs.Metrics.counter;
  m_best_updates : Obs.Metrics.counter;
  tracer : Obs.Tracer.t;
}

let tracker ?obs init =
  let obs = match obs with Some s -> s | None -> Obs.Scope.null () in
  let metrics = Obs.Scope.metrics obs in
  {
    best = init;
    best_cost = infinity;
    evaluations = 0;
    history = [];
    m_evals = Obs.Metrics.counter metrics "dse.evaluations";
    m_best_updates = Obs.Metrics.counter metrics "dse.best_updates";
    tracer = Obs.Scope.tracer obs;
  }

(* Book-keep one scored point.  The assignment is a thunk so the
   searches only materialize (group, pe) lists on improvement — the
   common rejected move costs no allocation. *)
let record t cost assignment =
  t.evaluations <- t.evaluations + 1;
  Obs.Metrics.inc t.m_evals;
  if cost < t.best_cost then begin
    t.best <- assignment ();
    t.best_cost <- cost;
    t.history <- (t.evaluations, cost) :: t.history;
    Obs.Metrics.inc t.m_best_updates;
    (* The exploration loop has no simulated clock; the evaluation index
       serves as the trajectory's time axis. *)
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.sample t.tracer
        ~ts_ns:(Int64.of_int t.evaluations)
        ~cat:"dse" ~track:"dse"
        ~args:[ ("cost", Obs.Span.Float cost) ]
        "best_cost"
  end;
  cost

let scope_metrics obs =
  Obs.Scope.metrics (match obs with Some s -> s | None -> Obs.Scope.null ())

let finish t =
  {
    best = t.best;
    best_cost = t.best_cost;
    evaluations = t.evaluations;
    history = List.rev t.history;
  }

(* The product over a large lattice silently wraps an [int] (e.g. 41
   groups x 3 options each), which used to slip past the size guard
   below — so detect overflow instead of multiplying blindly. *)
let space_size candidates =
  let rec go acc = function
    | [] -> Some acc
    | (_, options) :: rest ->
      let n = List.length options in
      if n = 0 then Some 0
      else if acc > max_int / n then None
      else go (acc * n) rest
  in
  go 1 candidates

let require_options name candidates =
  if List.exists (fun (_, options) -> options = []) candidates then
    invalid_arg ("Dse.Explore." ^ name ^ ": a group has no candidate PE")

let random_assignment rng candidates =
  List.map (fun (group, options) -> (group, Rng.pick rng options)) candidates

(* Each search reproduces the closure-eval formulation kept as the test
   oracle (test_dse_compiled.ml) exactly — arithmetic, RNG draws,
   evaluation order and materialized lists — so [result] values are
   bit-identical to scoring every point with [Cost.cost]; the kernel
   only changes how fast a point is scored.  [dse.delta_evals] counts
   incremental evaluations, [dse.full_evals] full recomputations. *)

let exhaustive_compiled ?obs ~kernel () =
  let candidates = Compiled.candidates kernel in
  require_options "exhaustive" candidates;
  (match space_size candidates with
  | Some n when n <= 1_000_000 -> ()
  | Some _ | None -> invalid_arg "Dse.Explore.exhaustive: space too large");
  let t = tracker ?obs [] in
  let m_delta = Obs.Metrics.counter (scope_metrics obs) "dse.delta_evals" in
  let st = Compiled.fresh_state kernel in
  let n = Compiled.n_groups kernel in
  (* Depth-first over the lattice, first group varying slowest: entering
     a level overwrites exactly one group, so each point is one
     incremental update. *)
  let rec enumerate g =
    if g = n then begin
      Obs.Metrics.inc m_delta;
      ignore
        (record t (Compiled.current_cost st) (fun () -> Compiled.assignment st))
    end
    else
      Array.iter
        (fun pe ->
          Compiled.assign st ~group:g ~pe;
          enumerate (g + 1))
        (Compiled.options kernel g)
  in
  enumerate 0;
  finish t

let random_search_compiled ?obs ~seed ~iterations ~kernel () =
  let candidates = Compiled.candidates kernel in
  require_options "random_search" candidates;
  let rng = Rng.create seed in
  let t = tracker ?obs [] in
  let m_full = Obs.Metrics.counter (scope_metrics obs) "dse.full_evals" in
  let st = Compiled.fresh_state kernel in
  for _ = 1 to iterations do
    let a = random_assignment rng candidates in
    Compiled.load_assignment st a;
    Obs.Metrics.inc m_full;
    ignore (record t (Compiled.current_cost st) (fun () -> a))
  done;
  finish t

let greedy_compiled ?obs ~kernel ~init () =
  let t = tracker ?obs init in
  let metrics = scope_metrics obs in
  let m_delta = Obs.Metrics.counter metrics "dse.delta_evals" in
  let m_full = Obs.Metrics.counter metrics "dse.full_evals" in
  let st = Compiled.state_of kernel init in
  let n = Compiled.n_groups kernel in
  Obs.Metrics.inc m_full;
  let init_cost = record t (Compiled.current_cost st) (fun () -> init) in
  let rec descend current_cost =
    (* Score every single-group move — groups in candidates order, each
       group's options in option order, its current PE skipped — and
       keep the first strict improvement minimum. *)
    let best_group = ref (-1) and best_pe = ref (-1) and best_c = ref nan in
    for g = 0 to n - 1 do
      let cur = Compiled.pe_of st g in
      Array.iter
        (fun pe ->
          if pe <> cur then begin
            Obs.Metrics.inc m_delta;
            let c =
              record t
                (Compiled.delta_cost st ~group:g ~pe)
                (fun () -> Compiled.proposal_assignment st)
            in
            if
              (!best_group < 0 && c < current_cost)
              || (!best_group >= 0 && c < !best_c)
            then begin
              best_group := g;
              best_pe := pe;
              best_c := c
            end
          end)
        (Compiled.options kernel g)
    done;
    if !best_group >= 0 then begin
      Compiled.assign st ~group:!best_group ~pe:!best_pe;
      descend !best_c
    end
  in
  descend init_cost;
  finish t

let simulated_annealing_compiled ?obs ~seed ~iterations
    ?(initial_temperature = 1.0) ?(cooling = 0.995) ~kernel ~init () =
  require_options "simulated_annealing" (Compiled.candidates kernel);
  let rng = Rng.create seed in
  let t = tracker ?obs init in
  let metrics = scope_metrics obs in
  let m_accepted = Obs.Metrics.counter metrics "dse.moves_accepted" in
  let m_rejected = Obs.Metrics.counter metrics "dse.moves_rejected" in
  let m_delta = Obs.Metrics.counter metrics "dse.delta_evals" in
  let m_full = Obs.Metrics.counter metrics "dse.full_evals" in
  let st = Compiled.state_of kernel init in
  (* Single-option groups admit no move: sampling them would burn the
     iteration (and cool the temperature) on a no-op, so the walk draws
     from the group ids with more than one option, in candidates order,
     with the same [Rng.int] draw [Rng.pick] would make on a list. *)
  let movable =
    Array.init (Compiled.n_groups kernel) Fun.id |> Array.to_list
    |> List.filter (fun g -> Array.length (Compiled.options kernel g) > 1)
    |> Array.of_list
  in
  Obs.Metrics.inc m_full;
  let current_cost = ref (record t (Compiled.current_cost st) (fun () -> init)) in
  let temperature = ref (initial_temperature *. max 1.0 !current_cost /. 10.0) in
  if Array.length movable > 0 then
    for _ = 1 to iterations do
      let group = movable.(Rng.int rng (Array.length movable)) in
      let options = Compiled.options kernel group in
      let pe = options.(Rng.int rng (Array.length options)) in
      Obs.Metrics.inc m_delta;
      let cost =
        record t
          (Compiled.delta_cost st ~group ~pe)
          (fun () -> Compiled.proposal_assignment st)
      in
      let accept =
        cost < !current_cost
        || Rng.float rng < exp ((!current_cost -. cost) /. max 1e-9 !temperature)
      in
      if accept then begin
        Obs.Metrics.inc m_accepted;
        Compiled.commit st;
        current_cost := cost
      end
      else begin
        Obs.Metrics.inc m_rejected;
        Compiled.revert st
      end;
      temperature := !temperature *. cooling
    done;
  finish t

let apply builder assignment =
  let view = Tut_profile.Builder.view builder in
  if not (Cost.feasible view assignment) then
    invalid_arg "Dse.Explore.apply: assignment violates constraints";
  let current = Cost.current_assignment view in
  List.fold_left
    (fun b (group, pe) ->
      if List.assoc_opt group current = Some pe then b
      else
        let group_owner =
          match
            List.find_opt
              (fun (g : Tut_profile.View.group) ->
                g.Tut_profile.View.part = group)
              view.Tut_profile.View.groups
          with
          | Some g -> g.Tut_profile.View.owner
          | None -> raise Not_found
        in
        let pe_owner =
          match
            List.find_opt
              (fun (p : Tut_profile.View.pe_instance) ->
                p.Tut_profile.View.part = pe)
              view.Tut_profile.View.pes
          with
          | Some p -> p.Tut_profile.View.owner
          | None -> raise Not_found
        in
        Tut_profile.Builder.remap b ~group:(group_owner, group)
          ~pe:(pe_owner, pe))
    builder assignment
