(* Bit-identical equivalence of the compiled DSE cost kernel.

   Dse.Compiled promises that searching through the kernel returns
   exactly the result of scoring every point with the readable model
   Dse.Cost.cost — same [best] list, same [best_cost] float (compared
   with [=], i.e. bit-identical for these non-NaN values), same
   [evaluations] and [history].  The oracle below writes each search
   directly over a [Cost.cost] closure; the properties generate random
   candidate lattices with random cost models (the spec-record style of
   test_dse_parallel.ml) and hold the promise over:

   - one-shot evaluation: [full_cost] vs [Cost.cost], including
     non-default alpha/beta;
   - delta evaluation: random walks of delta_cost/commit/revert checked
     against the reference at every step;
   - every serial algorithm (exhaustive, greedy, random_search,
     simulated_annealing) against its oracle, and every Dse.Parallel
     driver for jobs in {1, 2, 4, 8} against the oracle run over the
     documented task decomposition;
   - the out-of-range fallback path (comm counts past the 2^52
     integer-exactness bound);

   plus the error contracts (unknown PEs/groups raise). *)

let check = Alcotest.check
let bool_t = Alcotest.bool

(* -- closure-eval oracle --------------------------------------------------- *)

(* The four searches written directly over an [eval] closure: plain
   (group, pe) lists, one [eval] call per point, the tracker's strict
   [<] first-winner rule.  Each compiled driver must reproduce its
   oracle's arithmetic, RNG draws and evaluation order exactly. *)
module Oracle = struct
  type tracker = {
    eval : Dse.Cost.assignment -> float;
    mutable best : Dse.Cost.assignment;
    mutable best_cost : float;
    mutable evaluations : int;
    mutable history : (int * float) list;
  }

  let tracker eval init =
    { eval; best = init; best_cost = infinity; evaluations = 0; history = [] }

  let evaluate t a =
    let cost = t.eval a in
    t.evaluations <- t.evaluations + 1;
    if cost < t.best_cost then begin
      t.best <- a;
      t.best_cost <- cost;
      t.history <- (t.evaluations, cost) :: t.history
    end;
    cost

  let finish t =
    {
      Dse.Explore.best = t.best;
      best_cost = t.best_cost;
      evaluations = t.evaluations;
      history = List.rev t.history;
    }

  let exhaustive ~eval ~candidates =
    let t = tracker eval [] in
    let rec enumerate prefix = function
      | [] -> ignore (evaluate t (List.rev prefix))
      | (group, options) :: rest ->
        List.iter (fun pe -> enumerate ((group, pe) :: prefix) rest) options
    in
    enumerate [] candidates;
    finish t

  let random_assignment rng candidates =
    List.map (fun (group, options) -> (group, Dse.Rng.pick rng options))
      candidates

  let random_search ~seed ~iterations ~eval ~candidates =
    let rng = Dse.Rng.create seed in
    let t = tracker eval [] in
    for _ = 1 to iterations do
      ignore (evaluate t (random_assignment rng candidates))
    done;
    finish t

  let replace group pe assignment =
    List.map (fun (g, p) -> if g = group then (g, pe) else (g, p)) assignment

  (* All single-group reassignments, in candidates order, then option
     order, skipping the group's current PE. *)
  let moves candidates assignment =
    List.concat_map
      (fun (group, options) ->
        let current = List.assoc_opt group assignment in
        List.filter_map
          (fun pe ->
            if Some pe = current then None
            else Some (replace group pe assignment))
          options)
      candidates

  let greedy ~eval ~candidates ~init =
    let t = tracker eval init in
    let rec descend current current_cost =
      let scored =
        List.map (fun a -> (a, evaluate t a)) (moves candidates current)
      in
      match
        List.fold_left
          (fun acc (a, c) ->
            match acc with
            | Some (_, best_c) when best_c <= c -> acc
            | Some _ | None -> if c < current_cost then Some (a, c) else acc)
          None scored
      with
      | Some (next, next_cost) -> descend next next_cost
      | None -> ()
    in
    descend init (evaluate t init);
    finish t

  let simulated_annealing ~seed ~iterations ~eval ~candidates ~init =
    let rng = Dse.Rng.create seed in
    let t = tracker eval init in
    let movable =
      List.filter (fun (_, options) -> List.length options > 1) candidates
    in
    let current = ref init in
    let current_cost = ref (evaluate t init) in
    let temperature = ref (max 1.0 !current_cost /. 10.0) in
    if movable <> [] then
      for _ = 1 to iterations do
        let group, options = Dse.Rng.pick rng movable in
        let proposal = replace group (Dse.Rng.pick rng options) !current in
        let cost = evaluate t proposal in
        if
          cost < !current_cost
          || Dse.Rng.float rng
             < exp ((!current_cost -. cost) /. max 1e-9 !temperature)
        then begin
          current := proposal;
          current_cost := cost
        end;
        temperature := !temperature *. 0.995
      done;
    finish t

  (* Dse.Parallel's documented merge: lowest cost with ties to the
     lowest task, evaluations summed, histories re-based onto one
     evaluation axis and filtered to global improvements. *)
  let merge results =
    let best, best_cost, _, evaluations, history =
      List.fold_left
        (fun (best, best_cost, floor, offset, history) (r : Dse.Explore.result) ->
          let best, best_cost =
            if r.Dse.Explore.best_cost < best_cost then
              (r.Dse.Explore.best, r.Dse.Explore.best_cost)
            else (best, best_cost)
          in
          let floor, history =
            List.fold_left
              (fun (floor, history) (i, c) ->
                if c < floor then (c, (offset + i, c) :: history)
                else (floor, history))
              (floor, history) r.Dse.Explore.history
          in
          (best, best_cost, floor, offset + r.Dse.Explore.evaluations, history))
        ([], infinity, infinity, 0, []) results
    in
    { Dse.Explore.best; best_cost; evaluations; history = List.rev history }

  let share ~total ~parts k =
    (total / parts) + if k < total mod parts then 1 else 0

  (* 16 streams, each on its own split seed. *)
  let parallel_random_search ~seed ~iterations ~eval ~candidates =
    merge
      (List.init 16 (fun k ->
           random_search
             ~seed:(Dse.Rng.split_seed ~seed ~stream:k)
             ~iterations:(share ~total:iterations ~parts:16 k)
             ~eval ~candidates))

  (* 8 chains: chain k on stream 2k, started from [init] (k = 0) or a
     random point drawn from stream 2k + 1. *)
  let parallel_simulated_annealing ~seed ~iterations ~eval ~candidates ~init =
    merge
      (List.init 8 (fun k ->
           let init =
             if k = 0 then init
             else
               random_assignment
                 (Dse.Rng.split ~seed ~stream:((2 * k) + 1))
                 candidates
           in
           simulated_annealing
             ~seed:(Dse.Rng.split_seed ~seed ~stream:(2 * k))
             ~iterations:(share ~total:iterations ~parts:8 k)
             ~eval ~candidates ~init))
end

(* -- random lattices (same spec-record style as test_dse_parallel) ------- *)

type spec = {
  n_groups : int;  (** 1..5 *)
  n_pes : int;  (** 1..4 *)
  cycles : int list;
  speeds : int list;
  weights : int list;  (** comm weight pool, consumed pairwise *)
  seed : int;
}

let gen_spec =
  QCheck.Gen.(
    let* n_groups = int_range 1 5 in
    let* n_pes = int_range 1 4 in
    let* cycles = list_repeat n_groups (int_range 10 10_000) in
    let* speeds = list_repeat n_pes (int_range 10 1_000) in
    let* weights = list_repeat (n_groups * n_groups) (int_range 0 60) in
    let* seed = int_range 0 100_000 in
    return { n_groups; n_pes; cycles; speeds; weights; seed })

let print_spec spec =
  Printf.sprintf "{groups=%d pes=%d seed=%d cycles=[%s] speeds=[%s]}"
    spec.n_groups spec.n_pes spec.seed
    (String.concat ";" (List.map string_of_int spec.cycles))
    (String.concat ";" (List.map string_of_int spec.speeds))

let arbitrary_spec = QCheck.make ~print:print_spec gen_spec

let group g = Printf.sprintf "g%d" g
let pe p = Printf.sprintf "pe%d" p

(* Unlike test_dse_parallel's model, comm keeps self-pairs (b >= a) so
   the kernel's touching-list handling of (g, g) entries is covered. *)
let model_of spec =
  let profile =
    {
      Dse.Cost.group_cycles =
        List.mapi (fun g c -> (group g, Int64.of_int c)) spec.cycles;
      Dse.Cost.comm =
        List.concat
          (List.init spec.n_groups (fun a ->
               List.filter_map
                 (fun b ->
                   let w = List.nth spec.weights ((a * spec.n_groups) + b) in
                   if b >= a && w > 0 then Some ((group a, group b), w)
                   else None)
                 (List.init spec.n_groups (fun b -> b))));
    }
  in
  let platform =
    {
      Dse.Cost.pe_infos =
        List.mapi
          (fun p s ->
            { Dse.Cost.pe = pe p; speed = float_of_int s; accelerator = false })
          spec.speeds;
      Dse.Cost.hop_distance =
        (fun a b ->
          if a = b then 0 else 1 + ((Hashtbl.hash a + Hashtbl.hash b) mod 2));
    }
  in
  let candidates =
    List.mapi
      (fun g c ->
        let size = 1 + (c mod spec.n_pes) in
        (group g, List.init size (fun i -> pe ((g + i) mod spec.n_pes))))
      spec.cycles
  in
  (profile, platform, candidates)

let kernel_of ?alpha ?beta (profile, platform, candidates) =
  Dse.Compiled.compile
    (Dse.Compiled.spec ?alpha ?beta ~profile ~platform ())
    ~candidates

let first_options candidates =
  List.map (fun (g, options) -> (g, List.hd options)) candidates

let same_result (a : Dse.Explore.result) (b : Dse.Explore.result) =
  a.Dse.Explore.best = b.Dse.Explore.best
  && a.Dse.Explore.best_cost = b.Dse.Explore.best_cost
  && a.Dse.Explore.evaluations = b.Dse.Explore.evaluations
  && a.Dse.Explore.history = b.Dse.Explore.history

let jobs_grid = [ 1; 2; 4; 8 ]

(* -- one-shot and delta evaluation --------------------------------------- *)

let prop_full_cost_matches_reference =
  QCheck.Test.make ~name:"full_cost == Cost.cost (incl. alpha/beta)"
    ~count:100 arbitrary_spec (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let kernel = kernel_of model in
      let kernel_ab = kernel_of ~alpha:2.5 ~beta:0.125 model in
      let rng = Dse.Rng.create spec.seed in
      List.for_all
        (fun _ ->
          let a =
            List.map (fun (g, options) -> (g, Dse.Rng.pick rng options)) candidates
          in
          Dse.Compiled.full_cost kernel a
          = Dse.Cost.cost ~profile ~platform a
          && Dse.Compiled.full_cost kernel_ab a
             = Dse.Cost.cost ~alpha:2.5 ~beta:0.125 ~profile ~platform a)
        (List.init 10 Fun.id))

let prop_delta_walk_matches_reference =
  QCheck.Test.make ~name:"delta_cost/commit/revert walk == Cost.cost"
    ~count:100 arbitrary_spec (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let kernel = kernel_of model in
      let st = Dse.Compiled.state_of kernel (first_options candidates) in
      let rng = Dse.Rng.create (spec.seed + 1) in
      let n = Dse.Compiled.n_groups kernel in
      List.for_all
        (fun _ ->
          let g = Dse.Rng.int rng n in
          let options = Dse.Compiled.options kernel g in
          let p = options.(Dse.Rng.int rng (Array.length options)) in
          let delta = Dse.Compiled.delta_cost st ~group:g ~pe:p in
          let proposal = Dse.Compiled.proposal_assignment st in
          let ok_delta = delta = Dse.Cost.cost ~profile ~platform proposal in
          if Dse.Rng.int rng 2 = 0 then Dse.Compiled.commit st
          else Dse.Compiled.revert st;
          ok_delta
          && Dse.Compiled.current_cost st
             = Dse.Cost.cost ~profile ~platform (Dse.Compiled.assignment st))
        (List.init 40 Fun.id))

(* Comm counts past 2^52 disable the integer delta; the ordered-fold
   fallback must still match the reference bit for bit. *)
let prop_inexact_fallback_matches_reference =
  QCheck.Test.make ~name:"out-of-range counts fall back, still identical"
    ~count:50 arbitrary_spec (fun spec ->
      QCheck.assume (spec.n_groups >= 2);
      let profile, platform, candidates = model_of spec in
      let profile =
        {
          profile with
          Dse.Cost.comm =
            ((group 0, group 1), (1 lsl 53) + 1) :: profile.Dse.Cost.comm;
        }
      in
      let kernel = kernel_of (profile, platform, candidates) in
      let st = Dse.Compiled.state_of kernel (first_options candidates) in
      let rng = Dse.Rng.create (spec.seed + 2) in
      let n = Dse.Compiled.n_groups kernel in
      List.for_all
        (fun _ ->
          let g = Dse.Rng.int rng n in
          let options = Dse.Compiled.options kernel g in
          let p = options.(Dse.Rng.int rng (Array.length options)) in
          let delta = Dse.Compiled.delta_cost st ~group:g ~pe:p in
          let ok = delta = Dse.Cost.cost ~profile ~platform
                             (Dse.Compiled.proposal_assignment st) in
          Dse.Compiled.commit st;
          ok)
        (List.init 12 Fun.id))

(* -- serial algorithm equivalence ---------------------------------------- *)

let prop_exhaustive_compiled_identical =
  QCheck.Test.make ~name:"exhaustive_compiled == exhaustive" ~count:100
    arbitrary_spec (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let eval = Dse.Cost.cost ~profile ~platform in
      same_result
        (Oracle.exhaustive ~eval ~candidates)
        (Dse.Explore.exhaustive_compiled ~kernel:(kernel_of model) ()))

let prop_greedy_compiled_identical =
  QCheck.Test.make ~name:"greedy_compiled == greedy" ~count:100 arbitrary_spec
    (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let eval = Dse.Cost.cost ~profile ~platform in
      let init = first_options candidates in
      same_result
        (Oracle.greedy ~eval ~candidates ~init)
        (Dse.Explore.greedy_compiled ~kernel:(kernel_of model) ~init ()))

let prop_random_search_compiled_identical =
  QCheck.Test.make ~name:"random_search_compiled == random_search" ~count:100
    arbitrary_spec (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let eval = Dse.Cost.cost ~profile ~platform in
      same_result
        (Oracle.random_search ~seed:spec.seed ~iterations:100 ~eval ~candidates)
        (Dse.Explore.random_search_compiled ~seed:spec.seed ~iterations:100
           ~kernel:(kernel_of model) ()))

let prop_sa_compiled_identical =
  QCheck.Test.make ~name:"simulated_annealing_compiled == simulated_annealing"
    ~count:100 arbitrary_spec (fun spec ->
      let ((profile, platform, candidates) as model) = model_of spec in
      let eval = Dse.Cost.cost ~profile ~platform in
      let init = first_options candidates in
      same_result
        (Oracle.simulated_annealing ~seed:spec.seed ~iterations:200 ~eval
           ~candidates ~init)
        (Dse.Explore.simulated_annealing_compiled ~seed:spec.seed
           ~iterations:200 ~kernel:(kernel_of model) ~init ()))

(* -- parallel driver equivalence ----------------------------------------- *)

let prop_parallel_compiled_identical =
  QCheck.Test.make ~name:"Parallel *_compiled == closure eval, jobs {1,2,4,8}"
    ~count:20 arbitrary_spec (fun spec ->
      let profile, platform, candidates = model_of spec in
      let eval = Dse.Cost.cost ~profile ~platform in
      let cspec = Dse.Compiled.spec ~profile ~platform () in
      let init = first_options candidates in
      let exhaustive_ref = Oracle.exhaustive ~eval ~candidates in
      let random_ref =
        Oracle.parallel_random_search ~seed:spec.seed ~iterations:60 ~eval
          ~candidates
      in
      let sa_ref =
        Oracle.parallel_simulated_annealing ~seed:spec.seed ~iterations:64
          ~eval ~candidates ~init
      in
      List.for_all
        (fun jobs ->
          same_result exhaustive_ref
            (Dse.Parallel.exhaustive_compiled ~jobs ~spec:cspec ~candidates ())
          && same_result random_ref
               (Dse.Parallel.random_search_compiled ~jobs ~seed:spec.seed
                  ~iterations:60 ~spec:cspec ~candidates ())
          && same_result sa_ref
               (Dse.Parallel.simulated_annealing_compiled ~jobs ~seed:spec.seed
                  ~iterations:64 ~spec:cspec ~candidates ~init ()))
        jobs_grid)

(* -- observability -------------------------------------------------------- *)

let test_counters () =
  let spec =
    {
      n_groups = 3;
      n_pes = 3;
      cycles = [ 100; 2_000; 333 ];
      speeds = [ 50; 75; 20 ];
      weights = List.init 9 (fun i -> i * 3);
      seed = 7;
    }
  in
  let ((_, _, candidates) as model) = model_of spec in
  let kernel = kernel_of model in
  let obs = Obs.Scope.create () in
  let r = Dse.Explore.exhaustive_compiled ~obs ~kernel () in
  let snapshot = Obs.Metrics.snapshot (Obs.Scope.metrics obs) in
  check (Alcotest.option Alcotest.int) "delta_evals counts every point"
    (Some r.Dse.Explore.evaluations)
    (Obs.Metrics.counter_value snapshot "dse.delta_evals");
  check (Alcotest.option Alcotest.int) "dse.evaluations still counted"
    (Some r.Dse.Explore.evaluations)
    (Obs.Metrics.counter_value snapshot "dse.evaluations");
  let obs2 = Obs.Scope.create () in
  let init = first_options candidates in
  let r2 =
    Dse.Explore.simulated_annealing_compiled ~obs:obs2 ~seed:3 ~iterations:50
      ~kernel ~init ()
  in
  let snapshot2 = Obs.Metrics.snapshot (Obs.Scope.metrics obs2) in
  check (Alcotest.option Alcotest.int) "one full eval for the SA init"
    (Some 1)
    (Obs.Metrics.counter_value snapshot2 "dse.full_evals");
  check (Alcotest.option Alcotest.int) "SA delta evals = iterations"
    (Some (r2.Dse.Explore.evaluations - 1))
    (Obs.Metrics.counter_value snapshot2 "dse.delta_evals")

(* -- error contracts ------------------------------------------------------ *)

let fixture () =
  let profile =
    {
      Dse.Cost.group_cycles = [ ("g0", 100L); ("g1", 200L) ];
      comm = [ (("g0", "g1"), 5) ];
    }
  in
  let platform =
    {
      Dse.Cost.pe_infos =
        [
          { Dse.Cost.pe = "pe0"; speed = 10.0; accelerator = false };
          { Dse.Cost.pe = "pe1"; speed = 20.0; accelerator = false };
        ];
      hop_distance = (fun a b -> if a = b then 0 else 1);
    }
  in
  (profile, platform)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_error_contracts () =
  let profile, platform = fixture () in
  let spec = Dse.Compiled.spec ~profile ~platform () in
  check bool_t "compile rejects unknown candidate PE" true
    (raises_invalid (fun () ->
         Dse.Compiled.compile spec ~candidates:[ ("g0", [ "pe9" ]) ]));
  check bool_t "compile rejects duplicate group" true
    (raises_invalid (fun () ->
         Dse.Compiled.compile spec
           ~candidates:[ ("g0", [ "pe0" ]); ("g0", [ "pe1" ]) ]));
  let kernel =
    Dse.Compiled.compile spec
      ~candidates:[ ("g0", [ "pe0"; "pe1" ]); ("g1", [ "pe0"; "pe1" ]) ]
  in
  check bool_t "state_of rejects unknown PE" true
    (raises_invalid (fun () ->
         Dse.Compiled.state_of kernel [ ("g0", "pe9"); ("g1", "pe0") ]));
  check bool_t "state_of rejects unknown group" true
    (raises_invalid (fun () ->
         Dse.Compiled.state_of kernel [ ("g0", "pe0"); ("gX", "pe0") ]));
  check bool_t "state_of rejects missing group" true
    (raises_invalid (fun () ->
         Dse.Compiled.state_of kernel [ ("g0", "pe0") ]));
  check bool_t "state_of rejects duplicate group" true
    (raises_invalid (fun () ->
         Dse.Compiled.state_of kernel [ ("g0", "pe0"); ("g0", "pe1") ]));
  (* state_of accepts PEs outside the group's option list (greedy/SA
     inits are not required to be lattice points)... *)
  let st = Dse.Compiled.state_of kernel [ ("g1", "pe1"); ("g0", "pe1") ] in
  (* ...and materializes in the input order. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "assignment preserves input order"
    [ ("g1", "pe1"); ("g0", "pe1") ]
    (Dse.Compiled.assignment st);
  check bool_t "commit without pending move" true
    (raises_invalid (fun () -> Dse.Compiled.commit st));
  check bool_t "Cost.cost rejects unknown PE" true
    (raises_invalid (fun () ->
         Dse.Cost.cost ~profile ~platform [ ("g0", "nope"); ("g1", "pe0") ]))

let () =
  Alcotest.run "dse_compiled"
    [
      ( "evaluation",
        [
          QCheck_alcotest.to_alcotest prop_full_cost_matches_reference;
          QCheck_alcotest.to_alcotest prop_delta_walk_matches_reference;
          QCheck_alcotest.to_alcotest prop_inexact_fallback_matches_reference;
        ] );
      ( "algorithms",
        [
          QCheck_alcotest.to_alcotest prop_exhaustive_compiled_identical;
          QCheck_alcotest.to_alcotest prop_greedy_compiled_identical;
          QCheck_alcotest.to_alcotest prop_random_search_compiled_identical;
          QCheck_alcotest.to_alcotest prop_sa_compiled_identical;
        ] );
      ( "parallel",
        [ QCheck_alcotest.to_alcotest prop_parallel_compiled_identical ] );
      ( "observability",
        [ Alcotest.test_case "delta/full counters" `Quick test_counters ] );
      ( "errors",
        [ Alcotest.test_case "raises" `Quick test_error_contracts ] );
    ]
