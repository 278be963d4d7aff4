(* Serial/parallel equivalence for Dse.Parallel, plus Dse.Pool torture
   tests.

   The drivers promise that [jobs] only changes how many domains execute
   the (deterministic, jobs-independent) task decomposition, never the
   result.  The properties here generate random candidate lattices with
   random cost models (the same spec-record style as
   test_random_models.ml) and hold, for jobs in {1, 2, 4, 8}:

   - exhaustive: bit-for-bit equality with the serial
     Dse.Explore.exhaustive_compiled — best, best_cost, evaluations,
     history;
   - random_search / simulated_annealing: bit-for-bit equality with the
     same driver at jobs = 1;
   - merged-history invariants: indices strictly increase within
     [1, evaluations], costs strictly decrease, and the last entry is
     the best cost;
   - observability: the merged dse.evaluations counter stays exact. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- random lattices ----------------------------------------------------- *)

type spec = {
  n_groups : int;  (** 1..5 *)
  n_pes : int;  (** 1..4 *)
  cycles : int list;  (** per-group cycle cost *)
  speeds : int list;  (** per-PE speed *)
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

(* Build a kernel spec + candidate lattice from the spec.  Candidate
   subsets vary per group (size and offset derived from the group's
   cycle cost) so the lattice is not always the full cross product. *)
let model_of spec =
  let group g = Printf.sprintf "g%d" g in
  let pe p = Printf.sprintf "pe%d" p in
  let profile =
    {
      Dse.Cost.group_cycles =
        List.mapi (fun g c -> (group g, Int64.of_int c)) spec.cycles;
      Dse.Cost.comm =
        List.concat
          (List.init spec.n_groups (fun a ->
               List.filter_map
                 (fun b ->
                   let w =
                     List.nth spec.weights ((a * spec.n_groups) + b)
                   in
                   if b > a && w > 0 then Some ((group a, group b), w)
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
  (Dse.Compiled.spec ~profile ~platform (), candidates)

let same_result (a : Dse.Explore.result) (b : Dse.Explore.result) =
  a.Dse.Explore.best = b.Dse.Explore.best
  && a.Dse.Explore.best_cost = b.Dse.Explore.best_cost
  && a.Dse.Explore.evaluations = b.Dse.Explore.evaluations
  && a.Dse.Explore.history = b.Dse.Explore.history

let jobs_grid = [ 1; 2; 4; 8 ]

(* -- equivalence properties ---------------------------------------------- *)

let prop_exhaustive_matches_serial =
  QCheck.Test.make ~name:"parallel exhaustive == serial, jobs in {1,2,4,8}"
    ~count:25 arbitrary_spec (fun spec ->
      let cspec, candidates = model_of spec in
      let serial =
        Dse.Explore.exhaustive_compiled
          ~kernel:(Dse.Compiled.compile cspec ~candidates) ()
      in
      List.for_all
        (fun jobs ->
          same_result serial
            (Dse.Parallel.exhaustive_compiled ~jobs ~spec:cspec ~candidates
               ()))
        jobs_grid)

let prop_random_search_jobs_invariant =
  QCheck.Test.make ~name:"random_search identical across jobs" ~count:25
    arbitrary_spec (fun spec ->
      let cspec, candidates = model_of spec in
      let run jobs =
        Dse.Parallel.random_search_compiled ~jobs ~seed:spec.seed ~iterations:100
          ~spec:cspec ~candidates ()
      in
      let reference = run 1 in
      reference.Dse.Explore.evaluations = 100
      && List.for_all (fun jobs -> same_result reference (run jobs)) jobs_grid)

let prop_sa_jobs_invariant =
  QCheck.Test.make ~name:"simulated_annealing identical across jobs" ~count:25
    arbitrary_spec (fun spec ->
      let cspec, candidates = model_of spec in
      let init = List.map (fun (g, options) -> (g, List.hd options)) candidates in
      let run jobs =
        Dse.Parallel.simulated_annealing_compiled ~jobs ~seed:spec.seed
          ~iterations:64 ~spec:cspec ~candidates ~init ()
      in
      let reference = run 1 in
      List.for_all (fun jobs -> same_result reference (run jobs)) jobs_grid)

let history_invariants (r : Dse.Explore.result) =
  let rec ok prev_index prev_cost = function
    | [] -> true
    | (index, cost) :: rest ->
      index > prev_index && index >= 1
      && index <= r.Dse.Explore.evaluations
      && cost < prev_cost
      && ok index cost rest
  in
  ok 0 infinity r.Dse.Explore.history
  &&
  match List.rev r.Dse.Explore.history with
  | [] -> r.Dse.Explore.evaluations = 0 || r.Dse.Explore.best_cost = infinity
  | (_, last) :: _ -> last = r.Dse.Explore.best_cost

let prop_merged_history_invariants =
  QCheck.Test.make ~name:"merged histories keep tracker invariants" ~count:25
    arbitrary_spec (fun spec ->
      let cspec, candidates = model_of spec in
      let init = List.map (fun (g, options) -> (g, List.hd options)) candidates in
      List.for_all history_invariants
        [
          Dse.Parallel.exhaustive_compiled ~jobs:4 ~spec:cspec ~candidates ();
          Dse.Parallel.random_search_compiled ~jobs:4 ~seed:spec.seed
            ~iterations:100 ~spec:cspec ~candidates ();
          Dse.Parallel.simulated_annealing_compiled ~jobs:4 ~seed:spec.seed
            ~iterations:64 ~spec:cspec ~candidates ~init ();
        ])

let prop_obs_evaluations_exact =
  QCheck.Test.make ~name:"merged dse.evaluations counter stays exact" ~count:15
    arbitrary_spec (fun spec ->
      let cspec, candidates = model_of spec in
      let obs = Obs.Scope.create () in
      let result =
        Dse.Parallel.exhaustive_compiled ~obs ~jobs:4 ~spec:cspec ~candidates ()
      in
      let snapshot = Obs.Metrics.snapshot (Obs.Scope.metrics obs) in
      let space =
        match Dse.Explore.space_size candidates with
        | Some n -> n
        | None -> -1
      in
      Obs.Metrics.counter_value snapshot "dse.evaluations"
      = Some result.Dse.Explore.evaluations
      && result.Dse.Explore.evaluations = space)

(* -- fixed-lattice smoke (mirrors the CI check) --------------------------- *)

let test_exhaustive_smoke () =
  let cspec, candidates =
    model_of
      {
        n_groups = 6;
        n_pes = 3;
        (* Every cycle count is 2 mod 3: all three PEs are candidates. *)
        cycles = [ 302; 47; 1_001; 8_000; 5; 779 ];
        speeds = [ 100; 125; 150 ];
        weights = List.init 36 (fun i -> (i * 7) mod 13);
        seed = 0;
      }
  in
  let serial =
    Dse.Explore.exhaustive_compiled
      ~kernel:(Dse.Compiled.compile cspec ~candidates) ()
  in
  let parallel =
    Dse.Parallel.exhaustive_compiled ~jobs:2 ~spec:cspec ~candidates ()
  in
  check int_t "all 729 points" 729 serial.Dse.Explore.evaluations;
  check bool_t "parallel == serial" true (same_result serial parallel)

(* -- pool torture --------------------------------------------------------- *)

let test_pool_map_order () =
  Dse.Pool.with_pool ~domains:4 (fun pool ->
      let results =
        Dse.Pool.map pool (List.init 100 (fun i () -> i * i))
      in
      check (Alcotest.list int_t) "results in submission order"
        (List.init 100 (fun i -> i * i))
        results)

let test_pool_error_propagation_and_reuse () =
  let pool = Dse.Pool.create ~domains:4 in
  check int_t "pool size" 4 (Dse.Pool.size pool);
  (* Several tasks raise; the first failing index's exception must
     propagate (deterministically) after the batch drains... *)
  let tasks =
    List.init 50 (fun i () ->
        if i mod 7 = 3 then failwith (Printf.sprintf "task %d" i) else i)
  in
  (match Dse.Pool.map pool tasks with
  | _ -> Alcotest.fail "expected a task failure to propagate"
  | exception Failure msg -> check Alcotest.string "first failure wins" "task 3" msg);
  (* ...and the pool survives for the next batch. *)
  let again = Dse.Pool.map pool (List.init 20 (fun i () -> i + 1)) in
  check (Alcotest.list int_t) "pool reusable after failure"
    (List.init 20 (fun i -> i + 1))
    again;
  Dse.Pool.shutdown pool;
  Dse.Pool.shutdown pool;
  (* shutdown is idempotent *)
  check int_t "no workers after shutdown" 0 (Dse.Pool.size pool);
  match Dse.Pool.map pool [ (fun () -> 0) ] with
  | _ -> Alcotest.fail "map after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_pool_torture_rounds () =
  (* Many small batches through one pool, with failures interleaved:
     exercises requeue/wakeup paths and clean per-batch completion. *)
  Dse.Pool.with_pool ~domains:4 (fun pool ->
      for round = 1 to 25 do
        let n = 1 + (round mod 8) in
        if round mod 5 = 0 then (
          match
            Dse.Pool.map pool
              (List.init n (fun i () ->
                   if i = n - 1 then raise Exit else i))
          with
          | _ -> Alcotest.fail "expected Exit"
          | exception Exit -> ())
        else
          let got = Dse.Pool.map pool (List.init n (fun i () -> i + round)) in
          check (Alcotest.list int_t)
            (Printf.sprintf "round %d" round)
            (List.init n (fun i -> i + round))
            got
      done)

let test_with_pool_shuts_down_on_exception () =
  match
    Dse.Pool.with_pool ~domains:2 (fun pool ->
        ignore (Dse.Pool.map pool [ (fun () -> failwith "boom") ]);
        0)
  with
  | _ -> Alcotest.fail "expected the failure to escape with_pool"
  | exception Failure msg -> check Alcotest.string "error escapes" "boom" msg

let test_pool_create_guard () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Dse.Pool.create: need at least one domain") (fun () ->
      ignore (Dse.Pool.create ~domains:0))

let () =
  Alcotest.run "dse_parallel"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_exhaustive_matches_serial;
          QCheck_alcotest.to_alcotest prop_random_search_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_sa_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_merged_history_invariants;
          QCheck_alcotest.to_alcotest prop_obs_evaluations_exact;
          Alcotest.test_case "fixed-lattice smoke" `Quick test_exhaustive_smoke;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "errors propagate, pool reusable" `Quick
            test_pool_error_propagation_and_reuse;
          Alcotest.test_case "torture rounds" `Quick test_pool_torture_rounds;
          Alcotest.test_case "with_pool cleans up on exception" `Quick
            test_with_pool_shuts_down_on_exception;
          Alcotest.test_case "create guard" `Quick test_pool_create_guard;
        ] );
    ]
