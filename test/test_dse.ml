(* Tests for the design-space exploration library: deterministic RNG,
   cost model, constraint handling, search algorithms (all run through
   the compiled kernel; test_dse_compiled.ml holds them bit-identical
   to the closure-scored oracle). *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-9

(* -- rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let seq seed = List.init 20 (fun _ -> Dse.Rng.int (Dse.Rng.create seed) 100) in
  ignore (seq 1);
  let a = Dse.Rng.create 42 and b = Dse.Rng.create 42 in
  let draw r = List.init 50 (fun _ -> Dse.Rng.int r 1000) in
  check (Alcotest.list int_t) "same seed, same sequence" (draw a) (draw b);
  let c = Dse.Rng.create 43 in
  check bool_t "different seed differs" true (draw (Dse.Rng.create 42) <> draw c)

let test_rng_bounds () =
  let r = Dse.Rng.create 7 in
  for _ = 1 to 1000 do
    let n = Dse.Rng.int r 13 in
    if n < 0 || n >= 13 then Alcotest.failf "out of range: %d" n;
    let f = Dse.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Dse.Rng.int: non-positive bound") (fun () ->
      ignore (Dse.Rng.int r 0))

let test_rng_pick_shuffle () =
  let r = Dse.Rng.create 5 in
  let items = [ 1; 2; 3; 4; 5 ] in
  check bool_t "pick member" true (List.mem (Dse.Rng.pick r items) items);
  let shuffled = Dse.Rng.shuffle r items in
  check (Alcotest.list int_t) "shuffle is a permutation" items
    (List.sort compare shuffled)

let test_rng_split_disjoint () =
  (* 64 split streams from one seed: pairwise-disjoint prefixes (no draw
     of any stream's first 16 appears in any other stream's first 16). *)
  let prefixes =
    List.init 64 (fun stream ->
        let r = Dse.Rng.split ~seed:42 ~stream in
        List.init 16 (fun _ -> Dse.Rng.int r (1 lsl 30)))
  in
  let all = List.concat prefixes in
  check int_t "all 1024 draws distinct" 1024
    (List.length (List.sort_uniq compare all));
  (* Stream 0 is not the base sequence of the raw seed either. *)
  let base = List.init 16 (fun _ -> Dse.Rng.int (Dse.Rng.create 42) (1 lsl 30)) in
  check bool_t "stream 0 differs from create" true
    (List.nth prefixes 0 <> base)

let test_rng_split_disjoint_10k () =
  (* Heavier variant: 10k draws per stream from the full int range stay
     disjoint across streams (a cross-stream repeat would point at
     correlated splitmix derivations, not bad luck: the birthday bound
     for 40k draws over 2^62 values is ~2e-10). *)
  let streams = 4 and draws = 10_000 in
  let seen : (int, int) Hashtbl.t = Hashtbl.create (streams * draws) in
  let collisions = ref 0 in
  for stream = 0 to streams - 1 do
    let r = Dse.Rng.split ~seed:99 ~stream in
    for _ = 1 to draws do
      let v = Dse.Rng.int r max_int in
      (match Hashtbl.find_opt seen v with
      | Some s when s <> stream -> incr collisions
      | Some _ | None -> ());
      Hashtbl.replace seen v stream
    done
  done;
  check int_t "no cross-stream collisions in 40k draws" 0 !collisions

let test_rng_split_stable () =
  (* Same (seed, stream) -> same sequence, run to run. *)
  let draw () =
    let r = Dse.Rng.split ~seed:7 ~stream:13 in
    List.init 32 (fun _ -> Dse.Rng.int r 1_000_000)
  in
  check (Alcotest.list int_t) "split is reproducible" (draw ()) (draw ());
  check int_t "split_seed matches split" (Dse.Rng.int (Dse.Rng.split ~seed:7 ~stream:13) 1_000_000)
    (Dse.Rng.int (Dse.Rng.create (Dse.Rng.split_seed ~seed:7 ~stream:13)) 1_000_000);
  Alcotest.check_raises "negative stream"
    (Invalid_argument "Dse.Rng.split: negative stream index") (fun () ->
      ignore (Dse.Rng.split ~seed:1 ~stream:(-1)))

(* -- cost model ----------------------------------------------------------- *)

let profile_data =
  {
    Dse.Cost.group_cycles = [ ("g1", 1000L); ("g2", 1000L); ("g3", 100L) ];
    Dse.Cost.comm = [ (("g1", "g2"), 50); (("g2", "g3"), 10) ];
  }

let flat_platform =
  {
    Dse.Cost.pe_infos =
      [
        { Dse.Cost.pe = "cpu1"; speed = 100.0; accelerator = false };
        { Dse.Cost.pe = "cpu2"; speed = 100.0; accelerator = false };
      ];
    Dse.Cost.hop_distance = (fun a b -> if a = b then 0 else 1);
  }

let cost = Dse.Cost.cost ~profile:profile_data ~platform:flat_platform

let test_cost_colocated_no_comm () =
  let together = [ ("g1", "cpu1"); ("g2", "cpu1"); ("g3", "cpu1") ] in
  check float_t "colocated = pure makespan" 21.0 (cost together)

let test_cost_split_adds_comm () =
  let split = [ ("g1", "cpu1"); ("g2", "cpu2"); ("g3", "cpu2") ] in
  (* makespan 11.0 (cpu2 has 1100 cycles at speed 100) + 50 remote. *)
  check float_t "split cost" 61.0 (cost split);
  check bool_t "balance helps makespan only with cheap comm" true
    (Dse.Cost.cost ~alpha:1.0 ~beta:0.0 ~profile:profile_data
       ~platform:flat_platform split
    < Dse.Cost.cost ~alpha:1.0 ~beta:0.0 ~profile:profile_data
        ~platform:flat_platform
        [ ("g1", "cpu1"); ("g2", "cpu1"); ("g3", "cpu1") ])

let test_cost_faster_pe_attracts () =
  let fast_platform =
    {
      flat_platform with
      Dse.Cost.pe_infos =
        [
          { Dse.Cost.pe = "cpu1"; speed = 1000.0; accelerator = false };
          { Dse.Cost.pe = "cpu2"; speed = 10.0; accelerator = false };
        ];
    }
  in
  let on_fast = [ ("g1", "cpu1"); ("g2", "cpu1"); ("g3", "cpu1") ] in
  let on_slow = [ ("g1", "cpu2"); ("g2", "cpu2"); ("g3", "cpu2") ] in
  check bool_t "fast PE cheaper" true
    (Dse.Cost.cost ~profile:profile_data ~platform:fast_platform on_fast
    < Dse.Cost.cost ~profile:profile_data ~platform:fast_platform on_slow)

let test_cost_unknown_pe_raises () =
  (* Unknown PEs used to be silently priced at speed 1.0. *)
  Alcotest.check_raises "unknown PE"
    (Invalid_argument "Dse.Cost.cost: unknown PE cpuX") (fun () ->
      ignore (cost [ ("g1", "cpu1"); ("g2", "cpuX"); ("g3", "cpu1") ]))

let test_unreachable_hops_constant () =
  check int_t "named constant" 1_000 Dse.Cost.unreachable_hops;
  (* of_view prices PEs with no segment attachment at the constant. *)
  let platform =
    Dse.Cost.of_view
      (Tut_profile.Builder.view
         (Tutmac.Scenario.build_model Tutmac.Scenario.default))
  in
  check int_t "detached PE is unreachable" Dse.Cost.unreachable_hops
    (platform.Dse.Cost.hop_distance "processor1" "ghost")

(* -- view-derived constraints --------------------------------------------- *)

let tutmac_view () =
  Tut_profile.Builder.view (Tutmac.Scenario.build_model Tutmac.Scenario.default)

let test_of_view_platform () =
  let platform = Dse.Cost.of_view (tutmac_view ()) in
  check int_t "four PEs" 4 (List.length platform.Dse.Cost.pe_infos);
  check int_t "same pe distance" 0
    (platform.Dse.Cost.hop_distance "processor1" "processor1");
  check int_t "same segment distance" 1
    (platform.Dse.Cost.hop_distance "processor1" "processor2");
  check int_t "across bridge distance" 3
    (platform.Dse.Cost.hop_distance "processor1" "processor3");
  let accel =
    List.find
      (fun (i : Dse.Cost.pe_info) -> i.Dse.Cost.pe = "accelerator1")
      platform.Dse.Cost.pe_infos
  in
  check bool_t "accelerator flagged" true accel.Dse.Cost.accelerator;
  check bool_t "accelerator faster" true (accel.Dse.Cost.speed > 500.0)

let test_candidates_respect_hw () =
  let view = tutmac_view () in
  let candidates = Dse.Cost.candidates view in
  check (Alcotest.list Alcotest.string) "group4 fixed on accelerator"
    [ "accelerator1" ]
    (List.assoc "group4" candidates);
  let group1_options = List.assoc "group1" candidates in
  check bool_t "general groups avoid accelerator" false
    (List.mem "accelerator1" group1_options);
  check int_t "three processors available" 3 (List.length group1_options)

let test_current_assignment_and_feasible () =
  let view = tutmac_view () in
  let current = Dse.Cost.current_assignment view in
  check (Alcotest.option Alcotest.string) "group1 on processor1"
    (Some "processor1")
    (List.assoc_opt "group1" current);
  check bool_t "paper mapping feasible" true (Dse.Cost.feasible view current);
  check bool_t "hw group on cpu infeasible" false
    (Dse.Cost.feasible view [ ("group4", "processor1") ]);
  check bool_t "general group on accel infeasible" false
    (Dse.Cost.feasible view [ ("group1", "accelerator1") ])

(* -- search algorithms ------------------------------------------------------ *)

let candidates3 =
  [ ("g1", [ "cpu1"; "cpu2" ]); ("g2", [ "cpu1"; "cpu2" ]); ("g3", [ "cpu1"; "cpu2" ]) ]

let kernel_of ?(profile = profile_data) ?(platform = flat_platform) candidates =
  Dse.Compiled.compile (Dse.Compiled.spec ~profile ~platform ()) ~candidates

let kernel3 = kernel_of candidates3

let test_exhaustive_finds_optimum () =
  let result = Dse.Explore.exhaustive_compiled ~kernel:kernel3 () in
  check int_t "evaluated all 8" 8 result.Dse.Explore.evaluations;
  (* Optimal: colocate g1/g2 (heavy comm), g3 anywhere near g2.  Best is
     everything on one PE? makespan 21 vs split (g3 apart): makespan
     20 + comm 10 = 30. So all-on-one = 21 is optimal. *)
  check float_t "optimal cost" 21.0 result.Dse.Explore.best_cost

let test_greedy_improves () =
  let init = [ ("g1", "cpu1"); ("g2", "cpu2"); ("g3", "cpu2") ] in
  let result = Dse.Explore.greedy_compiled ~kernel:kernel3 ~init () in
  check bool_t "no worse than init" true (result.Dse.Explore.best_cost <= cost init);
  check float_t "greedy reaches optimum here" 21.0 result.Dse.Explore.best_cost

let test_random_search_bounded () =
  let result =
    Dse.Explore.random_search_compiled ~seed:3 ~iterations:50 ~kernel:kernel3 ()
  in
  check int_t "iteration budget respected" 50 result.Dse.Explore.evaluations;
  check bool_t "found something" true (result.Dse.Explore.best_cost < infinity)

let test_sa_deterministic_and_good () =
  let init = [ ("g1", "cpu1"); ("g2", "cpu2"); ("g3", "cpu1") ] in
  let run () =
    Dse.Explore.simulated_annealing_compiled ~seed:11 ~iterations:300
      ~kernel:kernel3 ~init ()
  in
  let a = run () and b = run () in
  check bool_t "deterministic" true
    (a.Dse.Explore.best = b.Dse.Explore.best
    && a.Dse.Explore.best_cost = b.Dse.Explore.best_cost);
  check float_t "reaches optimum" 21.0 a.Dse.Explore.best_cost

(* Neighbour enumeration order is part of greedy's tie-break contract
   (first minimum wins) — pin it exactly.  Every neighbour of the init
   is priced strictly below the one scored before it, so each becomes a
   best-so-far and the history lists them in scoring order: (g1 -> b),
   then (g2 -> a), then (g2 -> c) — groups in candidates order, options
   in option order, the current PE skipped. *)
let abc_platform =
  let hops = [ (("a", "b"), 5); (("a", "c"), 1); (("b", "c"), 3) ] in
  {
    Dse.Cost.pe_infos =
      List.map
        (fun (pe, speed) -> { Dse.Cost.pe; speed; accelerator = false })
        [ ("a", 100.0); ("b", 50.0); ("c", 1000.0) ];
    Dse.Cost.hop_distance =
      (fun x y ->
        if x = y then 0
        else
          match List.assoc_opt (x, y) hops with
          | Some h -> h
          | None -> List.assoc (y, x) hops);
  }

let test_moves_enumeration_order () =
  let profile =
    { Dse.Cost.group_cycles = [ ("g1", 1000L); ("g2", 1000L) ];
      Dse.Cost.comm = [ (("g1", "g2"), 5) ] }
  in
  let kernel =
    kernel_of ~profile ~platform:abc_platform
      [ ("g1", [ "a"; "b" ]); ("g2", [ "a"; "b"; "c" ]) ]
  in
  let result =
    Dse.Explore.greedy_compiled ~kernel ~init:[ ("g1", "a"); ("g2", "b") ] ()
  in
  (* (a,b) 20 + 25 remote; (b,b) 40; (a,a) 20; (a,c) 10 + 5 remote. *)
  check
    (Alcotest.list (Alcotest.pair int_t float_t))
    "init, then (b,b), (a,a), (a,c) in scoring order"
    [ (1, 45.0); (2, 40.0); (3, 20.0); (4, 15.0) ]
    result.Dse.Explore.history;
  (* Round 2 from (a,c) scores its three neighbours and stops. *)
  check int_t "current PE never re-scored" 7 result.Dse.Explore.evaluations

let test_greedy_tie_break_first_move_wins () =
  (* Two identical groups on two identical PEs: moving either group off
     the shared PE halves the makespan to the same cost (10.0).  The
     descent must keep the first minimum in scoring order, i.e. move
     g1. *)
  let profile =
    {
      Dse.Cost.group_cycles = [ ("g1", 1000L); ("g2", 1000L) ];
      Dse.Cost.comm = [];
    }
  in
  let candidates = [ ("g1", [ "cpu1"; "cpu2" ]); ("g2", [ "cpu1"; "cpu2" ]) ] in
  let init = [ ("g1", "cpu1"); ("g2", "cpu1") ] in
  let result =
    Dse.Explore.greedy_compiled ~kernel:(kernel_of ~profile candidates) ~init ()
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "first tied improvement wins"
    [ ("g1", "cpu2"); ("g2", "cpu1") ]
    result.Dse.Explore.best;
  (* init (1 eval) + round 1 (2 neighbours, improves) + round 2 (2
     neighbours, no improvement) = 5 evaluations, improvements at 1, 2. *)
  check int_t "deterministic evaluation count" 5 result.Dse.Explore.evaluations;
  check
    (Alcotest.list (Alcotest.pair int_t float_t))
    "history pins the descent" [ (1, 20.0); (2, 10.0) ]
    result.Dse.Explore.history;
  (* Either tied move gives that result; here the two tied moves (g1 ->
     cpu2, g2 -> cpu3, both 20.0) lead to different descents: taking g1's
     finds the all-split 10.0 at evaluation 5, taking g2's would find it
     at evaluation 4. *)
  let platform =
    {
      flat_platform with
      Dse.Cost.pe_infos =
        List.map
          (fun pe -> { Dse.Cost.pe; speed = 100.0; accelerator = false })
          [ "cpu1"; "cpu2"; "cpu3" ];
    }
  in
  let profile =
    { profile with Dse.Cost.group_cycles = ("g3", 1000L) :: profile.Dse.Cost.group_cycles }
  in
  let kernel =
    kernel_of ~profile ~platform
      [ ("g1", [ "cpu1"; "cpu2" ]); ("g2", [ "cpu1"; "cpu3" ]); ("g3", [ "cpu1" ]) ]
  in
  check
    (Alcotest.list (Alcotest.pair int_t float_t))
    "the first tied move is the one taken" [ (1, 30.0); (2, 20.0); (5, 10.0) ]
    (Dse.Explore.greedy_compiled ~kernel
       ~init:[ ("g1", "cpu1"); ("g2", "cpu1"); ("g3", "cpu1") ]
       ())
      .Dse.Explore.history

let test_sa_prefilters_movable_groups () =
  (* g1 is fixed (single candidate); every iteration must still propose
     a real move on g2 instead of burning the draw on g1. *)
  let candidates = [ ("g1", [ "cpu1" ]); ("g2", [ "cpu1"; "cpu2" ]) ] in
  let init = [ ("g1", "cpu1"); ("g2", "cpu2") ] in
  let result =
    Dse.Explore.simulated_annealing_compiled ~seed:11 ~iterations:50
      ~kernel:(kernel_of candidates) ~init ()
  in
  check int_t "init + one proposal per iteration" 51
    result.Dse.Explore.evaluations;
  (* All groups fixed: nothing to anneal, only the init is scored. *)
  let frozen =
    Dse.Explore.simulated_annealing_compiled ~seed:11 ~iterations:50
      ~kernel:(kernel_of [ ("g1", [ "cpu1" ]); ("g2", [ "cpu2" ]) ])
      ~init:[ ("g1", "cpu1"); ("g2", "cpu2") ]
      ()
  in
  check int_t "all-fixed lattice degenerates to the init" 1
    frozen.Dse.Explore.evaluations;
  check bool_t "init is the result" true
    (frozen.Dse.Explore.best = [ ("g1", "cpu1"); ("g2", "cpu2") ])

let test_history_monotone () =
  let result =
    Dse.Explore.random_search_compiled ~seed:9 ~iterations:200 ~kernel:kernel3 ()
  in
  let costs = List.map snd result.Dse.Explore.history in
  check bool_t "history strictly improves" true
    (fst
       (List.fold_left
          (fun (ok, prev) c -> (ok && c < prev, c))
          (true, infinity) costs))

let test_exhaustive_guards () =
  Alcotest.check_raises "empty candidate list"
    (Invalid_argument "Dse.Explore.exhaustive: a group has no candidate PE")
    (fun () ->
      ignore
        (Dse.Explore.exhaustive_compiled ~kernel:(kernel_of [ ("g", []) ]) ()))

let test_space_size_overflow () =
  check (Alcotest.option int_t) "small lattice exact" (Some 8)
    (Dse.Explore.space_size candidates3);
  (* 3^41 overflows a 63-bit int; the old product wrapped silently and
     could sail past the <= 1_000_000 guard. *)
  let huge =
    List.init 41 (fun i -> (Printf.sprintf "g%d" i, [ "a"; "b"; "c" ]))
  in
  check (Alcotest.option int_t) "overflow detected" None
    (Dse.Explore.space_size huge);
  Alcotest.check_raises "exhaustive raises the existing error"
    (Invalid_argument "Dse.Explore.exhaustive: space too large") (fun () ->
      ignore
        (Dse.Explore.exhaustive_compiled
           ~kernel:(kernel_of ~platform:abc_platform huge) ()))

(* -- apply -------------------------------------------------------------------- *)

let test_apply_remaps_model () =
  let builder = Tutmac.Scenario.build_model Tutmac.Scenario.default in
  let view = Tut_profile.Builder.view builder in
  let target =
    [
      ("group1", "processor1");
      ("group2", "processor3");
      (* moved from processor2 *)
      ("group3", "processor2");
      (* moved from processor1 *)
      ("group4", "accelerator1");
    ]
  in
  check bool_t "target feasible" true (Dse.Cost.feasible view target);
  let builder' = Dse.Explore.apply builder target in
  let view' = Tut_profile.Builder.view builder' in
  check bool_t "remapped" true
    (List.sort compare (Dse.Cost.current_assignment view')
    = List.sort compare target);
  (* Still valid against the design rules. *)
  check bool_t "still valid" true
    (Tut_profile.Rules.is_valid (Tut_profile.Builder.validate builder'))

let test_apply_rejects_infeasible () =
  let builder = Tutmac.Scenario.build_model Tutmac.Scenario.default in
  Alcotest.check_raises "constraint violation"
    (Invalid_argument "Dse.Explore.apply: assignment violates constraints")
    (fun () ->
      ignore (Dse.Explore.apply builder [ ("group4", "processor1") ]))

let test_apply_respects_fixed () =
  (* group4's mapping is Fixed in the scenario model; apply must keep it. *)
  let builder = Tutmac.Scenario.build_model Tutmac.Scenario.default in
  let view = Tut_profile.Builder.view builder in
  let m4 =
    List.find
      (fun (m : Tut_profile.View.mapping) ->
        match Tut_profile.View.find_group view m.Tut_profile.View.group with
        | Some g -> g.Tut_profile.View.part = "group4"
        | None -> false)
      view.Tut_profile.View.mappings
  in
  check bool_t "group4 mapping is fixed" true m4.Tut_profile.View.fixed

(* Property: greedy never returns something worse than its initial
   assignment. *)
let prop_greedy_never_worse =
  QCheck.Test.make ~name:"greedy never worse than init" ~count:100
    QCheck.(triple (int_range 0 1) (int_range 0 1) (int_range 0 1))
    (fun (a, b, c) ->
      let pe n = if n = 0 then "cpu1" else "cpu2" in
      let init = [ ("g1", pe a); ("g2", pe b); ("g3", pe c) ] in
      let result = Dse.Explore.greedy_compiled ~kernel:kernel3 ~init () in
      result.Dse.Explore.best_cost <= cost init)

let () =
  Alcotest.run "dse"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "split disjoint" `Quick test_rng_split_disjoint;
          Alcotest.test_case "split disjoint 10k" `Quick
            test_rng_split_disjoint_10k;
          Alcotest.test_case "split stable" `Quick test_rng_split_stable;
        ] );
      ( "cost",
        [
          Alcotest.test_case "colocated" `Quick test_cost_colocated_no_comm;
          Alcotest.test_case "split adds comm" `Quick test_cost_split_adds_comm;
          Alcotest.test_case "faster pe" `Quick test_cost_faster_pe_attracts;
          Alcotest.test_case "unknown pe raises" `Quick
            test_cost_unknown_pe_raises;
          Alcotest.test_case "unreachable hops constant" `Quick
            test_unreachable_hops_constant;
          Alcotest.test_case "of_view platform" `Quick test_of_view_platform;
          Alcotest.test_case "candidates" `Quick test_candidates_respect_hw;
          Alcotest.test_case "feasibility" `Quick test_current_assignment_and_feasible;
        ] );
      ( "explore",
        [
          Alcotest.test_case "exhaustive optimum" `Quick test_exhaustive_finds_optimum;
          Alcotest.test_case "greedy improves" `Quick test_greedy_improves;
          Alcotest.test_case "random bounded" `Quick test_random_search_bounded;
          Alcotest.test_case "sa deterministic" `Quick test_sa_deterministic_and_good;
          Alcotest.test_case "moves enumeration order" `Quick
            test_moves_enumeration_order;
          Alcotest.test_case "greedy tie-break" `Quick
            test_greedy_tie_break_first_move_wins;
          Alcotest.test_case "sa movable prefilter" `Quick
            test_sa_prefilters_movable_groups;
          Alcotest.test_case "history monotone" `Quick test_history_monotone;
          Alcotest.test_case "guards" `Quick test_exhaustive_guards;
          Alcotest.test_case "space_size overflow" `Quick test_space_size_overflow;
          QCheck_alcotest.to_alcotest prop_greedy_never_worse;
        ] );
      ( "apply",
        [
          Alcotest.test_case "remaps model" `Quick test_apply_remaps_model;
          Alcotest.test_case "rejects infeasible" `Quick test_apply_rejects_infeasible;
          Alcotest.test_case "respects fixed" `Quick test_apply_respects_fixed;
        ] );
    ]
