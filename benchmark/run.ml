(* Benchmark of the TUT-Profile flow; see README.md.

     run.exe --workload W --seed N --seconds S --trace 0|1 [--trace-file F]
       one workload in this process.  The last line of standard output
       is one JSON object: the end-to-end metrics with --trace 0, the
       per-layer metrics of a traced run with --trace 1.
     run.exe --seed N [--seconds S] [--trace 0|1]
       every workload, each in its own child process, one after another.
     run.exe --quick
       every workload at tiny sizes: invariants and determinism only.

   A rep that raises, returns an error, breaks an invariant or produces a
   digest other than the first rep's (or the one pinned in
   benchmark/expected.txt) counts as failed, and the command exits 1. *)

let now = Monotonic_clock.now
let since t0 = Spans.seconds_between t0 (now ())

(* ---- statistics ----------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (the exclusive method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

type metric = { name : string; unit_ : string; samples : float list }

let metric name unit_ samples = { name; unit_; samples }
let value m = median m.samples

(* ---- one workload ---------------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  digest : string;
  table : string list;  (* the traced run's per-layer table *)
  metrics : metric list;
}

(* Self-time shares of the traced rep, one per public call wrapped in a
   span, in the order BENCHMARK.json lists them. *)
let layers =
  [
    "core.build"; "core.validate"; "core.view"; "codegen.lower"; "codegen.create";
    "codegen.run"; "profiler.groups"; "profiler.report"; "profiler.render";
    "profiler.flow_report"; "lint.analyze"; "xmi.write"; "xmi.read"; "dse.compile";
    "dse.search"; "dse.apply"; "mc.net_build"; "mc.explore"; "wlan.run"; "wlan.render";
  ]

(* Counters summed over the live scope of one rep: (metric, name prefix,
   name suffix). *)
let scope_counters =
  [
    ("sim.engine.events_fired", "sim.engine.events_fired", "");
    ("sim.engine.events_scheduled", "sim.engine.events_scheduled", "");
    ("sim.rtos.jobs", "sim.rtos.", ".jobs");
    ("sim.rtos.preemptions", "sim.rtos.", ".preemptions");
    ("hibi.words", "hibi.", ".words");
    ("hibi.grants", "hibi.", ".grants");
    ("app.signals_sent", "app.signals_sent", "");
  ]

let counter_sum snapshot prefix suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.Metrics.Counter n
        when String.starts_with ~prefix name && String.ends_with ~suffix name ->
        acc + n
      | _ -> acc)
    0 snapshot

let workload_counts =
  [
    "obs.flow.minted"; "obs.flow.hops"; "fault.injected"; "fault.retransmits";
    "dse.evaluations"; "mc.states"; "mc.steps"; "mc.dedup_ratio"; "mc.frontier_peak";
    "wlan.attempts"; "wlan.collision_ratio";
  ]

let unit_of name =
  if String.ends_with ~suffix:"_pct" name then "%"
  else if String.ends_with ~suffix:"_ratio" name then "ratio"
  else if String.ends_with ~suffix:"mb_per_s" name then "MB/s"
  else if String.ends_with ~suffix:"_per_s" name then "1/s"
  else if String.ends_with ~suffix:"_s" name then "s"
  else "count"

let per_layer_names =
  List.map (fun l -> l ^ "_pct") layers
  @ [ "trace.rep_s"; "trace.overhead_pct"; "trace.attributed_pct" ]
  @ [
      "sim.trace.records_per_s"; "sim.engine.events_per_s"; "efsm.dispatches_per_s";
      "crc.mb_per_s"; "sim.unattributed_pct";
    ]
  @ List.map (fun (m, _, _) -> m) scope_counters
  @ [ "sim.engine.dead_ratio"; "dse.accept_ratio" ]
  @ workload_counts
  @ [ "gc.minor_collections"; "gc.major_collections" ]

type sample = {
  rep_s : float;
  op_s : float;  (* seconds of the calls doing the work items *)
  minor_words : float;
  minor_gcs : float;
  major_gcs : float;
}

let measure ~seconds ~traced ~setups ~setup_seconds ~min_reps ~pinned ~trace_file (w : Workloads.t) =
  let full_size = seconds > 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref pinned and table = ref [] in
  let fail what =
    incr failed;
    Printf.printf "%s FAIL %s\n%!" w.name what
  in
  (* One rep from a collected heap, or [None] when it failed.  Callers
     keep what they need of the outcome and drop the rest, so no rep's
     results stay alive while the next one runs. *)
  let rep spans obs =
    incr attempted;
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let t0 = now () in
    match Spans.span spans "rep" (fun () -> w.rep spans obs) with
    | exception e ->
      fail (Printexc.to_string e);
      None
    | finish -> (
      let dt = since t0 in
      let gc1 = Gc.quick_stat () in
      match finish () with
      | exception e ->
        fail (Printexc.to_string e);
        None
      | (o : Workloads.outcome) ->
        let digest_problem =
          match !reference with
          | None ->
            reference := Some o.digest;
            []
          | Some d when d = o.digest -> []
          | Some d -> [ Printf.sprintf "digest %s differs from %s" o.digest d ]
        in
        match o.problems @ digest_problem with
        | [] ->
          Some
            ( {
                rep_s = dt;
                op_s = Option.value o.op_s ~default:dt;
                minor_words = gc1.minor_words -. gc0.minor_words;
                minor_gcs = float_of_int (gc1.minor_collections - gc0.minor_collections);
                major_gcs = float_of_int (gc1.major_collections - gc0.major_collections);
              },
              o )
        | problems ->
          fail (String.concat "; " problems);
          None)
  in
  let loop f =
    let t0 = now () in
    let n = ref 0 in
    while !n < min_reps || since t0 < seconds do
      f !n;
      incr n
    done
  in
  (* The warm-up rep is decomposed, so it also counts engine events.  The
     heap's high-water mark is read right after it: later reps run from a
     collected heap, and reading it at the end would let the number of
     reps that fit in [seconds] move it. *)
  let ops =
    match rep (Spans.create ()) None with
    | Some (_, o) -> Option.value o.ops ~default:0
    | None -> 0
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let metrics =
    if not traced then begin
      (* Set-up takes well under a millisecond on most workloads, so it is
         repeated for [setup_seconds] (at least [setups] times), starting
         from a collected heap so the warm-up rep's garbage is not swept
         on its clock. *)
      let setup_s =
        Gc.full_major ();
        w.setup ();
        let samples = ref [] and t_start = now () in
        while List.length !samples < setups || since t_start < setup_seconds do
          let t0 = now () in
          w.setup ();
          samples := since t0 :: !samples
        done;
        !samples
      in
      let reps = ref [] in
      loop (fun _ -> Option.iter (fun (s, _) -> reps := s :: !reps) (rep (Spans.disabled ()) None));
      let per f = List.map f !reps in
      let ops = float_of_int ops in
      [
        metric "setup_s" "s" setup_s;
        metric "run_s" "s" (per (fun s -> s.rep_s));
        metric "ops_per_s" "1/s" (per (fun s -> ops /. s.op_s));
        metric "minor_words_per_op" "words" (per (fun s -> s.minor_words /. ops));
        metric "peak_heap_mb" "MB" [ peak_heap_mb ];
      ]
    end
    else begin
      let spans = Spans.create () in
      let traced_reps = ref [] and untraced_s = ref [] in
      loop (fun i ->
          Spans.set_rep spans i;
          Option.iter (fun (s, _) -> traced_reps := s :: !traced_reps) (rep spans None);
          Option.iter (fun (s, _) -> untraced_s := s.rep_s :: !untraced_s)
            (rep (Spans.disabled ()) None));
      (* Counters come from one more rep with a live scope: they are
         counts, identical on every rep, and the scope slows the run. *)
      let scope = Obs.Scope.create () in
      let counts =
        match rep (Spans.disabled ()) (Some scope) with
        | Some (_, o) -> o.counts
        | None -> []
      in
      let snapshot = Obs.Metrics.snapshot (Obs.Scope.metrics scope) in
      (* And the replays from one more traced rep's own simulation log,
         the calendar held at the peak population the scope saw. *)
      let window =
        match Obs.Metrics.find snapshot "sim.engine.heap_size" with
        | Some (Gauge { peak_value; _ }) -> max 1 peak_value
        | _ -> 1
      in
      let replay =
        match rep (Spans.create ()) None with
        | Some (_, { sim = Some input; _ }) -> Some (Replay.run ~window input)
        | _ -> None
      in
      let by_rep = Spans.self_times spans in
      let share f = List.map (fun (total, selves) -> 100.0 *. f selves /. total) by_rep in
      let self name selves =
        Option.fold ~none:0.0 ~some:fst (List.assoc_opt name selves)
      in
      let attributed selves =
        List.fold_left (fun acc (n, (s, _)) -> if n = "rep" then acc else acc +. s) 0.0 selves
      in
      (* The per-layer table: median self seconds and calls per rep, and
         the share of the traced rep; "rep" is the time between spans. *)
      table :=
        List.filter_map
          (fun name ->
            let per f =
              median (List.map (fun (_, selves) -> f (List.assoc_opt name selves)) by_rep)
            in
            let calls = per (Option.fold ~none:0.0 ~some:(fun (_, n) -> float_of_int n)) in
            if calls = 0.0 then None
            else
              Some
                (Printf.sprintf "layer %-20s self_s=%.6f calls=%g share=%.2f%%" name
                   (per (Option.fold ~none:0.0 ~some:fst))
                   calls
                   (median (share (self name)))))
          ("rep" :: layers);
      let rep_s = List.map fst by_rep in
      let untraced = median !untraced_s in
      (* The decomposition must time what [run_builder] does: its spans
         add up to the untraced rep within 10%.  Checked at full size,
         where reps are long enough to resolve 10%, on the fastest rep
         of each kind, which contention from other processes cannot
         make faster. *)
      let fastest xs = List.fold_left min infinity xs in
      let attributed_s = fastest (List.map (fun (_, selves) -> attributed selves) by_rep) in
      if full_size
         && String.starts_with ~prefix:"tutmac" w.name
         && Float.abs ((attributed_s /. fastest !untraced_s) -. 1.0) > 0.10
      then
        fail
          (Printf.sprintf "traced stages sum to %.4f s, untraced rep takes %.4f s"
             attributed_s (fastest !untraced_s));
      let rate n s = if n = 0 then 0.0 else float_of_int n /. s in
      let replay_metrics =
        match replay with
        | None -> []
        | Some r ->
          [
            ("sim.trace.records_per_s", rate r.records r.record_s);
            ("sim.engine.events_per_s", rate r.records r.engine_s);
            ("efsm.dispatches_per_s", rate r.dispatches r.dispatch_s);
            ("crc.mb_per_s", rate r.crc_bytes r.crc_s /. 1e6);
            ( "sim.unattributed_pct",
              100.0 *. (r.call_s -. r.record_s -. r.engine_s -. r.dispatch_s -. r.crc_s)
              /. r.call_s );
          ]
      in
      let counter n = float_of_int (counter_sum snapshot n "") in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      let accepted = counter "dse.moves_accepted" and rejected = counter "dse.moves_rejected" in
      let singles =
        replay_metrics
        @ List.map (fun (m, p, s) -> (m, float_of_int (counter_sum snapshot p s))) scope_counters
        @ [
            ( "sim.engine.dead_ratio",
              ratio (counter "sim.engine.dead_entries_dropped")
                (counter "sim.engine.events_scheduled") );
            ("dse.accept_ratio", ratio accepted (accepted +. rejected));
            ("trace.overhead_pct", 100.0 *. ((median rep_s /. untraced) -. 1.0));
          ]
        @ counts
      in
      let gc f = List.map f !traced_reps in
      let sampled =
        List.map (fun l -> (l ^ "_pct", share (self l))) layers
        @ [
            ("trace.rep_s", rep_s);
            ("trace.attributed_pct", share attributed);
            ("gc.minor_collections", gc (fun s -> s.minor_gcs));
            ("gc.major_collections", gc (fun s -> s.major_gcs));
          ]
      in
      Option.iter
        (fun path ->
          try
            Spans.write_chrome spans path;
            Printf.printf "%s trace %s (%d spans)\n" w.name path spans.count
          with Sys_error e -> Printf.printf "%s trace not written: %s\n" w.name e)
        trace_file;
      (* A layer, count or replay the workload never reaches reads 0. *)
      List.map
        (fun name ->
          let samples =
            match List.assoc_opt name sampled with
            | Some s -> s
            | None -> [ Option.value (List.assoc_opt name singles) ~default:0.0 ]
          in
          metric name (unit_of name) samples)
        per_layer_names
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    digest = Option.value !reference ~default:"";
    table = !table;
    metrics;
  }

(* ---- output ---------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result name (r : result) =
  List.iter (Printf.printf "%s %s\n" name) r.table;
  List.iter
    (fun m ->
      let q1, q3 = quartiles m.samples in
      Printf.printf "%s %s %s %s n=%d q1=%.6g median=%.6g q3=%.6g\n" name m.name
        (number (value m)) m.unit_ (List.length m.samples) q1 (value m) q3)
    r.metrics;
  Printf.printf "%s digest %s\n" name r.digest;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number (value m)) m.unit_)
          r.metrics))

let pinned_digest ~workload ~seed =
  let path = Filename.concat "benchmark" "expected.txt" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; d ] when w = workload && s = string_of_int seed -> Some d
         | _ -> None)

(* ---- entry points ------------------------------------------------------------ *)

let run_one ~name ~seed ~seconds ~traced ~trace_file =
  match Workloads.make Workloads.full ~seed name with
  | None ->
    prerr_endline ("unknown workload " ^ name);
    exit 2
  | Some w ->
    let pinned = pinned_digest ~workload:name ~seed:(if w.seeded then seed else 1) in
    let trace_file =
      if not traced then None
      else if trace_file <> "" then Some trace_file
      else begin
        let dir = Filename.concat "benchmark" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Some (Filename.concat dir (name ^ ".trace.json"))
      end
    in
    let r = measure ~seconds ~traced ~setups:21 ~setup_seconds:0.5 ~min_reps:3 ~pinned ~trace_file w in
    print_result name r;
    exit (if r.failed = 0 then 0 else 1)

let run_children ~seed ~seconds ~traced =
  let exe = Sys.executable_name in
  let ok =
    List.fold_left
      (fun ok name ->
        let args =
          [| exe; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
             Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0") |]
        in
        let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ok
        | _ -> false)
      true Workloads.names
  in
  exit (if ok then 0 else 1)

let run_quick () =
  let ok =
    List.for_all
      (fun name ->
        let w = Option.get (Workloads.make Workloads.quick ~seed:1 name) in
        List.for_all
          (fun traced ->
            let r =
              measure ~seconds:0.0 ~traced ~setups:1 ~setup_seconds:0.0 ~min_reps:1 ~pinned:None
                ~trace_file:None w
            in
            Printf.printf "quick %s trace=%b reps=%d broken=%d digest=%s\n" name traced
              r.attempted r.failed r.digest;
            r.failed = 0)
          [ false; true ])
      Workloads.names
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let trace_file = ref "" and quick = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure each workload for S seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or a traced run's per-layer metrics (1)");
      ("--trace-file", Arg.Set_string trace_file, "F Chrome trace of a traced run (default benchmark/out/W.trace.json)");
      ("--quick", Arg.Set quick, " tiny sizes, invariants and determinism only");
    ]
  in
  let usage = "run.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] | --quick" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let traced = !trace = 1 in
  if !quick then run_quick ()
  else if !workload = "" then run_children ~seed:!seed ~seconds:!seconds ~traced
  else
    run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced ~trace_file:!trace_file
