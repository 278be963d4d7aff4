(* Tests for the deterministic fault-injection subsystem: plan parsing
   and its error messages, seeded injector determinism, CRC-guarded ARQ
   recovery, watchdog + degradation re-mapping, and byte-identical
   replay from a fault seed. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let int64_t = Alcotest.int64
let string_t = Alcotest.string

let expect_error ~substrings result =
  match result with
  | Ok _ -> Alcotest.failf "expected a parse error mentioning %s"
              (String.concat ", " substrings)
  | Error msg ->
    List.iter
      (fun sub ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        if not (contains msg sub) then
          Alcotest.failf "error %S does not mention %S" msg sub)
      substrings

(* -- plan parsing ------------------------------------------------------- *)

let full_plan_json =
  {|{
  "faults": [
    {"kind": "hibi_drop", "segment": "hibisegment1", "rate": 0.1},
    {"kind": "hibi_corrupt", "segment": "*", "rate": 0.05, "max_flips": 4,
     "from_ns": 1000, "until_ns": 9000},
    {"kind": "hibi_stall", "segment": "bridge", "rate": 0.2, "max_stall_ns": 700},
    {"kind": "pe_crash", "pe": "processor2", "at_ns": 60000000},
    {"kind": "pe_slowdown", "pe": "processor1", "factor": 2.5,
     "from_ns": 10, "until_ns": 20},
    {"kind": "signal_loss", "process": "*", "rate": 0.01},
    {"kind": "signal_dup", "process": "top.x", "rate": 1},
    {"kind": "chan_loss", "terminals": "*", "rate": 0.1},
    {"kind": "chan_burst", "terminals": "0,3,9-11", "rate": 0.05,
     "max_burst_ns": 250000},
    {"kind": "term_crash", "terminals": "5-6", "at_ns": 90000000}
  ],
  "recovery": {"ack_timeout_ns": 500000, "max_retries": 7,
               "watchdog_period_ns": 3000000, "remap": false}
}|}

let test_parse_full () =
  match Fault.Plan.of_json_string full_plan_json with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check (Alcotest.list string_t) "kinds in order"
      [ "hibi_drop"; "hibi_corrupt"; "hibi_stall"; "pe_crash"; "pe_slowdown";
        "signal_loss"; "signal_dup"; "chan_loss"; "chan_burst"; "term_crash" ]
      (List.map Fault.Plan.spec_kind plan.Fault.Plan.specs);
    (match plan.Fault.Plan.specs with
    | Fault.Plan.Hibi_drop { segment; rate; window } :: _ ->
      check string_t "segment" "hibisegment1" segment;
      check (Alcotest.float 1e-9) "rate" 0.1 rate;
      check bool_t "window defaults to always" true
        (window = Fault.Plan.always)
    | _ -> Alcotest.fail "first spec is not hibi_drop");
    (match List.nth plan.Fault.Plan.specs 1 with
    | Fault.Plan.Hibi_corrupt { max_flips; window; _ } ->
      check int_t "max_flips" 4 max_flips;
      check bool_t "bounded window" true
        (window = { Fault.Plan.from_ns = 1000L; until_ns = Some 9000L })
    | _ -> Alcotest.fail "second spec is not hibi_corrupt");
    (match List.nth plan.Fault.Plan.specs 8 with
    | Fault.Plan.Chan_burst { terminals; rate; max_burst_ns; window } ->
      check string_t "selector parses to canonical form" "0,3,9-11"
        (Fault.Selector.to_string terminals);
      check bool_t "selector matches its members" true
        (Fault.Selector.matches terminals 10
        && not (Fault.Selector.matches terminals 4));
      check (Alcotest.float 1e-9) "burst rate" 0.05 rate;
      check int_t "max_burst_ns" 250_000 max_burst_ns;
      check bool_t "burst window defaults to always" true
        (window = Fault.Plan.always)
    | _ -> Alcotest.fail "ninth spec is not chan_burst");
    (match List.nth plan.Fault.Plan.specs 9 with
    | Fault.Plan.Term_crash { terminals; at_ns } ->
      check string_t "crash selector" "5-6" (Fault.Selector.to_string terminals);
      check int64_t "crash instant" 90_000_000L at_ns
    | _ -> Alcotest.fail "tenth spec is not term_crash");
    let r = plan.Fault.Plan.recovery in
    check int64_t "ack timeout" 500_000L r.Fault.Plan.ack_timeout_ns;
    check int_t "retries" 7 r.Fault.Plan.max_retries;
    check int64_t "watchdog" 3_000_000L r.Fault.Plan.watchdog_period_ns;
    check bool_t "remap" false r.Fault.Plan.remap

let test_parse_defaults () =
  (match Fault.Plan.of_json_string "{}" with
  | Ok plan ->
    check bool_t "no faults means empty" true (Fault.Plan.is_empty plan);
    check bool_t "default recovery" true
      (plan.Fault.Plan.recovery = Fault.Plan.default_recovery)
  | Error e -> Alcotest.fail e);
  match
    Fault.Plan.of_json_string
      {|{"faults":[{"kind":"hibi_corrupt","segment":"*","rate":1}]}|}
  with
  | Ok plan -> (
    match plan.Fault.Plan.specs with
    | [ Fault.Plan.Hibi_corrupt { rate; max_flips; _ } ] ->
      check (Alcotest.float 1e-9) "integer rate accepted" 1.0 rate;
      check int_t "default max_flips" 3 max_flips
    | _ -> Alcotest.fail "expected one hibi_corrupt spec")
  | Error e -> Alcotest.fail e

let test_roundtrip () =
  match Fault.Plan.of_json_string full_plan_json with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
    let printed = Obs.Json.to_string (Fault.Plan.to_json plan) in
    match Fault.Plan.of_json_string printed with
    | Ok plan' -> check bool_t "to_json round-trips" true (plan = plan')
    | Error e -> Alcotest.failf "re-parse failed: %s" e)

let test_parse_errors () =
  let parse = Fault.Plan.of_json_string in
  (* Syntax errors carry line/column, not byte offsets. *)
  expect_error ~substrings:[ "line 2, column" ]
    (parse "{\n  \"faults\": oops\n}");
  expect_error ~substrings:[ "top level must be an object" ] (parse "[1]");
  expect_error
    ~substrings:[ "faults[0]"; "unknown kind \"nope\"" ]
    (parse {|{"faults":[{"kind":"nope"}]}|});
  expect_error
    ~substrings:[ "faults[0] (hibi_drop)"; "missing field \"segment\"" ]
    (parse {|{"faults":[{"kind":"hibi_drop","rate":0.5}]}|});
  expect_error
    ~substrings:[ "faults[0] (hibi_drop)"; "\"rate\" must be a number in [0,1]" ]
    (parse {|{"faults":[{"kind":"hibi_drop","segment":"*","rate":1.5}]}|});
  expect_error
    ~substrings:[ "faults[0]"; "unknown field \"bogus\"" ]
    (parse {|{"faults":[{"kind":"hibi_drop","segment":"*","rate":0.1,"bogus":1}]}|});
  expect_error
    ~substrings:[ "faults[1] (hibi_stall)"; "missing field \"max_stall_ns\"" ]
    (parse
       {|{"faults":[{"kind":"hibi_drop","segment":"*","rate":0.1},
                    {"kind":"hibi_stall","segment":"*","rate":0.1}]}|});
  expect_error
    ~substrings:[ "window is empty" ]
    (parse
       {|{"faults":[{"kind":"hibi_drop","segment":"*","rate":0.1,
                     "from_ns":500,"until_ns":100}]}|});
  expect_error
    ~substrings:[ "recovery"; "\"max_retries\" must be >= 0" ]
    (parse {|{"recovery":{"max_retries":-1}}|});
  expect_error
    ~substrings:[ "plan: unknown field \"fautls\"" ]
    (parse {|{"fautls":[]}|});
  (* Malformed terminal selectors point at the exact column. *)
  expect_error
    ~substrings:
      [ "faults[0] (chan_loss)"; "terminals"; "column 3";
        "expected a terminal number, got 'x'" ]
    (parse {|{"faults":[{"kind":"chan_loss","terminals":"0,x","rate":0.1}]}|});
  expect_error
    ~substrings:[ "faults[0] (term_crash)"; "column 1"; "range 9-3 is empty" ]
    (parse {|{"faults":[{"kind":"term_crash","terminals":"9-3","at_ns":1}]}|});
  expect_error
    ~substrings:
      [ "faults[0] (chan_loss)"; "column 2"; "expected ',' or '-', got '*'" ]
    (parse {|{"faults":[{"kind":"chan_loss","terminals":"1*","rate":0.1}]}|});
  expect_error
    ~substrings:[ "faults[0] (chan_burst)"; "missing field \"max_burst_ns\"" ]
    (parse {|{"faults":[{"kind":"chan_burst","terminals":"*","rate":0.1}]}|})

let test_of_file () =
  let path = Filename.temp_file "fault_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"faults\": nope}\n";
      close_out oc;
      expect_error
        ~substrings:[ path; "line 1, column" ]
        (Fault.Plan.of_file path));
  expect_error ~substrings:[ "No such file" ]
    (Fault.Plan.of_file "/nonexistent/plan.json")

(* -- injector ----------------------------------------------------------- *)

let drop_plan rate =
  {
    Fault.Plan.specs =
      [
        Fault.Plan.Hibi_drop
          { segment = "*"; rate; window = Fault.Plan.always };
      ];
    recovery = Fault.Plan.default_recovery;
  }

let action_trace injector n =
  List.init n (fun i ->
      Fault.Injector.hibi_action injector ~now:(Int64.of_int (i * 100))
        ~segment:"seg")

let test_injector_replays () =
  let a =
    action_trace (Fault.Injector.create ~plan:(drop_plan 0.5) ~seed:7) 200
  in
  let b =
    action_trace (Fault.Injector.create ~plan:(drop_plan 0.5) ~seed:7) 200
  in
  check bool_t "same seed, same schedule" true (a = b);
  let c =
    action_trace (Fault.Injector.create ~plan:(drop_plan 0.5) ~seed:8) 200
  in
  check bool_t "different seed, different schedule" false (a = c);
  check bool_t "both fire and pass" true
    (List.mem Fault.Injector.Drop a && List.mem Fault.Injector.Pass a)

let test_injector_streams_independent () =
  (* Each spec owns stream [i]: appending a spec leaves the schedules of
     the ones before it untouched. *)
  let appended =
    {
      Fault.Plan.specs =
        [
          Fault.Plan.Hibi_drop
            { segment = "*"; rate = 0.5; window = Fault.Plan.always };
          Fault.Plan.Pe_crash { pe = "processor9"; at_ns = 1L };
        ];
      recovery = Fault.Plan.default_recovery;
    }
  in
  let a =
    action_trace (Fault.Injector.create ~plan:(drop_plan 0.5) ~seed:7) 200
  in
  let b = action_trace (Fault.Injector.create ~plan:appended ~seed:7) 200 in
  check bool_t "appending a spec preserves earlier streams" true (a = b)

let test_injector_window () =
  let plan =
    {
      Fault.Plan.specs =
        [
          Fault.Plan.Hibi_drop
            {
              segment = "*";
              rate = 1.0;
              window = { Fault.Plan.from_ns = 100L; until_ns = Some 200L };
            };
        ];
      recovery = Fault.Plan.default_recovery;
    }
  in
  let injector = Fault.Injector.create ~plan ~seed:1 in
  let at now = Fault.Injector.hibi_action injector ~now ~segment:"s" in
  check bool_t "before window" true (at 99L = Fault.Injector.Pass);
  check bool_t "inside window" true (at 100L = Fault.Injector.Drop);
  check bool_t "window end is exclusive" true (at 200L = Fault.Injector.Pass)

let bit_diff a b =
  let diff = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code b.[i] in
      for bit = 0 to 7 do
        if x land (1 lsl bit) <> 0 then incr diff
      done)
    a;
  !diff

let test_corrupt_frame_salted () =
  let corrupt_plan =
    {
      Fault.Plan.specs =
        [
          Fault.Plan.Hibi_corrupt
            { segment = "*"; rate = 1.0; max_flips = 3;
              window = Fault.Plan.always };
        ];
      recovery = Fault.Plan.default_recovery;
    }
  in
  let frame = String.init 64 Char.chr in
  let i1 = Fault.Injector.create ~plan:corrupt_plan ~seed:5 in
  let direct = Fault.Injector.corrupt_frame i1 ~salt:7 frame in
  (* A fresh injector that first corrupts other salts still produces the
     same bytes for salt 7: flip positions depend on the salt alone. *)
  let i2 = Fault.Injector.create ~plan:corrupt_plan ~seed:5 in
  ignore (Fault.Injector.corrupt_frame i2 ~salt:3 frame);
  ignore (Fault.Injector.corrupt_frame i2 ~salt:11 frame);
  let replayed = Fault.Injector.corrupt_frame i2 ~salt:7 frame in
  check string_t "salt-derived corruption is order-independent" direct replayed;
  let flips = bit_diff frame direct in
  check bool_t "flips in 1..max_flips" true (flips >= 1 && flips <= 3);
  check bool_t "different salt, different frame" true
    (direct <> Fault.Injector.corrupt_frame i1 ~salt:8 frame)

let test_injector_inactive_on_empty () =
  let injector = Fault.Injector.create ~plan:Fault.Plan.empty ~seed:1 in
  check bool_t "empty plan is inactive" false (Fault.Injector.active injector);
  check bool_t "nothing scheduled" true
    (Fault.Injector.pe_crashes injector = []
    && Fault.Injector.pe_slowdowns injector = [])

(* -- end-to-end scenarios ----------------------------------------------- *)

let scenario ?(duration_ms = 20) ?(seed = 1) plan =
  {
    Tutmac.Scenario.default with
    Tutmac.Scenario.duration_ns =
      Int64.mul (Int64.of_int duration_ms) 1_000_000L;
    faults = plan;
    fault_seed = seed;
  }

let run config =
  match Tutmac.Scenario.run config with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* Everything observable about a run, as one string. *)
let fingerprint (r : Tutmac.Scenario.run_result) =
  String.concat "\n" (Sim.Trace.to_lines r.Tutmac.Scenario.trace)
  ^ "\n--\n"
  ^ Profiler.Report.render r.Tutmac.Scenario.report
  ^ Profiler.Report.render_transfers r.Tutmac.Scenario.report
  ^
  match r.Tutmac.Scenario.fault_stats with
  | None -> ""
  | Some s -> Profiler.Report.render_fault_section s

let stats_of (r : Tutmac.Scenario.run_result) =
  match r.Tutmac.Scenario.fault_stats with
  | Some s -> s
  | None -> Alcotest.fail "expected fault stats on a faulty run"

let test_empty_plan_ignores_seed () =
  (* The fault seed must be inert when the plan is empty: byte-identical
     trace and report, and no fault section at all. *)
  let a = run (scenario ~seed:1 Fault.Plan.empty) in
  let b = run (scenario ~seed:999 Fault.Plan.empty) in
  check bool_t "no fault stats" true
    (a.Tutmac.Scenario.fault_stats = None
    && b.Tutmac.Scenario.fault_stats = None);
  check string_t "byte-identical runs" (fingerprint a) (fingerprint b)

let lossy_plan =
  {
    Fault.Plan.specs =
      [
        Fault.Plan.Hibi_drop
          { segment = "*"; rate = 0.15; window = Fault.Plan.always };
        Fault.Plan.Hibi_corrupt
          { segment = "*"; rate = 0.08; max_flips = 3;
            window = Fault.Plan.always };
      ];
    recovery =
      { Fault.Plan.default_recovery with Fault.Plan.ack_timeout_ns = 300_000L };
  }

let test_arq_recovers_lossy_channel () =
  let r = run (scenario ~duration_ms:50 ~seed:42 lossy_plan) in
  let s = stats_of r in
  check bool_t "faults were injected" true (Fault.Stats.injected s > 0);
  check bool_t "drops happened" true (s.Fault.Stats.hibi_drops > 0);
  check bool_t "corruptions happened" true (s.Fault.Stats.hibi_corrupts > 0);
  check bool_t "crc caught corruptions" true (s.Fault.Stats.crc_rejects > 0);
  check int_t "no undetected corruption under <= 3 flips" 0
    s.Fault.Stats.crc_residual;
  check bool_t "retransmissions sent" true (s.Fault.Stats.retransmits > 0);
  check bool_t "arq recovered messages" true (s.Fault.Stats.arq_acked > 0);
  (* The interconnect's own counters surface the fault outcomes. *)
  let totals =
    List.fold_left
      (fun (d, dr, c) (_, st) ->
        ( Int64.add d st.Hibi.Network.delivered,
          Int64.add dr st.Hibi.Network.dropped,
          Int64.add c st.Hibi.Network.corrupted ))
      (0L, 0L, 0L)
      (Codegen.Runtime.segment_stats r.Tutmac.Scenario.runtime)
  in
  let delivered, dropped, corrupted = totals in
  check bool_t "segment counters populated" true
    (delivered > 0L && dropped > 0L && corrupted > 0L)

let crash_plan =
  {
    Fault.Plan.specs =
      [
        (* 7.3 ms is deliberately not a multiple of the 2 ms watchdog
           period: detection happens at 8 ms, latency 700 us. *)
        Fault.Plan.Pe_crash { pe = "processor2"; at_ns = 7_300_000L };
      ];
    recovery =
      {
        Fault.Plan.default_recovery with
        Fault.Plan.watchdog_period_ns = 2_000_000L;
      };
  }

let test_watchdog_detects_and_remaps () =
  let r = run (scenario ~duration_ms:20 ~seed:1 crash_plan) in
  let s = stats_of r in
  check int_t "one crash" 1 s.Fault.Stats.pe_crashes;
  check int_t "watchdog caught it" 1 s.Fault.Stats.watchdog_detections;
  check bool_t "processes were re-mapped" true
    (s.Fault.Stats.remapped_processes > 0);
  (match Fault.Stats.latency_percentiles s with
  | None -> Alcotest.fail "expected a recovery latency"
  | Some (p50, _, max_l) ->
    check int64_t "detection on the next watchdog tick" 700_000L p50;
    check int64_t "single sample" 700_000L max_l);
  (* Nothing may still resolve to the dead PE. *)
  List.iter
    (fun proc ->
      match proc.Codegen.Ir.pe with
      | None -> ()
      | Some _ -> (
        match
          Codegen.Runtime.process_pe r.Tutmac.Scenario.runtime
            proc.Codegen.Ir.proc_name
        with
        | Some pe ->
          if pe = "processor2" then
            Alcotest.failf "%s still mapped to the dead PE"
              proc.Codegen.Ir.proc_name
        | None -> ()))
    r.Tutmac.Scenario.sys.Codegen.Ir.procs

let test_watchdog_respects_remap_off () =
  let plan =
    {
      crash_plan with
      Fault.Plan.recovery =
        { crash_plan.Fault.Plan.recovery with Fault.Plan.remap = false };
    }
  in
  let s = stats_of (run (scenario ~duration_ms:20 ~seed:1 plan)) in
  check int_t "detected" 1 s.Fault.Stats.watchdog_detections;
  check int_t "but nothing re-mapped" 0 s.Fault.Stats.remapped_processes

(* Where the degradation re-map puts processes, pinned on the CI fault
   plan: processor2 crashes at 61.3 ms, the 10 ms watchdog declares it
   dead at 70 ms, and the exhaustive re-map search moves both of its
   processes to processor3.  The fault golden only counts re-mapped
   processes and the 50 ms sim golden ends before the crash.  The plan
   path resolves both under [dune runtest] (cwd _build/default/test)
   and under [dune exec test/test_fault.exe] from the repo root. *)
let test_remap_placement_pinned () =
  let path =
    match
      List.find_opt Sys.file_exists
        [ "../ci/fault_plan.json"; "ci/fault_plan.json" ]
    with
    | Some path -> path
    | None -> Alcotest.fail "ci/fault_plan.json not found"
  in
  let plan =
    match Fault.Plan.of_file path with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let r = run (scenario ~duration_ms:200 ~seed:42 plan) in
  let remaps =
    List.filter
      (fun line ->
        String.starts_with ~prefix:"F " line
        && List.mem "remap" (String.split_on_char ' ' line))
      (Sim.Trace.to_lines r.Tutmac.Scenario.trace)
  in
  check (Alcotest.list string_t) "re-map events"
    [
      "F 70000000 remap Tutmac_Protocol.mng processor3";
      "F 70000000 remap Tutmac_Protocol.rmng processor3";
    ]
    remaps

let test_local_signal_faults () =
  let plan =
    {
      Fault.Plan.specs =
        [
          Fault.Plan.Signal_loss
            { process = "*"; rate = 0.2; window = Fault.Plan.always };
          Fault.Plan.Signal_dup
            { process = "*"; rate = 0.2; window = Fault.Plan.always };
        ];
      recovery = Fault.Plan.default_recovery;
    }
  in
  let s = stats_of (run (scenario ~duration_ms:50 ~seed:7 plan)) in
  check bool_t "losses" true (s.Fault.Stats.signal_losses > 0);
  check bool_t "duplications" true (s.Fault.Stats.signal_dups > 0)

(* -- replay determinism -------------------------------------------------- *)

(* The headline robustness guarantee: a (plan, seed) pair replays
   byte-identically — trace, report and fault section — including the
   DSE-backed re-mapping; and distinct seeds give genuinely different
   schedules. *)
let replay_plan =
  {
    Fault.Plan.specs =
      [
        Fault.Plan.Hibi_drop
          { segment = "*"; rate = 0.1; window = Fault.Plan.always };
        Fault.Plan.Hibi_corrupt
          { segment = "*"; rate = 0.05; max_flips = 3;
            window = Fault.Plan.always };
        Fault.Plan.Pe_crash { pe = "processor2"; at_ns = 5_100_000L };
      ];
    recovery =
      {
        Fault.Plan.default_recovery with
        Fault.Plan.ack_timeout_ns = 300_000L;
        watchdog_period_ns = 2_000_000L;
      };
  }

let test_replay_determinism_across_seeds () =
  let seeds = List.init 50 (fun i -> i + 1) in
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun seed ->
      let once = fingerprint (run (scenario ~duration_ms:40 ~seed replay_plan)) in
      let again =
        fingerprint (run (scenario ~duration_ms:40 ~seed replay_plan))
      in
      if once <> again then
        Alcotest.failf "seed %d does not replay bit-identically" seed;
      Hashtbl.replace distinct once ())
    seeds;
  check bool_t
    (Printf.sprintf "distinct schedules across seeds (%d unique of 50)"
       (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct >= 40)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse full plan" `Quick test_parse_full;
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "error messages" `Quick test_parse_errors;
          Alcotest.test_case "of_file" `Quick test_of_file;
        ] );
      ( "injector",
        [
          Alcotest.test_case "replays from seed" `Quick test_injector_replays;
          Alcotest.test_case "independent streams" `Quick
            test_injector_streams_independent;
          Alcotest.test_case "window bounds" `Quick test_injector_window;
          Alcotest.test_case "salted corruption" `Quick
            test_corrupt_frame_salted;
          Alcotest.test_case "inactive on empty" `Quick
            test_injector_inactive_on_empty;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty plan ignores seed" `Quick
            test_empty_plan_ignores_seed;
          Alcotest.test_case "arq over a lossy channel" `Quick
            test_arq_recovers_lossy_channel;
          Alcotest.test_case "watchdog + re-mapping" `Quick
            test_watchdog_detects_and_remaps;
          Alcotest.test_case "remap off" `Quick test_watchdog_respects_remap_off;
          Alcotest.test_case "re-map placement pinned" `Quick
            test_remap_placement_pinned;
          Alcotest.test_case "local signal faults" `Quick
            test_local_signal_faults;
        ] );
      ( "replay",
        [
          Alcotest.test_case "50-seed sweep replays bit-identically" `Slow
            test_replay_determinism_across_seeds;
        ] );
    ]
