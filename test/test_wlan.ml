(* Tests for the fleet-scale TUTWLAN network: replay identity of
   N-terminal collision schedules across EFSM engines; churn edge cases
   (departure mid-fragment,
   rejoin under the same id); channel-injector determinism; accounting
   invariants; CLI churn-script parsing and config validation. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* A plan exercising all three channel injector kinds at rates high
   enough that a short run sees each of them. *)
let plan_json =
  {|{
  "faults": [
    {"kind": "chan_loss", "terminals": "*", "rate": 0.15},
    {"kind": "chan_burst", "terminals": "0-2", "rate": 0.2,
     "max_burst_ns": 300000},
    {"kind": "term_crash", "terminals": "5", "at_ns": 120000000}
  ]
}|}

let plan () =
  match Fault.Plan.of_json_string plan_json with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let config ?(terminals = 6) ?(duration_ms = 200) ?(slot_ns = 50_000)
    ?(seed = 1) ?(faults = Fault.Plan.empty) ?(fault_seed = 1) ?(churn = [])
    ?(engine = Efsm.Exec.Compiled) () =
  {
    Tutmac.Wlan.default with
    Tutmac.Wlan.terminals;
    slot_ns;
    duration_ns = duration_ms * 1_000_000;
    seed;
    faults;
    fault_seed;
    churn;
    engine;
  }

(* Everything observable about a run: the rendered report (the CI
   golden format, deliberately engine-agnostic) plus every trace
   line.  Replay identity means this string is byte-identical. *)
let fingerprint (r : Tutmac.Wlan.result) =
  Tutmac.Wlan.render r ^ "\n--\n"
  ^ String.concat "\n" (Sim.Trace.to_lines r.Tutmac.Wlan.trace)

(* [unresolved] is counted from the frame table, independently of the
   outcome counters, so a lost or doubled count breaks the identity. *)
let accounting_holds (r : Tutmac.Wlan.result) =
  check int_t "offered = delivered + abandoned + flushed + unresolved"
    r.Tutmac.Wlan.offered
    (r.Tutmac.Wlan.delivered + r.Tutmac.Wlan.abandoned + r.Tutmac.Wlan.flushed
   + r.Tutmac.Wlan.unresolved);
  Array.iter
    (fun (t : Tutmac.Wlan.terminal_stats) ->
      check int_t
        (Printf.sprintf "terminal %d accounting" t.Tutmac.Wlan.ts_id)
        t.Tutmac.Wlan.ts_offered
        (t.Tutmac.Wlan.ts_delivered + t.Tutmac.Wlan.ts_abandoned
       + t.Tutmac.Wlan.ts_flushed + t.Tutmac.Wlan.ts_unresolved))
    r.Tutmac.Wlan.per_terminal;
  check int_t "fleet unresolved is the per-terminal sum"
    r.Tutmac.Wlan.unresolved
    (Array.fold_left
       (fun acc (t : Tutmac.Wlan.terminal_stats) ->
         acc + t.Tutmac.Wlan.ts_unresolved)
       0 r.Tutmac.Wlan.per_terminal)

(* -- replay identity ---------------------------------------------------- *)

(* One seed, both engines and a repeated run: the fingerprint never
   changes.  This is the determinism contract in miniature; the 50-seed
   sweep below stresses it. *)
let fingerprints ~seed ~faults ~churn =
  List.map
    (fun engine ->
      fingerprint (Tutmac.Wlan.run (config ~seed ~faults ~churn ~engine ())))
    [ Efsm.Exec.Reference; Efsm.Exec.Compiled; Efsm.Exec.Compiled ]

let test_replay_identity_one_seed () =
  let churn =
    [
      { Tutmac.Wlan.terminal = 3; at_ns = 60_000_000; action = Tutmac.Wlan.Leave };
      {
        Tutmac.Wlan.terminal = 3;
        at_ns = 140_000_000;
        action = Tutmac.Wlan.Rejoin;
      };
    ]
  in
  match fingerprints ~seed:7 ~faults:(plan ()) ~churn with
  | [] -> assert false
  | reference :: rest ->
    List.iteri
      (fun i fp ->
        check bool_t
          (Printf.sprintf "combo %d replays bit-identically" (i + 1))
          true (fp = reference))
      rest;
    check bool_t "the run is not degenerate" true
      (String.length reference > 1000)

(* 50 seeds; for each, the compiled and reference engines must agree.
   Faults and churn stay on so collision resolution, the injector draws
   and the departure bookkeeping are all inside the comparison. *)
let test_replay_identity_50_seeds () =
  let faults = plan () in
  let churn =
    [
      { Tutmac.Wlan.terminal = 1; at_ns = 50_000_000; action = Tutmac.Wlan.Leave };
      {
        Tutmac.Wlan.terminal = 1;
        at_ns = 110_000_000;
        action = Tutmac.Wlan.Rejoin;
      };
    ]
  in
  for seed = 1 to 50 do
    let a =
      fingerprint
        (Tutmac.Wlan.run
           (config ~duration_ms:80 ~seed ~faults ~churn
              ~engine:Efsm.Exec.Compiled ()))
    in
    let b =
      fingerprint
        (Tutmac.Wlan.run
           (config ~duration_ms:80 ~seed ~faults ~churn
              ~engine:Efsm.Exec.Reference ()))
    in
    if a <> b then Alcotest.failf "seed %d diverges across engines" seed
  done

let test_seed_changes_schedule () =
  let fp seed = fingerprint (Tutmac.Wlan.run (config ~seed ())) in
  check bool_t "different seed, different schedule" false (fp 1 = fp 2)

(* -- channel model ------------------------------------------------------ *)

let test_collisions_and_recovery () =
  (* Many terminals on coarse 2 ms slots: contention is guaranteed, and
     the BEB retry machinery must still deliver traffic. *)
  let r =
    Tutmac.Wlan.run
      (config ~terminals:12 ~duration_ms:400 ~slot_ns:2_000_000 ())
  in
  check bool_t "collisions happened" true (r.Tutmac.Wlan.collisions > 0);
  check bool_t "retries happened" true (r.Tutmac.Wlan.retries > 0);
  check bool_t "traffic flowed" true (r.Tutmac.Wlan.delivered > 0);
  accounting_holds r;
  (* A collision slot is one busy slot, never two. *)
  check bool_t "busy slots bounded by attempts" true
    (r.Tutmac.Wlan.slots_used <= r.Tutmac.Wlan.attempts);
  (* MAC-internal counters (read back from the EFSM variables) agree
     with the harness's own accounting. *)
  let mac_tx =
    Array.fold_left
      (fun acc (t : Tutmac.Wlan.terminal_stats) ->
        acc + t.Tutmac.Wlan.ts_mac_tx_frames)
      0 r.Tutmac.Wlan.per_terminal
  in
  check int_t "EFSM tx counters match delivered" r.Tutmac.Wlan.delivered mac_tx

let test_single_terminal_is_collision_free () =
  let r = Tutmac.Wlan.run (config ~terminals:1 ~duration_ms:300 ()) in
  check int_t "no collisions" 0 r.Tutmac.Wlan.collisions;
  check int_t "no retries" 0 r.Tutmac.Wlan.retries;
  check int_t "nothing abandoned" 0 r.Tutmac.Wlan.abandoned;
  (* Self-addressed traffic (dst = (0+1) mod 1 = 0) still delivers. *)
  check bool_t "delivered" true (r.Tutmac.Wlan.delivered > 0)

let test_injector_determinism () =
  let faults = plan () in
  let stats seed =
    match
      (Tutmac.Wlan.run (config ~faults ~fault_seed:seed ())).Tutmac.Wlan
      .fault_stats
    with
    | Some s ->
      (s.Fault.Stats.chan_losses, s.Fault.Stats.chan_bursts,
       s.Fault.Stats.term_crashes)
    | None -> Alcotest.fail "expected fault stats under an active plan"
  in
  let a = stats 9 and b = stats 9 in
  check bool_t "same (plan, seed), same injections" true (a = b);
  let losses, bursts, crashes = a in
  check bool_t "losses injected" true (losses > 0);
  check bool_t "bursts injected" true (bursts > 0);
  check int_t "terminal 5 crashed" 1 crashes;
  check bool_t "different fault seed, different schedule" false
    (stats 9 = stats 10)

let test_faultless_run_has_no_fault_stats () =
  let r = Tutmac.Wlan.run (config ()) in
  check bool_t "no fault section" true (r.Tutmac.Wlan.fault_stats = None)

(* -- churn -------------------------------------------------------------- *)

(* Video terminals carry 4-fragment I-frames; the in-flight frame and
   the queue must flush cleanly on departure, and every frame still ends
   in exactly one terminal status. *)
let video_only ?(churn = []) ?(duration_ms = 300) ?slot_ns () =
  {
    (config ~terminals:4 ~duration_ms ?slot_ns ~churn ())
    with Tutmac.Wlan.mix = [ Tutmac.Workload.video ];
  }

let test_leave_mid_fragment () =
  let churn =
    [
      { Tutmac.Wlan.terminal = 2; at_ns = 60_000_000; action = Tutmac.Wlan.Leave };
    ]
  in
  (* 2 ms slots stretch an I-frame over at least 8 ms, so terminal 2 is
     still sending when it leaves. *)
  let r = Tutmac.Wlan.run (video_only ~churn ~slot_ns:2_000_000 ()) in
  check int_t "one leave" 1 r.Tutmac.Wlan.leaves;
  check int_t "no joins" 0 r.Tutmac.Wlan.joins;
  let t2 = r.Tutmac.Wlan.per_terminal.(2) in
  check bool_t "terminal 2 stays departed" false t2.Tutmac.Wlan.ts_alive;
  (* A frame offered after the departure is discarded by the departed
     MAC (one D line) and flushed on arrival; the rest of [ts_flushed]
     is what the departure itself flushed. *)
  let flushed_on_arrival = ref 0 in
  Sim.Trace.iter r.Tutmac.Wlan.trace (function
    | Sim.Trace.Discard { process = "t002"; signal = "WlFrame"; _ } ->
      incr flushed_on_arrival
    | _ -> ());
  check bool_t "departure flushed in-flight work" true
    (t2.Tutmac.Wlan.ts_flushed > !flushed_on_arrival);
  (* Anything it did deliver happened before the departure; afterwards
     arrivals are flushed, not queued, so nothing is left unresolved on
     a departed terminal. *)
  check int_t "departed terminal leaves nothing unresolved"
    t2.Tutmac.Wlan.ts_offered
    (t2.Tutmac.Wlan.ts_delivered + t2.Tutmac.Wlan.ts_abandoned
   + t2.Tutmac.Wlan.ts_flushed);
  accounting_holds r

let test_rejoin_same_id () =
  let churn =
    [
      { Tutmac.Wlan.terminal = 2; at_ns = 80_000_000; action = Tutmac.Wlan.Leave };
      {
        Tutmac.Wlan.terminal = 2;
        at_ns = 160_000_000;
        action = Tutmac.Wlan.Rejoin;
      };
    ]
  in
  let gone = Tutmac.Wlan.run (video_only ~churn:[ List.hd churn ] ()) in
  let back = Tutmac.Wlan.run (video_only ~churn ()) in
  check int_t "leave and join counted" 1 back.Tutmac.Wlan.joins;
  let t2 = back.Tutmac.Wlan.per_terminal.(2) in
  check bool_t "terminal 2 is back" true t2.Tutmac.Wlan.ts_alive;
  (* The rejoined terminal resumes transmitting: it delivers strictly
     more than the permanently-departed control run. *)
  check bool_t "deliveries resume after rejoin" true
    (t2.Tutmac.Wlan.ts_delivered
    > gone.Tutmac.Wlan.per_terminal.(2).Tutmac.Wlan.ts_delivered);
  accounting_holds back

let test_crash_is_ungraceful_churn () =
  (* A term_crash fault behaves like a leave: counted, flushed, and the
     peers' retries toward the dead terminal exhaust cleanly instead of
     wedging the channel. *)
  let faults = plan () in
  let r = Tutmac.Wlan.run (config ~duration_ms:400 ~faults ()) in
  check bool_t "crash registered as a leave" true (r.Tutmac.Wlan.leaves >= 1);
  let t5 = r.Tutmac.Wlan.per_terminal.(5) in
  check bool_t "crashed terminal is down" false t5.Tutmac.Wlan.ts_alive;
  (* Terminal 4 sends to 5; its frames must resolve (delivered before
     the crash, or abandoned after retry exhaustion) — not hang. *)
  let t4 = r.Tutmac.Wlan.per_terminal.(4) in
  check bool_t "peer abandoned traffic toward the dead terminal" true
    (t4.Tutmac.Wlan.ts_abandoned > 0);
  accounting_holds r

(* -- churn script parsing ----------------------------------------------- *)

let test_churn_parse_ok () =
  match Tutmac.Wlan.churn_of_string "4@200-800,5@300" with
  | Error e -> Alcotest.fail e
  | Ok evs ->
    check int_t "leave+rejoin+leave" 3 (List.length evs);
    let times =
      List.map (fun e -> (e.Tutmac.Wlan.terminal, e.Tutmac.Wlan.at_ns)) evs
    in
    check bool_t "leave/rejoin expanded in ms" true
      (List.mem (4, 200_000_000) times
      && List.mem (4, 800_000_000) times
      && List.mem (5, 300_000_000) times)

let expect_churn_error s sub =
  match Tutmac.Wlan.churn_of_string s with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  | Error msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    if not (contains msg sub) then
      Alcotest.failf "error %S does not mention %S" msg sub

let test_churn_parse_errors () =
  expect_churn_error "4" "@";
  expect_churn_error "x@100" "terminal";
  expect_churn_error "4@800-200" "rejoin";
  expect_churn_error "4@" "leave"

(* -- validation --------------------------------------------------------- *)

let expect_invalid cfg sub =
  match Tutmac.Wlan.run cfg with
  | (_ : Tutmac.Wlan.result) ->
    Alcotest.failf "expected Invalid_argument mentioning %S" sub
  | exception Invalid_argument msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    if not (contains msg sub) then
      Alcotest.failf "Invalid_argument %S does not mention %S" msg sub

let test_validation () =
  expect_invalid { (config ()) with Tutmac.Wlan.terminals = 0 } "terminals";
  expect_invalid
    { (config ()) with Tutmac.Wlan.cw_min = 16; cw_max = 4 }
    "cw_max";
  expect_invalid
    {
      (config ()) with
      Tutmac.Wlan.churn =
        [ { Tutmac.Wlan.terminal = 99; at_ns = 1; action = Tutmac.Wlan.Leave } ];
    }
    "churn"

(* -- report ------------------------------------------------------------- *)

let test_render_shape () =
  let r = Tutmac.Wlan.run (config ~faults:(plan ()) ()) in
  let s = Tutmac.Wlan.render r in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub s i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      check bool_t (Printf.sprintf "report mentions %S" needle) true
        (contains needle))
    [ "terminals 6"; "collisions"; "latency"; "channel losses";
      "terminal crashes" ];
  (* The engine name must NOT appear: the report is the cross-engine
     golden. *)
  check bool_t "engine-agnostic report" false
    (contains "compiled" || contains "reference");
  (* JSON rendering parses its own config back out. *)
  let json = Obs.Json.to_string (Tutmac.Wlan.render_json r) in
  check bool_t "json has config echo" true (String.length json > 200)

let () =
  Alcotest.run "wlan"
    [
      ( "replay",
        [
          Alcotest.test_case "engines, one seed" `Quick
            test_replay_identity_one_seed;
          Alcotest.test_case "50 seeds across engine corners" `Slow
            test_replay_identity_50_seeds;
          Alcotest.test_case "seed perturbs the schedule" `Quick
            test_seed_changes_schedule;
        ] );
      ( "channel",
        [
          Alcotest.test_case "contention, collisions, recovery" `Quick
            test_collisions_and_recovery;
          Alcotest.test_case "single terminal is collision-free" `Quick
            test_single_terminal_is_collision_free;
          Alcotest.test_case "injector replays from (plan, seed)" `Quick
            test_injector_determinism;
          Alcotest.test_case "empty plan leaves no fault stats" `Quick
            test_faultless_run_has_no_fault_stats;
        ] );
      ( "churn",
        [
          Alcotest.test_case "leave mid-fragment flushes cleanly" `Quick
            test_leave_mid_fragment;
          Alcotest.test_case "rejoin under the same id" `Quick
            test_rejoin_same_id;
          Alcotest.test_case "crash fault degrades gracefully" `Quick
            test_crash_is_ungraceful_churn;
        ] );
      ( "cli",
        [
          Alcotest.test_case "churn script parses" `Quick test_churn_parse_ok;
          Alcotest.test_case "churn script errors" `Quick
            test_churn_parse_errors;
          Alcotest.test_case "config validation" `Quick test_validation;
        ] );
      ( "report",
        [ Alcotest.test_case "deterministic shape" `Quick test_render_shape ] );
    ]
