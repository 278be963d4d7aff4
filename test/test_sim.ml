(* Tests for the discrete-event kernel, trace log, record codec and RTOS
   model. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let int64_t = Alcotest.int64

(* -- engine ------------------------------------------------------------ *)

let test_event_ordering () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  ignore (Sim.Engine.schedule engine ~delay:30L (mark "c"));
  ignore (Sim.Engine.schedule engine ~delay:10L (mark "a"));
  ignore (Sim.Engine.schedule engine ~delay:20L (mark "b"));
  ignore (Sim.Engine.run engine);
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ]
    (List.rev !order);
  check int64_t "clock at last event" 30L (Sim.Engine.now engine)

let test_fifo_ties () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule engine ~delay:7L (fun () -> order := i :: !order))
  done;
  ignore (Sim.Engine.run engine);
  check (Alcotest.list int_t) "same-time events fire in schedule order"
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_cancel () =
  let engine = Sim.Engine.create () in
  let fired = ref false in
  let handle = Sim.Engine.schedule engine ~delay:5L (fun () -> fired := true) in
  check int_t "pending before" 1 (Sim.Engine.pending engine);
  Sim.Engine.cancel handle;
  check bool_t "cancelled" true (Sim.Engine.cancelled handle);
  check int_t "pending after" 0 (Sim.Engine.pending engine);
  ignore (Sim.Engine.run engine);
  check bool_t "never fired" false !fired

let test_run_until () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.Engine.schedule engine ~delay:10L tick)
  in
  ignore (Sim.Engine.schedule engine ~delay:10L tick);
  let fired = Sim.Engine.run ~until:100L engine in
  check int_t "ten ticks" 10 fired;
  check int64_t "clock clamped" 100L (Sim.Engine.now engine);
  check int_t "next tick still pending" 1 (Sim.Engine.pending engine)

let test_schedule_in_callback () =
  let engine = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule engine ~delay:5L (fun () ->
         times := Sim.Engine.now engine :: !times;
         ignore
           (Sim.Engine.schedule engine ~delay:5L (fun () ->
                times := Sim.Engine.now engine :: !times))));
  ignore (Sim.Engine.run engine);
  check (Alcotest.list int64_t) "nested scheduling" [ 5L; 10L ] (List.rev !times)

let test_negative_delay_rejected () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.Engine.schedule: negative delay") (fun () ->
      ignore (Sim.Engine.schedule engine ~delay:(-1L) (fun () -> ())))

(* Property: events fire in nondecreasing time order regardless of the
   scheduling order. *)
let prop_monotone_time =
  QCheck.Test.make ~name:"events fire in time order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.int_range 0 1000))
    (fun delays ->
      let engine = Sim.Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule engine ~delay:(Int64.of_int d) (fun () ->
                 times := Sim.Engine.now engine :: !times)))
        delays;
      ignore (Sim.Engine.run engine);
      let fired = List.rev !times in
      List.length fired = List.length delays
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, 0L) fired))

(* -- trace -------------------------------------------------------------- *)

let sample_events =
  [
    Sim.Trace.Exec { time = 10L; process = "top.a"; cycles = 500L };
    Sim.Trace.Signal
      { time = 20L; sender = "top.a"; receiver = "top.b"; signal = "Go"; words = 4; tag = 7 };
    Sim.Trace.State_change
      { time = 30L; process = "top.b"; from_ = "idle"; to_ = "busy" };
    Sim.Trace.Discard { time = 40L; process = "top.b"; signal = "Go" };
    Sim.Trace.Exec { time = 50L; process = "top.a"; cycles = 300L };
    Sim.Trace.Exec { time = 60L; process = "top.b"; cycles = 100L };
    Sim.Trace.Fault
      { time = 70L; kind = "hibi_drop"; target = "seg1"; info = "-" };
    Sim.Trace.Retransmit
      {
        time = 80L;
        sender = "top.a";
        receiver = "top.b";
        signal = "Go";
        attempt = 2;
      };
    Sim.Trace.Flow_hop
      { time = 90L; flow = 0; stage = "born"; where_ = "Go"; dur = 0L };
    Sim.Trace.Flow_hop
      { time = 95L; flow = 3; stage = "queue"; where_ = "top.b"; dur = 1200L };
    Sim.Trace.Flow_hop
      { time = 99L; flow = 3; stage = "end"; where_ = "GoInd"; dur = 4500L };
  ]

let filled () =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.record t) sample_events;
  t

let test_trace_aggregation () =
  let t = filled () in
  check int_t "length" 11 (Sim.Trace.length t);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int64_t))
    "total cycles"
    [ ("top.a", 800L); ("top.b", 100L) ]
    (Sim.Trace.total_cycles t);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair Alcotest.string Alcotest.string) int_t))
    "signal counts"
    [ (("top.a", "top.b"), 1) ]
    (Sim.Trace.signal_counts t)

let test_trace_line_roundtrip () =
  List.iter
    (fun event ->
      match Sim.Trace.event_of_line (Sim.Trace.event_to_line event) with
      | Ok event' -> check bool_t "line round-trip" true (event = event')
      | Error e -> Alcotest.fail e)
    sample_events

let test_trace_file_roundtrip () =
  let t = filled () in
  let path = Filename.temp_file "trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.Trace.save t path;
      match Sim.Trace.load path with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        check bool_t "file round-trip" true (Sim.Trace.events t = Sim.Trace.events t'))

let test_trace_bad_lines () =
  List.iter
    (fun line ->
      match Sim.Trace.event_of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected error for %S" line)
    [
      "";
      "X 1 a 2";
      "E notatime p 5";
      "E 1 p";
      "S 1 a b";
      "F 1 kind";
      "F oops kind target info";
      "R 1 a b sig";
      "R 1 a b sig -2";
      "R 1 a b sig two";
      "L 1 0 queue p";
      "L 1 -1 queue p 5";
      "L 1 0 queue p -5";
      "L oops 0 queue p 5";
      "L 1 zero queue p 5";
      "E 0 p -5";
      "S 1 a b c -5";
    ]

(* of_lines reports the 1-based line number of the first malformed line,
   counting blank lines, and stops there. *)
let test_trace_of_lines_line_numbers () =
  let expect_error_at n lines =
    match Sim.Trace.of_lines lines with
    | Ok _ -> Alcotest.failf "expected a parse error in %s" (String.concat "|" lines)
    | Error e ->
      let prefix = Printf.sprintf "line %d: " n in
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "expected error prefixed %S, got %S" prefix e
  in
  expect_error_at 1 [ "X 1 a 2" ];
  expect_error_at 2 [ "E 1 p 5"; "E oops p 5" ];
  expect_error_at 4 [ "E 1 p 5"; ""; "T 2 p idle busy"; "S 3 a b" ];
  expect_error_at 3 [ "D 1 p sig"; "S 2 a b sig 4"; "E 3 p" ];
  match Sim.Trace.of_lines [ "E 1 p 5"; ""; "   "; "D 2 p sig" ] with
  | Ok t -> check int_t "blank lines are skipped" 2 (Sim.Trace.length t)
  | Error e -> Alcotest.fail e

(* A malformed final line — the shape a file without a trailing newline
   loads as: a last element with no successor — is still reported with
   its 1-based physical line number, on both the in-memory split path
   and the [load] path. *)
let test_trace_last_line_numbering () =
  (match Sim.Trace.of_lines [ "E 1 p 5"; ""; "E oops p 5" ] with
  | Ok _ -> Alcotest.fail "expected a parse error on the last line"
  | Error e ->
    if not (String.starts_with ~prefix:"line 3: " e) then
      Alcotest.failf "split path: expected a 'line 3: ' prefix, got %S" e);
  let path = Filename.temp_file "trace_lastline" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      (* no trailing newline after the malformed last line *)
      output_string oc "E 1 p 5\n\nE oops p 5";
      close_out oc;
      match Sim.Trace.load path with
      | Ok _ -> Alcotest.fail "expected a parse error on the last file line"
      | Error e ->
        if not (String.starts_with ~prefix:"line 3: " e) then
          Alcotest.failf "load path: expected a 'line 3: ' prefix, got %S" e)

(* Property: log text round-trips for arbitrary well-formed events. *)
let gen_event =
  QCheck.Gen.(
    let name = oneofl [ "a"; "top.b"; "env"; "x.y.z" ] in
    let time = map Int64.of_int (int_range 0 1_000_000) in
    oneof
      [
        (let* time = time in
         let* process = name in
         let* cycles = map Int64.of_int (int_range 0 100000) in
         return (Sim.Trace.Exec { time; process; cycles }));
        (let* time = time in
         let* sender = name in
         let* receiver = name in
         let* words = int_range 1 200 in
         let* tag = int_range (-1) 50 in
         return
           (Sim.Trace.Signal { time; sender; receiver; signal = "Sig"; words; tag }));
        (let* time = time in
         let* process = name in
         return
           (Sim.Trace.State_change { time; process; from_ = "s1"; to_ = "s2" }));
        (let* time = time in
         let* process = name in
         return (Sim.Trace.Discard { time; process; signal = "Sig" }));
        (* [info] must be a single non-empty token to round-trip (the
           writer renders [""] as ["-"]). *)
        (let* time = time in
         let* kind = oneofl [ "hibi_drop"; "pe_crash"; "crc_reject" ] in
         let* target = name in
         let* info = oneofl [ "-"; "42"; "at=900" ] in
         return (Sim.Trace.Fault { time; kind; target; info }));
        (let* time = time in
         let* sender = name in
         let* receiver = name in
         let* attempt = int_range 0 20 in
         return
           (Sim.Trace.Retransmit
              { time; sender; receiver; signal = "Sig"; attempt }));
        (let* time = time in
         let* flow = int_range 0 5000 in
         let* stage =
           oneofl [ "born"; "queue"; "process"; "transfer"; "retransmit"; "end" ]
         in
         let* where_ = name in
         let* dur = map Int64.of_int (int_range 0 1_000_000) in
         return (Sim.Trace.Flow_hop { time; flow; stage; where_; dur }));
      ])

(* [gen_event] spans all seven kinds and the renderer's edge cases:
   untagged signals (tag -1), "-" fault info, zero-duration flow hops.
   The store must decode and render exactly the plain event list it was
   fed. *)
let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace lines round-trip" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 40) gen_event))
    (fun events ->
      let t = Sim.Trace.create () in
      List.iter (Sim.Trace.record t) events;
      Sim.Trace.events t = events
      && Sim.Trace.to_lines t = List.map Sim.Trace.event_to_line events
      &&
      match Sim.Trace.of_lines (Sim.Trace.to_lines t) with
      | Ok t' -> Sim.Trace.events t' = events
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Reference aggregation over a plain event list. *)
let tally add zero key events =
  let table = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match key e with
      | Some (k, n) ->
        let current = Option.value ~default:zero (Hashtbl.find_opt table k) in
        Hashtbl.replace table k (add current n)
      | None -> ())
    events;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) table [])

(* The first aggregation of [t] that differs from the same tally over
   the plain event list, if any. *)
let aggregation_mismatch t events =
  let cycles =
    tally Int64.add 0L
      (function
        | Sim.Trace.Exec { process; cycles; _ } -> Some (process, cycles)
        | _ -> None)
  and signals =
    tally ( + ) 0 (function
      | Sim.Trace.Signal { sender; receiver; _ } -> Some ((sender, receiver), 1)
      | _ -> None)
  and discards =
    tally ( + ) 0 (function
      | Sim.Trace.Discard { process; _ } -> Some (process, 1)
      | _ -> None)
  in
  if Sim.Trace.total_cycles t <> cycles events then Some "total_cycles"
  else if Sim.Trace.signal_counts t <> signals events then Some "signal_counts"
  else if Sim.Trace.discard_counts t <> discards events then Some "discard_counts"
  else None

(* Interning torture: thousands of distinct names force the intern
   table and string store through several growth doublings (and plenty
   of hash-bucket collisions); out-of-range int64 payloads exercise the
   overflow side table.  The store must keep rendering and re-interning
   exactly like the plain event list it was fed, and aggregate like it
   on both the record-scan path and the overflow (decoding) path. *)
let test_trace_intern_torture () =
  let store = Sim.Trace.create () in
  let model = ref [] in
  let record e =
    Sim.Trace.record store e;
    model := e :: !model
  in
  let agree what =
    let events = List.rev !model in
    check int_t (what ^ ": same length") (List.length events)
      (Sim.Trace.length store);
    if Sim.Trace.to_lines store <> List.map Sim.Trace.event_to_line events then
      Alcotest.failf "%s: render diverged after interning growth" what;
    Option.iter
      (Alcotest.failf "%s: %s diverged" what)
      (aggregation_mismatch store events)
  in
  for i = 0 to 4999 do
    let p = Printf.sprintf "proc_%d" (i mod 3000) in
    let q = Printf.sprintf "proc_%d" ((i * 7) mod 3000) in
    record
      (Sim.Trace.Exec
         { time = Int64.of_int i; process = p; cycles = Int64.of_int (i mod 97) });
    if i mod 3 = 0 then
      record
        (Sim.Trace.Signal
           {
             time = Int64.of_int i;
             sender = p;
             receiver = q;
             signal = Printf.sprintf "sig_%d" (i mod 411);
             words = (i mod 50) + 1;
             tag = (i mod 5) - 1;
           });
    if i mod 7 = 0 then
      record (Sim.Trace.Discard { time = Int64.of_int i; process = q; signal = "s" })
  done;
  agree "record scan";
  (* out-of-range rows land in the overflow table and force every
     aggregation onto the generic decode path *)
  record
    (Sim.Trace.Exec { time = Int64.max_int; process = "proc_0"; cycles = 1L });
  record
    (Sim.Trace.Flow_hop
       {
         time = 1L;
         flow = 2;
         stage = "transfer";
         where_ = "proc_1";
         dur = Int64.max_int;
       });
  agree "overflow";
  (* re-interning an already-known name is stable *)
  check int_t "intern is idempotent"
    (Sim.Trace.intern store "proc_42")
    (Sim.Trace.intern store "proc_42")

(* The packed store against the plain event list it was fed, on
   streams long enough to cross chunk and index boundaries: at least 4
   bytes a record, 3100 records outgrow the first two chunks (4 + 8 KiB)
   and span 48 index blocks.  Times take small steps either way and sit
   next to [min_int]/[max_int] (the deltas between them wrap); 300
   names put ids past the one-byte limit.  Half the streams also carry
   out-of-range int64 rows, which the overflow table must keep exact
   and which move [total_cycles] onto its decoding path. *)
let gen_packed_stream =
  QCheck.Gen.(
    let* overflow = bool in
    let names = Array.init 300 (Printf.sprintf "n%d") in
    let name = map (Array.get names) (int_bound 299) in
    let edges =
      List.map Int64.of_int [ min_int; min_int + 1; max_int - 1; max_int ]
    in
    let outside =
      [
        Int64.max_int;
        Int64.min_int;
        Int64.succ (Int64.of_int max_int);
        Int64.pred (Int64.of_int min_int);
      ]
    in
    let wide small =
      frequency
        ((20, small) :: (1, oneofl edges)
        :: (if overflow then [ (1, oneofl outside) ] else []))
    in
    let time = wide (map Int64.of_int (int_range 0 5000)) in
    let count =
      let huge = [ Int64.max_int; Int64.succ (Int64.of_int max_int) ] in
      frequency
        ((20, map Int64.of_int (int_range 0 100_000))
        :: (if overflow then [ (1, oneofl huge) ] else []))
    in
    let event =
      let* time = time in
      oneof
        [
          map2
            (fun process cycles -> Sim.Trace.Exec { time; process; cycles })
            name count;
          (let* sender = name and* receiver = name and* signal = name in
           let* words = int_range 0 300
           and* tag = oneof [ return (-1); int_range 0 100_000 ] in
           return (Sim.Trace.Signal { time; sender; receiver; signal; words; tag }));
          (let* process = name and* from_ = name and* to_ = name in
           return (Sim.Trace.State_change { time; process; from_; to_ }));
          map2
            (fun process signal -> Sim.Trace.Discard { time; process; signal })
            name name;
          (let* kind = name and* target = name and* info = name in
           return (Sim.Trace.Fault { time; kind; target; info }));
          (let* sender = name and* receiver = name and* signal = name in
           let* attempt = int_range 0 200 in
           return (Sim.Trace.Retransmit { time; sender; receiver; signal; attempt }));
          (let* flow = int_range 0 100_000 and* stage = name and* where_ = name in
           let* dur = count in
           return (Sim.Trace.Flow_hop { time; flow; stage; where_; dur }));
        ]
    in
    list_size (int_range 3100 4000) event)

let prop_packed_store =
  QCheck.Test.make ~name:"packed store matches the event list" ~count:20
    (QCheck.make
       ~print:(fun events -> Printf.sprintf "<%d events>" (List.length events))
       gen_packed_stream)
    (fun events ->
      let t = Sim.Trace.create () in
      List.iter (Sim.Trace.record t) events;
      let expected = Array.of_list events in
      let n = Array.length expected in
      let fail what = QCheck.Test.fail_reportf "%s diverged" what in
      if Sim.Trace.length t <> n then fail "length";
      (* In order (the cursor carries on), backwards (every call seeks
         through the index) and by a stride that skips whole blocks. *)
      let get_agrees i =
        if Sim.Trace.get t i <> expected.(i) then
          QCheck.Test.fail_reportf "get %d diverged" i
      in
      for i = 0 to n - 1 do
        get_agrees i
      done;
      for i = n - 1 downto 0 do
        get_agrees i
      done;
      for k = 0 to n - 1 do
        get_agrees (k * 97 mod n)
      done;
      let seen = ref [] in
      Sim.Trace.iter t (fun e -> seen := e :: !seen);
      if List.rev !seen <> events then fail "iter";
      if List.rev (Sim.Trace.fold t [] (fun acc e -> e :: acc)) <> events then
        fail "fold";
      if Sim.Trace.events t <> events then fail "events";
      if Sim.Trace.to_lines t <> List.map Sim.Trace.event_to_line events then
        fail "to_lines";
      let path = Filename.temp_file "packed" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sim.Trace.save t path;
          match Sim.Trace.load path with
          | Ok t' -> if Sim.Trace.events t' <> events then fail "save/load"
          | Error e -> QCheck.Test.fail_reportf "load: %s" e);
      match aggregation_mismatch t events with
      | None -> true
      | Some what -> fail what)

(* -- the record codec ------------------------------------------------------ *)

let encode values =
  let w = Sim.Varint.writer () in
  List.iter (Sim.Varint.add w) values;
  Bytes.sub_string (Sim.Varint.bytes w) 0 (Sim.Varint.length w)

let decode n bytes =
  let r = Sim.Varint.reader () in
  Sim.Varint.seek r (Bytes.of_string bytes) 0;
  let values = List.init n (fun _ -> Sim.Varint.read r) in
  (values, Sim.Varint.pos r)

(* Small magnitudes of both signs, the one- and two-byte boundaries, and
   the extremes of the 63-bit range. *)
let slot_values =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      small_list
        (frequency
           [
             (4, int_range (-3) 3);
             (2, oneofl [ -65; -64; 63; 64; -8193; -8192; 8191; 8192 ]);
             (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1 ]);
             (2, int);
           ]))

let prop_round_trip =
  QCheck.Test.make ~name:"record codec round-trips" ~count:500 slot_values
    (fun values ->
      let bytes = encode values in
      decode (List.length values) bytes = (values, String.length bytes))

let prop_injective =
  QCheck.Test.make ~name:"record codec is injective" ~count:500
    (QCheck.pair slot_values slot_values) (fun (a, b) ->
      (encode a = encode b) = (a = b))

let test_codec_widths () =
  List.iter
    (fun (x, width) ->
      check int_t (Printf.sprintf "bytes for %d" x) width
        (String.length (encode [ x ])))
    [
      (0, 1); (-64, 1); (63, 1); (64, 2); (-65, 2); (8191, 2); (8192, 3);
      (min_int, 9); (max_int, 9);
    ]

(* -- rtos ---------------------------------------------------------------- *)

let test_rtos_fifo_order () =
  let engine = Sim.Engine.create () in
  let pe =
    Sim.Rtos.create ~engine ~name:"pe" ~policy:Sim.Rtos.Fifo ~frequency_mhz:100 ()
  in
  let done_order = ref [] in
  Sim.Rtos.submit pe ~task:"low" ~priority:0 ~cycles:1000L (fun () ->
      done_order := "low" :: !done_order);
  Sim.Rtos.submit pe ~task:"high" ~priority:9 ~cycles:10L (fun () ->
      done_order := "high" :: !done_order);
  ignore (Sim.Engine.run engine);
  check (Alcotest.list Alcotest.string) "fifo ignores priority"
    [ "low"; "high" ] (List.rev !done_order)

let test_rtos_priority_order () =
  let engine = Sim.Engine.create () in
  let pe =
    Sim.Rtos.create ~engine ~name:"pe" ~policy:Sim.Rtos.Priority_preemptive
      ~frequency_mhz:100 ()
  in
  let done_order = ref [] in
  (* Submit three queued jobs while the first runs; the high-priority one
     preempts. *)
  Sim.Rtos.submit pe ~task:"first" ~priority:1 ~cycles:10_000L (fun () ->
      done_order := "first" :: !done_order);
  Sim.Rtos.submit pe ~task:"low" ~priority:0 ~cycles:100L (fun () ->
      done_order := "low" :: !done_order);
  Sim.Rtos.submit pe ~task:"high" ~priority:5 ~cycles:100L (fun () ->
      done_order := "high" :: !done_order);
  ignore (Sim.Engine.run engine);
  check (Alcotest.list Alcotest.string) "preemptive order"
    [ "high"; "first"; "low" ]
    (List.rev !done_order)

let test_rtos_preemption_resumes () =
  let engine = Sim.Engine.create () in
  let pe =
    Sim.Rtos.create ~engine ~name:"pe" ~policy:Sim.Rtos.Priority_preemptive
      ~frequency_mhz:1 ()
    (* 1 MHz -> 1000 ns per cycle, easy arithmetic *)
  in
  let victim_done = ref (-1L) in
  Sim.Rtos.submit pe ~task:"victim" ~priority:0 ~cycles:100L (fun () ->
      victim_done := Sim.Engine.now engine);
  (* Let the victim run 10 cycles, then preempt with a 50-cycle job. *)
  ignore
    (Sim.Engine.schedule engine ~delay:10_000L (fun () ->
         Sim.Rtos.submit pe ~task:"intruder" ~priority:5 ~cycles:50L (fun () -> ())));
  ignore (Sim.Engine.run engine);
  (* victim: 10 cycles before + 90 after the 50-cycle intruder. *)
  check int64_t "victim completion time" 150_000L !victim_done;
  check int64_t "executed cycles" 150L (Sim.Rtos.executed_cycles pe);
  check bool_t "idle at end" true (Sim.Rtos.idle pe)

let test_rtos_busy_accounting () =
  let engine = Sim.Engine.create () in
  let pe =
    Sim.Rtos.create ~engine ~name:"pe" ~policy:Sim.Rtos.Fifo ~frequency_mhz:1000 ()
  in
  Sim.Rtos.submit pe ~task:"t" ~priority:0 ~cycles:500L (fun () -> ());
  Sim.Rtos.submit pe ~task:"t" ~priority:0 ~cycles:500L (fun () -> ());
  ignore (Sim.Engine.run engine);
  check int64_t "busy ns" 1000L (Sim.Rtos.busy_ns pe);
  check int64_t "cycles" 1000L (Sim.Rtos.executed_cycles pe)

let test_rtos_perf_factor () =
  let engine = Sim.Engine.create () in
  let accel =
    Sim.Rtos.create ~engine ~name:"accel" ~policy:Sim.Rtos.Fifo
      ~frequency_mhz:1000 ~perf_factor:10.0 ()
  in
  Sim.Rtos.submit accel ~task:"t" ~priority:0 ~cycles:1000L (fun () -> ());
  ignore (Sim.Engine.run engine);
  check int64_t "scaled cycles" 100L (Sim.Rtos.executed_cycles accel)

(* Property: N sequential jobs on a FIFO PE take exactly the sum of their
   durations. *)
let prop_fifo_work_conservation =
  QCheck.Test.make ~name:"fifo work conservation" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (QCheck.int_range 1 10_000))
    (fun cycles_list ->
      let engine = Sim.Engine.create () in
      let pe =
        Sim.Rtos.create ~engine ~name:"pe" ~policy:Sim.Rtos.Fifo
          ~frequency_mhz:1000 ()
      in
      List.iter
        (fun c ->
          Sim.Rtos.submit pe ~task:"t" ~priority:0 ~cycles:(Int64.of_int c)
            (fun () -> ()))
        cycles_list;
      ignore (Sim.Engine.run engine);
      let total = List.fold_left ( + ) 0 cycles_list in
      Sim.Rtos.executed_cycles pe = Int64.of_int total)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "nested scheduling" `Quick test_schedule_in_callback;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          QCheck_alcotest.to_alcotest prop_monotone_time;
        ] );
      ( "trace",
        [
          Alcotest.test_case "aggregation" `Quick test_trace_aggregation;
          Alcotest.test_case "line round-trip" `Quick test_trace_line_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "bad lines" `Quick test_trace_bad_lines;
          Alcotest.test_case "line-numbered errors" `Quick
            test_trace_of_lines_line_numbers;
          Alcotest.test_case "last-line numbering" `Quick
            test_trace_last_line_numbering;
          Alcotest.test_case "interning torture" `Quick
            test_trace_intern_torture;
          QCheck_alcotest.to_alcotest prop_trace_roundtrip;
          QCheck_alcotest.to_alcotest prop_packed_store;
        ] );
      ( "codec",
        [
          Alcotest.test_case "one- and two-byte limits" `Quick test_codec_widths;
          QCheck_alcotest.to_alcotest prop_round_trip;
          QCheck_alcotest.to_alcotest prop_injective;
        ] );
      ( "rtos",
        [
          Alcotest.test_case "fifo order" `Quick test_rtos_fifo_order;
          Alcotest.test_case "priority order" `Quick test_rtos_priority_order;
          Alcotest.test_case "preemption resumes" `Quick test_rtos_preemption_resumes;
          Alcotest.test_case "busy accounting" `Quick test_rtos_busy_accounting;
          Alcotest.test_case "perf factor" `Quick test_rtos_perf_factor;
          QCheck_alcotest.to_alcotest prop_fifo_work_conservation;
        ] );
    ]
