(* Isolated replays of the layers hidden inside one simulation call,
   each driven by that call's own event log and timed alone:

   - trace recording: the events re-recorded into a fresh arena through
     the unboxed appenders, with every string interned beforehand;
   - the event calendar: the event timestamps pushed through a calendar
     engine with no-op callbacks, keeping [window] events pending (the
     classic hold model; callers pass the real run's peak pending count,
     since a calendar queue's cost depends on its population);
   - EFSM dispatch: the logged (receiver, signal) sequence dispatched on
     fresh compiled instances with synthetic int arguments;
   - CRC-32: the sizes of the CRC-framed messages digested.

   These are estimates of each layer's cost, not in-program
   measurements: the replayed stream is the real one, the surrounding
   state is not. *)

type input = {
  trace : Sim.Trace.t;
  call_s : float;  (* host seconds of the simulation call that logged it *)
  machine_of : string -> Efsm.Machine.t option;
  framed : sender:string -> receiver:string -> bool;
}

type result = {
  records : int;
  record_s : float;
  engine_s : float;
  dispatches : int;
  dispatch_s : float;
  crc_bytes : int;
  crc_s : float;
  call_s : float;
}

let repeats = 3

let median_time f =
  let times =
    List.init repeats (fun _ ->
        let prepared = f () in
        let t0 = Monotonic_clock.now () in
        prepared ();
        Spans.seconds_between t0 (Monotonic_clock.now ()))
  in
  List.nth (List.sort compare times) (repeats / 2)

(* Parameters each signal's transitions read, so synthetic arguments
   bind every name a guard or action looks up. *)
let params_by_signal (m : Efsm.Machine.t) =
  let rec expr acc = function
    | Efsm.Action.Param p -> if List.mem p acc then acc else p :: acc
    | Neg e | Not e -> expr acc e
    | Bin (_, a, b) -> expr (expr acc a) b
    | Int _ | Bool _ | Var _ -> acc
  and stmts acc = List.fold_left stmt acc
  and stmt acc = function
    | Efsm.Action.Assign (_, e) | Compute e -> expr acc e
    | Send { args; _ } -> List.fold_left expr acc args
    | If (c, a, b) -> stmts (stmts (expr acc c) a) b
    | While (c, body) -> stmts (expr acc c) body
  in
  List.fold_left
    (fun table (tr : Efsm.Machine.transition) ->
      match tr.trigger with
      | On_signal s ->
        let acc = Option.value (List.assoc_opt s table) ~default:[] in
        let acc = Option.fold ~none:acc ~some:(expr acc) tr.guard in
        (s, stmts acc tr.actions) :: List.remove_assoc s table
      | After _ | Completion -> table)
    [] m.transitions

let events trace = Array.init (Sim.Trace.length trace) (Sim.Trace.get trace)

let time_of = function
  | Sim.Trace.Exec { time; _ }
  | Signal { time; _ }
  | State_change { time; _ }
  | Discard { time; _ }
  | Fault { time; _ }
  | Retransmit { time; _ }
  | Flow_hop { time; _ } ->
    Int64.to_int time

let record_replay evs =
  let strings = Hashtbl.create 256 in
  let index s =
    match Hashtbl.find_opt strings s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length strings in
      Hashtbl.add strings s i;
      i
  in
  (* Each event as seven ints: kind, time, up to five operands (string
     operands as indexes into [strings]).  Fault events have no unboxed
     appender and go through [record]. *)
  let n = Array.length evs in
  let ops = Array.make (7 * n) 0 in
  Array.iteri
    (fun k ev ->
      let set j v = ops.((7 * k) + j) <- v in
      set 1 (time_of ev);
      match ev with
      | Sim.Trace.Exec { process; cycles; _ } ->
        set 0 0; set 2 (index process); set 3 (Int64.to_int cycles)
      | Signal { sender; receiver; signal; words; tag; _ } ->
        set 0 1; set 2 (index sender); set 3 (index receiver);
        set 4 (index signal); set 5 words; set 6 tag
      | State_change { process; from_; to_; _ } ->
        set 0 2; set 2 (index process); set 3 (index from_); set 4 (index to_)
      | Discard { process; signal; _ } ->
        set 0 3; set 2 (index process); set 3 (index signal)
      | Retransmit { sender; receiver; signal; attempt; _ } ->
        set 0 4; set 2 (index sender); set 3 (index receiver);
        set 4 (index signal); set 5 attempt
      | Flow_hop { flow; stage; where_; dur; _ } ->
        set 0 5; set 2 flow; set 3 (index stage); set 4 (index where_);
        set 5 (Int64.to_int dur)
      | Fault _ -> set 0 6)
    evs;
  let names = Array.make (Hashtbl.length strings) "" in
  Hashtbl.iter (fun s i -> names.(i) <- s) strings;
  let prepare () =
    let tr = Sim.Trace.create () in
    let id = Array.map (Sim.Trace.intern tr) names in
    fun () ->
      for k = 0 to n - 1 do
        let o = 7 * k in
        let time = ops.(o + 1) in
        match ops.(o) with
        | 0 -> Sim.Trace.record_exec tr ~time ~process:id.(ops.(o + 2)) ~cycles:ops.(o + 3)
        | 1 ->
          Sim.Trace.record_signal tr ~time ~sender:id.(ops.(o + 2))
            ~receiver:id.(ops.(o + 3)) ~signal:id.(ops.(o + 4)) ~words:ops.(o + 5)
            ~tag:ops.(o + 6)
        | 2 ->
          Sim.Trace.record_state_change tr ~time ~process:id.(ops.(o + 2))
            ~from_:id.(ops.(o + 3)) ~to_:id.(ops.(o + 4))
        | 3 -> Sim.Trace.record_discard tr ~time ~process:id.(ops.(o + 2)) ~signal:id.(ops.(o + 3))
        | 4 ->
          Sim.Trace.record_retransmit tr ~time ~sender:id.(ops.(o + 2))
            ~receiver:id.(ops.(o + 3)) ~signal:id.(ops.(o + 4)) ~attempt:ops.(o + 5)
        | 5 ->
          Sim.Trace.record_flow_hop tr ~time ~flow:ops.(o + 2) ~stage:id.(ops.(o + 3))
            ~where_:id.(ops.(o + 4)) ~dur:ops.(o + 5)
        | _ -> Sim.Trace.record tr evs.(k)
      done
  in
  median_time prepare

let engine_replay ~window evs =
  let times = Array.map time_of evs in
  let n = Array.length times in
  let prepare () =
    let engine = Sim.Engine.create ~backend:`Calendar () in
    let next = ref 0 in
    let rec fire () =
      if !next < n then begin
        let time = max times.(!next) (Sim.Engine.now_ns engine) in
        incr next;
        ignore (Sim.Engine.schedule_at_ns engine ~time fire)
      end
    in
    fun () ->
      for _ = 1 to min window n do
        fire ()
      done;
      ignore (Sim.Engine.run engine)
  in
  median_time prepare

let dispatch_replay input evs =
  (* One compiled program per machine, shared by its receivers. *)
  let programs = Hashtbl.create 8 and machines = Hashtbl.create 64 in
  let machine name =
    match Hashtbl.find_opt machines name with
    | Some m -> m
    | None ->
      let m =
        Option.map
          (fun (m : Efsm.Machine.t) ->
            match Hashtbl.find_opt programs m.name with
            | Some p -> p
            | None ->
              let p = (Efsm.Compiled.compile m, params_by_signal m) in
              Hashtbl.add programs m.name p;
              p)
          (input.machine_of name)
      in
      Hashtbl.add machines name m;
      m
  in
  let stream =
    Array.to_list evs
    |> List.filter_map (function
         | Sim.Trace.Signal { receiver; signal; _ } ->
           Option.map
             (fun (prog, params) ->
               let args =
                 List.mapi
                   (fun k p -> (p, Efsm.Action.V_int (k + 1)))
                   (Option.value (List.assoc_opt signal params) ~default:[])
               in
               (receiver, prog, signal, args))
             (machine receiver)
         | _ -> None)
    |> Array.of_list
  in
  let prepare () =
    let insts = Hashtbl.create 64 in
    let calls =
      Array.map
        (fun (receiver, prog, signal, args) ->
          let inst =
            match Hashtbl.find_opt insts receiver with
            | Some i -> i
            | None ->
              let i = Efsm.Compiled.create prog in
              Hashtbl.add insts receiver i;
              i
          in
          (inst, Efsm.Compiled.signal_id inst signal, args))
        stream
    in
    fun () ->
      Array.iter
        (fun (inst, sid, args) ->
          try ignore (Efsm.Compiled.dispatch_id inst ~sid ~args)
          with Efsm.Action.Type_error _ -> ())
        calls
  in
  (Array.length stream, median_time prepare)

(* An inter-PE message is framed at the sender and checked at the
   receiver: two digests of its payload (retransmitted copies, a few per
   cent of messages, are left out). *)
let crc_replay input evs =
  let payloads = Hashtbl.create 16 in
  let frames =
    Array.to_list evs
    |> List.filter_map (function
         | Sim.Trace.Signal { sender; receiver; words; _ }
           when input.framed ~sender ~receiver ->
           Some (words * 4)
         | _ -> None)
    |> List.map (fun len ->
           match Hashtbl.find_opt payloads len with
           | Some p -> p
           | None ->
             let p = String.init len (fun i -> Char.chr ((i * 29) land 0xff)) in
             Hashtbl.add payloads len p;
             p)
    |> Array.of_list
  in
  let bytes = Array.fold_left (fun acc p -> acc + (2 * String.length p)) 0 frames in
  let prepare () () =
    Array.iter
      (fun p ->
        ignore (Sys.opaque_identity (Crc.Crc32.digest p));
        ignore (Sys.opaque_identity (Crc.Crc32.digest p)))
      frames
  in
  (bytes, median_time prepare)

let run ~window input =
  let evs = events input.trace in
  let dispatches, dispatch_s = dispatch_replay input evs in
  let crc_bytes, crc_s = crc_replay input evs in
  {
    records = Array.length evs;
    record_s = record_replay evs;
    engine_s = engine_replay ~window evs;
    dispatches;
    dispatch_s;
    crc_bytes;
    crc_s;
    call_s = input.call_s;
  }
