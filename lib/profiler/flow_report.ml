type class_row = {
  origin : string;
  terminal : string;
  delivered : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  max_ns : int;
}

type stage_row = {
  s_origin : string;
  s_stage : string;
  hops : int;
  total_ns : int;
  s_mean_ns : float;
  s_p99_ns : int;
  s_max_ns : int;
}

type pe_row = {
  pe : string;
  busy_ns : int64;
  util_pct : float;
  peak_ready : int;
}

type segment_row = { seg : string; seg_words : int64; seg_peak_waiting : int }
type retry_row = { r_signal : string; r_retries : int; r_max_attempt : int }

type t = {
  minted : int;
  completed : int;
  classes : class_row list;
  stages : stage_row list;
  pes : pe_row list;
  segments : segment_row list;
  retries : retry_row list;
  giveups : int;
  duration_ns : int64 option;
}

let stage_rank stage =
  let rec find i = function
    | [] -> List.length Obs.Flow.all_stages
    | s :: rest -> if Obs.Flow.stage_name s = stage then i else find (i + 1) rest
  in
  find 0 Obs.Flow.all_stages

let class_of_hdr ~origin ~terminal (s : Obs.Histogram.snapshot) =
  {
    origin;
    terminal;
    delivered = s.Obs.Histogram.s_count;
    mean_ns = Obs.Histogram.mean s;
    p50_ns = Obs.Histogram.quantile s 50.0;
    p90_ns = Obs.Histogram.quantile s 90.0;
    p99_ns = Obs.Histogram.quantile s 99.0;
    max_ns = s.Obs.Histogram.s_max;
  }

let stage_of_hdr ~origin ~stage (s : Obs.Histogram.snapshot) =
  {
    s_origin = origin;
    s_stage = stage;
    hops = s.Obs.Histogram.s_count;
    total_ns = s.Obs.Histogram.s_sum;
    s_mean_ns = Obs.Histogram.mean s;
    s_p99_ns = Obs.Histogram.quantile s 99.0;
    s_max_ns = s.Obs.Histogram.s_max;
  }

(* The retry section's tallies, fed one event at a time so that
   {!of_trace} takes them in the same walk of the log as the flow hops. *)
type retry_tally = {
  per_signal : (string, int * int) Hashtbl.t;  (** retries, max attempt *)
  mutable giveups : int;
}

let new_tally () = { per_signal = Hashtbl.create 8; giveups = 0 }

let tally_event tally = function
  | Sim.Trace.Retransmit { signal; attempt; _ } ->
    let retries, max_attempt =
      Option.value ~default:(0, 0) (Hashtbl.find_opt tally.per_signal signal)
    in
    Hashtbl.replace tally.per_signal signal (retries + 1, max max_attempt attempt)
  | Sim.Trace.Fault { kind = "arq_giveup"; _ } ->
    tally.giveups <- tally.giveups + 1
  | _ -> ()

let retry_rows tally =
  Hashtbl.fold
    (fun signal (retries, max_attempt) acc ->
      { r_signal = signal; r_retries = retries; r_max_attempt = max_attempt }
      :: acc)
    tally.per_signal []
  |> List.sort (fun a b -> String.compare a.r_signal b.r_signal)

let build ?duration_ns ?(pe_busy = []) ?(segments = []) ?pe_peaks tally
    snapshot =
  let minted = ref 0 and completed = ref 0 in
  let classes = ref [] and stages = ref [] in
  let peaks = Hashtbl.create 8 in
  List.iter
    (fun (name, value) ->
      match (String.split_on_char '.' name, value) with
      | [ "flow"; "minted" ], Obs.Metrics.Counter n -> minted := n
      | [ "flow"; "completed" ], Obs.Metrics.Counter n -> completed := n
      | [ "flow"; origin; "e2e"; terminal ], Obs.Metrics.Hdr s ->
        classes := class_of_hdr ~origin ~terminal s :: !classes
      | [ "flow"; origin; "stage"; stage ], Obs.Metrics.Hdr s ->
        stages := stage_of_hdr ~origin ~stage s :: !stages
      | ( [ "sim"; "rtos"; pe; "queue_depth" ],
          Obs.Metrics.Gauge { peak_value; _ } ) ->
        Hashtbl.replace peaks pe peak_value
      | _ -> ())
    snapshot;
  (* A live runtime reads ready-queue peaks straight off the scheduler
     rings (maintained unconditionally); the gauge-derived peaks above
     only serve snapshots with no runtime behind them. *)
  (match pe_peaks with
  | None -> ()
  | Some rows ->
    Hashtbl.reset peaks;
    List.iter (fun (pe, peak) -> Hashtbl.replace peaks pe peak) rows);
  let classes =
    List.sort
      (fun a b ->
        match String.compare a.origin b.origin with
        | 0 -> String.compare a.terminal b.terminal
        | c -> c)
      !classes
  in
  let stages =
    List.sort
      (fun a b ->
        match String.compare a.s_origin b.s_origin with
        | 0 -> compare (stage_rank a.s_stage) (stage_rank b.s_stage)
        | c -> c)
      !stages
  in
  let pe_names =
    List.sort_uniq String.compare
      (List.map fst pe_busy @ Hashtbl.fold (fun pe _ acc -> pe :: acc) peaks [])
  in
  let pes =
    (* Replay has neither busy times nor gauges: no platform rows. *)
    if pe_busy = [] then []
    else
      List.map
        (fun pe ->
          let busy_ns =
            Option.value ~default:0L (List.assoc_opt pe pe_busy)
          in
          let util_pct =
            match duration_ns with
            | Some d when d > 0L ->
              100.0 *. Int64.to_float busy_ns /. Int64.to_float d
            | Some _ | None -> 0.0
          in
          {
            pe;
            busy_ns;
            util_pct;
            peak_ready = Option.value ~default:0 (Hashtbl.find_opt peaks pe);
          })
        pe_names
  in
  let segments =
    List.map
      (fun (seg, seg_words, seg_peak_waiting) ->
        { seg; seg_words; seg_peak_waiting })
      (List.sort compare segments)
  in
  {
    minted = !minted;
    completed = !completed;
    classes;
    stages;
    pes;
    segments;
    retries = retry_rows tally;
    giveups = tally.giveups;
    duration_ns;
  }

let of_snapshot ?duration_ns ?pe_busy ?segments ?pe_peaks ?trace snapshot =
  let tally = new_tally () in
  Option.iter (fun trace -> Sim.Trace.iter trace (tally_event tally)) trace;
  build ?duration_ns ?pe_busy ?segments ?pe_peaks tally snapshot

(* One walk of the log: flow hops rebuild the flow sections, every other
   event feeds the retry tallies. *)
let of_trace trace =
  let metrics = Obs.Metrics.create () in
  let flows = Obs.Flow.create ~metrics () in
  let tally = new_tally () in
  Sim.Trace.iter trace
    (fun event ->
      match event with
      | Sim.Trace.Flow_hop { time; flow; stage = "born"; where_; _ } ->
        Obs.Flow.note_born flows ~flow ~now:time ~origin:where_
      | Sim.Trace.Flow_hop { time; flow; stage = "end"; where_; _ } ->
        ignore (Obs.Flow.complete flows ~flow ~now:time ~terminal:where_)
      | Sim.Trace.Flow_hop { flow; stage; dur; _ } -> (
        match Obs.Flow.stage_of_name stage with
        | Some s -> Obs.Flow.hop flows ~flow ~stage:s ~dur_ns:dur
        | None -> ())
      | event -> tally_event tally event);
  build tally (Obs.Metrics.snapshot metrics)

let render_text t =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "Causal flow report";
  line "==================";
  line "";
  line "flows minted    %6d" t.minted;
  line "flows completed %6d" t.completed;
  line "";
  line "Per-class end-to-end latency [ns]";
  line "  %-36s %9s %11s %9s %9s %9s %9s" "class" "delivered" "mean" "p50"
    "p90" "p99" "max";
  if t.classes = [] then line "  (none)"
  else
    List.iter
      (fun c ->
        line "  %-36s %9d %11.1f %9d %9d %9d %9d"
          (c.origin ^ " -> " ^ c.terminal)
          c.delivered c.mean_ns c.p50_ns c.p90_ns c.p99_ns c.max_ns)
      t.classes;
  line "";
  line "Stage decomposition [ns/hop]";
  line "  %-20s %-10s %7s %11s %11s %9s %9s" "class" "stage" "hops" "total"
    "mean" "p99" "max";
  if t.stages = [] then line "  (none)"
  else
    List.iter
      (fun s ->
        line "  %-20s %-10s %7d %11d %11.1f %9d %9d" s.s_origin s.s_stage
          s.hops s.total_ns s.s_mean_ns s.s_p99_ns s.s_max_ns)
      t.stages;
  if t.pes <> [] || t.segments <> [] then begin
    line "";
    line "Platform";
    if t.pes <> [] then begin
      line "  %-16s %13s %7s %11s" "PE" "busy [ns]" "util%" "peak ready";
      List.iter
        (fun p ->
          line "  %-16s %13Ld %6.1f%% %11d" p.pe p.busy_ns p.util_pct
            p.peak_ready)
        t.pes
    end;
    if t.segments <> [] then begin
      line "  %-16s %13s %19s" "segment" "words" "peak waiting";
      List.iter
        (fun s ->
          line "  %-16s %13Ld %19d" s.seg s.seg_words s.seg_peak_waiting)
        t.segments
    end
  end;
  line "";
  line "ARQ retransmissions";
  if t.retries = [] && t.giveups = 0 then line "  (none)"
  else begin
    line "  %-20s %8s %12s" "signal" "retries" "max attempt";
    List.iter
      (fun r -> line "  %-20s %8d %12d" r.r_signal r.r_retries r.r_max_attempt)
      t.retries;
    line "  give-ups: %d" t.giveups
  end;
  Buffer.contents b

let render_json t =
  let open Obs.Json in
  let class_row c =
    Obj
      [
        ("delivered", Int c.delivered);
        ("max_ns", Int c.max_ns);
        ("mean_ns", Float c.mean_ns);
        ("origin", Str c.origin);
        ("p50_ns", Int c.p50_ns);
        ("p90_ns", Int c.p90_ns);
        ("p99_ns", Int c.p99_ns);
        ("terminal", Str c.terminal);
      ]
  in
  let stage_row s =
    Obj
      [
        ("hops", Int s.hops);
        ("max_ns", Int s.s_max_ns);
        ("mean_ns", Float s.s_mean_ns);
        ("origin", Str s.s_origin);
        ("p99_ns", Int s.s_p99_ns);
        ("stage", Str s.s_stage);
        ("total_ns", Int s.total_ns);
      ]
  in
  let pe_row p =
    Obj
      [
        ("busy_ns", Int (Int64.to_int p.busy_ns));
        ("pe", Str p.pe);
        ("peak_ready", Int p.peak_ready);
        ("util_pct", Float p.util_pct);
      ]
  in
  let segment_row s =
    Obj
      [
        ("peak_waiting", Int s.seg_peak_waiting);
        ("segment", Str s.seg);
        ("words", Int (Int64.to_int s.seg_words));
      ]
  in
  let retry_row r =
    Obj
      [
        ("max_attempt", Int r.r_max_attempt);
        ("retries", Int r.r_retries);
        ("signal", Str r.r_signal);
      ]
  in
  Obj
    [
      ("classes", List (List.map class_row t.classes));
      ("completed", Int t.completed);
      ( "duration_ns",
        match t.duration_ns with
        | Some d -> Int (Int64.to_int d)
        | None -> Null );
      ("giveups", Int t.giveups);
      ("minted", Int t.minted);
      ("pes", List (List.map pe_row t.pes));
      ("retries", List (List.map retry_row t.retries));
      ("segments", List (List.map segment_row t.segments));
      ("stages", List (List.map stage_row t.stages));
    ]
