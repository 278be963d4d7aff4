(* Fleet-scale TUTWLAN: N terminals contending on one slotted shared
   medium.

   The paper models a single TUTMAC terminal against a loopback radio;
   this module generalises the scenario to a fleet.  Each terminal's MAC
   is a real EFSM (fragment progression, binary-exponential-backoff
   retry policy, graceful-departure states) executed under either EFSM
   engine, so the engine-parity guarantee of the single-terminal
   scenario carries over to the fleet.  The channel itself is host code
   around one [Sim.Engine]:

   - transmissions register at slot boundaries; the first registrant of
     a slot schedules a zero-delay resolution event, which by the strict
     [(time, seq)] contract fires after every same-slot registration
     (registrations were all scheduled at earlier instants, so they
     carry smaller sequence numbers);
   - two or more registrants corrupt each other (collision); a single
     registrant is then subjected to the fault plan's channel injectors
     (per-terminal loss and interference bursts) and to the liveness of
     its destination;
   - outcomes (receive + ack, or failure) land one slot later, at the
     end of the airtime.

   Every random draw comes from a per-terminal splitmix stream (arrival
   jitter, backoff) or a per-(spec, terminal) stream inside
   [Fault.Injector] (channel faults), and every event is scheduled from
   a deterministic closure, so a [(plan, seed)] pair replays
   bit-identically across engines and repeated runs. *)

type churn_action = Leave | Rejoin

type churn_event = { terminal : int; at_ns : int; action : churn_action }

type config = {
  terminals : int;
  duration_ns : int;
  slot_ns : int;
  seed : int;
  mix : Workload.profile list;
  max_retries : int;
  cw_min : int;
  cw_max : int;
  churn : churn_event list;
  faults : Fault.Plan.t;
  fault_seed : int;
  jobs : int;
  engine : Efsm.Exec.engine;
}

let default =
  {
    terminals = 8;
    duration_ns = 2_000_000_000;
    slot_ns = 50_000;
    seed = 1;
    mix = Workload.default_mix;
    max_retries = 6;
    cw_min = 2;
    cw_max = 64;
    churn = [];
    faults = Fault.Plan.empty;
    fault_seed = 1;
    jobs = 1;
    engine = Efsm.Exec.Compiled;
  }

(* ---- churn specs --------------------------------------------------- *)

let churn_of_string text =
  (* "4@200-800,5@300": terminal 4 leaves at 200 ms and rejoins at
     800 ms; terminal 5 leaves at 300 ms for good. *)
  let ms_field spec what s =
    match int_of_string_opt s with
    | Some ms when ms >= 0 -> Ok ms
    | _ -> Error (Printf.sprintf "%S: bad %s %S" spec what s)
  in
  let item spec =
    match String.index_opt spec '@' with
    | None ->
      Error (Printf.sprintf "%S: expected TERMINAL@LEAVE_MS[-REJOIN_MS]" spec)
    | Some at -> (
      let term = String.sub spec 0 at in
      let times = String.sub spec (at + 1) (String.length spec - at - 1) in
      match int_of_string_opt term with
      | None -> Error (Printf.sprintf "%S: bad terminal index %S" spec term)
      | Some terminal when terminal < 0 ->
        Error (Printf.sprintf "%S: bad terminal index %S" spec term)
      | Some terminal -> (
        let leave_s, rejoin_s =
          match String.index_opt times '-' with
          | None -> (times, None)
          | Some dash ->
            ( String.sub times 0 dash,
              Some
                (String.sub times (dash + 1) (String.length times - dash - 1))
            )
        in
        match ms_field spec "leave time" leave_s with
        | Error e -> Error e
        | Ok leave_ms -> (
          let leave_ev =
            { terminal; at_ns = leave_ms * 1_000_000; action = Leave }
          in
          match rejoin_s with
          | None -> Ok [ leave_ev ]
          | Some r -> (
            match ms_field spec "rejoin time" r with
            | Error e -> Error e
            | Ok rejoin_ms when rejoin_ms <= leave_ms ->
              Error
                (Printf.sprintf "%S: rejoin %d ms must be after leave %d ms"
                   spec rejoin_ms leave_ms)
            | Ok rejoin_ms ->
              Ok
                [
                  leave_ev;
                  { terminal; at_ns = rejoin_ms * 1_000_000; action = Rejoin };
                ]))))
  in
  if String.trim text = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | spec :: rest -> (
        match item (String.trim spec) with
        | Error e -> Error ("churn: " ^ e)
        | Ok evs -> go (evs :: acc) rest)
    in
    go [] (String.split_on_char ',' text)

(* ---- the MAC state machine ---------------------------------------- *)

let sig_frame = "WlFrame"
let sig_txreq = "WlTxReq"
let sig_txok = "WlTxOk"
let sig_txfail = "WlTxFail"
let sig_backoff = "WlBackoff"
let sig_drop = "WlDrop"
let sig_done = "WlDone"
let sig_rx = "WlRx"
let sig_deliver = "WlDeliver"
let sig_leave = "WlLeave"
let sig_join = "WlJoin"

let mac_machine ~max_retries ~cw_min ~cw_max =
  let open Efsm.Action in
  let on s = Efsm.Machine.On_signal s in
  let tr = Efsm.Machine.transition in
  let rx_actions =
    [
      assign "rx_frags" (v "rx_frags" + i 1);
      If
        ( p "last" = i 1,
          [
            assign "rx_frames" (v "rx_frames" + i 1);
            send ~port:"up" sig_deliver ~args:[ p "seq" ];
          ],
          [] );
    ]
  in
  Efsm.Machine.make ~name:"WlanMac"
    ~states:[ "idle"; "busy"; "departed" ]
    ~initial:"idle"
    ~variables:
      [
        ("cur_seq", V_int 0);
        ("frags_left", V_int 0);
        ("frag_i", V_int 0);
        ("retries", V_int 0);
        ("cw", V_int cw_min);
        ("tx_frames", V_int 0);
        ("abandoned", V_int 0);
        ("rx_frags", V_int 0);
        ("rx_frames", V_int 0);
      ]
    [
      (* A frame reaches the head of the queue: transmit fragment 0. *)
      tr ~src:"idle" ~dst:"busy" (on sig_frame)
        ~actions:
          [
            assign "cur_seq" (p "seq");
            assign "frags_left" (p "frags");
            assign "frag_i" (i 0);
            assign "retries" (i 0);
            assign "cw" (i cw_min);
            send ~port:"phy" sig_txreq ~args:[ p "seq"; i 0 ];
          ];
      (* Fragment acked; more remain: window and retry budget reset. *)
      tr ~src:"busy" ~dst:"busy" (on sig_txok)
        ~guard:(v "frags_left" > i 1)
        ~actions:
          [
            assign "frags_left" (v "frags_left" - i 1);
            assign "frag_i" (v "frag_i" + i 1);
            assign "retries" (i 0);
            assign "cw" (i cw_min);
            send ~port:"phy" sig_txreq ~args:[ v "cur_seq"; v "frag_i" ];
          ];
      (* Last fragment acked: the frame is through. *)
      tr ~src:"busy" ~dst:"idle" (on sig_txok)
        ~guard:(v "frags_left" <= i 1)
        ~actions:
          [
            assign "tx_frames" (v "tx_frames" + i 1);
            send ~port:"phy" sig_done ~args:[ v "cur_seq" ];
          ];
      (* Failed attempt within budget: double the window, back off. *)
      tr ~src:"busy" ~dst:"busy" (on sig_txfail)
        ~guard:(v "retries" < i max_retries)
        ~actions:
          [
            assign "retries" (v "retries" + i 1);
            assign "cw" (v "cw" * i 2);
            If (v "cw" > i cw_max, [ assign "cw" (i cw_max) ], []);
            send ~port:"phy" sig_backoff ~args:[ v "cw"; v "retries" ];
          ];
      (* Retry budget exhausted: abandon cleanly, serve the next frame. *)
      tr ~src:"busy" ~dst:"idle" (on sig_txfail)
        ~guard:(v "retries" >= i max_retries)
        ~actions:
          [
            assign "abandoned" (v "abandoned" + i 1);
            send ~port:"phy" sig_drop ~args:[ v "cur_seq" ];
          ];
      tr ~src:"idle" ~dst:"idle" (on sig_rx) ~actions:rx_actions;
      tr ~src:"busy" ~dst:"busy" (on sig_rx) ~actions:rx_actions;
      (* Churn: a departed MAC discards everything (UML discard
         semantics give the D trace lines) until it rejoins. *)
      tr ~src:"idle" ~dst:"departed" (on sig_leave) ~actions:[];
      tr ~src:"busy" ~dst:"departed" (on sig_leave) ~actions:[];
      tr ~src:"departed" ~dst:"idle" (on sig_join)
        ~actions:
          [
            assign "frags_left" (i 0);
            assign "frag_i" (i 0);
            assign "retries" (i 0);
            assign "cw" (i cw_min);
          ];
    ]

let int_var ex name =
  match Efsm.Exec.read_var ex name with Some (Efsm.Action.V_int n) -> n | _ -> 0

(* ---- frames and terminals ------------------------------------------ *)

type status = Unresolved | Delivered | Abandoned | Flushed

type frame = {
  f_seq : int;
  f_src : int;
  f_dst : int;
  f_frags : int;
  f_born : int;
  mutable f_status : status;
}

type terminal = {
  id : int;
  name : string;
  name_id : int;  (* interned in the trace *)
  profile : Workload.profile;
  class_name : string;
  exec : Efsm.Exec.t;
  mutable serve_next : bool;
      (* the MAC finished its frame during the effect walk in progress;
         the next one is dispatched when the walk ends *)
  arrivals : Prng.t;
  backoff : Prng.t;
  mutable alive : bool;
  mutable epoch : int;  (* bumped at departure; voids in-flight outcomes *)
  mutable cur : frame option;
  mutable att_seq : int;
  mutable att_frag : int;
  queue : frame Queue.t;
  mutable pending_tx : Sim.Engine.handle;
  mutable burst_until : int;
  mutable burst_left : int;  (* bursty profile: frames left in burst *)
  mutable vframe : int;  (* video profile: frame counter *)
  latency : Obs.Histogram.t;
      (* e2e ns of frames this terminal sent: its traffic class's
         histogram, shared by every terminal of the class *)
  mutable offered : int;
  mutable delivered : int;  (* frames it originated, delivered to dst *)
  mutable abandoned : int;
  mutable flushed : int;
  mutable tx_attempts : int;
  mutable collided : int;
  mutable retried : int;
}

(* ---- results ------------------------------------------------------- *)

type terminal_stats = {
  ts_id : int;
  ts_class : string;
  ts_alive : bool;
  ts_offered : int;
  ts_delivered : int;
  ts_abandoned : int;
  ts_flushed : int;
  ts_attempts : int;
  ts_collisions : int;
  ts_retries : int;
  ts_unresolved : int;
  ts_mac_tx_frames : int;  (* read back from the MAC's own variables *)
  ts_mac_rx_frames : int;
  ts_mac_rx_frags : int;
}

type result = {
  r_config : config;
  trace : Sim.Trace.t;
  events : int;
  offered : int;
  delivered : int;
  abandoned : int;
  flushed : int;
  unresolved : int;
  attempts : int;
  slots_used : int;
  collisions : int;
  retries : int;
  frags_delivered : int;
  leaves : int;
  joins : int;
  latency : (string * Obs.Histogram.snapshot) list;
      (* per traffic class, sorted by class name *)
  retry_snapshot : Obs.Histogram.snapshot;
  per_terminal : terminal_stats array;
  fault_stats : Fault.Stats.t option;
}

(* ---- the simulation ------------------------------------------------ *)

let validate config =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if config.terminals < 1 then fail "Wlan.run: terminals must be >= 1";
  if config.duration_ns < 0 then fail "Wlan.run: duration must be >= 0";
  if config.slot_ns < 1 then fail "Wlan.run: slot_ns must be >= 1";
  if config.max_retries < 0 then fail "Wlan.run: max_retries must be >= 0";
  if config.cw_min < 1 then fail "Wlan.run: cw_min must be >= 1";
  if config.cw_max < config.cw_min then
    fail "Wlan.run: cw_max must be >= cw_min";
  List.iter
    (fun ev ->
      if ev.terminal < 0 || ev.terminal >= config.terminals then
        fail "Wlan.run: churn names terminal %d (have %d)" ev.terminal
          config.terminals;
      if ev.at_ns < 0 then fail "Wlan.run: churn time must be >= 0")
    config.churn

let run ?(obs = Obs.Scope.null ()) config =
  validate config;
  let n = config.terminals in
  let slot = config.slot_ns in
  let trace = Sim.Trace.create () in
  let engine = Sim.Engine.create ~obs () in
  let metrics = Obs.Scope.metrics obs in
  let m_offered = Obs.Metrics.counter metrics "wlan.offered"
  and m_delivered = Obs.Metrics.counter metrics "wlan.delivered"
  and m_abandoned = Obs.Metrics.counter metrics "wlan.abandoned"
  and m_flushed = Obs.Metrics.counter metrics "wlan.flushed"
  and m_attempts = Obs.Metrics.counter metrics "wlan.attempts"
  and m_collisions = Obs.Metrics.counter metrics "wlan.collisions"
  and m_retries = Obs.Metrics.counter metrics "wlan.retries"
  and m_frags = Obs.Metrics.counter metrics "wlan.frags_delivered" in
  let injector =
    if Fault.Plan.is_empty config.faults then None
    else
      Some (Fault.Injector.create ~plan:config.faults ~seed:config.fault_seed)
  in
  (* Interned names for the hot-path trace appenders. *)
  let id_env = Sim.Trace.intern trace "wl_env"
  and id_chan = Sim.Trace.intern trace "chan"
  and id_frame_sig = Sim.Trace.intern trace sig_frame
  and id_txreq = Sim.Trace.intern trace sig_txreq
  and id_txok = Sim.Trace.intern trace sig_txok
  and id_txfail = Sim.Trace.intern trace sig_txfail
  and id_drop = Sim.Trace.intern trace sig_drop
  and id_done = Sim.Trace.intern trace sig_done
  and id_rx = Sim.Trace.intern trace sig_rx
  and id_deliver = Sim.Trace.intern trace sig_deliver
  and id_leave_sig = Sim.Trace.intern trace sig_leave
  and id_join_sig = Sim.Trace.intern trace sig_join in
  let machine =
    mac_machine ~max_retries:config.max_retries ~cw_min:config.cw_min
      ~cw_max:config.cw_max
  in
  let program = Efsm.Compiled.compile machine in
  (* Latency is recorded straight into one histogram per traffic class
     (sorted by class name) and retries into one for the fleet. *)
  let class_of id = Workload.profile_name (Workload.profile_for ~mix:config.mix id) in
  let latency_by_class =
    List.init n class_of
    |> List.sort_uniq String.compare
    |> List.map (fun cls -> (cls, Obs.Histogram.create ()))
  in
  let retry_dist = Obs.Histogram.create () in
  let terminals =
    Array.init n (fun id ->
        let name = Printf.sprintf "t%03d" id in
        {
          id;
          name;
          name_id = Sim.Trace.intern trace name;
          profile = Workload.profile_for ~mix:config.mix id;
          class_name = class_of id;
          exec = Efsm.Exec.create config.engine program;
          serve_next = false;
          arrivals = Prng.split ~seed:config.seed ~stream:(2 * id);
          backoff = Prng.split ~seed:config.seed ~stream:((2 * id) + 1);
          alive = true;
          epoch = 0;
          cur = None;
          att_seq = -1;
          att_frag = 0;
          queue = Queue.create ();
          pending_tx = Sim.Engine.never;
          burst_until = -1;
          burst_left = 0;
          vframe = 0;
          latency = List.assoc (class_of id) latency_by_class;
          offered = 0;
          delivered = 0;
          abandoned = 0;
          flushed = 0;
          tx_attempts = 0;
          collided = 0;
          retried = 0;
        })
  in
  (* Frame table, dense in sequence number. *)
  let frames = ref (Array.make 1024 None) in
  let n_frames = ref 0 in
  let add_frame f =
    if !n_frames >= Array.length !frames then begin
      let bigger = Array.make (2 * Array.length !frames) None in
      Array.blit !frames 0 bigger 0 !n_frames;
      frames := bigger
    end;
    !frames.(!n_frames) <- Some f;
    incr n_frames
  in
  let frame_of_seq seq = Option.get !frames.(seq) in
  (* Channel slot bucket: registrations of the slot being collected. *)
  let chan_slot = ref (-1) in
  let chan_txs : terminal list ref = ref [] in
  let slots_used = ref 0 in
  let frags_through = ref 0 in
  let collisions = ref 0 in
  let leaves = ref 0 in
  let joins = ref 0 in
  let record_fault ~time kind target info =
    Sim.Trace.record trace
      (Sim.Trace.Fault { time = Int64.of_int time; kind; target; info })
  in
  let next_boundary now = ((now / slot) + 1) * slot in
  (* Every MAC runs the same program, so one executor resolves the
     dispatch ids of all of them. *)
  let sid_of name = Efsm.Exec.signal_id terminals.(0).exec name in
  let sid_frame = sid_of sig_frame
  and sid_txok = sid_of sig_txok
  and sid_txfail = sid_of sig_txfail
  and sid_rx = sid_of sig_rx
  and sid_leave = sid_of sig_leave
  and sid_join = sid_of sig_join in
  let vint = function Efsm.Action.V_int x -> x | Efsm.Action.V_bool _ -> 0 in
  (* An effect can lead to another dispatch, so the MAC dispatcher, the
     effect interpreter and the channel are one recursive group. *)
  let rec dispatch_mac t ~sender ~sig_id ~sid ~args ~words ~tag ~record =
    let now = Sim.Engine.now_ns engine in
    if record then
      Sim.Trace.record_signal trace ~time:now ~sender ~receiver:t.name_id
        ~signal:sig_id ~words ~tag;
    let before = Efsm.Exec.state t.exec in
    if not (Efsm.Exec.dispatch_id t.exec ~sid ~args) then
      Sim.Trace.record_discard trace ~time:now ~process:t.name_id
        ~signal:sig_id
    else begin
      let after = Efsm.Exec.state t.exec in
      if not (String.equal before after) then
        Sim.Trace.record_state_change trace ~time:now ~process:t.name_id
          ~from_:(Sim.Trace.intern trace before)
          ~to_:(Sim.Trace.intern trace after);
      (* The walk reads the effect count once and never re-enters this
         MAC: serving the next frame dispatches into the same effect
         buffer, so it waits until the walk ends. *)
      for i = 0 to Efsm.Exec.effect_count t.exec - 1 do
        apply_effect t (Efsm.Exec.effect_at t.exec i)
      done;
      if t.serve_next then begin
        t.serve_next <- false;
        start_next t
      end
    end
  and apply_effect t eff =
    let now = Sim.Engine.now_ns engine in
    match eff with
    | Efsm.Action.Eff_compute cycles ->
      Sim.Trace.record_exec trace ~time:now ~process:t.name_id ~cycles
    | Efsm.Action.Eff_send { signal; args; _ } ->
      if String.equal signal sig_txreq then begin
        let seq = vint (List.nth args 0) and frag = vint (List.nth args 1) in
        t.att_seq <- seq;
        t.att_frag <- frag;
        Sim.Trace.record_signal trace ~time:now ~sender:t.name_id
          ~receiver:id_chan ~signal:id_txreq ~words:16 ~tag:seq;
        t.pending_tx <-
          Sim.Engine.schedule_at_ns engine ~time:(next_boundary now)
            (attempt t)
      end
      else if String.equal signal sig_backoff then begin
        let cw = vint (List.nth args 0) and retry = vint (List.nth args 1) in
        t.retried <- t.retried + 1;
        Obs.Metrics.inc m_retries;
        Obs.Histogram.record retry_dist retry;
        Sim.Trace.record_retransmit trace ~time:now ~sender:t.name_id
          ~receiver:id_chan ~signal:id_txreq ~attempt:retry;
        let k = Prng.int t.backoff cw in
        t.pending_tx <-
          Sim.Engine.schedule_at_ns engine
            ~time:(next_boundary now + (k * slot))
            (attempt t)
      end
      else if String.equal signal sig_drop then begin
        let seq = vint (List.nth args 0) in
        Sim.Trace.record_signal trace ~time:now ~sender:t.name_id
          ~receiver:id_chan ~signal:id_drop ~words:2 ~tag:seq;
        record_fault ~time:now "mac_abandon" t.name (string_of_int seq);
        (frame_of_seq seq).f_status <- Abandoned;
        t.abandoned <- t.abandoned + 1;
        Obs.Metrics.inc m_abandoned;
        t.cur <- None;
        t.serve_next <- true
      end
      else if String.equal signal sig_done then begin
        let seq = vint (List.nth args 0) in
        Sim.Trace.record_signal trace ~time:now ~sender:t.name_id
          ~receiver:id_chan ~signal:id_done ~words:2 ~tag:seq;
        t.cur <- None;
        t.serve_next <- true
      end
      else if String.equal signal sig_deliver then begin
        (* [t] is the receiver here; latency is attributed to the
           sender's traffic class. *)
        let seq = vint (List.nth args 0) in
        let f = frame_of_seq seq in
        Sim.Trace.record_signal trace ~time:now ~sender:t.name_id
          ~receiver:id_env ~signal:id_deliver ~words:100 ~tag:seq;
        f.f_status <- Delivered;
        let src = terminals.(f.f_src) in
        src.delivered <- src.delivered + 1;
        Obs.Metrics.inc m_delivered;
        Obs.Histogram.record src.latency (now - f.f_born)
      end
  and start_next t =
    if t.alive && t.cur = None then
      match Queue.take_opt t.queue with
      | None -> ()
      | Some f ->
        t.cur <- Some f;
        (* The offered-frame S line was recorded at arrival; serving it
           from the queue is not a second transfer. *)
        dispatch_mac t ~sender:id_env ~sig_id:id_frame_sig ~sid:sid_frame
          ~args:
            [
              ("seq", Efsm.Action.V_int f.f_seq);
              ("frags", Efsm.Action.V_int f.f_frags);
            ]
          ~words:100 ~tag:f.f_seq ~record:false
  and attempt t () =
    if t.alive then begin
      let now = Sim.Engine.now_ns engine in
      t.tx_attempts <- t.tx_attempts + 1;
      Obs.Metrics.inc m_attempts;
      if !chan_slot <> now then begin
        chan_slot := now;
        chan_txs := []
      end;
      (match !chan_txs with
      | [] -> ignore (Sim.Engine.schedule_ns engine ~delay:0 resolve)
      | _ :: _ -> ());
      chan_txs := t :: !chan_txs
    end
  and resolve () =
    let now = Sim.Engine.now_ns engine in
    let txs = List.rev !chan_txs in
    chan_txs := [];
    chan_slot := -1;
    let outcome_at = now + slot in
    let sched t verdict =
      let epoch = t.epoch in
      ignore
        (Sim.Engine.schedule_at_ns engine ~time:outcome_at (fun () ->
             outcome t epoch verdict))
    in
    match txs with
    | [] -> ()
    | [ t ] ->
      incr slots_used;
      let verdict =
        if t.burst_until > now then begin
          record_fault ~time:now "chan_burst_hit" t.name "-";
          `Fail
        end
        else
          match injector with
          | None -> `Air
          | Some inj -> (
            match
              Fault.Injector.chan_burst_start inj ~now:(Int64.of_int now)
                ~terminal:t.id
            with
            | Some burst_ns ->
              t.burst_until <- now + burst_ns;
              record_fault ~time:now "chan_burst" t.name
                (string_of_int burst_ns);
              `Fail
            | None ->
              if
                Fault.Injector.chan_loss inj ~now:(Int64.of_int now)
                  ~terminal:t.id
              then begin
                record_fault ~time:now "chan_loss" t.name "-";
                `Fail
              end
              else `Air)
      in
      sched t verdict
    | _ :: _ :: _ ->
      incr slots_used;
      incr collisions;
      record_fault ~time:now "chan_collision" "chan"
        (string_of_int (List.length txs));
      Obs.Metrics.inc m_collisions;
      List.iter
        (fun t ->
          t.collided <- t.collided + 1;
          sched t `Fail)
        txs
  and outcome t epoch verdict =
    (* End of the airtime: deliver to the destination and ack the
       sender, or fail the attempt.  A sender that departed in between
       voided its epoch; its MAC (if still departed) discards the
       outcome — a D line — and a rejoined MAC must not see a stale
       verdict for a flushed frame. *)
    let fail () =
      dispatch_mac t ~sender:id_chan ~sig_id:id_txfail ~sid:sid_txfail
        ~args:[] ~words:2 ~tag:t.att_seq ~record:true
    in
    if t.epoch <> epoch then begin
      if not t.alive then fail ()
    end
    else
      match verdict with
      | `Fail -> fail ()
      | `Air -> (
        match t.cur with
        | Some f when f.f_seq = t.att_seq ->
          let dst = terminals.(f.f_dst) in
          if not dst.alive then
            (* No receiver, no ack: the sender discovers the departure
               by timeout and backoff, like any other loss. *)
            fail ()
          else begin
            let last = if t.att_frag = f.f_frags - 1 then 1 else 0 in
            incr frags_through;
            Obs.Metrics.inc m_frags;
            dispatch_mac dst ~sender:id_chan ~sig_id:id_rx ~sid:sid_rx
              ~args:
                [
                  ("seq", Efsm.Action.V_int f.f_seq);
                  ("frag", Efsm.Action.V_int t.att_frag);
                  ("last", Efsm.Action.V_int last);
                ]
              ~words:16 ~tag:f.f_seq ~record:true;
            dispatch_mac t ~sender:id_chan ~sig_id:id_txok ~sid:sid_txok
              ~args:[] ~words:2 ~tag:f.f_seq ~record:true
          end
        | _ -> fail ())
  in
  (* ---- workload ---------------------------------------------------- *)
  let gap_hint t =
    match t.profile with
    | Workload.Cbr { period_ns; _ } -> period_ns
    | Workload.Bursty { mean_gap_ns; _ } -> 2 * mean_gap_ns
    | Workload.Video { frame_period_ns; _ } -> frame_period_ns
  in
  let next_gap t =
    match t.profile with
    | Workload.Cbr { period_ns; _ } -> period_ns
    | Workload.Bursty { mean_gap_ns; burst; _ } ->
      if t.burst_left > 0 then begin
        t.burst_left <- t.burst_left - 1;
        slot
      end
      else begin
        t.burst_left <- max 0 (burst - 1);
        1 + Prng.int t.arrivals (2 * mean_gap_ns)
      end
    | Workload.Video { frame_period_ns; _ } -> frame_period_ns
  in
  let next_frags t =
    match t.profile with
    | Workload.Cbr { frags; _ } | Workload.Bursty { frags; _ } -> max 1 frags
    | Workload.Video { gop; i_frags; p_frags; _ } ->
      let idx = t.vframe in
      t.vframe <- t.vframe + 1;
      max 1 (if idx mod gop = 0 then i_frags else p_frags)
  in
  let next_seq = ref 0 in
  let rec arrival t () =
    let now = Sim.Engine.now_ns engine in
    let f =
      {
        f_seq = !next_seq;
        f_src = t.id;
        f_dst = (t.id + 1) mod n;
        f_frags = next_frags t;
        f_born = now;
        f_status = Unresolved;
      }
    in
    incr next_seq;
    add_frame f;
    t.offered <- t.offered + 1;
    Obs.Metrics.inc m_offered;
    Sim.Trace.record_signal trace ~time:now ~sender:id_env
      ~receiver:t.name_id ~signal:id_frame_sig ~words:100 ~tag:f.f_seq;
    if not t.alive then begin
      (* The user keeps offering; the departed MAC discards (D line)
         and the frame is accounted as cleanly flushed. *)
      dispatch_mac t ~sender:id_env ~sig_id:id_frame_sig ~sid:sid_frame
        ~args:
          [
            ("seq", Efsm.Action.V_int f.f_seq);
            ("frags", Efsm.Action.V_int f.f_frags);
          ]
        ~words:100 ~tag:f.f_seq ~record:false;
      f.f_status <- Flushed;
      t.flushed <- t.flushed + 1;
      Obs.Metrics.inc m_flushed
    end
    else begin
      Queue.add f t.queue;
      start_next t
    end;
    ignore (Sim.Engine.schedule_ns engine ~delay:(next_gap t) (arrival t))
  in
  (* ---- churn ------------------------------------------------------- *)
  let flush (t : terminal) =
    let drop f =
      f.f_status <- Flushed;
      t.flushed <- t.flushed + 1;
      Obs.Metrics.inc m_flushed
    in
    (match t.cur with Some f -> drop f | None -> ());
    t.cur <- None;
    Queue.iter drop t.queue;
    Queue.clear t.queue
  in
  let leave ~kind t () =
    if t.alive then begin
      let now = Sim.Engine.now_ns engine in
      t.alive <- false;
      t.epoch <- t.epoch + 1;
      Sim.Engine.cancel t.pending_tx;
      t.pending_tx <- Sim.Engine.never;
      record_fault ~time:now kind t.name "-";
      incr leaves;
      (match injector with
      | Some inj when String.equal kind "term_crash" ->
        let stats = Fault.Injector.stats inj in
        stats.Fault.Stats.term_crashes <- stats.Fault.Stats.term_crashes + 1
      | _ -> ());
      flush t;
      dispatch_mac t ~sender:id_env ~sig_id:id_leave_sig ~sid:sid_leave
        ~args:[] ~words:1 ~tag:(-1) ~record:true
    end
  in
  let rejoin t () =
    if not t.alive then begin
      let now = Sim.Engine.now_ns engine in
      t.alive <- true;
      t.burst_until <- -1;
      record_fault ~time:now "term_join" t.name "-";
      incr joins;
      dispatch_mac t ~sender:id_env ~sig_id:id_join_sig ~sid:sid_join
        ~args:[] ~words:1 ~tag:(-1) ~record:true
    end
  in
  (* ---- schedule the world ------------------------------------------ *)
  Array.iter
    (fun t ->
      let first = 1 + Prng.int t.arrivals (max 1 (gap_hint t)) in
      ignore (Sim.Engine.schedule_ns engine ~delay:first (arrival t)))
    terminals;
  List.iter
    (fun ev ->
      let t = terminals.(ev.terminal) in
      match ev.action with
      | Leave ->
        ignore
          (Sim.Engine.schedule_at_ns engine ~time:ev.at_ns
             (leave ~kind:"term_leave" t))
      | Rejoin ->
        ignore (Sim.Engine.schedule_at_ns engine ~time:ev.at_ns (rejoin t)))
    config.churn;
  (match injector with
  | None -> ()
  | Some inj ->
    List.iter
      (fun (term, at_ns) ->
        if term < n then
          let t = terminals.(term) in
          ignore
            (Sim.Engine.schedule_at_ns engine ~time:(Int64.to_int at_ns)
               (leave ~kind:"term_crash" t)))
      (Fault.Injector.term_crashes inj ~terminals:n));
  let events =
    Sim.Engine.run ~until:(Int64.of_int config.duration_ns) engine
  in
  (* ---- gather ------------------------------------------------------ *)
  let latency =
    List.map (fun (cls, h) -> (cls, Obs.Histogram.snapshot h)) latency_by_class
  in
  let retry_snapshot = Obs.Histogram.snapshot retry_dist in
  (* Surface the per-class percentiles through the metrics registry. *)
  List.iter
    (fun (cls, snap) ->
      Obs.Histogram.absorb
        (Obs.Metrics.hdr metrics ("wlan.latency_ns." ^ cls))
        snap)
    latency;
  Obs.Histogram.absorb
    (Obs.Metrics.hdr metrics "wlan.retry_attempt")
    retry_snapshot;
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 terminals in
  (* Frames still queued or in flight at the horizon, counted from the
     frame table rather than as the residual of the other outcomes, so
     the accounting identity can fail. *)
  let unresolved = Array.make n 0 in
  for seq = 0 to !n_frames - 1 do
    let f = frame_of_seq seq in
    if f.f_status = Unresolved then
      unresolved.(f.f_src) <- unresolved.(f.f_src) + 1
  done;
  let offered = sum (fun t -> t.offered)
  and delivered = sum (fun t -> t.delivered)
  and abandoned = sum (fun t -> t.abandoned)
  and flushed = sum (fun t -> t.flushed) in
  let per_terminal =
    Array.map
      (fun t ->
        {
          ts_id = t.id;
          ts_class = t.class_name;
          ts_alive = t.alive;
          ts_offered = t.offered;
          ts_delivered = t.delivered;
          ts_abandoned = t.abandoned;
          ts_flushed = t.flushed;
          ts_attempts = t.tx_attempts;
          ts_collisions = t.collided;
          ts_retries = t.retried;
          ts_unresolved = unresolved.(t.id);
          ts_mac_tx_frames = int_var t.exec "tx_frames";
          ts_mac_rx_frames = int_var t.exec "rx_frames";
          ts_mac_rx_frags = int_var t.exec "rx_frags";
        })
      terminals
  in
  {
    r_config = config;
    trace;
    events;
    offered;
    delivered;
    abandoned;
    flushed;
    unresolved = Array.fold_left ( + ) 0 unresolved;
    attempts = sum (fun t -> t.tx_attempts);
    slots_used = !slots_used;
    collisions = !collisions;
    retries = sum (fun t -> t.retried);
    frags_delivered = !frags_through;
    leaves = !leaves;
    joins = !joins;
    latency;
    retry_snapshot;
    per_terminal;
    fault_stats = Option.map Fault.Injector.stats injector;
  }

(* ---- rendering ----------------------------------------------------- *)

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let engine_name = function
  | Efsm.Exec.Reference -> "reference"
  | Efsm.Exec.Compiled -> "compiled"

let render r =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let c = r.r_config in
  line "TUTWLAN fleet report";
  line "====================";
  (* The engine is deliberately absent: the rendered report is
     byte-identical across engines, and the CI golden diff relies on
     that. *)
  line "terminals %d  duration %.3f s  slot %d us  seed %d" c.terminals
    (float_of_int c.duration_ns /. 1e9)
    (c.slot_ns / 1000) c.seed;
  line "mac: max_retries %d  cw %d..%d slots" c.max_retries c.cw_min c.cw_max;
  line "";
  line
    "frames   offered %d  delivered %d (%.1f%%)  abandoned %d  flushed %d  \
     unresolved %d"
    r.offered r.delivered (pct r.delivered r.offered) r.abandoned r.flushed
    r.unresolved;
  line
    "channel  attempts %d  busy slots %d  collisions %d (%.1f%% of busy \
     slots)  retries %d  fragments through %d"
    r.attempts r.slots_used r.collisions
    (pct r.collisions r.slots_used)
    r.retries r.frags_delivered;
  line
    "fleet    throughput %.1f frames/s  %.1f fragments/s  churn: %d leaves, \
     %d joins"
    (if c.duration_ns = 0 then 0.0
     else float_of_int r.delivered *. 1e9 /. float_of_int c.duration_ns)
    (if c.duration_ns = 0 then 0.0
     else float_of_int r.frags_delivered *. 1e9 /. float_of_int c.duration_ns)
    r.leaves r.joins;
  (match r.fault_stats with
  | None -> ()
  | Some s ->
    line
      "faults   channel losses %d  interference bursts %d  terminal crashes \
       %d"
      s.Fault.Stats.chan_losses s.Fault.Stats.chan_bursts
      s.Fault.Stats.term_crashes);
  line "";
  line
    "latency by class (us)   count      mean       p50       p95       p99  \
     \     max";
  List.iter
    (fun (cls, snap) ->
      if snap.Obs.Histogram.s_count = 0 then line "  %-20s %7d" cls 0
      else
        line "  %-20s %7d %9.1f %9d %9d %9d %9d" cls
          snap.Obs.Histogram.s_count
          (Obs.Histogram.mean snap /. 1e3)
          (Obs.Histogram.quantile snap 50.0 / 1000)
          (Obs.Histogram.quantile snap 95.0 / 1000)
          (Obs.Histogram.quantile snap 99.0 / 1000)
          (snap.Obs.Histogram.s_max / 1000))
    r.latency;
  line "";
  (if r.retry_snapshot.Obs.Histogram.s_count = 0 then line "retries: none"
   else
     line "retries: %d total  attempt# p50 %d  p95 %d  max %d"
       r.retry_snapshot.Obs.Histogram.s_count
       (Obs.Histogram.quantile r.retry_snapshot 50.0)
       (Obs.Histogram.quantile r.retry_snapshot 95.0)
       r.retry_snapshot.Obs.Histogram.s_max);
  line "";
  line
    "terminal  class   alive  offered  delivrd  abandnd  flushed  attempts  \
     collis  retries  mac_tx  mac_rx  rx_frags";
  Array.iter
    (fun ts ->
      line "  t%03d    %-7s %-5s %8d %8d %8d %8d %9d %7d %8d %7d %7d %9d"
        ts.ts_id ts.ts_class
        (if ts.ts_alive then "yes" else "no")
        ts.ts_offered ts.ts_delivered ts.ts_abandoned ts.ts_flushed
        ts.ts_attempts ts.ts_collisions ts.ts_retries ts.ts_mac_tx_frames
        ts.ts_mac_rx_frames ts.ts_mac_rx_frags)
    r.per_terminal;
  Buffer.contents buf

let render_json r =
  let c = r.r_config in
  Obs.Json.Obj
    [
      ( "config",
        Obs.Json.Obj
          [
            ("terminals", Obs.Json.Int c.terminals);
            ("duration_ns", Obs.Json.Int c.duration_ns);
            ("slot_ns", Obs.Json.Int c.slot_ns);
            ("seed", Obs.Json.Int c.seed);
            ("max_retries", Obs.Json.Int c.max_retries);
            ("cw_min", Obs.Json.Int c.cw_min);
            ("cw_max", Obs.Json.Int c.cw_max);
            ("engine", Obs.Json.Str (engine_name c.engine));
          ] );
      ("events", Obs.Json.Int r.events);
      ("offered", Obs.Json.Int r.offered);
      ("delivered", Obs.Json.Int r.delivered);
      ("abandoned", Obs.Json.Int r.abandoned);
      ("flushed", Obs.Json.Int r.flushed);
      ("unresolved", Obs.Json.Int r.unresolved);
      ("attempts", Obs.Json.Int r.attempts);
      ("busy_slots", Obs.Json.Int r.slots_used);
      ("collisions", Obs.Json.Int r.collisions);
      ("retries", Obs.Json.Int r.retries);
      ("frags_delivered", Obs.Json.Int r.frags_delivered);
      ("leaves", Obs.Json.Int r.leaves);
      ("joins", Obs.Json.Int r.joins);
      ( "latency_ns",
        Obs.Json.Obj
          (List.map
             (fun (cls, snap) -> (cls, Obs.Histogram.to_json snap))
             r.latency) );
      ("retry_attempts", Obs.Histogram.to_json r.retry_snapshot);
      ( "per_terminal",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (fun ts ->
                  Obs.Json.Obj
                    [
                      ("id", Obs.Json.Int ts.ts_id);
                      ("class", Obs.Json.Str ts.ts_class);
                      ("alive", Obs.Json.Bool ts.ts_alive);
                      ("offered", Obs.Json.Int ts.ts_offered);
                      ("delivered", Obs.Json.Int ts.ts_delivered);
                      ("abandoned", Obs.Json.Int ts.ts_abandoned);
                      ("flushed", Obs.Json.Int ts.ts_flushed);
                      ("attempts", Obs.Json.Int ts.ts_attempts);
                      ("collisions", Obs.Json.Int ts.ts_collisions);
                      ("retries", Obs.Json.Int ts.ts_retries);
                      ("mac_tx_frames", Obs.Json.Int ts.ts_mac_tx_frames);
                      ("mac_rx_frames", Obs.Json.Int ts.ts_mac_rx_frames);
                      ("mac_rx_frags", Obs.Json.Int ts.ts_mac_rx_frags);
                    ])
                r.per_terminal)) );
    ]
