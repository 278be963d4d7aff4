(* Native-int accumulators: queueing waits fit the 63-bit ns clock and
   bumping them per handled event must not box. *)
type queue_stats = {
  mutable handled : int;
  mutable total_wait_ns : int;
  mutable max_wait_ns : int;
}

(* A pending signal is one row of the process's flat mailbox ring: the
   three int lanes carry (interned signal id, flow id, enqueued-at ns)
   and the payload lane carries the named trigger arguments — no heap
   record per queued event. *)
type proc_rt = {
  decl : Ir.proc_decl;
  name_id : int;  (** process name interned in the runtime's trace *)
  exec : Efsm.Exec.t;
  queue : (string * Efsm.Action.value) list Sim.Mailbox.Flat.t;
      (** lanes: a = interned signal id, b = flow id, c = enqueued_at *)
  mutable busy : bool;
  mutable timer : Sim.Engine.handle;
      (** outstanding After-timer event; [Sim.Engine.never] when none *)
  mutable armed_state : string;
      (** state the timer was armed in; stale firings are discarded *)
  mutable timer_fire : unit -> unit;
      (** shared per-process timer callback (wired after [create] builds
          the runtime record), so re-arming allocates no closure *)
  mutable sched : Sim.Rtos.t;
      (** scheduler of the PE the process currently runs on (the
          environment scheduler for env processes); refreshed on
          degradation re-mapping so the hot path never re-resolves it *)
  mutable eff_idx : int;  (** next effect of the chain in [exec]'s buffer *)
  mutable eff_len : int;  (** effects in the chain, read when it starts *)
  mutable eff_k : unit -> unit;  (** continuation after the chain *)
  mutable eff_cycles : int;  (** cycles of the burst in flight *)
  mutable eff_cont : unit -> unit;
      (** shared compute-burst completion: records the burst and resumes
          the chain at [eff_idx]; one outstanding chain per process
          ([busy]) makes a single cell per process enough *)
  mutable sig_map : int array;
      (** trace signal id -> dispatch-table id (memo; -2 unresolved, -1
          not a signal of this machine), so steady-state dispatch never
          hashes a signal name *)
  mutable finish_fn : unit -> unit;
      (** shared end-of-dispatch continuation (unbusy, re-arm, pump) *)
  mutable current_flow : int;
      (** flow of the event being handled: sends made while handling it
          inherit this id (causal propagation); -1 outside handling *)
  stats : queue_stats;
  track : string;  (** tracing lane, "proc/<name>" *)
  routes : (string, (string, route) Hashtbl.t) Hashtbl.t;
      (** port -> signal -> precompiled route; the same destinations /
          payload words / parameter names {!Ir.destinations},
          {!Ir.signal_words} and {!Ir.signal_params} would compute,
          resolved once at load instead of scanned per send.  Nested
          tables (rather than a [(port, signal)] key) so the per-send
          lookup allocates no key tuple. *)
  m_sends : Obs.Metrics.counter;
  m_discards : Obs.Metrics.counter;
}

and route = {
  r_dests : string list;  (** bindings order, like [Ir.destinations] *)
  r_words : int;
  r_params : string array;  (** receiver parameter names, positional *)
  r_sig_id : int;  (** the signal, interned *)
  mutable r_targets : target array;
      (** [r_dests] with name ids and process instances resolved — a
          second pass fills this once the process table exists *)
}

and target = {
  tgt_name : string;
  tgt_name_id : int;
  tgt_proc : proc_rt option;  (** [None] = unknown destination *)
}

(* One in-flight ARQ exchange: a CRC-framed inter-PE message with a
   retransmission timer.  The "ack" is implicit and instant — when the
   receiver's CRC check passes, the sender's timer is cancelled — a
   stop-and-wait ARQ with a free reverse channel. *)
type arq_entry = {
  a_id : int;
  a_payload : string;  (** original payload, for residual detection *)
  a_frame : string;  (** payload + CRC-32 trailer as sent *)
  a_words : int;  (** payload words + one trailer word *)
  a_sender : string;
  a_receiver : string;
  a_signal : string;
  a_flow : int;  (** causal flow id of the framed message; -1 = none *)
  mutable a_attempts : int;  (** retransmissions so far *)
  mutable a_timer : Sim.Engine.handle option;
  mutable a_done : bool;  (** delivered intact at least once *)
  a_deliver : unit -> unit;
}

type fault_rt = {
  injector : Fault.Injector.t;
  fstats : Fault.Stats.t;
  recovery : Fault.Plan.recovery;
  pe_override : (string, string) Hashtbl.t;
      (** process -> PE it was re-mapped onto after a crash *)
  mutable undetected_crashes : (string * int64) list;
      (** crashed PEs the watchdog has not noticed yet, with crash time *)
  mutable next_msg_id : int;
  mutable remap_hook :
    (dead_pe:string -> survivors:string list -> (string * string) list) option;
}

type t = {
  sys : Ir.system;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  network : Hibi.Network.t;
  rtos : (string, Sim.Rtos.t) Hashtbl.t;  (** PE name -> scheduler *)
  env_rtos : Sim.Rtos.t;
  procs : (string, proc_rt) Hashtbl.t;
  faults : fault_rt option;
  mutable errors : string list;
  tracer : Obs.Tracer.t;
  obs_on : bool;
  trace_on : bool;
  flows : Obs.Flow.t;
  flows_on : bool;
  (* Ids interned once at load so the hot emit sites append plain ints. *)
  timeout_id : int;
  st_born : int;
  st_queue : int;
  st_process : int;
  st_transfer : int;
  st_retransmit : int;
  st_end : int;
  overhead_cycles : int;  (** charged before every handled event *)
  m_exec_cycles : Obs.Metrics.counter;
      (** cycles of application (non-environment) execution — matches the
          report's total, see {!Profiler.Report.cross_check} *)
  m_signals : Obs.Metrics.counter;
  m_discard_total : Obs.Metrics.counter;
}

(* Timer expiries are queued like signals so a busy process finishes its
   current event first; the marker never collides with model signals. *)
let timeout_signal = "__timeout__"

let engine t = t.engine
let trace t = t.trace
let system t = t.sys
let runtime_errors t = List.rev t.errors

(* The PE a process currently runs on: its mapped PE unless degradation
   re-mapping moved it after a crash.  The fault-free path returns the
   stored option as-is — no [Some] is rebuilt per query (this runs once
   per compute effect and twice per signal hop). *)
let effective_pe t (proc : proc_rt) =
  match t.faults with
  | None -> proc.decl.Ir.pe
  | Some f -> (
    match proc.decl.Ir.pe with
    | None -> None
    | Some _ -> (
      match Hashtbl.find f.pe_override proc.decl.Ir.proc_name with
      | moved -> Some moved
      | exception Not_found -> proc.decl.Ir.pe))

let rtos_of t (proc : proc_rt) =
  match effective_pe t proc with
  | None -> t.env_rtos
  | Some pe -> (
    match Hashtbl.find t.rtos pe with
    | r -> r
    | exception Not_found -> t.env_rtos)

let is_env (proc : proc_rt) =
  match proc.decl.Ir.pe with None -> true | Some _ -> false

let record_fault t ~kind ~target ~info =
  Sim.Trace.record t.trace
    (Sim.Trace.Fault
       { time = Sim.Engine.now t.engine; kind; target; info })

let record_exec_i t proc cycles =
  if not (is_env proc) then begin
    if t.obs_on then Obs.Metrics.inc ~by:cycles t.m_exec_cycles;
    Sim.Trace.record_exec t.trace ~time:(Sim.Engine.now_ns t.engine)
      ~process:proc.name_id ~cycles
  end

let same_pe t a b =
  match effective_pe t a, effective_pe t b with
  | Some x, Some y -> x = y
  | None, _ | _, None -> true
  (* environment delivery is local: the env agent sits conceptually next
     to whatever boundary hardware it stimulates *)

let local_delivery_ns = 100

(* Trace signal id -> dispatch-table id, memoised per process:
   after the first delivery of each signal the hot path never hashes a
   signal name again. *)
let exec_sid t proc sig_id =
  (if sig_id >= Array.length proc.sig_map then begin
     let m = Array.make ((2 * sig_id) + 8) (-2) in
     Array.blit proc.sig_map 0 m 0 (Array.length proc.sig_map);
     proc.sig_map <- m
   end);
  let sid = proc.sig_map.(sig_id) in
  if sid <> -2 then sid
  else begin
    let sid = Efsm.Exec.signal_id proc.exec (Sim.Trace.interned t.trace sig_id) in
    proc.sig_map.(sig_id) <- sid;
    sid
  end

let rec pump t proc =
  if (not proc.busy) && not (Sim.Mailbox.Flat.is_empty proc.queue) then begin
    let sig_id = Sim.Mailbox.Flat.head_a proc.queue in
    let flow = Sim.Mailbox.Flat.head_b proc.queue in
    let enqueued_at = Sim.Mailbox.Flat.head_c proc.queue in
    let args = Sim.Mailbox.Flat.pop proc.queue in
    let now = Sim.Engine.now_ns t.engine in
    let wait = now - enqueued_at in
    proc.stats.handled <- proc.stats.handled + 1;
    proc.stats.total_wait_ns <- proc.stats.total_wait_ns + wait;
    if wait > proc.stats.max_wait_ns then proc.stats.max_wait_ns <- wait;
    proc.current_flow <- flow;
    if t.flows_on && flow >= 0 then begin
      Obs.Flow.hop_ns t.flows ~flow ~stage:Obs.Flow.Queue_wait ~dur_ns:wait;
      Sim.Trace.record_flow_hop t.trace ~time:now ~flow ~stage:t.st_queue
        ~where_:proc.name_id ~dur:wait
    end;
    proc.busy <- true;
    let before_state = Efsm.Exec.state proc.exec in
    let is_timeout = sig_id = t.timeout_id in
    let fired =
      if is_timeout then
        Efsm.Exec.fire_timer_id proc.exec ~entered_state:before_state
      else
        Efsm.Exec.dispatch_id proc.exec ~sid:(exec_sid t proc sig_id) ~args
    in
    match fired with
    | false ->
      if (not is_timeout) && not (is_env proc) then begin
        (if t.obs_on then begin
           Obs.Metrics.inc proc.m_discards;
           Obs.Metrics.inc t.m_discard_total
         end);
        if t.trace_on then
          Obs.Tracer.instant t.tracer ~ts_ns:(Int64.of_int now)
            ~cat:"app" ~track:proc.track
            ~args:
              [ ("signal", Obs.Span.Str (Sim.Trace.interned t.trace sig_id)) ]
            "discard";
        Sim.Trace.record_discard t.trace ~time:now ~process:proc.name_id
          ~signal:sig_id
      end;
      proc.busy <- false;
      pump t proc
    | true ->
      let after_state = Efsm.Exec.state proc.exec in
      if not (is_env proc) then
        Sim.Trace.record_state_change t.trace ~time:now
          ~process:proc.name_id
          ~from_:(Sim.Trace.intern t.trace before_state)
          ~to_:(Sim.Trace.intern t.trace after_state);
      (* Only build the span/flow-emitting continuation when observing;
         the common path reuses the process's lifetime continuation. *)
      let k =
        if (t.trace_on || (t.flows_on && flow >= 0)) && not (is_env proc)
        then begin
          let handled_at = now in
          fun () ->
            let now = Sim.Engine.now_ns t.engine in
            let dur = now - handled_at in
            if t.trace_on then
              Obs.Tracer.complete t.tracer ~ts_ns:(Int64.of_int handled_at)
                ~dur_ns:(Int64.of_int dur) ~cat:"app" ~track:proc.track
                ~args:[ ("to_state", Obs.Span.Str after_state) ]
                (if is_timeout then "timeout"
                 else Sim.Trace.interned t.trace sig_id);
            if t.flows_on && flow >= 0 then begin
              Obs.Flow.hop_ns t.flows ~flow ~stage:Obs.Flow.Process
                ~dur_ns:dur;
              Sim.Trace.record_flow_hop t.trace ~time:now ~flow
                ~stage:t.st_process ~where_:proc.name_id ~dur
            end;
            proc.finish_fn ()
        end
        else proc.finish_fn
      in
      (* Every handled event is charged the dispatch overhead burst
         before its own effects run. *)
      proc.eff_idx <- 0;
      proc.eff_len <- Efsm.Exec.effect_count proc.exec;
      proc.eff_k <- k;
      proc.eff_cycles <- t.overhead_cycles;
      Sim.Rtos.submit_i proc.sched ~task:proc.decl.Ir.proc_name
        ~priority:proc.decl.Ir.priority ~flow:proc.current_flow
        ~cycles:t.overhead_cycles proc.eff_cont
  end

(* Walk the process's effect buffer from [i]: sends go out at once, a
   compute burst parks the chain on the process and reuses its lifetime
   continuation, so a fired transition allocates no effect list and no
   per-burst closure.  Sound because [busy] serialises effect chains —
   at most one is outstanding per process, and nothing steps the
   process's executor until it ends. *)
and run_effects t proc i k =
  if i >= proc.eff_len then k ()
  else
    match Efsm.Exec.effect_at proc.exec i with
    | Efsm.Action.Eff_compute cycles ->
      proc.eff_idx <- i + 1;
      proc.eff_k <- k;
      proc.eff_cycles <- cycles;
      Sim.Rtos.submit_i proc.sched ~task:proc.decl.Ir.proc_name
        ~priority:proc.decl.Ir.priority ~flow:proc.current_flow ~cycles
        proc.eff_cont
    | Efsm.Action.Eff_send { port; signal; args } ->
      send t proc ~port ~signal ~args;
      run_effects t proc (i + 1) k

(* A send with no binding still needs words/params/a trace id; built on
   the (cold) miss path only. *)
and missing_route t signal =
  {
    r_dests = [];
    r_words = Ir.signal_words t.sys signal;
    r_params = Array.of_list (Ir.signal_params t.sys signal);
    r_sig_id = Sim.Trace.intern t.trace signal;
    r_targets = [||];
  }

and send t proc ~port ~signal ~args =
  let route =
    match Hashtbl.find proc.routes port with
    | by_signal -> (
      match Hashtbl.find by_signal signal with
      | r -> r
      | exception Not_found -> missing_route t signal)
    | exception Not_found -> missing_route t signal
  in
  if Array.length route.r_targets = 0 then
    t.errors <-
      Printf.sprintf "no binding for %s.%s!%s" proc.decl.Ir.proc_name port signal
      :: t.errors;
  let words = route.r_words in
  (* Positional send arguments become the named trigger parameters the
     receiving machine declared for this signal. *)
  let named_args =
    List.mapi
      (fun i value ->
        if i < Array.length route.r_params then (route.r_params.(i), value)
        else (Printf.sprintf "arg%d" i, value))
      args
  in
  (* The first (non-negative) integer argument is recorded as the
     correlation tag — for TUTMAC that is the MSDU/PDU sequence number,
     which lets the profiler compute end-to-end latencies. *)
  let tag =
    match args with
    | Efsm.Action.V_int n :: _ when n >= 0 -> n
    | _ -> -1
  in
  (* Causal propagation: a send made while handling a flow-carrying
     event rides that flow; a send with no inherited context (an
     environment stimulus, a timer-driven transmission opportunity)
     births a new flow — its traffic class is this signal. *)
  let msg_flow =
    if not t.flows_on then -1
    else if proc.current_flow >= 0 then proc.current_flow
    else begin
      let now = Sim.Engine.now_ns t.engine in
      let id = Obs.Flow.mint t.flows ~now:(Int64.of_int now) ~origin:signal in
      Sim.Trace.record_flow_hop t.trace ~time:now ~flow:id ~stage:t.st_born
        ~where_:route.r_sig_id ~dur:0;
      id
    end
  in
  Array.iter
    (fun tgt ->
      match tgt.tgt_proc with
      | None ->
        t.errors <-
          Printf.sprintf "unknown destination %s" tgt.tgt_name :: t.errors
      | Some dst ->
        (if t.obs_on then begin
           Obs.Metrics.inc proc.m_sends;
           Obs.Metrics.inc t.m_signals
         end);
        Sim.Trace.record_signal t.trace
          ~time:(Sim.Engine.now_ns t.engine)
          ~sender:proc.name_id ~receiver:tgt.tgt_name_id
          ~signal:route.r_sig_id ~words ~tag;
        let base_deliver () =
          Sim.Mailbox.Flat.push dst.queue route.r_sig_id msg_flow
            (Sim.Engine.now_ns t.engine)
            named_args;
          pump t dst
        in
        let deliver =
          if msg_flow < 0 then base_deliver
          else begin
            (* Flow accounting happens at actual delivery time: the
               transfer stage is the bus latency (incl. ARQ rounds), and
               a delivery into an environment process completes the
               flow's end-to-end path for this terminal signal. *)
            let sent_at = Sim.Engine.now_ns t.engine in
            let remote = not (same_pe t proc dst) in
            fun () ->
              let now = Sim.Engine.now_ns t.engine in
              (if remote then begin
                 let dur = now - sent_at in
                 Obs.Flow.hop_ns t.flows ~flow:msg_flow
                   ~stage:Obs.Flow.Transfer ~dur_ns:dur;
                 Sim.Trace.record_flow_hop t.trace ~time:now ~flow:msg_flow
                   ~stage:t.st_transfer ~where_:tgt.tgt_name_id ~dur
               end);
              (if is_env dst then
                 match
                   Obs.Flow.complete t.flows ~flow:msg_flow
                     ~now:(Int64.of_int now) ~terminal:signal
                 with
                 | None -> ()
                 | Some e2e ->
                   Sim.Trace.record_flow_hop t.trace ~time:now ~flow:msg_flow
                     ~stage:t.st_end ~where_:route.r_sig_id
                     ~dur:(Int64.to_int e2e));
              base_deliver ()
          end
        in
        if same_pe t proc dst then
          local_deliver t ~dst_name:tgt.tgt_name ~signal deliver
        else begin
          match t.faults with
          | Some f when Fault.Injector.active f.injector ->
            arq_send t f ~src_proc:proc ~dst_proc:dst ~signal ~words
              ~flow:msg_flow deliver
          | Some _ | None -> (
            let src_pe = Option.get (effective_pe t proc) in
            let dst_pe = Option.get (effective_pe t dst) in
            match
              Hibi.Network.send ~flow:msg_flow t.network ~src:src_pe
                ~dst:dst_pe ~words ~on_delivered:deliver
            with
            | Ok () -> ()
            | Error e ->
              t.errors <- Printf.sprintf "hibi: %s" e :: t.errors;
              (* Fall back to local delivery so the simulation continues. *)
              ignore
                (Sim.Engine.schedule_ns t.engine ~delay:local_delivery_ns
                   deliver))
        end)
    route.r_targets

(* Local (same-PE) deliveries bypass the bus, so HIBI faults don't touch
   them; the signal loss/duplication injectors model software faults
   (queue overruns, double interrupts) on exactly this path. *)
and local_deliver t ~dst_name ~signal deliver =
  let schedule () =
    ignore (Sim.Engine.schedule_ns t.engine ~delay:local_delivery_ns deliver)
  in
  match t.faults with
  | Some f when Fault.Injector.active f.injector -> (
    match
      Fault.Injector.signal_fate f.injector ~now:(Sim.Engine.now t.engine)
        ~process:dst_name
    with
    | Fault.Injector.Deliver -> schedule ()
    | Fault.Injector.Lose ->
      record_fault t ~kind:"signal_loss" ~target:dst_name ~info:signal
    | Fault.Injector.Duplicate ->
      record_fault t ~kind:"signal_dup" ~target:dst_name ~info:signal;
      schedule ();
      schedule ())
  | Some _ | None -> schedule ()

(* Inter-PE messages under fault injection go through stop-and-wait ARQ:
   the payload is CRC-32 framed, the receiver only accepts frames whose
   trailer checks out, and the sender retransmits on timeout with
   exponential backoff until [max_retries] is exhausted. *)
and arq_send t f ~src_proc ~dst_proc ~signal ~words ~flow deliver =
  let id = f.next_msg_id in
  f.next_msg_id <- id + 1;
  (* Deterministic stand-in payload: the model layer carries symbolic
     arguments, but the integrity machinery needs real bytes to frame,
     flip and checksum. *)
  let payload =
    String.init (words * 4) (fun i ->
        Char.chr ((((id + 1) * 131) + (i * 29)) land 0xff))
  in
  let entry =
    {
      a_id = id;
      a_payload = payload;
      a_frame = Crc.Crc32.frame payload;
      a_words = words + 1;
      a_sender = src_proc.decl.Ir.proc_name;
      a_receiver = dst_proc.decl.Ir.proc_name;
      a_signal = signal;
      a_flow = flow;
      a_attempts = 0;
      a_timer = None;
      a_done = false;
      a_deliver = deliver;
    }
  in
  arq_attempt t f ~src_proc ~dst_proc entry

and arq_attempt t f ~src_proc ~dst_proc entry =
  let attempt = entry.a_attempts in
  (* PEs are looked up per attempt: a retransmission after degradation
     re-mapping chases the receiver to its new home. *)
  let src_pe = Option.get (effective_pe t src_proc) in
  let dst_pe = Option.get (effective_pe t dst_proc) in
  let on_outcome outcome = arq_receive t f entry ~attempt ~dst_pe outcome in
  (match
     Hibi.Network.transfer ~flow:entry.a_flow t.network ~src:src_pe
       ~dst:dst_pe ~words:entry.a_words ~on_outcome
   with
  | Ok () -> ()
  | Error e ->
    t.errors <- Printf.sprintf "hibi: %s" e :: t.errors;
    ignore
      (Sim.Engine.schedule_ns t.engine ~delay:local_delivery_ns (fun () ->
           on_outcome Hibi.Network.Delivered)));
  let backoff =
    Int64.shift_left f.recovery.Fault.Plan.ack_timeout_ns (min attempt 20)
  in
  entry.a_timer <-
    Some
      (Sim.Engine.schedule t.engine ~delay:backoff (fun () ->
           arq_timeout t f ~src_proc ~dst_proc entry))

and arq_timeout t f ~src_proc ~dst_proc entry =
  entry.a_timer <- None;
  if not entry.a_done then
    if entry.a_attempts >= f.recovery.Fault.Plan.max_retries then begin
      f.fstats.Fault.Stats.arq_giveups <- f.fstats.Fault.Stats.arq_giveups + 1;
      record_fault t ~kind:"arq_giveup" ~target:entry.a_receiver
        ~info:entry.a_signal
    end
    else begin
      entry.a_attempts <- entry.a_attempts + 1;
      f.fstats.Fault.Stats.retransmits <- f.fstats.Fault.Stats.retransmits + 1;
      Sim.Trace.record t.trace
        (Sim.Trace.Retransmit
           {
             time = Sim.Engine.now t.engine;
             sender = entry.a_sender;
             receiver = entry.a_receiver;
             signal = entry.a_signal;
             attempt = entry.a_attempts;
           });
      if t.flows_on && entry.a_flow >= 0 then begin
        (* The delay this retry adds is (at least) the timeout window
           that just expired — the backoff armed for the previous
           attempt. *)
        let expired =
          Int64.shift_left f.recovery.Fault.Plan.ack_timeout_ns
            (min (entry.a_attempts - 1) 20)
        in
        Obs.Flow.hop t.flows ~flow:entry.a_flow ~stage:Obs.Flow.Retransmit
          ~dur_ns:expired;
        Sim.Trace.record t.trace
          (Sim.Trace.Flow_hop
             {
               time = Sim.Engine.now t.engine;
               flow = entry.a_flow;
               stage = "retransmit";
               where_ = entry.a_receiver;
               dur = expired;
             })
      end;
      arq_attempt t f ~src_proc ~dst_proc entry
    end

and arq_receive t f entry ~attempt ~dst_pe outcome =
  let dst_dead =
    match Hashtbl.find_opt t.rtos dst_pe with
    | Some r -> Sim.Rtos.crashed r
    | None -> false
  in
  (* A crashed PE cannot receive: the frame dies at the wrapper and the
     sender's timeout machinery takes over. *)
  if not dst_dead then begin
    let frame' =
      match outcome with
      | Hibi.Network.Delivered -> entry.a_frame
      | Hibi.Network.Corrupted_delivery ->
        Fault.Injector.corrupt_frame f.injector
          ~salt:((entry.a_id lsl 6) lor (attempt land 63))
          entry.a_frame
    in
    (* The integrity check runs on the receiving PE's clock, at the CRC
       accelerator's cycle cost. *)
    let delay =
      match Hashtbl.find_opt t.rtos dst_pe with
      | Some r ->
        Sim.Rtos.cycles_to_ns r
          (Crc.Crc32.accelerator_cycles ~bytes_len:(String.length frame'))
      | None -> 20L
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay (fun () -> arq_check t f entry frame'))
  end

and arq_check t f entry frame' =
  match Crc.Crc32.deframe frame' with
  | None ->
    f.fstats.Fault.Stats.crc_rejects <- f.fstats.Fault.Stats.crc_rejects + 1;
    record_fault t ~kind:"crc_reject" ~target:entry.a_receiver
      ~info:entry.a_signal
  | Some payload ->
    if entry.a_done then
      (* A stalled or retransmitted copy of an already-accepted message:
         suppressed by the sequence check. *)
      f.fstats.Fault.Stats.arq_duplicates <-
        f.fstats.Fault.Stats.arq_duplicates + 1
    else begin
      entry.a_done <- true;
      (match entry.a_timer with
      | Some h -> Sim.Engine.cancel h
      | None -> ());
      entry.a_timer <- None;
      if payload <> entry.a_payload then begin
        (* The CRC matched a corrupted frame: residual undetected error,
           delivered wrong — the metric the profiler must not hide. *)
        f.fstats.Fault.Stats.crc_residual <-
          f.fstats.Fault.Stats.crc_residual + 1;
        record_fault t ~kind:"crc_residual" ~target:entry.a_receiver
          ~info:entry.a_signal
      end
      else if entry.a_attempts > 0 then
        f.fstats.Fault.Stats.arq_acked <- f.fstats.Fault.Stats.arq_acked + 1;
      entry.a_deliver ()
    end

and arm_timer t proc =
  (* One outstanding timer per process: firing a transition re-enters a
     state, which restarts its After timer (UML state-entry semantics).
     Re-arming cancels the previous arming (so the shared [timer_fire]
     callback always refers to the latest one, with [armed_state]
     discarding firings that raced a state change) and reuses its
     handle. *)
  match Efsm.Exec.timer_request proc.exec with
  | None ->
    Sim.Engine.cancel proc.timer;
    proc.timer <- Sim.Engine.never
  | Some delay_ns ->
    proc.armed_state <- Efsm.Exec.state proc.exec;
    proc.timer <-
      Sim.Engine.rearm_ns t.engine proc.timer ~delay:delay_ns proc.timer_fire

(* Graceful degradation: move every process of the dead PE onto the
   surviving PEs.  The placement comes from the installed hook (the
   scenario layer wires a DSE-backed one) with a deterministic
   round-robin fallback; processes wedged on a job the dead PE discarded
   are unblocked so they resume from their queues. *)
let do_remap t f ~dead_pe =
  let survivors =
    Hashtbl.fold
      (fun name r acc -> if Sim.Rtos.crashed r then acc else name :: acc)
      t.rtos []
    |> List.sort compare
  in
  if survivors <> [] then begin
    let moved =
      Hashtbl.fold
        (fun name proc acc ->
          if (not (is_env proc)) && effective_pe t proc = Some dead_pe then
            (name, proc) :: acc
          else acc)
        t.procs []
      |> List.sort compare
    in
    let placed =
      match f.remap_hook with
      | Some hook ->
        let chosen = hook ~dead_pe ~survivors in
        List.map
          (fun (name, proc) ->
            let pe =
              match List.assoc_opt name chosen with
              | Some pe when List.mem pe survivors -> pe
              | Some _ | None -> List.hd survivors
            in
            (name, proc, pe))
          moved
      | None ->
        List.mapi
          (fun i (name, proc) ->
            (name, proc, List.nth survivors (i mod List.length survivors)))
          moved
    in
    List.iter
      (fun (name, proc, pe) ->
        Hashtbl.replace f.pe_override name pe;
        proc.sched <- rtos_of t proc;
        f.fstats.Fault.Stats.remapped_processes <-
          f.fstats.Fault.Stats.remapped_processes + 1;
        record_fault t ~kind:"remap" ~target:name ~info:pe;
        proc.busy <- false;
        pump t proc)
      placed
  end

let rec watchdog_tick t f =
  let period = f.recovery.Fault.Plan.watchdog_period_ns in
  if period > 0L then
    ignore
      (Sim.Engine.schedule t.engine ~delay:period (fun () ->
           let now = Sim.Engine.now t.engine in
           let pending = List.sort compare f.undetected_crashes in
           f.undetected_crashes <- [];
           List.iter
             (fun (pe, crashed_at) ->
               f.fstats.Fault.Stats.watchdog_detections <-
                 f.fstats.Fault.Stats.watchdog_detections + 1;
               f.fstats.Fault.Stats.recovery_latencies_ns <-
                 Int64.sub now crashed_at
                 :: f.fstats.Fault.Stats.recovery_latencies_ns;
               record_fault t ~kind:"watchdog_detect" ~target:pe ~info:"-";
               if f.recovery.Fault.Plan.remap then do_remap t f ~dead_pe:pe)
             pending;
           watchdog_tick t f))

(* Arm the plan's PE faults on the event queue (simulated time 0 is
   "now" at [start]). *)
let schedule_pe_faults t f =
  List.iter
    (fun (pe, at_ns) ->
      match Hashtbl.find_opt t.rtos pe with
      | None -> ()
      | Some r ->
        ignore
          (Sim.Engine.schedule t.engine ~delay:at_ns (fun () ->
               if not (Sim.Rtos.crashed r) then begin
                 Sim.Rtos.crash r;
                 f.fstats.Fault.Stats.pe_crashes <-
                   f.fstats.Fault.Stats.pe_crashes + 1;
                 f.undetected_crashes <-
                   (pe, Sim.Engine.now t.engine) :: f.undetected_crashes;
                 record_fault t ~kind:"pe_crash" ~target:pe ~info:"-"
               end)))
    (Fault.Injector.pe_crashes f.injector);
  List.iter
    (fun (pe, factor, from_ns, until_ns) ->
      match Hashtbl.find_opt t.rtos pe with
      | None -> ()
      | Some r ->
        ignore
          (Sim.Engine.schedule t.engine ~delay:from_ns (fun () ->
               if not (Sim.Rtos.crashed r) then begin
                 Sim.Rtos.set_speed_scale r factor;
                 f.fstats.Fault.Stats.pe_slowdowns <-
                   f.fstats.Fault.Stats.pe_slowdowns + 1;
                 record_fault t ~kind:"pe_slow_on" ~target:pe ~info:"-"
               end));
        ignore
          (Sim.Engine.schedule t.engine ~delay:until_ns (fun () ->
               if not (Sim.Rtos.crashed r) then begin
                 Sim.Rtos.set_speed_scale r 1.0;
                 record_fault t ~kind:"pe_slow_off" ~target:pe ~info:"-"
               end)))
    (Fault.Injector.pe_slowdowns f.injector)

let create ?trace:(trace_store = Sim.Trace.create ()) ?faults ?obs ?flows
    ?(engine = Efsm.Exec.Compiled) sys =
  let exec_engine = engine in
  match Ir.check sys with
  | _ :: _ as problems -> Error problems
  | [] ->
    let obs = match obs with Some s -> s | None -> Obs.Scope.null () in
    let flows = match flows with Some f -> f | None -> Obs.Flow.disabled () in
    let metrics = Obs.Scope.metrics obs in
    let engine = Sim.Engine.create ~obs () in
    let network = Hibi.Network.create ~obs engine in
    List.iter
      (fun (s : Ir.segment_decl) ->
        Hibi.Network.add_segment network ~name:s.Ir.seg_name
          ~data_width_bits:s.Ir.data_width_bits
          ~frequency_mhz:s.Ir.seg_frequency_mhz
          ~arbitration:
            (match s.Ir.arbitration with
            | Ir.Priority -> Hibi.Network.Priority
            | Ir.Round_robin -> Hibi.Network.Round_robin)
          ~max_send_size:s.Ir.max_send_size ())
      sys.Ir.segments;
    List.iter
      (fun w ->
        match w with
        | Ir.Agent_wrapper { name; agent; address; segment; buffer_size; max_time; bus_priority } ->
          Hibi.Network.add_agent_wrapper network ~name ~agent ~address ~segment
            ~buffer_size ~max_time ~bus_priority ()
        | Ir.Bridge_wrapper { name; address; segments; buffer_size; max_time; bus_priority } ->
          Hibi.Network.add_bridge_wrapper network ~name ~address ~segments
            ~buffer_size ~max_time ~bus_priority ())
      sys.Ir.wrappers;
    let rtos = Hashtbl.create 8 in
    List.iter
      (fun (pe : Ir.pe_decl) ->
        Hashtbl.replace rtos pe.Ir.pe_name
          (Sim.Rtos.create ~engine ~name:pe.Ir.pe_name
             ~policy:
               (match pe.Ir.scheduling with
               | Ir.Fifo -> Sim.Rtos.Fifo
               | Ir.Priority_preemptive -> Sim.Rtos.Priority_preemptive)
             ~frequency_mhz:pe.Ir.frequency_mhz ~perf_factor:pe.Ir.perf_factor
             ~obs ()))
      sys.Ir.pes;
    let env_rtos =
      Sim.Rtos.create ~engine ~name:"environment"
        ~policy:Sim.Rtos.Fifo ~frequency_mhz:1_000_000 ~obs ()
    in
    let faults =
      match faults with
      | Some injector when Fault.Injector.active injector ->
        Some
          {
            injector;
            fstats = Fault.Injector.stats injector;
            recovery = Fault.Injector.recovery injector;
            pe_override = Hashtbl.create 8;
            undetected_crashes = [];
            next_msg_id = 0;
            remap_hook = None;
          }
      | Some _ | None -> None
    in
    (match faults with
    | Some f ->
      Hibi.Network.set_fault_hook network
        (Some
           (fun ~segment ~words ->
             ignore words;
             match
               Fault.Injector.hibi_action f.injector
                 ~now:(Sim.Engine.now engine) ~segment
             with
             | Fault.Injector.Pass -> Hibi.Network.Pass
             | Fault.Injector.Drop ->
               Sim.Trace.record trace_store
                 (Sim.Trace.Fault
                    {
                      time = Sim.Engine.now engine;
                      kind = "hibi_drop";
                      target = segment;
                      info = "-";
                    });
               Hibi.Network.Drop
             | Fault.Injector.Corrupt ->
               Sim.Trace.record trace_store
                 (Sim.Trace.Fault
                    {
                      time = Sim.Engine.now engine;
                      kind = "hibi_corrupt";
                      target = segment;
                      info = "-";
                    });
               Hibi.Network.Corrupt
             | Fault.Injector.Stall ns ->
               Sim.Trace.record trace_store
                 (Sim.Trace.Fault
                    {
                      time = Sim.Engine.now engine;
                      kind = "hibi_stall";
                      target = segment;
                      info = Int64.to_string ns;
                    });
               Hibi.Network.Stall ns))
    | None -> ());
    let procs = Hashtbl.create 32 in
    (* One compiled program per distinct machine value: instances of the
       same class share their dispatch tables and bytecode. *)
    let programs = ref [] in
    let program_of m =
      match List.find_opt (fun (m', _) -> m' == m) !programs with
      | Some (_, p) -> p
      | None ->
        let p = Efsm.Compiled.compile m in
        programs := (m, p) :: !programs;
        p
    in
    let routes_for name =
      let by_port = Hashtbl.create 8 in
      List.iter
        (fun (b : Ir.binding) ->
          if b.Ir.b_src = name then begin
            let by_signal =
              match Hashtbl.find_opt by_port b.Ir.b_port with
              | Some tbl -> tbl
              | None ->
                let tbl = Hashtbl.create 4 in
                Hashtbl.replace by_port b.Ir.b_port tbl;
                tbl
            in
            let r =
              match Hashtbl.find_opt by_signal b.Ir.b_signal with
              | Some r -> r
              | None ->
                {
                  r_dests = [];
                  r_words = Ir.signal_words sys b.Ir.b_signal;
                  r_params = Array.of_list (Ir.signal_params sys b.Ir.b_signal);
                  r_sig_id = Sim.Trace.intern trace_store b.Ir.b_signal;
                  r_targets = [||];
                }
            in
            (* append keeps bindings order, matching [Ir.destinations] *)
            Hashtbl.replace by_signal b.Ir.b_signal
              { r with r_dests = r.r_dests @ [ b.Ir.b_dst ] }
          end)
        sys.Ir.bindings;
      by_port
    in
    List.iter
      (fun (decl : Ir.proc_decl) ->
        let name = decl.Ir.proc_name in
        Hashtbl.replace procs name
          {
            decl;
            name_id = Sim.Trace.intern trace_store name;
            exec = Efsm.Exec.create exec_engine (program_of decl.Ir.machine);
            queue = Sim.Mailbox.Flat.create ~dummy:[] ();
            busy = false;
            timer = Sim.Engine.never;
            armed_state = "";
            timer_fire = ignore;
            sched = env_rtos;
            eff_idx = 0;
            eff_len = 0;
            eff_k = ignore;
            eff_cycles = 0;
            eff_cont = ignore;
            sig_map = [||];
            finish_fn = ignore;
            current_flow = -1;
            stats = { handled = 0; total_wait_ns = 0; max_wait_ns = 0 };
            track = "proc/" ^ name;
            routes = routes_for name;
            m_sends = Obs.Metrics.counter metrics ("app." ^ name ^ ".sends");
            m_discards = Obs.Metrics.counter metrics ("app." ^ name ^ ".discards");
          })
      sys.Ir.procs;
    (* Second pass: resolve each route's destinations to process
       instances (and interned ids) now that every process exists, so a
       send walks a flat array instead of hashing per destination. *)
    Hashtbl.iter
      (fun _ proc ->
        Hashtbl.iter
          (fun _ by_signal ->
            Hashtbl.iter
              (fun _ r ->
                r.r_targets <-
                  Array.of_list
                    (List.map
                       (fun d ->
                         {
                           tgt_name = d;
                           tgt_name_id = Sim.Trace.intern trace_store d;
                           tgt_proc = Hashtbl.find_opt procs d;
                         })
                       r.r_dests))
              by_signal)
          proc.routes)
      procs;
    let t =
      {
        sys;
        engine;
        trace = trace_store;
        network;
        rtos;
        env_rtos;
        procs;
        faults;
        errors = [];
        tracer = Obs.Scope.tracer obs;
        obs_on = Obs.Scope.live obs;
        trace_on = Obs.Tracer.enabled (Obs.Scope.tracer obs);
        flows;
        flows_on = Obs.Flow.enabled flows;
        timeout_id = Sim.Trace.intern trace_store timeout_signal;
        st_born = Sim.Trace.intern trace_store "born";
        st_queue = Sim.Trace.intern trace_store "queue";
        st_process = Sim.Trace.intern trace_store "process";
        st_transfer = Sim.Trace.intern trace_store "transfer";
        st_retransmit = Sim.Trace.intern trace_store "retransmit";
        st_end = Sim.Trace.intern trace_store "end";
        overhead_cycles = sys.Ir.dispatch_overhead_cycles;
        m_exec_cycles = Obs.Metrics.counter metrics "app.exec_cycles_total";
        m_signals = Obs.Metrics.counter metrics "app.signals_sent";
        m_discard_total = Obs.Metrics.counter metrics "app.signals_discarded";
      }
    in
    (* Third pass: each process gets one timer callback for its whole
       lifetime (it needs [t], so it is wired after the record exists). *)
    Hashtbl.iter
      (fun _ proc ->
        proc.sched <- rtos_of t proc;
        proc.timer_fire <-
          (fun () ->
            proc.timer <- Sim.Engine.never;
            (* Stale timers (state changed meanwhile) are discarded; only
               deliver when still in the armed state. *)
            if Efsm.Exec.state proc.exec = proc.armed_state then begin
              Sim.Mailbox.Flat.push proc.queue t.timeout_id (-1)
                (Sim.Engine.now_ns t.engine)
                [];
              pump t proc
            end);
        proc.eff_cont <-
          (fun () ->
            record_exec_i t proc proc.eff_cycles;
            run_effects t proc proc.eff_idx proc.eff_k);
        proc.finish_fn <-
          (fun () ->
            proc.busy <- false;
            arm_timer t proc;
            pump t proc))
      t.procs;
    Ok t

let start t =
  Hashtbl.iter
    (fun _ proc ->
      Efsm.Exec.start proc.exec;
      proc.eff_len <- Efsm.Exec.effect_count proc.exec;
      if proc.eff_len > 0 then begin
        proc.busy <- true;
        run_effects t proc 0 proc.finish_fn
      end
      else arm_timer t proc)
    t.procs;
  match t.faults with
  | Some f ->
    schedule_pe_faults t f;
    watchdog_tick t f
  | None -> ()

let run t ~until_ns = Sim.Engine.run ~until:until_ns t.engine

let inject t ~dst ~signal ~args =
  match Hashtbl.find_opt t.procs dst with
  | None -> t.errors <- Printf.sprintf "inject: unknown process %s" dst :: t.errors
  | Some proc ->
    let now = Sim.Engine.now_ns t.engine in
    let sig_id = Sim.Trace.intern t.trace signal in
    let flow =
      if not t.flows_on then -1
      else begin
        let id =
          Obs.Flow.mint t.flows ~now:(Int64.of_int now) ~origin:signal
        in
        Sim.Trace.record_flow_hop t.trace ~time:now ~flow:id ~stage:t.st_born
          ~where_:sig_id ~dur:0;
        id
      end
    in
    Sim.Mailbox.Flat.push proc.queue sig_id flow now args;
    pump t proc

let queue_latencies t =
  Hashtbl.fold
    (fun name proc acc ->
      if proc.stats.handled = 0 then acc
      else
        let mean =
          float_of_int proc.stats.total_wait_ns
          /. float_of_int proc.stats.handled
        in
        (name, (proc.stats.handled, mean, Int64.of_int proc.stats.max_wait_ns))
        :: acc)
    t.procs []
  |> List.sort compare

let queue_high_water t =
  Hashtbl.fold
    (fun name proc acc ->
      (name, Sim.Mailbox.Flat.high_water proc.queue) :: acc)
    t.procs []
  |> List.sort compare

let pe_queue_high_water t =
  Hashtbl.fold
    (fun name r acc -> (name, Sim.Rtos.queue_high_water r) :: acc)
    t.rtos
    [ ("environment", Sim.Rtos.queue_high_water t.env_rtos) ]
  |> List.sort compare

let process_state t name =
  Option.map (fun p -> Efsm.Exec.state p.exec) (Hashtbl.find_opt t.procs name)

let process_var t name var =
  match Hashtbl.find_opt t.procs name with
  | None -> None
  | Some p -> Efsm.Exec.read_var p.exec var

let pe_busy_ns t =
  Hashtbl.fold (fun name r acc -> (name, Sim.Rtos.busy_ns r) :: acc) t.rtos []
  |> List.sort compare

let pe_executed_cycles t =
  Hashtbl.fold
    (fun name r acc -> (name, Sim.Rtos.executed_cycles r) :: acc)
    t.rtos []
  |> List.sort compare

let segment_stats t =
  List.map
    (fun (s : Ir.segment_decl) ->
      (s.Ir.seg_name, Hibi.Network.stats t.network ~segment:s.Ir.seg_name))
    t.sys.Ir.segments

let fault_stats t = Option.map (fun f -> f.fstats) t.faults

let set_remap_hook t hook =
  match t.faults with None -> () | Some f -> f.remap_hook <- Some hook

let process_pe t name =
  Option.bind (Hashtbl.find_opt t.procs name) (fun p -> effective_pe t p)

let flows t = t.flows
