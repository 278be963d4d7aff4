(** Fleet-scale TUTWLAN: N terminals on one slotted shared medium.

    Generalises the single-terminal scenario to a contention network:
    per-terminal MAC EFSMs (fragmentation, binary-exponential-backoff
    retry, graceful departure) execute on {!Efsm.Exec} under either
    engine; the channel model corrupts overlapping transmissions
    (collision) and applies the fault plan's channel injectors
    ([chan_loss], [chan_burst], [term_crash]) per terminal.  Strict
    [(time, seq)] scheduling plus per-terminal PRNG streams keep any
    [(plan, seed)] configuration bit-identical across engines and
    repeated runs. *)

type churn_action = Leave | Rejoin

type churn_event = { terminal : int; at_ns : int; action : churn_action }

type config = {
  terminals : int;
  duration_ns : int;
  slot_ns : int;  (** airtime of one transmission opportunity *)
  seed : int;  (** arrival jitter + backoff streams *)
  mix : Workload.profile list;  (** terminals round-robin over it *)
  max_retries : int;  (** per-fragment attempts before abandoning *)
  cw_min : int;  (** initial contention window, in slots *)
  cw_max : int;  (** window cap under repeated failure *)
  churn : churn_event list;  (** scripted graceful departures *)
  faults : Fault.Plan.t;  (** channel injectors + terminal crashes *)
  fault_seed : int;
  jobs : int;
      (** ignored: the per-terminal metrics are merged serially *)
  engine : Efsm.Exec.engine;
      (** [Compiled] in production; [Reference] runs the MACs on the
          interpreter, the oracle the engine-parity tests compare
          against *)
}

val default : config
(** 8 terminals, 2 s, 50 us slots, default mix, BEB 2..64 with 6
    retries, no churn, no faults, compiled engine. *)

val churn_of_string : string -> (churn_event list, string) result
(** Parse a CLI churn script: comma-separated
    [TERMINAL@LEAVE_MS[-REJOIN_MS]] items, e.g. ["4@200-800,5@300"]. *)

val mac_machine :
  max_retries:int -> cw_min:int -> cw_max:int -> Efsm.Machine.t
(** The per-terminal MAC EFSM (exposed for tests and model checking):
    states [idle]/[busy]/[departed]; signals [WlFrame]/[WlTxOk]/
    [WlTxFail]/[WlRx]/[WlLeave]/[WlJoin] in, effects [WlTxReq]/
    [WlBackoff]/[WlDrop]/[WlDone]/[WlDeliver] out. *)

(** Per-terminal outcome counters; the [ts_mac_*] fields are read back
    from the MAC EFSM's own variables, so any engine divergence shows
    up directly in the rendered report. *)
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
      (** its frames still queued or in flight at the horizon, counted
          from the frame table *)
  ts_mac_tx_frames : int;
  ts_mac_rx_frames : int;
  ts_mac_rx_frags : int;
}

type result = {
  r_config : config;
  trace : Sim.Trace.t;
  events : int;
  offered : int;  (** frames handed to MAC queues *)
  delivered : int;  (** last fragment received at the destination *)
  abandoned : int;  (** retry budget exhausted, dropped cleanly *)
  flushed : int;  (** discarded by departure (queue flush / offered
                      while departed) *)
  unresolved : int;
      (** still queued or in flight at the horizon, counted frame by
          frame (not as the residual of the other outcomes) *)
  attempts : int;
  slots_used : int;  (** slots with at least one transmission *)
  collisions : int;
  retries : int;
  frags_delivered : int;
  leaves : int;
  joins : int;
  latency : (string * Obs.Histogram.snapshot) list;
      (** end-to-end frame latency per traffic class, sorted by class *)
  retry_snapshot : Obs.Histogram.snapshot;
      (** distribution of retry attempt numbers *)
  per_terminal : terminal_stats array;
  fault_stats : Fault.Stats.t option;  (** when a plan was active *)
}

val run : ?obs:Obs.Scope.t -> config -> result
(** Simulate the fleet.  Raises [Invalid_argument] on inconsistent
    configuration (no terminals, churn out of range, [cw_max < cw_min],
    ...).  Per-class latency and the retry distribution are also
    absorbed into [obs]'s registry as [wlan.latency_ns.<class>] /
    [wlan.retry_attempt] HDR instruments. *)

val render : result -> string
(** Deterministic text report (the CI golden). *)

val render_json : result -> Obs.Json.t
