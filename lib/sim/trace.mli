(** Simulation log — the "simulation log-file" of the paper's Figure 2.

    The instrumented runtime records execution and communication events
    here; the profiling tool later combines the log with the
    process-group information parsed from the model.  The textual file
    format is line-oriented so external tools (the paper used TCL) could
    consume it:
    {v
      E <time_ns> <process> <cycles>              execution burst
      S <time_ns> <sender> <receiver> <signal> <words> [<tag>]
      T <time_ns> <process> <from_state> <to_state>
      D <time_ns> <process> <signal>              discarded signal
      F <time_ns> <kind> <target> <info>          fault / recovery event
      R <time_ns> <sender> <receiver> <signal> <attempt>   retransmission
      L <time_ns> <flow> <stage> <where> <dur_ns>          flow hop
    v}
    Process names are fully qualified part names and must not contain
    whitespace. *)

type event =
  | Exec of { time : int64; process : string; cycles : int64 }
  | Signal of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      words : int;
      tag : int;
          (** correlation tag (e.g. a sequence number); [-1] = none *)
    }
  | State_change of { time : int64; process : string; from_ : string; to_ : string }
  | Discard of { time : int64; process : string; signal : string }
  | Fault of { time : int64; kind : string; target : string; info : string }
      (** Injection, detection, or recovery milestone.  [kind] is a
          lower_snake tag ([pe_crash], [watchdog_detect], [crc_reject],
          [crc_residual], [arq_giveup], [remap], [pe_slow_on],
          [pe_slow_off], ...); [target] names the PE / process /
          segment; [info] is one whitespace-free token of extra detail
          (["-"] when there is none). *)
  | Retransmit of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      attempt : int;  (** 1 = first retransmission *)
    }
  | Flow_hop of {
      time : int64;
      flow : int;  (** flow id, >= 0 *)
      stage : string;
          (** [born] (minted; [where_] = origin signal, [dur] = 0),
              [queue] / [process] / [transfer] / [retransmit] (one hop;
              [where_] = process / destination, [dur] = hop duration),
              or [end] (delivered into the environment; [where_] =
              terminal signal, [dur] = end-to-end latency).  Only
              recorded when causal flow tracing ({!Obs.Flow}) is on. *)
      where_ : string;
      dur : int64;  (** ns of simulated time, >= 0 *)
    }

type t
(** A packed log plus a string-interning table.  Each event is one
    record of zigzag-LEB128 integers ({!Varint}): its kind, its time as
    a delta from the previous record's time, then only the fields its
    kind uses, strings as interned ids — about 6.4 bytes per event on
    the TUTMAC runs.  Records are appended to byte chunks that are never
    copied and that the GC never scans; the first chunk holds 4 KiB and
    each next one twice as much, up to 1 MiB.  Recording allocates
    nothing per event; the [event] values and the textual lines are
    decoded only when someone reads them.  Reading keeps state ({!get}'s
    position, the aggregations' last scan), so one log must not be read
    from two domains at once. *)

type backend = Arena
(** The store implementation; the packed log is the only one.  Kept so
    existing [~backend] callers compile. *)

val create : ?backend:backend -> unit -> t

val record : t -> event -> unit

val intern : t -> string -> int
(** Intern a string in the trace's table, returning its id.  Ids are
    stable for the lifetime of the trace. *)

val interned : t -> int -> string
(** The string behind an id handed out by {!intern}. *)

(** Unboxed hot-path appenders: [time]/[cycles]/[dur] are plain int
    nanoseconds (no [int64] boxing), string arguments are ids from
    {!intern}.  Equivalent to {!record} of the corresponding event. *)

val record_exec : t -> time:int -> process:int -> cycles:int -> unit

val record_signal :
  t ->
  time:int ->
  sender:int ->
  receiver:int ->
  signal:int ->
  words:int ->
  tag:int ->
  unit

val record_state_change :
  t -> time:int -> process:int -> from_:int -> to_:int -> unit

val record_discard : t -> time:int -> process:int -> signal:int -> unit

val record_retransmit :
  t -> time:int -> sender:int -> receiver:int -> signal:int -> attempt:int -> unit

val record_flow_hop :
  t -> time:int -> flow:int -> stage:int -> where_:int -> dur:int -> unit

val events : t -> event list
(** In recording order.  Materialises the whole list — prefer {!iter} /
    {!fold} / {!get}, which decode one event at a time. *)

val iter : t -> (event -> unit) -> unit
(** Streaming view in recording order; decodes one event at a time. *)

val fold : t -> 'a -> ('a -> event -> 'a) -> 'a
(** [fold t init f] folds [f] over the events in recording order. *)

val get : t -> int -> event
(** [get t i] is the [i]th recorded event (0-based).  A sparse index
    locates every 64th record, so [get] decodes at most 64 records; it
    also remembers where the previous call stopped, so reading [0],
    [1], [2], ... in order decodes each record once.  Raises
    [Invalid_argument] when out of range. *)

val length : t -> int

val total_cycles : t -> (string * int64) list
(** Cycles per process, sorted by process name.  The three aggregations
    come from one scan of the records, kept until the next append, so
    asking for all three decodes the log once. *)

val signal_counts : t -> ((string * string) * int) list
(** Signal counts per (sender, receiver) pair, sorted. *)

val discard_counts : t -> (string * int) list
(** Discarded-signal counts per process, sorted by process name.  Like
    {!total_cycles} / {!signal_counts}, one scan of the records that
    builds no [event] and allocates nothing per record. *)

val event_to_line : event -> string

val event_of_line : string -> (event, string) result
(** Parses one line of the format above.  Counts must not be negative:
    cycles, words, tags (when present), attempts, flow ids and
    durations. *)

val to_lines : t -> string list

val of_lines : string list -> (t, string) result
(** Blank lines are skipped; the first malformed line aborts parsing
    with an error of the form ["line N: <reason>"] (1-based, counting
    blank lines).  The numbering covers every physical line handed in —
    in particular the last line of a file without a trailing newline
    gets the same number the editor shows for it. *)

val save : t -> string -> unit
(** Write the log file. *)

val load : string -> (t, string) result
