(** Discrete-event simulation kernel.

    Time is in integer nanoseconds.  Events scheduled for the same time
    fire in scheduling order (a monotone sequence number breaks ties), so
    simulations are fully deterministic.

    The event queue is a bucketed calendar queue (Brown 1988) whose
    handles are their own bucket cells: O(1) expected schedule and pop
    on the quasi-periodic event populations simulations produce, lazy
    cancellation, and no allocation per event beyond the handle. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

type backend = [ `Calendar ]
(** The event-queue implementation; the calendar queue is the only
    one.  Kept so existing [~backend:`Calendar] callers compile. *)

val create : ?backend:backend -> ?obs:Obs.Scope.t -> unit -> t
(** [obs] receives kernel metrics (events scheduled/fired, queue
    high-water mark, cancelled-entry churn, clock-advance
    distribution); defaults to a no-op scope. *)

val now : t -> int64

val now_ns : t -> int
(** The clock as a native int — the clock is stored unboxed, so this is
    the allocation-free read the hot path wants ({!now} boxes). *)

val schedule : t -> delay:int64 -> (unit -> unit) -> handle
(** Schedule a callback [delay] ns from now.  Raises [Invalid_argument]
    on negative delays. *)

val schedule_at : t -> time:int64 -> (unit -> unit) -> handle
(** Absolute-time variant; the time must not be in the past. *)

val schedule_ns : t -> delay:int -> (unit -> unit) -> handle
val schedule_at_ns : t -> time:int -> (unit -> unit) -> handle
(** Native-int variants of {!schedule} / {!schedule_at}: same
    semantics, no [int64] boxing on the way in. *)

val cancel : handle -> unit
(** Idempotent; cancelling an already-fired event is a no-op. *)

val cancelled : handle -> bool

val rearm_ns : t -> handle -> delay:int -> (unit -> unit) -> handle
(** [rearm_ns t h ~delay f] is semantically [cancel h; schedule_ns t
    ~delay f], returning the armed handle.  When [h] is a previous
    arming of the same (physically equal) callback, [h] is re-keyed in
    place instead of allocating — the repeated re-arm pattern of an
    EFSM After timer costs nothing in steady state.  Ordering is
    identical to the eager cancel-and-schedule path. *)

val never : handle
(** A permanently-dead handle ([cancelled never] is [true]); an
    allocation-free initial value for mutable handle slots. *)

val step : t -> bool
(** Fire the earliest pending event.  Returns [false] when the queue is
    empty (time does not advance). *)

val run : ?until:int64 -> t -> int
(** Fire events until the queue is empty or the next event is strictly
    after [until]; returns the number of events fired.  With [until],
    time is left at [min until (time of last fired event)]'s max — i.e.
    at [until] if the horizon was reached. *)

val pending : t -> int
(** Number of live (non-cancelled) events still queued. *)
