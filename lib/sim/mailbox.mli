(** Growable ring-buffer FIFOs for per-process signal mailboxes.

    Same contract as [Queue] for push/pop order, but backed by
    preallocated arrays (capacities are powers of two), so the
    simulation's signal-delivery hot path does not allocate a cell per
    event.  Not thread-safe — the simulation is single-threaded.

    Flat rings: three plain-int fields plus one payload per entry,
    stored in parallel columns, so a pending-signal row needs no heap
    record.  Read the head's int fields with [head_a]/[head_b]/[head_c]
    before [pop]ping the payload — separate calls keep pops free of
    tuple allocation. *)

module Flat : sig
  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  (** [dummy] fills unused payload slots (and overwrites popped ones, so
      handled events are not retained); [capacity] rounds up to a power
      of two, minimum 8. *)

  val push : 'a t -> int -> int -> int -> 'a -> unit

  val head_a : 'a t -> int
  val head_b : 'a t -> int
  val head_c : 'a t -> int
  (** Int fields of the oldest entry; raise [Invalid_argument] when
      empty. *)

  val pop : 'a t -> 'a
  (** Payload of the oldest entry, advancing the ring. *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  val high_water : 'a t -> int
  (** Peak {!length} observed since creation or the last {!clear} —
      survives wrap-around and growth, costs one compare per push. *)

  val clear : 'a t -> unit
  (** Empties the ring and resets {!high_water} to 0. *)
end
