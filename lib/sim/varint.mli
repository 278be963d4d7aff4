(** Zigzag LEB128 integers over [Bytes].

    The one record codec of the repository: the simulation log
    ({!Trace}) and the model checker's state store write their records
    as sequences of OCaml ints in this code.  Zigzag maps small
    magnitudes of either sign to small unsigned values ([0, -1, 1, -2,
    ...] to [0, 1, 2, 3, ...]), and LEB128 writes those seven bits per
    byte, so a value in [-64, 63] takes one byte and one in
    [-8192, 8191] two; [min_int] and [max_int] take {!max_width}.  The
    code is prefix-free, so a sequence of values encodes injectively.
    Neither writing nor reading allocates. *)

val max_width : int
(** The most bytes one value takes: 9. *)

val write : Bytes.t -> int -> int -> int
(** [write buf pos x] encodes [x] at offset [pos] of [buf] and returns
    the offset just past it.  Raises [Invalid_argument] if the encoding
    does not fit; [max_width] bytes of room always suffice. *)

type writer
(** A growable byte buffer. *)

val writer : unit -> writer
val clear : writer -> unit
val length : writer -> int

val add : writer -> int -> unit
(** Append one value. *)

val append : writer -> Bytes.t -> int -> int -> unit
(** [append w src pos len] appends [len] already-encoded bytes of [src]
    from [pos]. *)

val bytes : writer -> Bytes.t
(** The backing buffer; its first {!length} bytes are the contents, valid
    until the next {!add}. *)

type reader
(** A cursor into a byte sequence. *)

val reader : unit -> reader

val seek : reader -> Bytes.t -> int -> unit
(** [seek r src pos] points [r] at offset [pos] of [src]. *)

val pos : reader -> int

val read : reader -> int
(** Decode the value at the cursor and advance past it. *)

val read_into : reader -> int array -> int -> unit
(** [read_into r dst n] decodes the next [n] values into [dst.(0)] ..
    [dst.(n - 1)]: {!read} [n] times in one call. *)
