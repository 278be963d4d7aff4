(** Zigzag LEB128 integers over [Bytes].

    The model checker's state records are sequences of OCaml ints
    written with this code: zigzag maps small magnitudes of either sign
    to small unsigned values ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...]),
    and LEB128 writes those seven bits per byte, so a value in
    [-64, 63] takes one byte and one in [-8192, 8191] two; [min_int] and
    [max_int] take nine.  The code is prefix-free, so a sequence of
    values encodes injectively.  Neither writing nor reading allocates. *)

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
