(* Zigzag LEB128 over OCaml's 63-bit ints: [x asr 62] is 0 or all ones,
   so the zigzag image is an unsigned 63-bit pattern that [lsr] shifts
   down to zero in at most nine 7-bit groups.  Most values in a state
   record fit one byte, so [add] and [read] inline that case and leave
   the loop to top-level functions, which allocate no closure. *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer () = { buf = Bytes.create 256; len = 0 }
let clear w = w.len <- 0
let length w = w.len
let bytes w = w.buf

let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    let bigger = Bytes.create (max (w.len + n) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger
  end

(* Write the unsigned pattern [z] at [i]; returns the next offset. *)
let rec put buf z i =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set buf i (Char.unsafe_chr z);
    i + 1
  end
  else begin
    Bytes.unsafe_set buf i (Char.unsafe_chr ((z land 0x7f) lor 0x80));
    put buf (z lsr 7) (i + 1)
  end

let add_long w z =
  reserve w 9;
  w.len <- put w.buf z w.len

let[@inline] add w x =
  let z = (x lsl 1) lxor (x asr 62) in
  let len = w.len in
  if z lsr 7 = 0 && len < Bytes.length w.buf then begin
    Bytes.unsafe_set w.buf len (Char.unsafe_chr z);
    w.len <- len + 1
  end
  else add_long w z

let append w src pos len =
  reserve w len;
  Bytes.blit src pos w.buf w.len len;
  w.len <- w.len + len

type reader = { mutable src : Bytes.t; mutable at : int }

let reader () = { src = Bytes.empty; at = 0 }

let seek r src pos =
  r.src <- src;
  r.at <- pos

let pos r = r.at

let rec get r src acc shift i =
  let b = Char.code (Bytes.get src i) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then begin
    r.at <- i + 1;
    acc
  end
  else get r src acc (shift + 7) (i + 1)

let[@inline] read r =
  let at = r.at in
  let b = Char.code (Bytes.get r.src at) in
  let z =
    if b < 0x80 then begin
      r.at <- at + 1;
      b
    end
    else get r r.src 0 0 at
  in
  (z lsr 1) lxor -(z land 1)
