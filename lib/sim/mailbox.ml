(* Growable ring buffers for per-process signal mailboxes.

   FIFO like [Queue], but enqueue/dequeue touch preallocated arrays
   instead of allocating a cell per element — signal delivery is the
   simulation's hot path.  Popped payload slots are overwritten with the
   dummy so the buffer never retains references to handled events. *)

(* Each entry is three plain-int fields plus one boxed payload spread
   over four parallel columns, so pending signals need no per-entry
   record.  Field reads ([head_a] ..) are separate calls to keep pops
   tuple-free. *)
module Flat = struct
  type 'a t = {
    mutable a : int array;
    mutable b : int array;
    mutable c : int array;
    mutable payload : 'a array;
    mutable head : int;
    mutable len : int;
    mutable high_water : int;
    dummy : 'a;
  }

  let create ?(capacity = 16) ~dummy () =
    let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
    let cap = pow2 8 in
    {
      a = Array.make cap 0;
      b = Array.make cap 0;
      c = Array.make cap 0;
      payload = Array.make cap dummy;
      head = 0;
      len = 0;
      high_water = 0;
      dummy;
    }

  let length t = t.len
  let is_empty t = t.len = 0
  let high_water t = t.high_water

  let grow t =
    let cap = Array.length t.a in
    let bigger_int src =
      let dst = Array.make (2 * cap) 0 in
      for i = 0 to t.len - 1 do
        dst.(i) <- src.((t.head + i) land (cap - 1))
      done;
      dst
    in
    let payload = Array.make (2 * cap) t.dummy in
    for i = 0 to t.len - 1 do
      payload.(i) <- t.payload.((t.head + i) land (cap - 1))
    done;
    t.a <- bigger_int t.a;
    t.b <- bigger_int t.b;
    t.c <- bigger_int t.c;
    t.payload <- payload;
    t.head <- 0

  let push t a b c payload =
    if t.len = Array.length t.a then grow t;
    let i = (t.head + t.len) land (Array.length t.a - 1) in
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    Array.unsafe_set t.c i c;
    Array.unsafe_set t.payload i payload;
    t.len <- t.len + 1;
    if t.len > t.high_water then t.high_water <- t.len

  let head_a t =
    if t.len = 0 then invalid_arg "Sim.Mailbox.Flat.head_a: empty";
    Array.unsafe_get t.a t.head

  let head_b t =
    if t.len = 0 then invalid_arg "Sim.Mailbox.Flat.head_b: empty";
    Array.unsafe_get t.b t.head

  let head_c t =
    if t.len = 0 then invalid_arg "Sim.Mailbox.Flat.head_c: empty";
    Array.unsafe_get t.c t.head

  let pop t =
    if t.len = 0 then invalid_arg "Sim.Mailbox.Flat.pop: empty";
    let v = Array.unsafe_get t.payload t.head in
    Array.unsafe_set t.payload t.head t.dummy;
    t.head <- (t.head + 1) land (Array.length t.a - 1);
    t.len <- t.len - 1;
    v

  let clear t =
    while t.len > 0 do
      ignore (pop t)
    done;
    t.high_water <- 0
end
