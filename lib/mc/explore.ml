(* Explicit-state exploration of the composed EFSM network.

   A global state is, per instance, the control-state id, every
   variable slot (tag + value) and the bounded mailbox contents (per
   message: signal id, argument count, tag + value per argument), then
   the remaining exploration budgets.  The *concrete* state is what
   successor computation restores from; the *canonical key* is the same
   sequence with control-irrelevant variable and payload slots ({!Coi})
   left out, so states differing only in dead counters merge into one
   representative.

   The state store.  Each new state is written once as a {!Sim.Varint}
   record — its key length, its key, then (with the cone of influence
   on) its concrete state — into append-only 1 MiB byte chunks, which
   are never copied and which the GC never scans; a record never
   straddles two chunks.  Per-id int arrays hold the record's location,
   the parent, the step from it and the depth.  The visited set is an
   open-addressing table of record locations with each key's hash
   stored beside its location, so growing it never rehashes a key, and
   a successor that is already known costs no allocation: encode its
   key into a scratch buffer, hash, probe, compare bytes.

   The working world is one compiled EFSM instance per machine plus one
   flat int ring per mailbox.  A popped state is decoded into it once;
   between its successors only the instances the previous step touched,
   and the budget counters, are restored.

   Budgets make the space finite: per-environment-input injection
   budget, per-instance timer-fire budget, bounded queues, and a hard
   state cap.  The deadlock property is independent of the budgets (an
   armed timer or an environment-injectable trigger counts as an escape
   whether or not its budget is spent), so exhausting the budgeted
   space never manufactures a spurious deadlock.

   Partial-order reduction: when some instance's every enabled step is
   *silent* (consumes only its own queue head or timer and provably
   emits nothing to another machine instance — {!Net.inst.silent_on})
   and its queue is below capacity, that instance's steps form a
   persistent set and the other interleavings are pruned.  Silent steps
   strictly shrink queued-work + timer budgets, so prioritising them
   cannot starve the deferred steps (no ignoring problem), and the
   below-capacity guard keeps queue-overflow detection exact. *)

type order = Dfs | Bfs

type budget = {
  max_states : int;
  max_depth : int;
  queue_capacity : int;
  env_budget : int;
  timer_budget : int;
}

(* Defaults sized so the reference TUTMAC network is exhausted in well
   under a second: one injection per environment input, two timer fires
   per instance.  Raising --env-budget to 2 grows the bounded space to
   ~240k states (it once surfaced a genuine RChConfig queue overflow at
   the slot allocator, since closed by admission control at the radio
   configurator); the budgets are the knob, not the ceiling. *)
let default_budget =
  {
    max_states = 200_000;
    max_depth = 0;
    queue_capacity = 8;
    env_budget = 1;
    timer_budget = 2;
  }

type config = {
  order : order;
  budget : budget;
  por : bool;
  coi : bool;
  check_deadlock : bool;
  check_overflow : bool;
}

let default_config =
  {
    order = Bfs;
    budget = default_budget;
    por = true;
    coi = true;
    check_deadlock = true;
    check_overflow = true;
  }

type step =
  | S_deliver of int
  | S_timer of int
  | S_inject of int

type violation =
  | V_deadlock of { members : int list }
  | V_overflow of { dest : int; gsig : int }

type stats = {
  states : int;
  steps : int;
  dedup : int;
  frontier_peak : int;
  exhausted : bool;
}

type result = {
  stats : stats;
  violation : (violation * step list) option;
  unreached_states : (string * string) list;
  unfired_transitions : (string * int) list;
  caveats : string list;
}

(* ---- steps as ints ---------------------------------------------------- *)
(* [3 * index + kind], so step buffers and the per-state [via] stay
   unboxed: kind 0 delivers, 1 fires the timer, 2 injects. *)

let step_of_code c =
  match c mod 3 with
  | 0 -> S_deliver (c / 3)
  | 1 -> S_timer (c / 3)
  | _ -> S_inject (c / 3)

(* ---- the working world ------------------------------------------------ *)

type world = {
  execs : Efsm.Compiled.t array;
  n_vars : int array;
  rings : int array array;
      (** per instance, [slot]-int message slots in ring order *)
  q_head : int array;  (** slot index of the next message to deliver *)
  q_len : int array;
  slot : int;  (** gsig, argc, then a tag and a value per argument *)
  timer_left : int array;
  env_left : int array;
  (* instances the current step has modified, for the sibling restore *)
  touched : int array;
  marked : bool array;
  mutable n_touched : int;
}

(* Widest argument list any message can carry: a declared signal's
   parameters (environment injections) or a send site's arguments. *)
let max_args (net : Net.t) =
  Array.fold_left
    (fun acc (i : Net.inst) ->
      List.fold_left
        (fun acc (_, _, args) -> max acc (List.length args))
        acc
        (Net.machine_send_sites i.Net.machine))
    (Array.fold_left
       (fun acc (s : Net.sig_info) -> max acc (Array.length s.Net.sg_params))
       0 net.Net.sigs)
    net.Net.insts

let fresh_world (net : Net.t) budget =
  let n = Net.n_insts net in
  let slot = 2 + (2 * max_args net) in
  let slots = max 1 (min budget.queue_capacity 8) in
  {
    execs =
      Array.map
        (fun (i : Net.inst) -> Efsm.Compiled.create i.Net.prog)
        net.Net.insts;
    n_vars =
      Array.map
        (fun (i : Net.inst) -> Efsm.Compiled.n_vars i.Net.prog)
        net.Net.insts;
    rings = Array.init n (fun _ -> Array.make (slots * slot) 0);
    q_head = Array.make n 0;
    q_len = Array.make n 0;
    slot;
    timer_left = Array.make n budget.timer_budget;
    env_left = Array.make (Array.length net.Net.env_inputs) budget.env_budget;
    touched = Array.make n 0;
    marked = Array.make n false;
    n_touched = 0;
  }

let touch w ix =
  if not w.marked.(ix) then begin
    w.marked.(ix) <- true;
    w.touched.(w.n_touched) <- ix;
    w.n_touched <- w.n_touched + 1
  end

let untouch_all w =
  for t = 0 to w.n_touched - 1 do
    w.marked.(w.touched.(t)) <- false
  done;
  w.n_touched <- 0

(* Re-lay instance [ix]'s ring with at least [n] slots, messages first. *)
let ensure_slots w ix n =
  let ring = w.rings.(ix) in
  let slots = Array.length ring / w.slot in
  if n > slots then begin
    let bigger = Array.make (max n (2 * slots) * w.slot) 0 in
    for k = 0 to w.q_len.(ix) - 1 do
      Array.blit ring ((w.q_head.(ix) + k) mod slots * w.slot) bigger
        (k * w.slot) w.slot
    done;
    w.rings.(ix) <- bigger;
    w.q_head.(ix) <- 0
  end

(* Offset of the [k]th queued message of instance [ix]. *)
let slot_at w ix k =
  let slots = Array.length w.rings.(ix) / w.slot in
  (w.q_head.(ix) + k) mod slots * w.slot

exception Overflow of int * int  (** dest instance, gsig *)

(* Append a message header to [dest]'s ring; returns the slot offset,
   whose argument pairs the caller fills in. *)
let push_slot w ~capacity dest gsig argc =
  let len = w.q_len.(dest) in
  if len >= capacity then raise (Overflow (dest, gsig));
  ensure_slots w dest (len + 1);
  let at = slot_at w dest len in
  let ring = w.rings.(dest) in
  ring.(at) <- gsig;
  ring.(at + 1) <- argc;
  w.q_len.(dest) <- len + 1;
  at

let rec put_args ring at = function
  | [] -> ()
  | Efsm.Action.V_int n :: rest ->
    ring.(at) <- 1;
    ring.(at + 1) <- n;
    put_args ring (at + 2) rest
  | Efsm.Action.V_bool b :: rest ->
    ring.(at) <- 2;
    ring.(at + 1) <- (if b then 1 else 0);
    put_args ring (at + 2) rest

(* Route one effect list; enqueues a copy per receiving instance. *)
let rec route w ~capacity (inst : Net.inst) = function
  | [] -> ()
  | Efsm.Action.Eff_compute _ :: rest -> route w ~capacity inst rest
  | Efsm.Action.Eff_send { port; signal; args } :: rest ->
    let ri = Net.route_index inst ~port ~signal in
    if ri >= 0 then begin
      let r = inst.Net.routes.(ri) in
      let argc = List.length args in
      for d = 0 to Array.length r.Net.rt_dests - 1 do
        let dest = r.Net.rt_dests.(d) in
        touch w dest;
        let at = push_slot w ~capacity dest r.Net.rt_gsig argc in
        put_args w.rings.(dest) (at + 2) args
      done
    end;
    route w ~capacity inst rest

let rec bind_from params ring at k acc =
  if k < 0 then acc
  else
    let tag = ring.(at + 2 + (2 * k)) and v = ring.(at + 3 + (2 * k)) in
    let value =
      if tag = 1 then Efsm.Action.V_int v else Efsm.Action.V_bool (v <> 0)
    in
    bind_from params ring at (k - 1) ((fst params.(k), value) :: acc)

(* The named bindings of the message at [at], as {!Net.bind_args}. *)
let bind_slot (net : Net.t) ring at =
  let params = net.Net.sigs.(ring.(at)).Net.sg_params in
  bind_from params ring at (min (Array.length params) ring.(at + 1) - 1) []

(* ---- record encoding -------------------------------------------------- *)

let fnv_prime = 0x100000001b3
let fnv_basis = 0x811c9dc5
let[@inline] mix h x = (h lxor x) * fnv_prime

(* Append [x] to [out] and fold it into hash [h]. *)
let[@inline] emit out h x =
  Sim.Varint.add out x;
  mix h x

(* Instance [ix]'s segment of the canonical key into [out]; returns its
   hash.  [None]: every slot, the concrete layout [decode_inst] reads.
   [Some coi]: irrelevant slots are skipped, not zeroed — which slots a
   key holds is fixed by the instance and by the signal ids already in
   it, so skipping keeps the key injective on what it keeps. *)
let encode_inst_key (coi : Coi.t option) w ix out =
  let ex = w.execs.(ix) in
  let h = ref (emit out fnv_basis (Efsm.Compiled.state_id ex)) in
  for v = 0 to w.n_vars.(ix) - 1 do
    if match coi with None -> true | Some c -> c.Coi.var_relevant.(ix).(v)
    then begin
      let tag = Efsm.Compiled.var_tag ex v in
      h := emit out !h tag;
      h := emit out !h (if tag = 0 then 0 else Efsm.Compiled.var_value ex v)
    end
  done;
  let ring = w.rings.(ix) in
  h := emit out !h w.q_len.(ix);
  for k = 0 to w.q_len.(ix) - 1 do
    let at = slot_at w ix k in
    let gsig = ring.(at) and argc = ring.(at + 1) in
    h := emit out !h gsig;
    h := emit out !h argc;
    for a = 0 to argc - 1 do
      if
        match coi with
        | None -> true
        | Some c ->
          let mask = c.Coi.arg_relevant.(ix).(gsig) in
          a < Array.length mask && mask.(a)
      then begin
        h := emit out !h ring.(at + 2 + (2 * a));
        h := emit out !h ring.(at + 3 + (2 * a))
      end
    done
  done;
  !h

(* The budget counters close both the key and the concrete record. *)
let encode_budgets w out h =
  let h = ref h in
  for i = 0 to Array.length w.timer_left - 1 do
    h := emit out !h w.timer_left.(i)
  done;
  for e = 0 to Array.length w.env_left - 1 do
    h := emit out !h w.env_left.(e)
  done;
  !h

let decode_inst w ix r =
  let ex = w.execs.(ix) in
  Efsm.Compiled.set_state_id ex (Sim.Varint.read r);
  for v = 0 to w.n_vars.(ix) - 1 do
    let tag = Sim.Varint.read r in
    Efsm.Compiled.set_var_raw ex v tag (Sim.Varint.read r)
  done;
  let len = Sim.Varint.read r in
  w.q_len.(ix) <- 0;
  ensure_slots w ix len;
  w.q_head.(ix) <- 0;
  w.q_len.(ix) <- len;
  let ring = w.rings.(ix) in
  for k = 0 to len - 1 do
    let at = k * w.slot in
    ring.(at) <- Sim.Varint.read r;
    let argc = Sim.Varint.read r in
    ring.(at + 1) <- argc;
    for j = at + 2 to at + 1 + (2 * argc) do
      ring.(j) <- Sim.Varint.read r
    done
  done

(* ---- the state store and visited set ---------------------------------- *)

let chunk_bits = 20
let chunk_size = 1 lsl chunk_bits

type store = {
  mutable chunks : Bytes.t array;
  mutable n_chunks : int;
  mutable fill : int;  (** bytes used in the last chunk *)
  (* per state id *)
  mutable loc : int array;
      (** its record: chunk index lsl [chunk_bits] lor offset *)
  mutable parent : int array;
  mutable via : int array;  (** step code from the parent *)
  mutable depth : int array;
  mutable count : int;
  (* visited set: pairs of a record location ([-1] = free) and its key
     hash, so a probe reads one cache line before it reads the record *)
  mutable table : int array;
  rd : Sim.Varint.reader;
}

let store_create () =
  {
    chunks = [||];
    n_chunks = 0;
    fill = 0;
    loc = Array.make 1024 0;
    parent = Array.make 1024 0;
    via = Array.make 1024 0;
    depth = Array.make 1024 0;
    count = 0;
    table = Array.make (2 * 4096) (-1);
    rd = Sim.Varint.reader ();
  }

let chunk_of st loc = st.chunks.(loc lsr chunk_bits)
let offset_of loc = loc land (chunk_size - 1)

(* Bytes [0, n) of [a] against bytes [off, off + n) of [b], a word at a
   time. *)
let rec same_bytes a b off i n =
  if i + 8 <= n then
    (Bytes.get_int64_ne a i : int64) = Bytes.get_int64_ne b (off + i)
    && same_bytes a b off (i + 8) n
  else
    i >= n
    || (Bytes.get a i = Bytes.get b (off + i) && same_bytes a b off (i + 1) n)

(* A record is its key length, its key, then (with the cone of
   influence on) its concrete state. *)
let same_key st loc key klen =
  let chunk = chunk_of st loc in
  Sim.Varint.seek st.rd chunk (offset_of loc);
  Sim.Varint.read st.rd = klen
  && same_bytes key chunk (Sim.Varint.pos st.rd) 0 klen

(* Whether the key in [key] (its first [klen] bytes, hash [h]) is
   stored, as [1]; otherwise [-(slot + 1)] for the free slot where it
   belongs. *)
let rec probe st key klen h i =
  let loc = st.table.(2 * i) in
  if loc < 0 then -(i + 1)
  else if st.table.((2 * i) + 1) = h && same_key st loc key klen then 1
  else probe st key klen h ((i + 1) land ((Array.length st.table / 2) - 1))

let find st key klen h =
  probe st key klen h (h land ((Array.length st.table / 2) - 1))

let rec free_slot table i =
  if table.(2 * i) < 0 then i
  else free_slot table ((i + 1) land ((Array.length table / 2) - 1))

(* Double the table at half load, re-placing entries by their stored
   hash. *)
let grow_table st =
  let old = st.table in
  let table = Array.make (2 * Array.length old) (-1) in
  let slots = Array.length table / 2 in
  for i = 0 to (Array.length old / 2) - 1 do
    if old.(2 * i) >= 0 then begin
      let h = old.((2 * i) + 1) in
      let j = free_slot table (h land (slots - 1)) in
      table.(2 * j) <- old.(2 * i);
      table.((2 * j) + 1) <- h
    end
  done;
  st.table <- table

let grow_ids st =
  let grow a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 st.count;
    b
  in
  st.loc <- grow st.loc;
  st.parent <- grow st.parent;
  st.via <- grow st.via;
  st.depth <- grow st.depth

(* Room for a [len]-byte record in the last chunk, opening a new one
   (at least [len] long) when it does not fit. *)
let reserve st len =
  if st.n_chunks = 0 || st.fill + len > Bytes.length st.chunks.(st.n_chunks - 1)
  then begin
    if st.n_chunks = Array.length st.chunks then begin
      let bigger = Array.make (max 16 (2 * st.n_chunks)) Bytes.empty in
      Array.blit st.chunks 0 bigger 0 st.n_chunks;
      st.chunks <- bigger
    end;
    st.chunks.(st.n_chunks) <- Bytes.create (max chunk_size len);
    st.n_chunks <- st.n_chunks + 1;
    st.fill <- 0
  end

(* Store a new state at free table slot [slot].  [head] is scratch for
   the record's length prefix; [concrete] is given when the key omits
   slots. *)
let store_add st ~slot ~head ~key ~h ~concrete parent via depth =
  let klen = Sim.Varint.length key in
  Sim.Varint.clear head;
  Sim.Varint.add head klen;
  let hlen = Sim.Varint.length head in
  let clen = match concrete with Some c -> Sim.Varint.length c | None -> 0 in
  reserve st (hlen + klen + clen);
  let chunk = st.chunks.(st.n_chunks - 1) and at = st.fill in
  Bytes.blit (Sim.Varint.bytes head) 0 chunk at hlen;
  Bytes.blit (Sim.Varint.bytes key) 0 chunk (at + hlen) klen;
  (match concrete with
  | Some c -> Bytes.blit (Sim.Varint.bytes c) 0 chunk (at + hlen + klen) clen
  | None -> ());
  if st.count = Array.length st.loc then grow_ids st;
  let id = st.count in
  let loc = ((st.n_chunks - 1) lsl chunk_bits) lor at in
  st.loc.(id) <- loc;
  st.parent.(id) <- parent;
  st.via.(id) <- via;
  st.depth.(id) <- depth;
  st.count <- id + 1;
  st.fill <- at + hlen + klen + clen;
  st.table.(2 * slot) <- loc;
  st.table.((2 * slot) + 1) <- h;
  if 4 * st.count > Array.length st.table then grow_table st;
  id

let schedule_to st id extra =
  let rec build id acc =
    if id <= 0 then acc
    else build st.parent.(id) (step_of_code st.via.(id) :: acc)
  in
  build id [] @ extra

(* ---- loading a state and restoring between siblings ------------------- *)

(* The loaded state: where its concrete segments sit in the store, its
   key re-encoded per instance, and its budget counters. *)
type cursor = {
  r : Sim.Varint.reader;
  mutable src : Bytes.t;
  inst_off : int array;
      (** per instance its concrete segment's offset in [src], then the
          budgets' *)
  key : Sim.Varint.writer;  (** the key's instance segments, budgets left out *)
  key_off : int array;  (** per instance its segment's offset, then the end *)
  seg_hash : int array;
  saved_timer : int array;
  saved_env : int array;
}

let cursor (net : Net.t) =
  let n = Net.n_insts net in
  {
    r = Sim.Varint.reader ();
    src = Bytes.empty;
    inst_off = Array.make (n + 1) 0;
    key = Sim.Varint.writer ();
    key_off = Array.make (n + 1) 0;
    seg_hash = Array.make n 0;
    saved_timer = Array.make n 0;
    saved_env = Array.make (Array.length net.Net.env_inputs) 0;
  }

(* Decode state [id]'s concrete record into [w], remembering where each
   instance starts for {!restore}, and re-encode its key segments for
   {!successor_key}. *)
let load coi st c w id =
  let loc = st.loc.(id) in
  let n = Array.length w.execs in
  c.src <- chunk_of st loc;
  Sim.Varint.seek c.r c.src (offset_of loc);
  let klen = Sim.Varint.read c.r in
  if Option.is_some coi then
    Sim.Varint.seek c.r c.src (Sim.Varint.pos c.r + klen);
  Sim.Varint.clear c.key;
  for ix = 0 to n - 1 do
    c.inst_off.(ix) <- Sim.Varint.pos c.r;
    decode_inst w ix c.r;
    c.key_off.(ix) <- Sim.Varint.length c.key;
    c.seg_hash.(ix) <- encode_inst_key coi w ix c.key
  done;
  c.inst_off.(n) <- Sim.Varint.pos c.r;
  c.key_off.(n) <- Sim.Varint.length c.key;
  for i = 0 to Array.length w.timer_left - 1 do
    w.timer_left.(i) <- Sim.Varint.read c.r
  done;
  for e = 0 to Array.length w.env_left - 1 do
    w.env_left.(e) <- Sim.Varint.read c.r
  done;
  Array.blit w.timer_left 0 c.saved_timer 0 (Array.length w.timer_left);
  Array.blit w.env_left 0 c.saved_env 0 (Array.length w.env_left);
  untouch_all w

(* Undo the last step: re-decode the instances it touched and reset the
   budget counters to the loaded state's. *)
let restore c w =
  for t = 0 to w.n_touched - 1 do
    let ix = w.touched.(t) in
    Sim.Varint.seek c.r c.src c.inst_off.(ix);
    decode_inst w ix c.r
  done;
  untouch_all w;
  Array.blit c.saved_timer 0 w.timer_left 0 (Array.length w.timer_left);
  Array.blit c.saved_env 0 w.env_left 0 (Array.length w.env_left)

(* Append the bytes of segments [from, upto) of [src], whose offsets
   are in [offs]. *)
let copy_segments out src offs from upto =
  Sim.Varint.append out src offs.(from) (offs.(upto) - offs.(from))

(* The world's key into [out], returning its hash: the loaded state's
   segment for every instance the step left alone, a fresh one for each
   instance it touched. *)
let successor_key coi c w out =
  Sim.Varint.clear out;
  let n = Array.length w.execs in
  let keep = Sim.Varint.bytes c.key in
  let h = ref fnv_basis and from = ref 0 in
  for ix = 0 to n - 1 do
    if w.marked.(ix) then begin
      copy_segments out keep c.key_off !from ix;
      h := mix !h (encode_inst_key coi w ix out);
      from := ix + 1
    end
    else h := mix !h c.seg_hash.(ix)
  done;
  copy_segments out keep c.key_off !from n;
  let h = encode_budgets w out !h in
  (* Multiplication only carries upwards; fold the high bits into the
     low ones the table indexes by. *)
  let h = (h lxor (h lsr 31)) * 0x7fb5d329728ea185 in
  (h lxor (h lsr 29)) land max_int

(* The world's concrete record into [out], the same way. *)
let successor_concrete c w out =
  Sim.Varint.clear out;
  let n = Array.length w.execs in
  let from = ref 0 in
  for ix = 0 to n - 1 do
    if w.marked.(ix) then begin
      copy_segments out c.src c.inst_off !from ix;
      ignore (encode_inst_key None w ix out);
      from := ix + 1
    end
  done;
  copy_segments out c.src c.inst_off !from n;
  ignore (encode_budgets w out 0)

(* ---- step application ------------------------------------------------- *)

(* A machine action failed: instance, what it was doing, message. *)
exception Step_failed of int * string * string

let timer_enabled (net : Net.t) w ix =
  w.timer_left.(ix) > 0
  && Efsm.Compiled.after_min_of net.Net.insts.(ix).Net.prog
       (Efsm.Compiled.state_id w.execs.(ix))
     >= 0

(* Execute the step with code [code]; returns the machine transition
   that fired, if any.  Raises [Overflow] when an emission exceeds a
   queue's capacity. *)
let apply_step (net : Net.t) w ~capacity code =
  let ix = code / 3 in
  match code mod 3 with
  | 0 ->
    let inst = net.Net.insts.(ix) in
    touch w ix;
    let ring = w.rings.(ix) in
    let at = w.q_head.(ix) * w.slot in
    let gsig = ring.(at) in
    let args = bind_slot net ring at in
    w.q_head.(ix) <- (w.q_head.(ix) + 1) mod (Array.length ring / w.slot);
    w.q_len.(ix) <- w.q_len.(ix) - 1;
    let signal = Net.sig_name net gsig in
    let step =
      try Efsm.Compiled.dispatch w.execs.(ix) ~signal ~args
      with Efsm.Action.Type_error m ->
        raise (Step_failed (ix, "delivering " ^ signal, m))
    in
    route w ~capacity inst step.Efsm.Interp.effects;
    step.Efsm.Interp.fired
  | 1 ->
    let inst = net.Net.insts.(ix) in
    let ex = w.execs.(ix) in
    touch w ix;
    let step =
      try Efsm.Compiled.fire_timer ex ~entered_state:(Efsm.Compiled.state ex)
      with Efsm.Action.Type_error m ->
        raise (Step_failed (ix, "firing its timer", m))
    in
    w.timer_left.(ix) <- w.timer_left.(ix) - 1;
    route w ~capacity inst step.Efsm.Interp.effects;
    step.Efsm.Interp.fired
  | _ ->
    let input = net.Net.env_inputs.(ix) in
    let dest = input.Net.ei_target and gsig = input.Net.ei_gsig in
    let params = net.Net.sigs.(gsig).Net.sg_params in
    touch w dest;
    let at = push_slot w ~capacity dest gsig (Array.length params) in
    let ring = w.rings.(dest) in
    Array.iteri
      (fun a (_, ty) ->
        ring.(at + 2 + (2 * a)) <-
          (match ty with Uml.Signal.P_int -> 1 | Uml.Signal.P_bool -> 2);
        ring.(at + 3 + (2 * a)) <- 0)
      params;
    w.env_left.(ix) <- w.env_left.(ix) - 1;
    None

(* Initial global state: every instance runs its initial entry actions
   and completions (instance order), emissions routed. *)
let init_world (net : Net.t) w ~capacity =
  Array.iteri
    (fun ix (inst : Net.inst) ->
      let ex = w.execs.(ix) in
      match
        route w ~capacity inst (Efsm.Compiled.initial_entry ex);
        route w ~capacity inst (Efsm.Compiled.run_completions ex)
      with
      | () -> ()
      | exception Efsm.Action.Type_error m ->
        raise (Step_failed (ix, "initial entry", m)))
    net.Net.insts

(* ---- enabled steps and the persistent set ----------------------------- *)
(* Both write step codes into [buf] and return how many: per instance in
   index order its delivery, then its timer; environment injections
   last. *)

let enabled_steps (net : Net.t) w buf =
  let k = ref 0 in
  for ix = 0 to Array.length net.Net.insts - 1 do
    if w.q_len.(ix) > 0 then begin
      buf.(!k) <- 3 * ix;
      incr k
    end;
    if timer_enabled net w ix then begin
      buf.(!k) <- (3 * ix) + 1;
      incr k
    end
  done;
  for e = 0 to Array.length net.Net.env_inputs - 1 do
    if w.env_left.(e) > 0 then begin
      buf.(!k) <- (3 * e) + 2;
      incr k
    end
  done;
  !k

(* The lowest-indexed instance from [ix] on whose every enabled step is
   silent and whose queue is below capacity; its steps form a
   persistent set.  0 when there is none. *)
let rec ample (net : Net.t) w ~capacity buf ix =
  if ix >= Array.length net.Net.insts then 0
  else begin
    let inst = net.Net.insts.(ix) in
    let s = Efsm.Compiled.state_id w.execs.(ix) in
    let qlen = w.q_len.(ix) in
    let timer = timer_enabled net w ix in
    if (qlen = 0 && not timer) || qlen >= capacity then
      ample net w ~capacity buf (ix + 1)
    else if
      (qlen = 0
      || inst.Net.silent_on.(s).(w.rings.(ix).(w.q_head.(ix) * w.slot)))
      && ((not timer) || inst.Net.silent_after.(s))
    then begin
      let k = ref 0 in
      if qlen > 0 then begin
        buf.(0) <- 3 * ix;
        k := 1
      end;
      if timer then begin
        buf.(!k) <- (3 * ix) + 1;
        incr k
      end;
      !k
    end
    else ample net w ~capacity buf (ix + 1)
  end

(* ---- the search ------------------------------------------------------- *)

let caveat_strings (net : Net.t) =
  Array.to_list net.Net.env_inputs
  |> List.filter (fun (e : Net.env_input) -> e.Net.ei_guard_read)
  |> List.map (fun (e : Net.env_input) ->
         Printf.sprintf
           "a guard at %s reads a parameter of environment signal %s; only \
            the canonical zero payload was explored"
           net.Net.insts.(e.Net.ei_target).Net.path
           (Net.sig_name net e.Net.ei_gsig))
  |> List.sort_uniq compare

let run ?(config = default_config) (net : Net.t) =
  let cfg = config in
  let capacity = cfg.budget.queue_capacity in
  let coi = if cfg.coi then Some (Coi.analyse net) else None in
  let net = match coi with Some c -> Coi.apply_caveats net c | None -> net in
  let n = Net.n_insts net in
  let st = store_create () in
  let w = fresh_world net cfg.budget in
  let key = Sim.Varint.writer () and head = Sim.Varint.writer () in
  (* with the cone of influence off the key is the concrete state *)
  let concrete = if cfg.coi then Some (Sim.Varint.writer ()) else None in
  let cursor = cursor net in
  let steps_buf = Array.make ((2 * n) + Array.length net.Net.env_inputs) 0 in
  (* coverage marks *)
  let state_seen =
    Array.map
      (fun (i : Net.inst) ->
        Array.make (Efsm.Compiled.n_states i.Net.prog) false)
      net.Net.insts
  in
  let tr_fired =
    Array.map
      (fun (i : Net.inst) -> Array.make (Array.length i.Net.transitions) false)
      net.Net.insts
  in
  let mark_states () =
    for ix = 0 to n - 1 do
      state_seen.(ix).(Efsm.Compiled.state_id w.execs.(ix)) <- true
    done
  in
  let mark_fired ix tr =
    let trs = net.Net.insts.(ix).Net.transitions in
    for k = 0 to Array.length trs - 1 do
      if trs.(k) == tr then tr_fired.(ix).(k) <- true
    done
  in
  let blocked_buf = Array.make n false in
  let state_of ix = Efsm.Compiled.state_id w.execs.(ix) in
  let queue_empty ix = w.q_len.(ix) = 0 in
  (* the allocation-free fixpoint screens every new state; only a
     deadlock (which ends the search) builds the member list *)
  let blocked () =
    if
      cfg.check_deadlock
      && Net.mark_blocked net blocked_buf ~state_of ~queue_empty
    then Net.blocked_set net ~state_of ~queue_empty
    else []
  in
  let steps_done = ref 0 in
  let dedup = ref 0 in
  let frontier_peak = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  (* frontier: every stored state is pushed once, in id order, so the
     BFS queue is the id range [bfs_head, count) *)
  let bfs_head = ref 0 in
  let stack = ref (Array.make 1024 0) in
  let sp = ref 0 in
  let frontier_len () =
    match cfg.order with Bfs -> st.count - !bfs_head | Dfs -> !sp
  in
  let add_state ~slot ~h parent via depth =
    (match concrete with Some c -> successor_concrete cursor w c | None -> ());
    let id = store_add st ~slot ~head ~key ~h ~concrete parent via depth in
    (match cfg.order with
    | Bfs -> ()
    | Dfs ->
      if !sp = Array.length !stack then begin
        let bigger = Array.make (2 * !sp) 0 in
        Array.blit !stack 0 bigger 0 !sp;
        stack := bigger
      end;
      !stack.(!sp) <- id;
      incr sp);
    if frontier_len () > !frontier_peak then frontier_peak := frontier_len ();
    mark_states ();
    id
  in
  let failed ix what m =
    raise
      (Efsm.Action.Type_error
         (Printf.sprintf "%s at %s (%s) after %d states explored" m
            net.Net.insts.(ix).Net.path what st.count))
  in
  (* root *)
  (try
     init_world net w ~capacity;
     (* no loaded state yet: every instance's segment is fresh *)
     for ix = 0 to n - 1 do
       touch w ix
     done;
     let h = successor_key coi cursor w key in
     let slot = -(find st (Sim.Varint.bytes key) (Sim.Varint.length key) h) - 1 in
     ignore (add_state ~slot ~h (-1) 0 0);
     match blocked () with
     | [] -> ()
     | members -> violation := Some (V_deadlock { members }, [])
   with
  | Overflow (dest, gsig) ->
    if cfg.check_overflow then violation := Some (V_overflow { dest; gsig }, [])
  | Step_failed (ix, what, m) -> failed ix what m);
  let stop = ref (!violation <> None) in
  while not !stop do
    if frontier_len () = 0 then stop := true
    else begin
      let id =
        match cfg.order with
        | Bfs ->
          incr bfs_head;
          !bfs_head - 1
        | Dfs ->
          decr sp;
          !stack.(!sp)
      in
      let depth = st.depth.(id) in
      load coi st cursor w id;
      let n_steps =
        match if cfg.por then ample net w ~capacity steps_buf 0 else 0 with
        | 0 -> enabled_steps net w steps_buf
        | k -> k
      in
      let k = ref 0 in
      while !k < n_steps && not !stop do
        if !k > 0 then restore cursor w;
        let code = steps_buf.(!k) in
        incr k;
        incr steps_done;
        match apply_step net w ~capacity code with
        | fired -> (
          (match fired with Some tr -> mark_fired (code / 3) tr | None -> ());
          let h = successor_key coi cursor w key in
          let found = find st (Sim.Varint.bytes key) (Sim.Varint.length key) h in
          if found >= 0 then incr dedup
          else if st.count >= cfg.budget.max_states then begin
            truncated := true;
            stop := true
          end
          else if cfg.budget.max_depth > 0 && depth + 1 > cfg.budget.max_depth
          then truncated := true
          else
            let sid = add_state ~slot:(-found - 1) ~h id code (depth + 1) in
            match blocked () with
            | [] -> ()
            | members ->
              violation := Some (V_deadlock { members }, schedule_to st sid []);
              stop := true)
        | exception Overflow (dest, gsig) ->
          if cfg.check_overflow then begin
            violation :=
              Some
                ( V_overflow { dest; gsig },
                  schedule_to st id [ step_of_code code ] );
            stop := true
          end
        | exception Step_failed (ix, what, m) -> failed ix what m
      done
    end
  done;
  let exhausted =
    (not !truncated) && !violation = None && frontier_len () = 0
  in
  let unreached_states =
    Array.to_list net.Net.insts
    |> List.concat_map (fun (i : Net.inst) ->
           List.filteri
             (fun s _ -> not state_seen.(i.Net.ix).(s))
             (List.init
                (Efsm.Compiled.n_states i.Net.prog)
                (fun s -> Efsm.Compiled.state_name_of_id i.Net.prog s))
           |> List.map (fun name -> (i.Net.path, name)))
  in
  let unfired_transitions =
    Array.to_list net.Net.insts
    |> List.concat_map (fun (i : Net.inst) ->
           Array.to_list
             (Array.mapi (fun k tr -> (k, tr)) i.Net.transitions)
           |> List.filter_map (fun (k, (tr : Efsm.Machine.transition)) ->
                  match tr.Efsm.Machine.trigger with
                  | Efsm.Machine.Completion -> None
                  | Efsm.Machine.On_signal _ | Efsm.Machine.After _ ->
                    if tr_fired.(i.Net.ix).(k) then None
                    else Some (i.Net.path, k)))
  in
  {
    stats =
      {
        states = st.count;
        steps = !steps_done;
        dedup = !dedup;
        frontier_peak = !frontier_peak;
        exhausted;
      };
    violation = !violation;
    unreached_states;
    unfired_transitions;
    caveats = caveat_strings net;
  }
