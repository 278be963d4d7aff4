type event =
  | Exec of { time : int64; process : string; cycles : int64 }
  | Signal of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      words : int;
      tag : int;
    }
  | State_change of { time : int64; process : string; from_ : string; to_ : string }
  | Discard of { time : int64; process : string; signal : string }
  | Fault of { time : int64; kind : string; target : string; info : string }
  | Retransmit of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      attempt : int;
    }
  | Flow_hop of {
      time : int64;
      flow : int;
      stage : string;
      where_ : string;
      dur : int64;
    }

type backend = Arena

(* The store.  Each event is one record of {!Varint} values: its kind,
   its time as a delta from the previous record's time, then only the
   fields its kind uses, strings as interned ids.  A kind value takes
   one byte, and so do most deltas, ids and small counts.  Records go
   into append-only [Bytes] chunks, which are never copied and which
   the GC never scans: the first holds 4 KiB, each next one twice as
   much up to 1 MiB.  A record never straddles two chunks; a chunk with
   no room for one more worst-case record ends with [k_next].

   Every [block]th record takes its time delta from 0 instead, and a
   sparse index holds where it starts, so decoding can begin at any
   multiple of [block] without the records before it.  Times wrap
   modulo 2^63 on both sides of the delta, so any native int survives,
   backward steps included. *)
let k_exec = 0
let k_signal = 1
let k_state = 2
let k_discard = 3
let k_fault = 4
let k_retransmit = 5
let k_flow = 6
let k_next = 7 (* the rest of this chunk is unused; go on at the next *)

let block_bits = 6
let block = 1 lsl block_bits
let offset_bits = 20
let first_chunk = 4096
let last_chunk = 1 lsl offset_bits

(* Kind, time and five fields, then room for [k_next]. *)
let max_record = (7 * Varint.max_width) + 1

(* Fields after the time, per kind. *)
let arity = [| 2; 5; 3; 2; 3; 4; 4 |]

(* A decoding position and the record it decoded last: [v.(0)] is the
   time delta, [v.(1)] .. the fields.  Decoding writes into these, so it
   allocates nothing per record. *)
type cursor = {
  r : Varint.reader;
  mutable chunk : int;  (* the chunk [r] reads *)
  mutable next : int;  (* the record at [r]; [max_int] before any seek *)
  mutable kind : int;
  mutable time : int;
  v : int array;
}

(* The aggregations of the first [upto] records. *)
type summary = {
  upto : int;
  cycles : (string * int64) list;
  signals : ((string * string) * int) list;
  discards : (string * int) list;
}

type t = {
  (* String interning: ids handed out by [intern] index [strs]. *)
  tbl : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable nstrs : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable buf : Bytes.t;  (* [chunks.(nchunks - 1)], the one being written *)
  mutable pos : int;  (* write offset in [buf] *)
  mutable n : int;
  mutable last : int;  (* time of record [n - 1] *)
  (* Start of record [b * block] at [b]: chunk lsl offset_bits lor offset. *)
  mutable index : int array;
  (* Rare int64 values outside the native-int range keep full fidelity
     here, keyed by event index; checked only when non-empty. *)
  overflow : (int, event) Hashtbl.t;
  (* [get]'s cursor, kept between calls so that reading the log in
     order decodes each record once. *)
  at : cursor;
  mutable summary : summary option;
}

let cursor () =
  {
    r = Varint.reader ();
    chunk = 0;
    next = max_int;
    kind = 0;
    time = 0;
    v = Array.make 6 0;
  }

let create ?backend:(_ : backend option) () =
  let buf = Bytes.create first_chunk in
  {
    tbl = Hashtbl.create 64;
    strs = Array.make 64 "";
    nstrs = 0;
    chunks = Array.make 8 buf;
    nchunks = 1;
    buf;
    pos = 0;
    n = 0;
    last = 0;
    index = Array.make 16 0;
    overflow = Hashtbl.create 1;
    at = cursor ();
    summary = None;
  }

let intern t s =
  match Hashtbl.find t.tbl s with
  | id -> id
  | exception Not_found ->
    let id = t.nstrs in
    if id = Array.length t.strs then begin
      let strs = Array.make (2 * id) "" in
      Array.blit t.strs 0 strs 0 id;
      t.strs <- strs
    end;
    t.strs.(id) <- s;
    t.nstrs <- id + 1;
    Hashtbl.add t.tbl s id;
    id

let interned t id = t.strs.(id)

(* ---- writing ------------------------------------------------------------ *)

let next_chunk t =
  ignore (Varint.write t.buf t.pos k_next);
  let buf = Bytes.create (min last_chunk (2 * Bytes.length t.buf)) in
  if t.nchunks = Array.length t.chunks then begin
    let chunks = Array.make (2 * t.nchunks) buf in
    Array.blit t.chunks 0 chunks 0 t.nchunks;
    t.chunks <- chunks
  end;
  t.chunks.(t.nchunks) <- buf;
  t.nchunks <- t.nchunks + 1;
  t.buf <- buf;
  t.pos <- 0

(* Index record [t.n], which starts a block, at the write offset. *)
let mark_block t =
  let b = t.n lsr block_bits in
  if b = Array.length t.index then begin
    let index = Array.make (2 * b) 0 in
    Array.blit t.index 0 index 0 b;
    t.index <- index
  end;
  t.index.(b) <- ((t.nchunks - 1) lsl offset_bits) lor t.pos

(* A record's kind and time; the caller [put]s its fields. *)
let start t kind time =
  if t.pos + max_record > Bytes.length t.buf then next_chunk t;
  let base =
    if t.n land (block - 1) = 0 then begin
      mark_block t;
      0
    end
    else t.last
  in
  t.n <- t.n + 1;
  t.last <- time;
  t.pos <- Varint.write t.buf (Varint.write t.buf t.pos kind) (time - base)

let[@inline] put t x = t.pos <- Varint.write t.buf t.pos x

(* Unboxed hot-path appenders: times and durations are plain int ns,
   strings are pre-interned ids. *)

let record_exec t ~time ~process ~cycles =
  start t k_exec time;
  put t process;
  put t cycles

let record_signal t ~time ~sender ~receiver ~signal ~words ~tag =
  start t k_signal time;
  put t sender;
  put t receiver;
  put t signal;
  put t words;
  put t tag

let record_state_change t ~time ~process ~from_ ~to_ =
  start t k_state time;
  put t process;
  put t from_;
  put t to_

let record_discard t ~time ~process ~signal =
  start t k_discard time;
  put t process;
  put t signal

let record_fault t ~time ~kind ~target ~info =
  start t k_fault time;
  put t kind;
  put t target;
  put t info

let record_retransmit t ~time ~sender ~receiver ~signal ~attempt =
  start t k_retransmit time;
  put t sender;
  put t receiver;
  put t signal;
  put t attempt

let record_flow_hop t ~time ~flow ~stage ~where_ ~dur =
  start t k_flow time;
  put t flow;
  put t stage;
  put t where_;
  put t dur

let fits x = Int64.equal (Int64.of_int (Int64.to_int x)) x

let record t event =
  let i = t.n and to_int = Int64.to_int in
  let exact =
    match event with
    | Exec { time; process; cycles } ->
      record_exec t ~time:(to_int time) ~process:(intern t process)
        ~cycles:(to_int cycles);
      fits time && fits cycles
    | Signal { time; sender; receiver; signal; words; tag } ->
      record_signal t ~time:(to_int time) ~sender:(intern t sender)
        ~receiver:(intern t receiver) ~signal:(intern t signal) ~words ~tag;
      fits time
    | State_change { time; process; from_; to_ } ->
      record_state_change t ~time:(to_int time) ~process:(intern t process)
        ~from_:(intern t from_) ~to_:(intern t to_);
      fits time
    | Discard { time; process; signal } ->
      record_discard t ~time:(to_int time) ~process:(intern t process)
        ~signal:(intern t signal);
      fits time
    | Fault { time; kind; target; info } ->
      record_fault t ~time:(to_int time) ~kind:(intern t kind)
        ~target:(intern t target) ~info:(intern t info);
      fits time
    | Retransmit { time; sender; receiver; signal; attempt } ->
      record_retransmit t ~time:(to_int time) ~sender:(intern t sender)
        ~receiver:(intern t receiver) ~signal:(intern t signal) ~attempt;
      fits time
    | Flow_hop { time; flow; stage; where_; dur } ->
      record_flow_hop t ~time:(to_int time) ~flow ~stage:(intern t stage)
        ~where_:(intern t where_) ~dur:(to_int dur);
      fits time && fits dur
  in
  if not exact then Hashtbl.replace t.overflow i event

let length t = t.n

(* ---- reading ------------------------------------------------------------ *)

(* Point [c] at the first record of block [b]. *)
let seek t c b =
  let loc = t.index.(b) in
  c.chunk <- loc lsr offset_bits;
  Varint.seek c.r t.chunks.(c.chunk) (loc land (last_chunk - 1));
  c.next <- b lsl block_bits

(* Decode the record at [c] and step past it. *)
let advance t c =
  let kind =
    let k = Varint.read c.r in
    if k <> k_next then k
    else begin
      c.chunk <- c.chunk + 1;
      Varint.seek c.r t.chunks.(c.chunk) 0;
      Varint.read c.r
    end
  in
  Varint.read_into c.r c.v (1 + arity.(kind));
  c.time <- (if c.next land (block - 1) = 0 then c.v.(0) else c.time + c.v.(0));
  c.kind <- kind;
  c.next <- c.next + 1

(* A cursor at the first record. *)
let first t =
  let c = cursor () in
  if t.n > 0 then seek t c 0;
  c

(* The record [c] decoded last, as an [event]. *)
let event t c =
  let overflowed =
    if Hashtbl.length t.overflow = 0 then None
    else Hashtbl.find_opt t.overflow (c.next - 1)
  in
  match overflowed with
  | Some event -> event
  | None -> (
    let strs = t.strs and v = c.v and time = Int64.of_int c.time in
    match c.kind with
    | 0 -> Exec { time; process = strs.(v.(1)); cycles = Int64.of_int v.(2) }
    | 1 ->
      Signal
        {
          time;
          sender = strs.(v.(1));
          receiver = strs.(v.(2));
          signal = strs.(v.(3));
          words = v.(4);
          tag = v.(5);
        }
    | 2 ->
      State_change
        { time; process = strs.(v.(1)); from_ = strs.(v.(2)); to_ = strs.(v.(3)) }
    | 3 -> Discard { time; process = strs.(v.(1)); signal = strs.(v.(2)) }
    | 4 -> Fault { time; kind = strs.(v.(1)); target = strs.(v.(2)); info = strs.(v.(3)) }
    | 5 ->
      Retransmit
        {
          time;
          sender = strs.(v.(1));
          receiver = strs.(v.(2));
          signal = strs.(v.(3));
          attempt = v.(4);
        }
    | _ ->
      Flow_hop
        {
          time;
          flow = v.(1);
          stage = strs.(v.(2));
          where_ = strs.(v.(3));
          dur = Int64.of_int v.(4);
        })

let iter t f =
  let c = first t in
  for _ = 1 to t.n do
    advance t c;
    f (event t c)
  done

let fold t init f =
  let c = first t and acc = ref init in
  for _ = 1 to t.n do
    advance t c;
    acc := f !acc (event t c)
  done;
  !acc

let events t = List.rev (fold t [] (fun acc event -> event :: acc))

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Sim.Trace.get";
  let c = t.at in
  if i < c.next || i - c.next >= block then seek t c (i lsr block_bits);
  while c.next <= i do
    advance t c
  done;
  event t c

(* The three aggregations come from one scan of the records, which
   accumulates by interned id and builds no [event]; it is kept until
   the next append, so a report asking for all three decodes the log
   once.  Ids are exact on every record, so only the cycles of a log
   with out-of-range int64 rows come from decoded events: the overflow
   table holds the exact values. *)

let total_cycles_generic t =
  let table = Hashtbl.create 16 in
  iter t (fun event ->
      match event with
      | Exec { process; cycles; _ } ->
        let current =
          Option.value ~default:0L (Hashtbl.find_opt table process)
        in
        Hashtbl.replace table process (Int64.add current cycles)
      | Signal _ | State_change _ | Discard _ | Fault _ | Retransmit _
      | Flow_hop _ -> ());
  Hashtbl.fold (fun process cycles acc -> (process, cycles) :: acc) table []
  |> List.sort compare

let summarise t =
  let m = max 1 t.nstrs in
  let cycles = Array.make m 0 and seen = Array.make m false in
  let discards = Array.make m 0 in
  (* (sender, receiver) packs into one immediate int key; [nstrs] is
     fixed during the scan (no interning happens here) *)
  let pairs = Hashtbl.create 16 in
  let c = first t in
  for _ = 1 to t.n do
    advance t c;
    let id = c.v.(1) in
    if c.kind = k_exec then begin
      cycles.(id) <- cycles.(id) + c.v.(2);
      seen.(id) <- true
    end
    else if c.kind = k_signal then begin
      let key = (id * m) + c.v.(2) in
      match Hashtbl.find pairs key with
      | r -> incr r
      | exception Not_found -> Hashtbl.add pairs key (ref 1)
    end
    else if c.kind = k_discard then discards.(id) <- discards.(id) + 1
  done;
  let by_id keep value =
    let acc = ref [] in
    for id = t.nstrs - 1 downto 0 do
      if keep id then acc := (t.strs.(id), value id) :: !acc
    done;
    List.sort compare !acc
  in
  {
    upto = t.n;
    cycles =
      (if Hashtbl.length t.overflow > 0 then total_cycles_generic t
       else by_id (Array.get seen) (fun id -> Int64.of_int cycles.(id)));
    signals =
      Hashtbl.fold
        (fun key r acc -> ((t.strs.(key / m), t.strs.(key mod m)), !r) :: acc)
        pairs []
      |> List.sort compare;
    discards = by_id (fun id -> discards.(id) > 0) (Array.get discards);
  }

let summary t =
  match t.summary with
  | Some s when s.upto = t.n -> s
  | Some _ | None ->
    let s = summarise t in
    t.summary <- Some s;
    s

let total_cycles t = (summary t).cycles
let signal_counts t = (summary t).signals
let discard_counts t = (summary t).discards

let event_to_line = function
  | Exec { time; process; cycles } ->
    Printf.sprintf "E %Ld %s %Ld" time process cycles
  | Signal { time; sender; receiver; signal; words; tag } ->
    if tag < 0 then
      Printf.sprintf "S %Ld %s %s %s %d" time sender receiver signal words
    else
      Printf.sprintf "S %Ld %s %s %s %d %d" time sender receiver signal words tag
  | State_change { time; process; from_; to_ } ->
    Printf.sprintf "T %Ld %s %s %s" time process from_ to_
  | Discard { time; process; signal } ->
    Printf.sprintf "D %Ld %s %s" time process signal
  | Fault { time; kind; target; info } ->
    Printf.sprintf "F %Ld %s %s %s" time kind target
      (if info = "" then "-" else info)
  | Retransmit { time; sender; receiver; signal; attempt } ->
    Printf.sprintf "R %Ld %s %s %s %d" time sender receiver signal attempt
  | Flow_hop { time; flow; stage; where_; dur } ->
    Printf.sprintf "L %Ld %d %s %s %Ld" time flow stage where_ dur

let event_of_line line =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let time_of s =
    match Int64.of_string_opt s with
    | Some t -> Ok t
    | None -> Error (Printf.sprintf "bad time %S in %S" s line)
  in
  match fields with
  | [ "E"; time; process; cycles ] -> (
    match time_of time, Int64.of_string_opt cycles with
    | Ok time, Some cycles when cycles >= 0L -> Ok (Exec { time; process; cycles })
    | Error e, _ -> Error e
    | _, _ -> Error (Printf.sprintf "bad cycles in %S" line))
  | [ "S"; time; sender; receiver; signal; words ] -> (
    match time_of time, int_of_string_opt words with
    | Ok time, Some words when words >= 0 ->
      Ok (Signal { time; sender; receiver; signal; words; tag = -1 })
    | Error e, _ -> Error e
    | _, _ -> Error (Printf.sprintf "bad words in %S" line))
  | [ "S"; time; sender; receiver; signal; words; tag ] -> (
    match time_of time, int_of_string_opt words, int_of_string_opt tag with
    | Ok time, Some words, Some tag when words >= 0 && tag >= 0 ->
      Ok (Signal { time; sender; receiver; signal; words; tag })
    | Error e, _, _ -> Error e
    | _, _, _ -> Error (Printf.sprintf "bad words or tag in %S" line))
  | [ "T"; time; process; from_; to_ ] ->
    Result.map (fun time -> State_change { time; process; from_; to_ }) (time_of time)
  | [ "D"; time; process; signal ] ->
    Result.map (fun time -> Discard { time; process; signal }) (time_of time)
  | [ "F"; time; kind; target; info ] ->
    Result.map (fun time -> Fault { time; kind; target; info }) (time_of time)
  | [ "R"; time; sender; receiver; signal; attempt ] -> (
    match time_of time, int_of_string_opt attempt with
    | Ok time, Some attempt when attempt >= 0 ->
      Ok (Retransmit { time; sender; receiver; signal; attempt })
    | Error e, _ -> Error e
    | _, _ -> Error (Printf.sprintf "bad attempt in %S" line))
  | [ "L"; time; flow; stage; where_; dur ] -> (
    match time_of time, int_of_string_opt flow, Int64.of_string_opt dur with
    | Ok time, Some flow, Some dur when flow >= 0 && dur >= 0L ->
      Ok (Flow_hop { time; flow; stage; where_; dur })
    | Error e, _, _ -> Error e
    | _, _, _ -> Error (Printf.sprintf "bad flow or dur in %S" line))
  | _ -> Error (Printf.sprintf "unrecognised log line %S" line)

let to_lines t =
  let acc = ref [] in
  iter t (fun event -> acc := event_to_line event :: !acc);
  List.rev !acc

let of_lines lines =
  let t = create () in
  (* [n] counts every physical line, blank or not, so the reported
     number matches the 1-based position in the file — including the
     last line of a file with no trailing newline, which arrives here
     as a final element with no successor. *)
  let rec loop n = function
    | [] -> Ok t
    | line :: rest when String.trim line = "" -> loop (n + 1) rest
    | line :: rest -> (
      match event_of_line line with
      | Ok event ->
        record t event;
        loop (n + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  loop 1 lines

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      iter t (fun event ->
          output_string oc (event_to_line event);
          output_char oc '\n'))

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        of_lines (read []))
