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

(* Event kinds, one per log-line letter.  The arena is a struct-of-
   arrays: one int column per field slot, a byte per kind, string
   fields replaced by interned ids.  Appending is therefore a handful
   of array stores — no per-event heap record — and the textual line is
   only rendered when someone asks for it. *)
let k_exec = 0
let k_signal = 1
let k_state = 2
let k_discard = 3
let k_fault = 4
let k_retransmit = 5
let k_flow = 6

type t = {
  (* String interning: ids handed out by [intern] index [strs]. *)
  tbl : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable nstrs : int;
  (* Arena columns.  [time] doubles as the capacity witness; [f0..f4]
     hold per-kind fields (ids, counts, durations) as plain ints. *)
  mutable n : int;
  mutable kind : Bytes.t;
  mutable time : int array;
  mutable f0 : int array;
  mutable f1 : int array;
  mutable f2 : int array;
  mutable f3 : int array;
  mutable f4 : int array;
  (* Rare int64 values outside the native-int range keep full fidelity
     here, keyed by event index; checked only when non-empty. *)
  overflow : (int, event) Hashtbl.t;
}

let create ?backend:(_ : backend option) () =
  let cap = 256 in
  {
    tbl = Hashtbl.create 64;
    strs = Array.make 64 "";
    nstrs = 0;
    n = 0;
    kind = Bytes.make cap '\000';
    time = Array.make cap 0;
    f0 = Array.make cap 0;
    f1 = Array.make cap 0;
    f2 = Array.make cap 0;
    f3 = Array.make cap 0;
    f4 = Array.make cap 0;
    overflow = Hashtbl.create 1;
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

let grow t =
  let cap = Array.length t.time in
  let cap' = 2 * cap in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let kind' = Bytes.make cap' '\000' in
  Bytes.blit t.kind 0 kind' 0 cap;
  t.kind <- kind';
  t.time <- extend t.time;
  t.f0 <- extend t.f0;
  t.f1 <- extend t.f1;
  t.f2 <- extend t.f2;
  t.f3 <- extend t.f3;
  t.f4 <- extend t.f4

let[@inline] push t k time f0 f1 f2 f3 f4 =
  if t.n = Array.length t.time then grow t;
  let i = t.n in
  Bytes.unsafe_set t.kind i (Char.unsafe_chr k);
  Array.unsafe_set t.time i time;
  Array.unsafe_set t.f0 i f0;
  Array.unsafe_set t.f1 i f1;
  Array.unsafe_set t.f2 i f2;
  Array.unsafe_set t.f3 i f3;
  Array.unsafe_set t.f4 i f4;
  t.n <- i + 1

let fits x = Int64.equal (Int64.of_int (Int64.to_int x)) x

let record t event =
  let i = t.n in
  (match event with
  | Exec { time; process; cycles } ->
    push t k_exec (Int64.to_int time) (intern t process) (Int64.to_int cycles)
      0 0 0;
    if not (fits time && fits cycles) then Hashtbl.replace t.overflow i event
  | Signal { time; sender; receiver; signal; words; tag } ->
    push t k_signal (Int64.to_int time) (intern t sender) (intern t receiver)
      (intern t signal) words tag;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | State_change { time; process; from_; to_ } ->
    push t k_state (Int64.to_int time) (intern t process) (intern t from_)
      (intern t to_) 0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Discard { time; process; signal } ->
    push t k_discard (Int64.to_int time) (intern t process) (intern t signal) 0
      0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Fault { time; kind; target; info } ->
    push t k_fault (Int64.to_int time) (intern t kind) (intern t target)
      (intern t info) 0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Retransmit { time; sender; receiver; signal; attempt } ->
    push t k_retransmit (Int64.to_int time) (intern t sender)
      (intern t receiver) (intern t signal) attempt 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Flow_hop { time; flow; stage; where_; dur } ->
    push t k_flow (Int64.to_int time) flow (intern t stage) (intern t where_)
      (Int64.to_int dur) 0;
    if not (fits time && fits dur) then Hashtbl.replace t.overflow i event)

(* Unboxed hot-path appenders: times and durations are plain int ns,
   strings are pre-interned ids. *)

let record_exec t ~time ~process ~cycles = push t k_exec time process cycles 0 0 0

let record_signal t ~time ~sender ~receiver ~signal ~words ~tag =
  push t k_signal time sender receiver signal words tag

let record_state_change t ~time ~process ~from_ ~to_ =
  push t k_state time process from_ to_ 0 0

let record_discard t ~time ~process ~signal =
  push t k_discard time process signal 0 0 0

let record_retransmit t ~time ~sender ~receiver ~signal ~attempt =
  push t k_retransmit time sender receiver signal attempt 0

let record_flow_hop t ~time ~flow ~stage ~where_ ~dur =
  push t k_flow time flow stage where_ dur 0

let length t = t.n

let clear t =
  t.n <- 0;
  Hashtbl.reset t.overflow

(* Decoding an arena row back into the [event] view. *)
let decode_cols t i =
  let s id = Array.unsafe_get t.strs id in
  let time = Int64.of_int (Array.unsafe_get t.time i) in
  let f0 = Array.unsafe_get t.f0 i in
  let f1 = Array.unsafe_get t.f1 i in
  let f2 = Array.unsafe_get t.f2 i in
  let f3 = Array.unsafe_get t.f3 i in
  match Char.code (Bytes.unsafe_get t.kind i) with
  | 0 -> Exec { time; process = s f0; cycles = Int64.of_int f1 }
  | 1 ->
    Signal
      {
        time;
        sender = s f0;
        receiver = s f1;
        signal = s f2;
        words = f3;
        tag = Array.unsafe_get t.f4 i;
      }
  | 2 -> State_change { time; process = s f0; from_ = s f1; to_ = s f2 }
  | 3 -> Discard { time; process = s f0; signal = s f1 }
  | 4 -> Fault { time; kind = s f0; target = s f1; info = s f2 }
  | 5 ->
    Retransmit
      { time; sender = s f0; receiver = s f1; signal = s f2; attempt = f3 }
  | _ ->
    Flow_hop { time; flow = f0; stage = s f1; where_ = s f2; dur = Int64.of_int f3 }

let decode t i =
  if Hashtbl.length t.overflow = 0 then decode_cols t i
  else
    match Hashtbl.find_opt t.overflow i with
    | Some event -> event
    | None -> decode_cols t i

let iter t f =
  for i = 0 to t.n - 1 do
    f (decode t i)
  done

let fold t init f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc (decode t i)
  done;
  !acc

let events t = List.init t.n (fun i -> decode t i)

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Sim.Trace.get";
  decode t i

(* The aggregations below have two implementations: a column scan (no
   per-event decode, accumulators indexed by interned id) and a generic
   [iter]-based fallback for traces holding out-of-range int64 rows (the
   overflow table keeps the exact values, so the generic path must
   decode).  Both orders of summation are over ints, so the results are
   identical. *)

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

let total_cycles t =
  if Hashtbl.length t.overflow > 0 then total_cycles_generic t
  else begin
    let cycles = Array.make (max 1 t.nstrs) 0 in
    let seen = Array.make (max 1 t.nstrs) false in
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.kind i = '\000' (* k_exec *) then begin
        let id = Array.unsafe_get t.f0 i in
        cycles.(id) <- cycles.(id) + Array.unsafe_get t.f1 i;
        seen.(id) <- true
      end
    done;
    let acc = ref [] in
    for id = t.nstrs - 1 downto 0 do
      if seen.(id) then
        acc := (t.strs.(id), Int64.of_int cycles.(id)) :: !acc
    done;
    List.sort compare !acc
  end

let signal_counts_generic t =
  let table = Hashtbl.create 16 in
  iter t (fun event ->
      match event with
      | Signal { sender; receiver; _ } ->
        let key = (sender, receiver) in
        let current = Option.value ~default:0 (Hashtbl.find_opt table key) in
        Hashtbl.replace table key (current + 1)
      | Exec _ | State_change _ | Discard _ | Fault _ | Retransmit _
      | Flow_hop _ -> ());
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) table []
  |> List.sort compare

let signal_counts t =
  if Hashtbl.length t.overflow > 0 then signal_counts_generic t
  else begin
    (* (sender, receiver) packs into one immediate int key; [nstrs] is
       fixed during the scan (no interning happens here) *)
    let m = max 1 t.nstrs in
    let table = Hashtbl.create 16 in
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.kind i = '\001' (* k_signal *) then begin
        let key = (Array.unsafe_get t.f0 i * m) + Array.unsafe_get t.f1 i in
        match Hashtbl.find table key with
        | r -> incr r
        | exception Not_found -> Hashtbl.add table key (ref 1)
      end
    done;
    Hashtbl.fold
      (fun key r acc -> ((t.strs.(key / m), t.strs.(key mod m)), !r) :: acc)
      table []
    |> List.sort compare
  end

let discard_counts_generic t =
  let table = Hashtbl.create 8 in
  iter t (fun event ->
      match event with
      | Discard { process; _ } ->
        let current = Option.value ~default:0 (Hashtbl.find_opt table process) in
        Hashtbl.replace table process (current + 1)
      | Exec _ | Signal _ | State_change _ | Fault _ | Retransmit _
      | Flow_hop _ -> ());
  Hashtbl.fold (fun p c acc -> (p, c) :: acc) table []
  |> List.sort compare

let discard_counts t =
  if Hashtbl.length t.overflow > 0 then discard_counts_generic t
  else begin
    let counts = Array.make (max 1 t.nstrs) 0 in
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.kind i = '\003' (* k_discard *) then begin
        let id = Array.unsafe_get t.f0 i in
        counts.(id) <- counts.(id) + 1
      end
    done;
    let acc = ref [] in
    for id = t.nstrs - 1 downto 0 do
      if counts.(id) > 0 then acc := (t.strs.(id), counts.(id)) :: !acc
    done;
    List.sort compare !acc
  end

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
    | Ok time, Some cycles -> Ok (Exec { time; process; cycles })
    | Error e, _ -> Error e
    | _, None -> Error (Printf.sprintf "bad cycles in %S" line))
  | [ "S"; time; sender; receiver; signal; words ] -> (
    match time_of time, int_of_string_opt words with
    | Ok time, Some words ->
      Ok (Signal { time; sender; receiver; signal; words; tag = -1 })
    | Error e, _ -> Error e
    | _, None -> Error (Printf.sprintf "bad words in %S" line))
  | [ "S"; time; sender; receiver; signal; words; tag ] -> (
    match time_of time, int_of_string_opt words, int_of_string_opt tag with
    | Ok time, Some words, Some tag when tag >= 0 ->
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
