(* Wall-clock spans around public library calls, kept in memory and
   written out as Chrome trace-event JSON when the run ends.

   A span records its name, start, end, the span that encloses it and
   the rep it belongs to.  A disabled recorder calls the function and
   records nothing, so the untraced path pays one branch per call. *)

type span = {
  name : string;
  rep : int;
  parent : int;  (* index of the enclosing span; -1 at top level *)
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* newest first; indexes count from the oldest *)
  mutable count : int;
  mutable open_ : int;  (* innermost open span, -1 when none *)
  mutable rep : int;
}

let now = Monotonic_clock.now

let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let make enabled =
  { enabled; spans = []; count = 0; open_ = -1; rep = 0 }

let disabled () = make false
let create () = make true
let enabled t = t.enabled
let set_rep t rep = t.rep <- rep

(* [timed t name f] runs [f], records it as a span when [t] is enabled,
   and returns its result with its duration in seconds either way. *)
let timed t name f =
  if not t.enabled then begin
    let t0 = now () in
    let x = f () in
    (x, seconds_between t0 (now ()))
  end
  else begin
    let id = t.count in
    let s = { name; rep = t.rep; parent = t.open_; start_ns = now (); stop_ns = 0L } in
    t.spans <- s :: t.spans;
    t.count <- id + 1;
    t.open_ <- id;
    let close () =
      s.stop_ns <- now ();
      t.open_ <- s.parent
    in
    let x = Fun.protect ~finally:close f in
    (x, seconds_between s.start_ns s.stop_ns)
  end

let span t name f = if t.enabled then fst (timed t name f) else f ()

(* Per rep, in rep order: the rep's total seconds (its top-level span)
   and, for every span name, its self seconds — a span's duration minus
   the part of it its children cover — and how many spans had the name.
   Names recorded several times in one rep are summed. *)
let self_times t =
  let spans = Array.of_list (List.rev t.spans) in
  let child_s = Array.make t.count 0.0 in
  let dur i = seconds_between spans.(i).start_ns spans.(i).stop_ns in
  for i = 0 to t.count - 1 do
    let p = spans.(i).parent in
    if p >= 0 then child_s.(p) <- child_s.(p) +. dur i
  done;
  let reps = Hashtbl.create 16 in
  for i = t.count - 1 downto 0 do
    let s = spans.(i) in
    let total, selves =
      Option.value (Hashtbl.find_opt reps s.rep) ~default:(0.0, [])
    in
    let total = if s.parent < 0 then total +. dur i else total in
    let own = dur i -. child_s.(i) in
    let selves =
      match List.assoc_opt s.name selves with
      | Some (v, n) -> (s.name, (v +. own, n + 1)) :: List.remove_assoc s.name selves
      | None -> (s.name, (own, 1)) :: selves
    in
    Hashtbl.replace reps s.rep (total, selves)
  done;
  Hashtbl.fold (fun rep v acc -> (rep, v) :: acc) reps []
  |> List.sort compare |> List.map snd

let write_chrome t path =
  let oc = open_out path in
  let spans = List.rev t.spans in
  let base = match spans with s :: _ -> s.start_ns | [] -> 0L in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"rep\":%d,\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name
        (List.hd (String.split_on_char '.' s.name))
        (us s.start_ns)
        (us s.stop_ns -. us s.start_ns)
        s.rep i s.parent)
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
