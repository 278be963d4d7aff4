(* Compiled cost kernel.  See compiled.mli for the equivalence
   argument; the short version is that every number this module
   produces is the exact float the reference Cost.cost fold would
   produce, because (a) per-PE loads are always re-folded over the
   cycle entries in the reference's list order rather than adjusted in
   place, and (b) the remote-traffic sum is integer-valued and bounded,
   so float addition computes it exactly in any order and an int delta
   suffices. *)

type spec = {
  alpha : float;
  beta : float;
  profile : Cost.profile_data;
  platform : Cost.platform_info;
}

let spec ?(alpha = 1.0) ?(beta = 1.0) ~profile ~platform () =
  { alpha; beta; profile; platform }

type t = {
  alpha : float;
  beta : float;
  cands : (string * string list) list;
  group_names : string array;  (* candidates order *)
  group_id : (string, int) Hashtbl.t;
  pe_names : string array;  (* pe_infos order, first binding wins *)
  pe_id : (string, int) Hashtbl.t;
  options : int array array;  (* per group, PE ids in option order *)
  entry_group : int array;  (* group_cycles entries on candidate groups *)
  entry_time : float array array;  (* per entry, per PE: cycles /. speed *)
  pair_sender : int array;  (* comm entries between candidate groups *)
  pair_receiver : int array;
  pair_count : int array;
  touching : int array array;  (* per group, indices of incident pairs *)
  hop : int array array;  (* PE x PE *)
  remote_exact : bool;
}

(* Partial sums up to 2^52 leave a bit of slack under float's 2^53
   integer-exactness limit. *)
let max_exact = 4_503_599_627_370_496.0

let unknown_pe context name =
  invalid_arg (Printf.sprintf "Dse.Compiled.%s: unknown PE %s" context name)

let compile { alpha; beta; profile; platform } ~candidates =
  let n_groups = List.length candidates in
  let group_names = Array.make n_groups "" in
  let group_id = Hashtbl.create (2 * (n_groups + 1)) in
  List.iteri
    (fun i (g, _) ->
      if Hashtbl.mem group_id g then
        invalid_arg ("Dse.Compiled.compile: duplicate group " ^ g);
      group_names.(i) <- g;
      Hashtbl.replace group_id g i)
    candidates;
  (* The reference [speed] lookup uses find_opt, so on a duplicate PE
     name the first binding wins — intern accordingly. *)
  let pe_id = Hashtbl.create 16 in
  let rev_pes = ref [] and n_pes = ref 0 in
  List.iter
    (fun (info : Cost.pe_info) ->
      if not (Hashtbl.mem pe_id info.Cost.pe) then begin
        Hashtbl.replace pe_id info.Cost.pe !n_pes;
        rev_pes := info :: !rev_pes;
        incr n_pes
      end)
    platform.Cost.pe_infos;
  let pes = Array.of_list (List.rev !rev_pes) in
  let pe_names = Array.map (fun (i : Cost.pe_info) -> i.Cost.pe) pes in
  let speeds = Array.map (fun (i : Cost.pe_info) -> i.Cost.speed) pes in
  let options =
    Array.of_list
      (List.map
         (fun (_, opts) ->
           Array.of_list
             (List.map
                (fun pe ->
                  match Hashtbl.find_opt pe_id pe with
                  | Some p -> p
                  | None -> unknown_pe "compile" pe)
                opts))
         candidates)
  in
  let entries =
    List.filter_map
      (fun (g, cycles) ->
        Option.map (fun id -> (id, cycles)) (Hashtbl.find_opt group_id g))
      profile.Cost.group_cycles
  in
  let entry_group = Array.of_list (List.map fst entries) in
  let entry_time =
    Array.of_list
      (List.map
         (fun (_, cycles) ->
           Array.map (fun s -> Int64.to_float cycles /. s) speeds)
         entries)
  in
  let pairs =
    List.filter_map
      (fun ((s, r), count) ->
        match Hashtbl.find_opt group_id s, Hashtbl.find_opt group_id r with
        | Some a, Some b -> Some (a, b, count)
        | _, _ -> None)
      profile.Cost.comm
  in
  let pair_sender = Array.of_list (List.map (fun (a, _, _) -> a) pairs) in
  let pair_receiver = Array.of_list (List.map (fun (_, b, _) -> b) pairs) in
  let pair_count = Array.of_list (List.map (fun (_, _, c) -> c) pairs) in
  let touching_rev = Array.make n_groups [] in
  List.iteri
    (fun i (a, b, _) ->
      touching_rev.(a) <- i :: touching_rev.(a);
      if b <> a then touching_rev.(b) <- i :: touching_rev.(b))
    pairs;
  let touching =
    Array.map (fun l -> Array.of_list (List.rev l)) touching_rev
  in
  let hop =
    Array.init !n_pes (fun a ->
        Array.init !n_pes (fun b ->
            platform.Cost.hop_distance pe_names.(a) pe_names.(b)))
  in
  let max_abs_hop =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc h -> max acc (abs h)) acc row)
      0 hop
  in
  let remote_exact =
    (* Every term and partial sum must be an exactly-representable
       integer for the order-independence argument to hold. *)
    List.for_all (fun (_, _, c) -> float_of_int (abs c) <= max_exact) pairs
    && List.fold_left
         (fun acc (_, _, c) ->
           acc +. (float_of_int (abs c) *. float_of_int max_abs_hop))
         0.0 pairs
       <= max_exact
  in
  {
    alpha;
    beta;
    cands = candidates;
    group_names;
    group_id;
    pe_names;
    pe_id;
    options;
    entry_group;
    entry_time;
    pair_sender;
    pair_receiver;
    pair_count;
    touching;
    hop;
    remote_exact;
  }

let candidates k = k.cands
let n_groups k = Array.length k.group_names
let options k g = k.options.(g)

type state = {
  k : t;
  assigned : int array;  (* group -> PE id, -1 unassigned *)
  load : float array;  (* per PE; invariant: the entry-order fold *)
  mutable remote : float;  (* the reference-order comm fold *)
  mutable remote_int : int;  (* exact integer mirror (remote_exact) *)
  out_order : int array;  (* group ids in materialization order *)
  mutable pending : bool;
  mutable p_group : int;
  mutable p_pe : int;
  mutable p_old_pe : int;
  mutable p_load_old : float;
  mutable p_load_new : float;
  mutable p_remote : float;
  mutable p_remote_int : int;
}

let make_state k order =
  {
    k;
    assigned = Array.make (n_groups k) (-1);
    load = Array.make (Array.length k.pe_names) 0.0;
    remote = 0.0;
    remote_int = 0;
    out_order = order;
    pending = false;
    p_group = -1;
    p_pe = -1;
    p_old_pe = -1;
    p_load_old = 0.0;
    p_load_new = 0.0;
    p_remote = 0.0;
    p_remote_int = 0;
  }

let fresh_state k = make_state k (Array.init (n_groups k) Fun.id)

(* Full recomputation in the reference's fold orders: per-PE loads
   accumulate in group_cycles entry order, remote in comm order. *)
let recompute st =
  let k = st.k in
  Array.fill st.load 0 (Array.length st.load) 0.0;
  Array.iteri
    (fun e g ->
      let p = st.assigned.(g) in
      if p >= 0 then st.load.(p) <- st.load.(p) +. k.entry_time.(e).(p))
    k.entry_group;
  let acc = ref 0.0 and acc_int = ref 0 in
  for i = 0 to Array.length k.pair_count - 1 do
    let sp = st.assigned.(k.pair_sender.(i))
    and rp = st.assigned.(k.pair_receiver.(i)) in
    if sp >= 0 && rp >= 0 then begin
      let h = k.hop.(sp).(rp) in
      acc := !acc +. (float_of_int k.pair_count.(i) *. float_of_int h);
      acc_int := !acc_int + (k.pair_count.(i) * h)
    end
  done;
  st.remote <- !acc;
  st.remote_int <- !acc_int

let bind st context assignment =
  let k = st.k in
  let n = n_groups k in
  if List.length assignment <> n then
    invalid_arg
      (Printf.sprintf
         "Dse.Compiled.%s: the assignment must bind exactly the %d candidate \
          groups"
         context n);
  Array.fill st.assigned 0 n (-1);
  List.iteri
    (fun i (g, pe) ->
      match Hashtbl.find_opt k.group_id g with
      | None ->
        invalid_arg
          (Printf.sprintf "Dse.Compiled.%s: unknown group %s" context g)
      | Some id ->
        if st.assigned.(id) >= 0 then
          invalid_arg
            (Printf.sprintf "Dse.Compiled.%s: duplicate group %s" context g);
        st.out_order.(i) <- id;
        st.assigned.(id) <-
          (match Hashtbl.find_opt k.pe_id pe with
          | Some p -> p
          | None -> unknown_pe context pe))
    assignment;
  st.pending <- false;
  recompute st

let state_of k assignment =
  let st = make_state k (Array.make (n_groups k) 0) in
  bind st "state_of" assignment;
  st

let load_assignment st assignment = bind st "load_assignment" assignment
let pe_of st g = st.assigned.(g)

let makespan st =
  let m = ref 0.0 in
  Array.iter (fun v -> if v > !m then m := v) st.load;
  !m

let total_cost k ~makespan ~remote = (k.alpha *. makespan) +. (k.beta *. remote)

let current_cost st =
  total_cost st.k ~makespan:(makespan st) ~remote:st.remote

(* Entry-order folds of the loads of the (at most two) PEs affected by
   moving [group] to [new_pe] (-1 unassigns).  Returns
   (old_pe, new load of old_pe, new load of new_pe); when
   [old_pe = new_pe] only the first load is meaningful. *)
let affected_loads st ~group ~new_pe =
  let k = st.k in
  let old_pe = st.assigned.(group) in
  let lo = ref 0.0 and ln = ref 0.0 in
  Array.iteri
    (fun e g ->
      let p = if g = group then new_pe else st.assigned.(g) in
      if p >= 0 then begin
        if p = old_pe then lo := !lo +. k.entry_time.(e).(p);
        if p = new_pe && new_pe <> old_pe then
          ln := !ln +. k.entry_time.(e).(p)
      end)
    k.entry_group;
  (old_pe, !lo, !ln)

(* Value of comm pair [i] with [group] remapped to [pe] (the current
   state when [pe = st.assigned.(group)]); unmapped endpoints contribute
   nothing, as in the reference fold. *)
let pair_term_int k st i ~group ~pe =
  let s = k.pair_sender.(i) and r = k.pair_receiver.(i) in
  let sp = if s = group then pe else st.assigned.(s) in
  let rp = if r = group then pe else st.assigned.(r) in
  if sp >= 0 && rp >= 0 then k.pair_count.(i) * k.hop.(sp).(rp) else 0

let remote_after st ~group ~pe =
  let k = st.k in
  if k.remote_exact then begin
    let acc = ref st.remote_int in
    Array.iter
      (fun i ->
        acc :=
          !acc
          - pair_term_int k st i ~group ~pe:st.assigned.(group)
          + pair_term_int k st i ~group ~pe)
      k.touching.(group);
    (!acc, float_of_int !acc)
  end
  else begin
    (* Out-of-range counts: re-fold the pair list in reference order. *)
    let acc = ref 0.0 in
    for i = 0 to Array.length k.pair_count - 1 do
      let s = k.pair_sender.(i) and r = k.pair_receiver.(i) in
      let sp = if s = group then pe else st.assigned.(s) in
      let rp = if r = group then pe else st.assigned.(r) in
      if sp >= 0 && rp >= 0 then
        acc :=
          !acc
          +. (float_of_int k.pair_count.(i) *. float_of_int k.hop.(sp).(rp))
    done;
    (0, !acc)
  end

let check_group st context group =
  if group < 0 || group >= n_groups st.k then
    invalid_arg (Printf.sprintf "Dse.Compiled.%s: no such group" context)

let check_pe st context pe =
  if pe < 0 || pe >= Array.length st.k.pe_names then
    invalid_arg (Printf.sprintf "Dse.Compiled.%s: no such PE" context)

let delta_cost st ~group ~pe =
  check_group st "delta_cost" group;
  check_pe st "delta_cost" pe;
  let old_pe, lo, ln = affected_loads st ~group ~new_pe:pe in
  let load_new = if old_pe = pe then lo else ln in
  let remote_int, remote = remote_after st ~group ~pe in
  let m = ref 0.0 in
  Array.iteri
    (fun p v ->
      let v =
        if p = pe then load_new else if p = old_pe then lo else v
      in
      if v > !m then m := v)
    st.load;
  st.pending <- true;
  st.p_group <- group;
  st.p_pe <- pe;
  st.p_old_pe <- old_pe;
  st.p_load_old <- lo;
  st.p_load_new <- load_new;
  st.p_remote <- remote;
  st.p_remote_int <- remote_int;
  total_cost st.k ~makespan:!m ~remote

let commit st =
  if not st.pending then invalid_arg "Dse.Compiled.commit: no pending move";
  st.assigned.(st.p_group) <- st.p_pe;
  if st.p_old_pe >= 0 then st.load.(st.p_old_pe) <- st.p_load_old;
  st.load.(st.p_pe) <- st.p_load_new;
  st.remote <- st.p_remote;
  st.remote_int <- st.p_remote_int;
  st.pending <- false

let revert st = st.pending <- false

let apply st ~group ~new_pe =
  let old_pe, lo, ln = affected_loads st ~group ~new_pe in
  let remote_int, remote = remote_after st ~group ~pe:new_pe in
  st.assigned.(group) <- new_pe;
  if old_pe >= 0 then st.load.(old_pe) <- lo;
  if new_pe >= 0 then st.load.(new_pe) <- (if old_pe = new_pe then lo else ln);
  st.remote <- remote;
  st.remote_int <- remote_int

let assign st ~group ~pe =
  check_group st "assign" group;
  check_pe st "assign" pe;
  st.pending <- false;
  apply st ~group ~new_pe:pe

let materialize st lookup =
  let k = st.k in
  Array.to_list
    (Array.map
       (fun g ->
         let p = lookup g in
         if p < 0 then
           invalid_arg
             ("Dse.Compiled.assignment: group " ^ k.group_names.(g)
            ^ " is unassigned");
         (k.group_names.(g), k.pe_names.(p)))
       st.out_order)

let assignment st = materialize st (fun g -> st.assigned.(g))

let proposal_assignment st =
  if not st.pending then
    invalid_arg "Dse.Compiled.proposal_assignment: no pending move";
  materialize st (fun g ->
      if g = st.p_group then st.p_pe else st.assigned.(g))

let full_cost k assignment = current_cost (state_of k assignment)
