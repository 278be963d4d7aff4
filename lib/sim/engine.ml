type handle = {
  mutable time : int;
      (** native-int ns — no [int64] box per scheduled event; mutable
          (with [seq]) only for {!rearm_ns}'s in-place re-keying *)
  mutable seq : int;
  callback : unit -> unit;
  mutable live : bool;
  mutable qnext : handle;
      (** intrusive calendar-bucket link ([== dummy] terminates): the
          handle doubles as its own queue cell, so scheduling enqueues
          without allocating *)
}

let rec dummy =
  { time = 0; seq = 0; callback = (fun () -> ()); live = false; qnext = dummy }

(* Bucketed calendar queue (R. Brown, CACM 1988, adapted), intrusive:
   the handle itself is the bucket cell via [qnext], so steady-state
   scheduling allocates only the handle the caller already pays for.
   [dummy] doubles as the nil link/result sentinel; it is never
   scheduled, so physical equality is unambiguous.

   Events hash into buckets by [time / width mod n_buckets]; each bucket
   is kept sorted by [(time, seq)], so its head is its minimum and two
   events at one timestamp dequeue in scheduling order (seq is
   monotone).  A pop scans one lap of buckets from the bucket of the
   last popped time ([floor]); a sparse lap falls back to a direct
   minimum over all heads.  Cancellation is lazy: dead entries are
   dropped when they surface at a bucket head.  The structure resizes,
   re-deriving the width from the live events' spacing, when occupancy
   strays far from the bucket count.  The last minimum found is
   memoized so a peek followed by a pop scans once. *)
module Iq = struct
  type cal = {
    mutable buckets : handle array;
    mutable mask : int;
    mutable width : int;
    mutable size : int;
    mutable floor : int;
    mutable dead_dropped : int;
    mutable memo_time : int;
    mutable memo_seq : int;
    mutable memo_bucket : int;
  }

  let min_buckets = 64

  let create () =
    let n = 256 in
    {
      buckets = Array.make n dummy;
      mask = n - 1;
      width = 1_024;
      size = 0;
      floor = 0;
      dead_dropped = 0;
      memo_time = 0;
      memo_seq = 0;
      memo_bucket = -1;
    }

  let length t = t.size
  let dead_dropped t = t.dead_dropped
  let index t time = (time / t.width) land t.mask

  let before ~time ~seq h =
    h == dummy || time < h.time || (time = h.time && seq < h.seq)

  let rec insert_after cell h =
    if before ~time:cell.time ~seq:cell.seq h.qnext then begin
      cell.qnext <- h.qnext;
      h.qnext <- cell
    end
    else insert_after cell h.qnext

  let bucket_insert t b cell =
    if before ~time:cell.time ~seq:cell.seq t.buckets.(b) then begin
      cell.qnext <- t.buckets.(b);
      t.buckets.(b) <- cell
    end
    else insert_after cell t.buckets.(b)

  let sorted_live t =
    let acc = ref [] in
    Array.iter
      (fun head ->
        let rec walk h =
          if h != dummy then begin
            if h.live then acc := h :: !acc
            else t.dead_dropped <- t.dead_dropped + 1;
            walk h.qnext
          end
        in
        walk head)
      t.buckets;
    List.sort
      (fun a b ->
        if a.time = b.time then compare a.seq b.seq else compare a.time b.time)
      !acc

  let rebuild t entries n_buckets =
    let n_live = List.length entries in
    let width =
      match entries with
      | [] | [ _ ] -> t.width
      | h0 :: _ ->
        (* three times the average spacing keeps a handful of events
           per bucket for the usual periodic workloads *)
        let hn = List.nth entries (n_live - 1) in
        let avg = (hn.time - h0.time) / (n_live - 1) in
        let w = 3 * avg in
        if w < 1 then 1 else w
    in
    t.buckets <- Array.make n_buckets dummy;
    t.mask <- n_buckets - 1;
    t.width <- width;
    t.size <- n_live;
    t.memo_bucket <- -1;
    List.iter
      (fun h ->
        let b = index t h.time in
        h.qnext <- t.buckets.(b);
        t.buckets.(b) <- h)
      (List.rev entries)

  let maybe_grow t =
    let n = t.mask + 1 in
    if t.size > 2 * n then rebuild t (sorted_live t) (2 * n)

  let maybe_shrink t =
    let n = t.mask + 1 in
    if n > min_buckets && t.size < n / 8 then rebuild t (sorted_live t) (n / 2)

  let add t h =
    (if t.memo_bucket >= 0 then
       let mt = t.memo_time and ms = t.memo_seq in
       if not (mt < h.time || (mt = h.time && ms < h.seq)) then
         t.memo_bucket <- -1);
    bucket_insert t (index t h.time) h;
    t.size <- t.size + 1;
    maybe_grow t

  let rec drop_dead_head t b =
    let h = t.buckets.(b) in
    if h != dummy && not h.live then begin
      t.buckets.(b) <- h.qnext;
      t.size <- t.size - 1;
      t.dead_dropped <- t.dead_dropped + 1;
      drop_dead_head t b
    end

  let remove_head t b =
    t.buckets.(b) <- t.buckets.(b).qnext;
    t.size <- t.size - 1

  let direct_min t =
    t.memo_bucket <- -1;
    for b = 0 to t.mask do
      drop_dead_head t b;
      let h = t.buckets.(b) in
      if
        h != dummy
        && (t.memo_bucket < 0
           || h.time < t.memo_time
           || (h.time = t.memo_time && h.seq < t.memo_seq))
      then begin
        t.memo_time <- h.time;
        t.memo_seq <- h.seq;
        t.memo_bucket <- b
      end
    done;
    t.memo_bucket >= 0

  (* Bucket k of the lap owns the window ending at [lap_top + k * width];
     a head inside its window is the global minimum, since every other
     live entry's first admissible window lies above it. *)
  let rec scan_lap t start lap_top k =
    if k > t.mask then direct_min t
    else begin
      let b = (start + k) land t.mask in
      drop_dead_head t b;
      let h = t.buckets.(b) in
      if h != dummy && h.time < lap_top + (k * t.width) then begin
        t.memo_time <- h.time;
        t.memo_seq <- h.seq;
        t.memo_bucket <- b;
        true
      end
      else scan_lap t start lap_top (k + 1)
    end

  let scan_min t =
    if t.size = 0 then begin
      t.memo_bucket <- -1;
      false
    end
    else scan_lap t (index t t.floor) (((t.floor / t.width) + 1) * t.width) 0

  let find_min t =
    if t.memo_bucket >= 0 then begin
      let h = t.buckets.(t.memo_bucket) in
      if h != dummy && h.time = t.memo_time && h.seq = t.memo_seq && h.live
      then true
      else scan_min t
    end
    else scan_min t

  let pop_or_dummy t =
    if not (find_min t) then dummy
    else begin
      let b = t.memo_bucket in
      let h = t.buckets.(b) in
      remove_head t b;
      t.floor <- t.memo_time;
      t.memo_bucket <- -1;
      maybe_shrink t;
      h
    end

  let peek_or_dummy t =
    if not (find_min t) then dummy else t.buckets.(t.memo_bucket)

  (* Unlink [h] if present (it may already have been lazily dropped).
     [index] uses the current geometry, which is also where any rebuild
     re-placed the entry, so the bucket is always the right one. *)
  let remove t h =
    let b = index t h.time in
    let head = t.buckets.(b) in
    if head == h then begin
      t.buckets.(b) <- h.qnext;
      t.size <- t.size - 1
    end
    else if head != dummy then begin
      let rec unlink prev =
        let cur = prev.qnext in
        if cur == h then begin
          prev.qnext <- cur.qnext;
          t.size <- t.size - 1
        end
        else if cur != dummy then unlink cur
      in
      unlink head
    end

  let iter t f =
    Array.iter
      (fun head ->
        let rec walk h =
          if h != dummy then begin
            f h;
            walk h.qnext
          end
        in
        walk head)
      t.buckets
end

type backend = [ `Calendar ]

(* The clock and every queue key are native ints: the public [int64]
   entry points convert once at the boundary, and the [_ns] variants
   let the runtime's hot path skip the boxing altogether. *)
type t = {
  queue : Iq.cal;
  mutable clock : int;
  mutable next_seq : int;
  mutable dead_seen : int;
      (** queue drop count already forwarded to [m_dead_dropped] *)
  (* Pre-resolved metric handles, updated only when [obs_on]; with a
     null scope every hook costs one branch on this boolean. *)
  obs_on : bool;
  m_fired : Obs.Metrics.counter;
  m_scheduled : Obs.Metrics.counter;
  m_dead_dropped : Obs.Metrics.counter;
  m_heap_peak : Obs.Metrics.gauge;
  m_clock_advance : Obs.Metrics.histogram;
}

let create ?backend:(_ : backend option) ?obs () =
  let scope = match obs with Some s -> s | None -> Obs.Scope.null () in
  let metrics = Obs.Scope.metrics scope in
  {
    queue = Iq.create ();
    clock = 0;
    next_seq = 0;
    dead_seen = 0;
    obs_on = Obs.Scope.live scope;
    m_fired = Obs.Metrics.counter metrics "sim.engine.events_fired";
    m_scheduled = Obs.Metrics.counter metrics "sim.engine.events_scheduled";
    m_dead_dropped = Obs.Metrics.counter metrics "sim.engine.dead_entries_dropped";
    m_heap_peak = Obs.Metrics.gauge metrics "sim.engine.heap_size";
    m_clock_advance = Obs.Metrics.histogram metrics "sim.engine.clock_advance_ns";
  }

let now_ns t = t.clock
let now t = Int64.of_int t.clock

(* Forward the queue's internal drop count to the kernel metric. *)
let sync_dead t =
  if t.obs_on then begin
    let total = Iq.dead_dropped t.queue in
    if total > t.dead_seen then begin
      Obs.Metrics.inc ~by:(total - t.dead_seen) t.m_dead_dropped;
      t.dead_seen <- total
    end
  end

let push t handle =
  Iq.add t.queue handle;
  if t.obs_on then Obs.Metrics.set_peak t.m_heap_peak (Iq.length t.queue)

(* [dummy] doubles as the empty sentinel so the run loop never boxes an
   option per fired event; [dummy] is never scheduled, so a physical
   equality check is unambiguous. *)
let pop_or_dummy t =
  let popped = Iq.pop_or_dummy t.queue in
  sync_dead t;
  popped

let peek_or_dummy t =
  let head = Iq.peek_or_dummy t.queue in
  sync_dead t;
  head

let schedule_at_ns t ~time callback =
  if time < t.clock then
    invalid_arg "Sim.Engine.schedule_at: time is in the past";
  let handle = { time; seq = t.next_seq; callback; live = true; qnext = dummy } in
  t.next_seq <- t.next_seq + 1;
  push t handle;
  if t.obs_on then Obs.Metrics.inc t.m_scheduled;
  handle

let schedule_ns t ~delay callback =
  if delay < 0 then invalid_arg "Sim.Engine.schedule: negative delay";
  schedule_at_ns t ~time:(t.clock + delay) callback

let schedule_at t ~time callback = schedule_at_ns t ~time:(Int64.to_int time) callback

let schedule t ~delay callback =
  if delay < 0L then invalid_arg "Sim.Engine.schedule: negative delay";
  schedule_ns t ~delay:(Int64.to_int delay) callback

let cancel handle =
  if handle.live then handle.live <- false

(* Semantically [cancel handle; schedule_ns t ~delay callback] — the
   re-arm pattern of a state machine's After timer.  When [handle] is
   the caller's own previous arming of the same [callback], the handle
   is unlinked and re-keyed in place: no allocation and no dead entry
   left to churn through bucket chains.  The fresh seq is drawn exactly
   where the eager path would draw it, so every (time, seq) tie orders
   as if the timer had been cancelled and scheduled anew. *)
let rearm_ns t handle ~delay callback =
  if delay < 0 then invalid_arg "Sim.Engine.schedule: negative delay";
  if handle != dummy && handle.callback == callback then begin
    Iq.remove t.queue handle;
    handle.time <- t.clock + delay;
    handle.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    handle.live <- true;
    push t handle;
    if t.obs_on then Obs.Metrics.inc t.m_scheduled;
    handle
  end
  else begin
    cancel handle;
    schedule_ns t ~delay callback
  end

let cancelled handle = not handle.live

let never = dummy

let fire t handle =
  (if t.obs_on then begin
     let advance = handle.time - t.clock in
     if advance > 0 then Obs.Metrics.observe t.m_clock_advance advance;
     Obs.Metrics.inc t.m_fired
   end);
  t.clock <- handle.time;
  handle.live <- false;
  handle.callback ()

let step t =
  let handle = pop_or_dummy t in
  if handle == dummy then false
  else begin
    fire t handle;
    true
  end

let run ?until t =
  (* [max_int] as the no-horizon limit keeps the loop option-free; no
     event time can reach it (the clock is 63-bit ns). *)
  let limit = match until with None -> max_int | Some l -> Int64.to_int l in
  let rec loop fired =
    let head = peek_or_dummy t in
    if head == dummy then fired
    else if head.time > limit then begin
      t.clock <- max t.clock limit;
      fired
    end
    else if step t then loop (fired + 1)
    else fired
  in
  let fired = loop 0 in
  if limit < max_int && t.clock < limit && Iq.length t.queue = 0 then
    t.clock <- limit;
  fired

let pending t =
  let count = ref 0 in
  Iq.iter t.queue (fun h -> if h.live then incr count);
  !count
