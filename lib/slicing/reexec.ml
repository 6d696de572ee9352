(** On-demand re-execution slicing backend (cf. "Dynamic Slicing by
    On-demand Re-execution", arXiv:2211.04683, and the rr-style
    user-level checkpointing DrDebug's related work proposes, §8).

    Instead of walking a stored {!Global_trace}, this backend answers
    record lookups by {e re-executing the deterministic replayer}: a
    build pass replays the region pinball once, taking a
    {!Dr_pinplay.Replayer.checkpoint} (machine snapshot + replay
    cursor) every [ckpt_interval] retired instructions {e together
    with} a {!Collector.Derive.copy} of the record-derivation state at
    the same event boundary.  A later [record ~gseq] request seeks to
    the nearest earlier checkpoint and replays forward at most one
    window, re-deriving the records of that window only.  Because
    replay is deterministic (paper §3) and both passes drive the same
    {!Collector.Derive} core, the re-derived records are byte-identical
    to what {!Collector.collect} would have stored — without ever
    holding more than O(ckpt_interval) records in memory.

    A small LRU keeps the most recently re-derived window fragments so
    that a backward slicer revisiting nearby positions does not pay a
    re-execution per lookup.  [peak_resident_bytes] tracks the largest
    number of record-bytes resident at once, which the beyond-RAM bench
    tier checks stays bounded by the checkpoint interval, not the trace
    length. *)

open Dr_machine

let m_windows = Dr_obs.Metrics.counter "reexec.windows_rederived"
let m_cache_hits = Dr_obs.Metrics.counter "reexec.window_hits"
let m_cache_misses = Dr_obs.Metrics.counter "reexec.window_misses"
let m_evictions = Dr_obs.Metrics.counter "reexec.window_evictions"
let m_records = Dr_obs.Metrics.counter "reexec.records_rederived"

(* forward replay distance (records) from the checkpoint to the
   requested gseq on each window miss — the cost the checkpoint-ladder
   spacing trades against snapshot memory *)
let h_seek = Dr_obs.Metrics.histogram "reexec.seek_distance"

type ckpt = {
  k_replay : Dr_pinplay.Replayer.checkpoint;
  k_derive : Collector.Derive.t;  (** derivation state at the same step *)
}

type stats = {
  windows_rederived : int;  (** = window-cache misses *)
  window_hits : int;
  window_evictions : int;
  records_rederived : int;
  peak_resident_bytes : int;
}

type t = {
  prog : Dr_isa.Program.t;
  pinball : Dr_pinplay.Pinball.t;
  ckpt_interval : int;
  ckpts : ckpt array;  (** ckpts.(w) is taken at step w * ckpt_interval *)
  nrec : int;  (** total records the region produces *)
  clobber : (Trace.record -> Trace.record) option;
      (** test hook: corrupt re-derived records to exercise oracle 3 *)
  lock : Mutex.t;
  (* window-id -> fragment, maintained LRU via the tick counter *)
  cache : (int, Trace.record array * int ref) Hashtbl.t;
  cache_windows : int;
  mutable tick : int;
  mutable s_windows : int;
  mutable s_hits : int;
  mutable s_evictions : int;
  mutable s_records : int;
  mutable resident_bytes : int;
  mutable peak_bytes : int;
}

let frag_bytes (frag : Trace.record array) =
  Array.fold_left (fun acc r -> acc + Segment_store.record_bytes r) 0 frag

(** Build the checkpoint ladder with one full replay of the region.
    [cfg] must be the {e refined} CFG the collector used (pass
    [c.Collector.cfg]) or re-derived control dependences would differ;
    when omitted it is rebuilt with the same two-pass refinement. *)
let create ?(ckpt_interval = 4096) ?(cache_windows = 4) ?cfg ?clobber
    (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t) : t =
  if ckpt_interval <= 0 then invalid_arg "Reexec.create: ckpt_interval <= 0";
  Dr_obs.Obs.with_span ~cat:"slice" "reexec.build" @@ fun sp ->
  let cfg =
    match cfg with
    | Some cfg -> cfg
    | None ->
      let indirect = Collector.collect_indirect_targets prog pinball in
      let indirect_targets =
        Hashtbl.fold (fun pc ts acc -> (pc, ts) :: acc) indirect []
      in
      Dr_cfg.Cfg.build ~indirect_targets prog
  in
  let derive = Collector.Derive.create ~cfg prog in
  let replayer = Dr_pinplay.Replayer.create prog pinball in
  let count = ref 0 in
  let ckpts = ref [] in
  let hooks =
    { Driver.on_event =
        (fun ev ->
          ignore (Collector.Derive.next derive ~gseq:!count ev);
          incr count) }
  in
  let continue = ref true in
  while !continue do
    (* checkpoint at the window boundary, *between* resume calls so the
       machine is at an instruction boundary and the derive state
       matches the snapshot step exactly *)
    ckpts :=
      { k_replay = Dr_pinplay.Replayer.checkpoint replayer;
        k_derive = Collector.Derive.copy derive }
      :: !ckpts;
    let before = !count in
    (match Dr_pinplay.Replayer.resume ~hooks ~max_steps:ckpt_interval replayer
     with
    | Driver.Max_steps when !count > before -> ()
    | _ -> continue := false)
  done;
  let ckpts = Array.of_list (List.rev !ckpts) in
  Dr_obs.Obs.add_attr sp "records" (Dr_obs.Obs.Int !count);
  Dr_obs.Obs.add_attr sp "checkpoints" (Dr_obs.Obs.Int (Array.length ckpts));
  { prog; pinball; ckpt_interval; ckpts; nrec = !count; clobber;
    lock = Mutex.create ();
    cache = Hashtbl.create (2 * cache_windows);
    cache_windows = max 1 cache_windows;
    tick = 0; s_windows = 0; s_hits = 0; s_evictions = 0; s_records = 0;
    resident_bytes = 0; peak_bytes = 0 }

let length t = t.nrec

let num_checkpoints t = Array.length t.ckpts

(* Re-derive the records of window [w] by replaying forward from its
   checkpoint.  Called with t.lock held. *)
let rederive (t : t) (w : int) : Trace.record array =
  let base = w * t.ckpt_interval in
  let len = min t.ckpt_interval (t.nrec - base) in
  let frag = Array.make len Trace.dummy in
  Dr_obs.Obs.with_span ~cat:"slice" "reexec.window" @@ fun sp ->
  Dr_obs.Obs.add_attr sp "window" (Dr_obs.Obs.Int w);
  let ck = t.ckpts.(w) in
  (* resume derivation from a private copy; the ladder entry stays
     pristine for the next request on this window *)
  let derive = Collector.Derive.copy ck.k_derive in
  let replayer =
    Dr_pinplay.Replayer.create ~from:ck.k_replay t.prog t.pinball
  in
  let i = ref 0 in
  let hooks =
    { Driver.on_event =
        (fun ev ->
          let r = Collector.Derive.next derive ~gseq:(base + !i) ev in
          let r = match t.clobber with Some f -> f r | None -> r in
          frag.(!i) <- r;
          incr i) }
  in
  ignore (Dr_pinplay.Replayer.resume ~hooks ~max_steps:len replayer);
  if !i <> len then
    failwith
      (Printf.sprintf
         "Reexec.rederive: window %d replayed %d records, expected %d" w !i
         len);
  t.s_windows <- t.s_windows + 1;
  t.s_records <- t.s_records + len;
  Dr_obs.Metrics.add m_windows 1;
  Dr_obs.Metrics.add m_records len;
  frag

(* Evict least-recently-used fragments down to the cache budget.
   Called with t.lock held. *)
let evict (t : t) =
  while Hashtbl.length t.cache > t.cache_windows do
    let victim = ref (-1) and oldest = ref max_int in
    Hashtbl.iter
      (fun w (_, last) ->
        if !last < !oldest then begin
          oldest := !last;
          victim := w
        end)
      t.cache;
    match Hashtbl.find_opt t.cache !victim with
    | Some (frag, _) ->
      t.resident_bytes <- t.resident_bytes - frag_bytes frag;
      Hashtbl.remove t.cache !victim;
      t.s_evictions <- t.s_evictions + 1;
      Dr_obs.Metrics.add m_evictions 1
    | None -> ()
  done

(** Fetch the record with global sequence number [gseq], re-executing
    its checkpoint window if it is not cached. *)
let record (t : t) ~(gseq : int) : Trace.record =
  if gseq < 0 || gseq >= t.nrec then
    invalid_arg (Printf.sprintf "Reexec.record: gseq %d out of range" gseq);
  let w = gseq / t.ckpt_interval in
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let frag =
    match Hashtbl.find_opt t.cache w with
    | Some (frag, last) ->
      t.tick <- t.tick + 1;
      last := t.tick;
      t.s_hits <- t.s_hits + 1;
      Dr_obs.Metrics.add m_cache_hits 1;
      frag
    | None ->
      Dr_obs.Metrics.add m_cache_misses 1;
      Dr_obs.Metrics.observe h_seek
        (float_of_int (gseq - (w * t.ckpt_interval)));
      let frag = rederive t w in
      t.tick <- t.tick + 1;
      Hashtbl.replace t.cache w (frag, ref t.tick);
      t.resident_bytes <- t.resident_bytes + frag_bytes frag;
      if t.resident_bytes > t.peak_bytes then
        t.peak_bytes <- t.resident_bytes;
      evict t;
      frag
  in
  frag.(gseq - (w * t.ckpt_interval))

let stats (t : t) : stats =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  { windows_rederived = t.s_windows; window_hits = t.s_hits;
    window_evictions = t.s_evictions; records_rederived = t.s_records;
    peak_resident_bytes = t.peak_bytes }
