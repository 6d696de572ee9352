(** On-demand re-execution slicing backend (cf. "Dynamic Slicing by
    On-demand Re-execution", arXiv:2211.04683, and the rr-style
    user-level checkpointing DrDebug's related work proposes, §8).

    Instead of walking a stored {!Global_trace}, this backend answers
    record lookups by {e re-executing the deterministic replayer}: a
    build pass replays the region pinball once, taking a
    {!Dr_pinplay.Replayer.checkpoint} (machine snapshot + replay
    cursor) every [ckpt_interval] retired instructions {e together
    with} a {!Collector.Derive.copy} of the record-derivation state at
    the same event boundary.  A later lookup of gseq [g] seeks to the
    nearest earlier checkpoint and replays forward at most one window,
    re-deriving the rows of that window only, into one columnar
    {!Segment_store.Chunk}.  Because replay is deterministic (paper §3)
    and both passes drive the same {!Collector.Derive} core, the
    re-derived rows are field-identical to what {!Collector.collect}
    would have stored — without ever holding more than O(ckpt_interval)
    records in memory.

    Re-derived windows are the {e derived} segments of a
    {!Segment_store}: its LRU keeps the most recently re-derived windows,
    so a backward slicer revisiting nearby positions does not pay a
    re-execution per lookup, and its byte account gives
    [peak_resident_bytes], which the beyond-RAM bench tier checks stays
    bounded by the checkpoint interval, not the trace length.  Each
    checkpoint holds a full machine snapshot, so the ladder itself
    costs one image copy per window. *)

open Dr_machine

let m_windows = Dr_obs.Metrics.counter "reexec.windows_rederived"
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
  store : Segment_store.t;  (** segment w = window w, derived on a miss *)
  checkpoints : int;
}

(* Re-derive the records of window [w] into a fresh chunk by replaying
   forward from its checkpoint; [offset] is the requested record's
   place in the window.  Runs under the store's cache lock. *)
let rederive ~prog ~pinball ~interval ~nrec (ckpts : ckpt array) w
    ~offset : Segment_store.Chunk.t =
  Dr_obs.Metrics.observe h_seek (float_of_int offset);
  let base = w * interval in
  let len = min interval (nrec - base) in
  let chunk = Segment_store.Chunk.create ~base ~cap:len in
  Dr_obs.Obs.with_span ~cat:"slice" "reexec.window" @@ fun sp ->
  Dr_obs.Obs.add_attr sp "window" (Dr_obs.Obs.Int w);
  let ck = ckpts.(w) in
  (* resume derivation from a private copy; the ladder entry stays
     pristine for the next request on this window *)
  let derive = Collector.Derive.copy ck.k_derive in
  let replayer = Dr_pinplay.Replayer.create ~from:ck.k_replay prog pinball in
  let hooks =
    { Driver.on_event = (fun ev -> Collector.Derive.next derive chunk ev) }
  in
  ignore (Dr_pinplay.Replayer.resume ~hooks ~max_steps:len replayer);
  let got = Segment_store.Chunk.length chunk in
  if got <> len then
    failwith
      (Printf.sprintf
         "Reexec.rederive: window %d replayed %d records, expected %d" w got
         len);
  Dr_obs.Metrics.add m_windows 1;
  Dr_obs.Metrics.add m_records len;
  Segment_store.Chunk.seal chunk

(** Build the checkpoint ladder with one full replay of the region.
    [cfg] must be the {e refined} CFG the collector used (pass
    [c.Collector.cfg]) or re-derived control dependences would differ. *)
let create ?(ckpt_interval = 4096) ?(cache_windows = 4) ~cfg
    (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t) : t =
  if ckpt_interval <= 0 then invalid_arg "Reexec.create: ckpt_interval <= 0";
  Dr_obs.Obs.with_span ~cat:"slice" "reexec.build" @@ fun sp ->
  let derive = Collector.Derive.create ~cfg prog in
  let replayer = Dr_pinplay.Replayer.create prog pinball in
  let count = ref 0 in
  let ckpts = ref [] in
  (* the build pass only advances the derivation state: each window's
     rows go to one scratch chunk, emptied at the window boundary *)
  let scratch = Segment_store.Chunk.create ~base:0 ~cap:ckpt_interval in
  let hooks =
    { Driver.on_event =
        (fun ev ->
          Collector.Derive.next derive scratch ev;
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
    Segment_store.Chunk.reset scratch ~base:before;
    (match Dr_pinplay.Replayer.resume ~hooks ~max_steps:ckpt_interval replayer
     with
    | Driver.Max_steps when !count > before -> ()
    | _ -> continue := false)
  done;
  let ckpts = Array.of_list (List.rev !ckpts) in
  let nrec = !count in
  Dr_obs.Obs.add_attr sp "records" (Dr_obs.Obs.Int nrec);
  Dr_obs.Obs.add_attr sp "checkpoints" (Dr_obs.Obs.Int (Array.length ckpts));
  { store =
      Segment_store.derived ~seg_records:ckpt_interval
        ~cache_segments:cache_windows ~total:nrec
        (rederive ~prog ~pinball ~interval:ckpt_interval ~nrec ckpts);
    checkpoints = Array.length ckpts }

let length t = Segment_store.length t.store

let num_checkpoints t = t.checkpoints

(** The re-derived trace as a store: its accessors re-execute a
    checkpoint window on a cache miss. *)
let store t = t.store

(** The record with global sequence number [gseq] as a view,
    re-executing its checkpoint window if it is not cached. *)
let record (t : t) ~(gseq : int) : Trace.record =
  if gseq < 0 || gseq >= length t then
    invalid_arg (Printf.sprintf "Reexec.record: gseq %d out of range" gseq);
  Segment_store.get t.store gseq

let stats (t : t) : stats =
  let cs = Segment_store.cache_stats t.store in
  { windows_rederived = cs.Segment_store.cs_misses;
    window_hits = cs.Segment_store.cs_hits;
    window_evictions = cs.Segment_store.cs_evictions;
    records_rederived = cs.Segment_store.cs_loaded_records;
    peak_resident_bytes = cs.Segment_store.cs_peak_bytes }
