(** Out-of-core storage for trace records.

    The store holds the records of one collected region trace, indexed
    by gseq, in fixed-size {e segments}.  While a {!Budget.t}'s memory
    budget holds, segments stay resident; past it, completed segments
    spill to disk oldest-first.  Spilled segments are written with the
    pinball container discipline — a magic header, a CRC32 trailer over
    the whole payload, and an atomic tmp+fsync+rename — and read back
    through a small LRU-pinned cache, so a backwards slice over a
    spilled trace re-reads each segment at most once per cache miss.

    The same cache serves {e derived} segments, whose records a closure
    re-computes on every miss: {!Reexec} stores each checkpoint window
    as one, so both out-of-core tiers share one LRU, one lock and one
    resident/peak byte account.

    A store that never spilled keeps only a flat record array and costs
    one option match per access over a plain array.  Corruption is
    never silent: a missing, truncated, or bit-flipped segment raises
    {!Dr_util.Budget.Resource_error} [Segment_corrupt] with the path and
    reason, and a simulated-fault hook lets the conformance fuzzer
    inject ENOSPC and short writes at the exact write boundary. *)

let m_spilled = Dr_obs.Metrics.counter "segment_store.spilled_segments"
let m_spill_bytes = Dr_obs.Metrics.counter "segment_store.spilled_bytes"
let m_reads = Dr_obs.Metrics.counter "segment_store.segment_reads"

(* Cache traffic metrics, one set per tier: spilled segments report
   under segstore.* (a miss re-reads and decodes a segment, so the miss
   count tracks [segment_store.segment_reads]); derived segments are
   re-execution windows and report under reexec.window_*. *)
type tier = {
  m_hits : Dr_obs.Metrics.counter;
  m_misses : Dr_obs.Metrics.counter;
  m_evictions : Dr_obs.Metrics.counter;
}

let tier prefix =
  { m_hits = Dr_obs.Metrics.counter (prefix ^ "hits");
    m_misses = Dr_obs.Metrics.counter (prefix ^ "misses");
    m_evictions = Dr_obs.Metrics.counter (prefix ^ "evictions") }

let spill_tier = tier "segstore."
let window_tier = tier "reexec.window_"

let m_corrupt = Dr_obs.Metrics.counter "segment_store.corrupt_segments"
let t_spill_write = Dr_obs.Metrics.timer "segment_store.spill_write"
let t_spill_read = Dr_obs.Metrics.timer "segment_store.spill_read"

let default_seg_records = 4096

let default_cache_segments = 4

(* ---- segment file format ---- *)

let magic = "DRSEG1"

let corrupt path reason =
  Dr_obs.Metrics.bump m_corrupt;
  raise
    (Dr_util.Budget.Resource_error
       (Dr_util.Budget.Segment_corrupt { re_path = path; re_reason = reason }))

let encode_record e (r : Trace.record) =
  let open Dr_util.Codec in
  put_uint e r.Trace.gseq;
  put_uint e r.Trace.tid;
  put_uint e r.Trace.pc;
  put_uint e r.Trace.instance;
  put_uint e r.Trace.lidx;
  put_int_array e r.Trace.defs;
  put_int_array e r.Trace.uses;
  put_int e r.Trace.cd;
  put_uint e r.Trace.flags;
  put_int e r.Trace.line

let decode_record d : Trace.record =
  let open Dr_util.Codec in
  let gseq = get_uint d in
  let tid = get_uint d in
  let pc = get_uint d in
  let instance = get_uint d in
  let lidx = get_uint d in
  let defs = get_int_array d in
  let uses = get_int_array d in
  let cd = get_int d in
  let flags = get_uint d in
  let line = get_int d in
  { Trace.gseq; tid; pc; instance; lidx; defs; uses; cd; flags; line }

(** Encode a segment: magic, varint record count, records, then a
    4-byte little-endian CRC32 trailer over everything before it. *)
let encode_segment (records : Trace.record array) : string =
  let e = Dr_util.Codec.encoder () in
  Buffer.add_string e magic;
  Dr_util.Codec.put_uint e (Array.length records);
  Array.iter (encode_record e) records;
  let payload = Dr_util.Codec.to_string e in
  let crc = Dr_util.Crc32.string payload in
  let trailer = Bytes.create 4 in
  Bytes.set_uint8 trailer 0 (crc land 0xff);
  Bytes.set_uint8 trailer 1 ((crc lsr 8) land 0xff);
  Bytes.set_uint8 trailer 2 ((crc lsr 16) land 0xff);
  Bytes.set_uint8 trailer 3 ((crc lsr 24) land 0xff);
  payload ^ Bytes.to_string trailer

let decode_segment ~path ~expected_count (raw : string) : Trace.record array =
  let len = String.length raw in
  if len < String.length magic + 4 then corrupt path "file too short";
  let payload_len = len - 4 in
  let stored =
    Char.code raw.[payload_len]
    lor (Char.code raw.[payload_len + 1] lsl 8)
    lor (Char.code raw.[payload_len + 2] lsl 16)
    lor (Char.code raw.[payload_len + 3] lsl 24)
  in
  let actual = Dr_util.Crc32.string ~len:payload_len raw in
  if stored <> actual then
    corrupt path (Printf.sprintf "CRC mismatch: stored %d, computed %d" stored actual);
  if String.sub raw 0 (String.length magic) <> magic then
    corrupt path "bad magic";
  let d =
    Dr_util.Codec.decoder (String.sub raw (String.length magic) (payload_len - String.length magic))
  in
  match
    let n = Dr_util.Codec.get_count ~min_elt_bytes:8 d "segment records" in
    if n <> expected_count then
      corrupt path
        (Printf.sprintf "record count %d, expected %d" n expected_count);
    Array.init n (fun _ -> decode_record d)
  with
  | records -> records
  | exception Dr_util.Codec.Corrupt reason -> corrupt path reason

(* ---- simulated write faults (conformance fault injection) ---- *)

type write_fault =
  | Fault_enospc  (** the write fails as if the disk were full *)
  | Fault_short_write of int
      (** only the first [n] bytes reach disk (lost fsync / power cut) *)

(* Domain-local: each fuzz worker domain installs its own injector, so
   parallel fuzz cases with different fault plans never see each other's
   hooks. *)
let write_fault_hook : (string -> write_fault option) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fun _ -> None)

(** Install a write-fault injector consulted on every segment write by
    the {e calling domain} (keyed by the target path).  The hook is
    domain-local, so concurrent fuzz cases on different domains inject
    independent fault plans.  Test/fuzzer use only. *)
let set_write_fault_hook f = Domain.DLS.set write_fault_hook f

let clear_write_fault_hook () =
  Domain.DLS.set write_fault_hook (fun _ -> None)

let write_segment_file path (data : string) =
  match Domain.DLS.get write_fault_hook path with
  | Some Fault_enospc ->
    raise
      (Dr_util.Budget.Resource_error
         (Dr_util.Budget.Disk_full
            { re_path = path; re_reason = "no space left on device (simulated)" }))
  | Some (Fault_short_write n) ->
    (* deliberately bypasses the atomic discipline: models a disk that
       acknowledged a write it never completed *)
    let keep = min (max n 0) (String.length data) in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (String.sub data 0 keep))
  | None -> (
    try Dr_util.Atomic_file.write_string path data
    with Sys_error reason ->
      raise
        (Dr_util.Budget.Resource_error
           (Dr_util.Budget.Disk_full { re_path = path; re_reason = reason })))

(* ---- the store ---- *)

type seg =
  | Resident of Trace.record array
  | Spilled of { sp_path : string; sp_count : int }
  | Derived of (offset:int -> Trace.record array)
      (** re-computed on every cache miss; [offset] is the requested
          record's position in the segment *)

type t = {
  seg_records : int;
  total : int;
  segs : seg array;  (** [[||]] when [flat] is set *)
  flat : Trace.record array option;
      (** set iff the store never spilled: the O(1) fast path *)
  tier : tier;
  cache : (int, Trace.record array * int) Hashtbl.t;
      (** cached segment -> (records, resident bytes) *)
  mutable lru : int list;  (** cached segment indices, most recent first *)
  cache_cap : int;
  mutable s_hits : int;  (** per-store cache traffic, under [lock] *)
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_loaded : int;  (** records loaded by misses *)
  mutable resident_bytes : int;  (** record bytes in [cache] *)
  mutable peak_bytes : int;
  lock : Mutex.t;
      (** guards [cache], [lru] and the [s_*] and byte stats so
          concurrent readers on several domains share the cache
          safely; the flat path never takes it *)
}

(** Cache traffic of one store (the process-wide aggregate lives in the
    [segstore.*] and [reexec.window_*] metrics).  [cs_hits + cs_misses]
    is the number of cached-segment accesses; [cs_peak_bytes] the most
    record bytes the cache ever held at once, which is at most
    [cache_segments + 1] segments since a miss inserts before it
    evicts.  A never-spilled store reports zeros. *)
type cache_stats = {
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_loaded_records : int;
  cs_peak_bytes : int;
}

let cache_stats t =
  Mutex.lock t.lock;
  let st =
    { cs_hits = t.s_hits; cs_misses = t.s_misses;
      cs_evictions = t.s_evictions; cs_loaded_records = t.s_loaded;
      cs_peak_bytes = t.peak_bytes }
  in
  Mutex.unlock t.lock;
  st

(** Hits over total cache accesses; 0 when the store never spilled. *)
let cache_hit_rate t =
  let st = cache_stats t in
  let total = st.cs_hits + st.cs_misses in
  if total = 0 then 0.0 else float_of_int st.cs_hits /. float_of_int total

(** Resident bytes a record roughly occupies (boxed record + two int
    arrays), the unit all budget accounting uses. *)
let record_bytes (r : Trace.record) =
  8 * (16 + Array.length r.Trace.defs + Array.length r.Trace.uses)

let length t = t.total

let is_resident t = t.flat <> None

(** The flat record array when the store never spilled, [None] once it
    has.  Tests use it to check that a resident store holds little
    beyond that array. *)
let as_flat t = t.flat

let spilled_segments t =
  Array.fold_left
    (fun acc s -> match s with Spilled _ -> acc + 1 | _ -> acc)
    0 t.segs

(** (segment index, path) of every spilled segment, ascending. *)
let spilled_paths t =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | Spilled { sp_path; _ } -> acc := (i, sp_path) :: !acc
      | _ -> ())
    t.segs;
  List.rev !acc

let make ~seg_records ~total ~segs ~flat ~tier ~cache_cap =
  { seg_records; total; segs; flat; tier;
    cache = Hashtbl.create (2 * cache_cap); lru = [];
    cache_cap; s_hits = 0; s_misses = 0; s_evictions = 0; s_loaded = 0;
    resident_bytes = 0; peak_bytes = 0; lock = Mutex.create () }

let of_array (a : Trace.record array) : t =
  make ~seg_records:default_seg_records ~total:(Array.length a) ~segs:[||]
    ~flat:(Some a) ~tier:spill_tier ~cache_cap:0

(** A store of [total] records whose segment [s] (records
    [s * seg_records] onwards) is [derive s ~offset], re-computed on
    each miss of a [cache_segments]-segment LRU.  {!Reexec} builds its
    checkpoint windows this way; traffic reports under
    [reexec.window_*]. *)
let derived ~seg_records ~cache_segments ~total derive : t =
  if seg_records < 1 then invalid_arg "Segment_store.derived: seg_records < 1";
  let nsegs = (total + seg_records - 1) / seg_records in
  make ~seg_records ~total
    ~segs:(Array.init nsegs (fun s -> Derived (derive s)))
    ~flat:None ~tier:window_tier ~cache_cap:(max 1 cache_segments)

(* LRU: move [s] to the front, evicting past capacity.  Called with
   [t.lock] held. *)
let cache_insert t s records =
  let bytes = Array.fold_left (fun acc r -> acc + record_bytes r) 0 records in
  Hashtbl.replace t.cache s (records, bytes);
  t.s_loaded <- t.s_loaded + Array.length records;
  t.resident_bytes <- t.resident_bytes + bytes;
  if t.resident_bytes > t.peak_bytes then t.peak_bytes <- t.resident_bytes;
  t.lru <- s :: List.filter (fun x -> x <> s) t.lru;
  let rec drop n = function
    | [] -> []
    | keep :: rest when n > 1 -> keep :: drop (n - 1) rest
    | evict :: rest ->
      (match Hashtbl.find_opt t.cache evict with
      | Some (_, b) -> t.resident_bytes <- t.resident_bytes - b
      | None -> ());
      Hashtbl.remove t.cache evict;
      Dr_obs.Metrics.bump t.tier.m_evictions;
      t.s_evictions <- t.s_evictions + 1;
      drop n rest
  in
  if List.length t.lru > t.cache_cap then t.lru <- drop t.cache_cap t.lru

let load_segment ~path ~count : Trace.record array =
  Dr_obs.Metrics.bump m_reads;
  Dr_obs.Metrics.time t_spill_read @@ fun () ->
  let raw =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | raw -> raw
    | exception Sys_error reason -> corrupt path ("unreadable: " ^ reason)
    | exception End_of_file -> corrupt path "truncated while reading"
  in
  decode_segment ~path ~expected_count:count raw

(* The cache lookup, LRU touch and miss-load all run under [t.lock]:
   concurrent readers from a domain pool then share one cache without
   corrupting the LRU list, and a segment is loaded once per miss
   rather than once per racing reader. *)
let seg_array t s ~offset =
  match t.segs.(s) with
  | Resident a -> a
  | (Spilled _ | Derived _) as seg ->
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match Hashtbl.find_opt t.cache s with
        | Some (a, _) ->
          Dr_obs.Metrics.bump t.tier.m_hits;
          t.s_hits <- t.s_hits + 1;
          if (match t.lru with hd :: _ -> hd <> s | [] -> true) then
            t.lru <- s :: List.filter (fun x -> x <> s) t.lru;
          a
        | None ->
          Dr_obs.Metrics.bump t.tier.m_misses;
          t.s_misses <- t.s_misses + 1;
          let a =
            match seg with
            | Spilled { sp_path; sp_count } ->
              load_segment ~path:sp_path ~count:sp_count
            | Derived derive -> derive ~offset
            | Resident a -> a
          in
          cache_insert t s a;
          a)

(** Record with gseq [i].
    @raise Dr_util.Budget.Resource_error when a spilled segment is
    missing or corrupt. *)
let get t i =
  match t.flat with
  | Some a -> a.(i)
  | None ->
    let offset = i mod t.seg_records in
    (seg_array t (i / t.seg_records) ~offset).(offset)

(** Iterate records in gseq order — sequential, one segment pinned at a
    time. *)
let iter t f =
  match t.flat with
  | Some a -> Array.iteri f a
  | None ->
    for s = 0 to Array.length t.segs - 1 do
      let a = seg_array t s ~offset:0 in
      let base = s * t.seg_records in
      Array.iteri (fun j r -> f (base + j) r) a
    done

(* ---- builder ---- *)

type builder = {
  b_seg_records : int;
  b_cache_cap : int;
  b_budget : Dr_util.Budget.t option;
  b_store_id : int;
  mutable b_segs : seg list;  (** completed segments, newest first *)
  mutable b_nsegs : int;
  mutable b_resident : (int * int) list;
      (** completed resident segments as (index, bytes), oldest last *)
  mutable b_cur : Trace.record array;
      (** current segment, filled up to [b_cur_count]; [[||]] until
          its first record *)
  mutable b_cur_count : int;
  mutable b_cur_bytes : int;
  mutable b_total : int;
  mutable b_spilled : bool;
}

(* Atomic so builders created concurrently (parallel fuzz cases) get
   distinct spill-file prefixes. *)
let store_ids = Atomic.make 0

let builder ?budget ?(seg_records = default_seg_records)
    ?(cache_segments = default_cache_segments) () : builder =
  if seg_records < 1 then invalid_arg "Segment_store.builder: seg_records < 1";
  let id = 1 + Atomic.fetch_and_add store_ids 1 in
  { b_seg_records = seg_records; b_cache_cap = max 1 cache_segments;
    b_budget = budget; b_store_id = id; b_segs = []; b_nsegs = 0;
    b_resident = []; b_cur = [||]; b_cur_count = 0; b_cur_bytes = 0;
    b_total = 0; b_spilled = false }

let built_length b = b.b_total

let seg_path b ~dir ~index =
  Filename.concat dir (Printf.sprintf "seg-%d-%06d.drseg" b.b_store_id index)

(* Spill one completed resident segment (by completed-segment index). *)
let spill_seg b budget ~index =
  let nth_from_newest = b.b_nsegs - 1 - index in
  let rec replace i = function
    | [] -> []
    | s :: rest when i = 0 -> (
      match s with
      | Spilled _ | Derived _ -> s :: rest
      | Resident a ->
        let dir = Dr_util.Budget.ensure_spill_dir budget in
        let path = seg_path b ~dir ~index in
        let data =
          Dr_obs.Metrics.time t_spill_write @@ fun () ->
          let data = encode_segment a in
          write_segment_file path data;
          data
        in
        Dr_obs.Metrics.bump m_spilled;
        Dr_obs.Metrics.add m_spill_bytes (String.length data);
        Dr_util.Budget.note_spilled budget (String.length data);
        Spilled { sp_path = path; sp_count = Array.length a }
        :: rest)
    | s :: rest -> s :: replace (i - 1) rest
  in
  b.b_segs <- replace nth_from_newest b.b_segs;
  b.b_spilled <- true

(* While over the memory budget, spill completed resident segments
   oldest-first. *)
let rebalance b =
  match b.b_budget with
  | None -> ()
  | Some budget ->
    let rec go () =
      if Dr_util.Budget.over_mem budget then
        match List.rev b.b_resident with
        | [] -> ()
        | (index, bytes) :: _ ->
          spill_seg b budget ~index;
          Dr_util.Budget.release budget bytes;
          b.b_resident <-
            List.filter (fun (i, _) -> i <> index) b.b_resident;
          go ()
    in
    go ()

let finish_segment b =
  if b.b_cur_count > 0 then begin
    let a =
      if b.b_cur_count = Array.length b.b_cur then b.b_cur
      else Array.sub b.b_cur 0 b.b_cur_count
    in
    let index = b.b_nsegs in
    b.b_segs <- Resident a :: b.b_segs;
    b.b_nsegs <- b.b_nsegs + 1;
    b.b_resident <- (index, b.b_cur_bytes) :: b.b_resident;
    b.b_cur <- [||];
    b.b_cur_count <- 0;
    b.b_cur_bytes <- 0;
    rebalance b
  end

let append b (r : Trace.record) =
  if b.b_cur_count = 0 then b.b_cur <- Array.make b.b_seg_records Trace.dummy;
  b.b_cur.(b.b_cur_count) <- r;
  b.b_cur_count <- b.b_cur_count + 1;
  b.b_total <- b.b_total + 1;
  let bytes = record_bytes r in
  b.b_cur_bytes <- b.b_cur_bytes + bytes;
  (match b.b_budget with
  | Some budget -> Dr_util.Budget.charge budget bytes
  | None -> ());
  if b.b_cur_count >= b.b_seg_records then finish_segment b

let seal (b : builder) : t =
  finish_segment b;
  let segs = Array.of_list (List.rev b.b_segs) in
  let make = make ~seg_records:b.b_seg_records ~total:b.b_total in
  if not b.b_spilled then begin
    (* fully resident: flatten for the O(1) access path and drop the
       segment arrays, which would cost one more word per record *)
    let flat = Array.make b.b_total Trace.dummy in
    let pos = ref 0 in
    Array.iter
      (function
        | Resident a ->
          Array.blit a 0 flat !pos (Array.length a);
          pos := !pos + Array.length a
        | Spilled _ | Derived _ -> assert false)
      segs;
    make ~segs:[||] ~flat:(Some flat) ~tier:spill_tier ~cache_cap:0
  end
  else make ~segs ~flat:None ~tier:spill_tier ~cache_cap:b.b_cache_cap

(** Copy an existing store through a fresh (typically budgeted) builder
    — the conformance fault oracle uses this to produce a spilled twin
    of an in-memory trace. *)
let rebuild ?budget ?seg_records ?cache_segments (src : t) : t =
  let b = builder ?budget ?seg_records ?cache_segments () in
  iter src (fun _ r -> append b r);
  seal b
