(** Columnar storage for trace records.

    The store holds the records of one collected region trace, indexed
    by gseq, in fixed-size {e chunks}.  A chunk is a structure of
    arrays: one int column per scalar field of {!Trace.record} ([tid],
    [pc], [instance], [cd], [flags]; a row's gseq is its index) plus a
    CSR pool for the def and use locations — an offsets column with two
    entries per row and one flat column of locations.  Collection and
    re-execution append rows straight into a chunk ({!Chunk.push});
    consumers read fields through by-gseq accessors ({!pc},
    {!Chunk.cd}, {!Chunk.iter_defs}, ...).  A boxed
    {!Trace.record} is only built on demand ({!get}), as a view for
    printing, oracles and tests.

    While a {!Budget.t}'s memory budget holds, chunks stay resident;
    past it, completed chunks spill to disk oldest-first as
    {e segments}.  Spilled segments are written with the pinball
    container discipline — a magic header, a CRC32 trailer over the
    whole payload, and an atomic tmp+fsync+rename — and read back
    through a small LRU-pinned cache, so a backwards slice over a
    spilled trace re-reads each segment at most once per cache miss.
    A segment's payload is the chunk's columns blitted one after the
    other.

    The same cache serves {e derived} segments, whose chunk a closure
    re-computes on every miss: {!Reexec} stores each checkpoint window
    as one, so both out-of-core tiers share one LRU, one lock and one
    resident/peak byte account.

    A store that never spilled keeps only its chunk array, and a lookup
    is one option match, a shift and two array reads.  Corruption is
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

(* ---- chunks ---- *)

(** A run of consecutive rows in columns.  Cells are 32-bit
    little-endian ints in [Bytes]: every field of a region trace fits
    ({!Chunk.push} rejects a value that does not), a column is half the
    size of an [int array], and the major GC never scans it. *)
module Chunk = struct
  type t = {
    mutable base : int;  (** gseq of row 0 *)
    mutable rows : int;
    tid : Bytes.t;
    pc : Bytes.t;
    instance : Bytes.t;
    cd : Bytes.t;
    flags : Bytes.t;
    off : Bytes.t;
        (** [2 * capacity + 1] cells: row [j]'s defs are the pool cells
            [off(2j) .. off(2j+1) - 1], its uses [off(2j+1) .. off(2j+2) - 1] *)
    mutable locs : Bytes.t;  (** the location pool, filled up to [nlocs] *)
    mutable nlocs : int;
  }

  let[@inline] cell b j = Int32.to_int (Bytes.get_int32_le b (j lsl 2))
  let[@inline] set_cell b j v = Bytes.set_int32_le b (j lsl 2) (Int32.of_int v)

  (** Fixed cells per row: five scalar columns and two offsets. *)
  let row_cells = 7

  let make ~base ~cap ~locs =
    let col () = Bytes.create (4 * cap) in
    let off = Bytes.create (4 * ((2 * cap) + 1)) in
    set_cell off 0 0;
    { base; rows = 0; tid = col (); pc = col (); instance = col ();
      cd = col (); flags = col (); off; locs; nlocs = 0 }

  (** An empty chunk for [cap] rows starting at gseq [base]. *)
  let create ~base ~cap = make ~base ~cap ~locs:(Bytes.create (12 * max 1 cap))

  (** Empty [c] and restart it at gseq [base], keeping its buffers. *)
  let reset c ~base =
    c.base <- base;
    c.rows <- 0;
    c.nlocs <- 0

  let base c = c.base
  let length c = c.rows

  (* ---- writing ---- *)

  let out_of_range () =
    invalid_arg "Segment_store.Chunk.push: value outside the 32-bit cell range"

  let begin_row c ~tid ~pc ~instance ~cd ~flags ~nlocs =
    let j = c.rows in
    if j >= Bytes.length c.tid lsr 2 then
      invalid_arg "Segment_store.Chunk.push: chunk full";
    (* non-negative fields below 2^31, [cd] also -1 *)
    if (tid lor pc lor instance lor flags lor (cd + 1)) lsr 31 <> 0 then
      out_of_range ();
    set_cell c.tid j tid;
    set_cell c.pc j pc;
    set_cell c.instance j instance;
    set_cell c.cd j cd;
    set_cell c.flags j flags;
    let need = c.nlocs + nlocs in
    if 4 * need > Bytes.length c.locs then begin
      let cap = ref (max 16 (Bytes.length c.locs lsr 2)) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let locs = Bytes.create (4 * !cap) in
      Bytes.blit c.locs 0 locs 0 (4 * c.nlocs);
      c.locs <- locs
    end

  let add_loc c l =
    if l lsr 31 <> 0 then out_of_range ();
    set_cell c.locs c.nlocs l;
    c.nlocs <- c.nlocs + 1

  let end_defs c = set_cell c.off ((2 * c.rows) + 1) c.nlocs

  let end_row c =
    set_cell c.off ((2 * c.rows) + 2) c.nlocs;
    c.rows <- c.rows + 1

  (** Append one row at gseq [base + length]; [defs] and [uses] are
      {!Dr_isa.Loc} encodings.  Allocates only when the pool grows.
      @raise Invalid_argument when the chunk is full or a value does
      not fit a 32-bit cell. *)
  let push c ~tid ~pc ~instance ~cd ~flags ~(defs : Dr_util.Vec.Int_vec.t)
      ~(uses : Dr_util.Vec.Int_vec.t) =
    let nd = Dr_util.Vec.Int_vec.length defs
    and nu = Dr_util.Vec.Int_vec.length uses in
    begin_row c ~tid ~pc ~instance ~cd ~flags ~nlocs:(nd + nu);
    for i = 0 to nd - 1 do
      add_loc c (Dr_util.Vec.Int_vec.unsafe_get defs i)
    done;
    end_defs c;
    for i = 0 to nu - 1 do
      add_loc c (Dr_util.Vec.Int_vec.unsafe_get uses i)
    done;
    end_row c

  (** Append the row a record view describes (its [gseq] is ignored). *)
  let push_record c (r : Trace.record) =
    begin_row c ~tid:r.Trace.tid ~pc:r.Trace.pc ~instance:r.Trace.instance
      ~cd:r.Trace.cd ~flags:r.Trace.flags
      ~nlocs:(Array.length r.Trace.defs + Array.length r.Trace.uses);
    Array.iter (add_loc c) r.Trace.defs;
    end_defs c;
    Array.iter (add_loc c) r.Trace.uses;
    end_row c

  (** A chunk of exactly [c]'s rows.  Columns that are already exact
      are shared with [c]; the pool is always copied, so [c]'s pool
      buffer can be reused. *)
  let seal c =
    let n = c.rows in
    let fit b len = if Bytes.length b = len then b else Bytes.sub b 0 len in
    let col b = fit b (4 * n) in
    { base = c.base; rows = n; tid = col c.tid; pc = col c.pc;
      instance = col c.instance; cd = col c.cd; flags = col c.flags;
      off = fit c.off (4 * ((2 * n) + 1));
      locs = Bytes.sub c.locs 0 (4 * c.nlocs); nlocs = c.nlocs }

  (* ---- reading, by gseq ---- *)

  let tid c g = cell c.tid (g - c.base)
  let pc c g = cell c.pc (g - c.base)
  let instance c g = cell c.instance (g - c.base)
  let cd c g = cell c.cd (g - c.base)
  let flags c g = cell c.flags (g - c.base)

  (** Apply [f] to each def location of row [g], in order. *)
  let iter_defs c g f =
    let j = g - c.base in
    for k = cell c.off (2 * j) to cell c.off ((2 * j) + 1) - 1 do
      f (cell c.locs k)
    done

  (** Apply [f] to each use location of row [g], in order. *)
  let iter_uses c g f =
    let j = g - c.base in
    for k = cell c.off ((2 * j) + 1) to cell c.off ((2 * j) + 2) - 1 do
      f (cell c.locs k)
    done

  let locs_between c lo hi = Array.init (hi - lo) (fun i -> cell c.locs (lo + i))

  (** Row [g] as a boxed record (a fresh view). *)
  let record c g : Trace.record =
    let j = g - c.base in
    let lo = cell c.off (2 * j)
    and mid = cell c.off ((2 * j) + 1)
    and hi = cell c.off ((2 * j) + 2) in
    { Trace.gseq = g; tid = cell c.tid j; pc = cell c.pc j;
      instance = cell c.instance j; defs = locs_between c lo mid;
      uses = locs_between c mid hi; cd = cell c.cd j; flags = cell c.flags j }

  (** Every row as a view, in gseq order. *)
  let records c = Array.init c.rows (fun j -> record c (c.base + j))

  (** The budget unit: bytes of row [g]'s cells. *)
  let row_bytes c g =
    let j = g - c.base in
    4 * (row_cells + cell c.off ((2 * j) + 2) - cell c.off (2 * j))

  (** Bytes of all rows' cells: the sum of {!row_bytes}. *)
  let bytes c = 4 * ((row_cells * c.rows) + c.nlocs)
end

(* ---- segment file format ---- *)

let magic = "DRSEG3"

let corrupt path reason =
  Dr_obs.Metrics.bump m_corrupt;
  raise
    (Dr_util.Budget.Resource_error
       (Dr_util.Budget.Segment_corrupt { re_path = path; re_reason = reason }))

(** Encode a segment: the magic, varint row count [n], varint pool
    length [m], the five scalar columns ([4n] bytes each, in the order
    tid pc instance cd flags), the offsets ([4(2n+1)] bytes)
    and the pool ([4m] bytes), then a 4-byte little-endian CRC32
    trailer over everything before it. *)
let encode_segment (c : Chunk.t) : string =
  let n = c.Chunk.rows and m = c.Chunk.nlocs in
  let e = Buffer.create (32 + (4 * ((Chunk.row_cells * n) + 1 + m))) in
  Buffer.add_string e magic;
  Dr_util.Codec.put_uint e n;
  Dr_util.Codec.put_uint e m;
  List.iter
    (fun col -> Buffer.add_subbytes e col 0 (4 * n))
    Chunk.[ c.tid; c.pc; c.instance; c.cd; c.flags ];
  Buffer.add_subbytes e c.Chunk.off 0 (4 * ((2 * n) + 1));
  Buffer.add_subbytes e c.Chunk.locs 0 (4 * m);
  let payload = Buffer.contents e in
  let crc = Dr_util.Crc32.string payload in
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 (Int32.of_int crc);
  payload ^ Bytes.to_string trailer

(* Total: any input either decodes to a chunk whose offsets index its
   pool, or raises [Segment_corrupt].  The counts are checked against
   the bytes that remain before any column is allocated. *)
let decode_segment ~path ~base ~expected_count (raw : string) : Chunk.t =
  let len = String.length raw in
  let mlen = String.length magic in
  if len < mlen + 4 then corrupt path "file too short";
  let payload_len = len - 4 in
  let stored =
    Int32.to_int (String.get_int32_le raw payload_len) land 0xffff_ffff
  in
  let actual = Dr_util.Crc32.string ~len:payload_len raw in
  if stored <> actual then
    corrupt path (Printf.sprintf "CRC mismatch: stored %d, computed %d" stored actual);
  if String.sub raw 0 mlen <> magic then corrupt path "bad magic";
  let d = Dr_util.Codec.decoder (String.sub raw mlen (payload_len - mlen)) in
  let n, m =
    match
      let n = Dr_util.Codec.get_uint d in
      let m = Dr_util.Codec.get_uint d in
      (n, m)
    with
    | nm -> nm
    | exception Dr_util.Codec.Corrupt reason -> corrupt path reason
  in
  if n <> expected_count then
    corrupt path (Printf.sprintf "record count %d, expected %d" n expected_count);
  let rest = Dr_util.Codec.remaining d in
  (* [n] equals the non-negative expected count; bounding [n] and [m] by
     the bytes left first keeps the size sum from overflowing *)
  if m < 0 || n > rest / (4 * Chunk.row_cells) || m > rest / 4
     || 4 * ((Chunk.row_cells * n) + 1 + m) <> rest
  then
    corrupt path
      (Printf.sprintf "%d rows and %d locations do not fill %d bytes" n m rest);
  let pos = ref (mlen + (payload_len - mlen - rest)) in
  let cut bytes =
    let b = Bytes.create bytes in
    Bytes.blit_string raw !pos b 0 bytes;
    pos := !pos + bytes;
    b
  in
  let col () = cut (4 * n) in
  let tid = col () in
  let pc = col () in
  let instance = col () in
  let cd = col () in
  let flags = col () in
  let off = cut (4 * ((2 * n) + 1)) in
  let locs = cut (4 * m) in
  let prev = ref 0 in
  for k = 0 to 2 * n do
    let o = Chunk.cell off k in
    if (k = 0 && o <> 0) || o < !prev || o > m then
      corrupt path (Printf.sprintf "offset %d out of order" k);
    prev := o
  done;
  if !prev <> m then corrupt path "offsets do not cover the pool";
  { Chunk.base; rows = n; tid; pc; instance; cd; flags; off; locs; nlocs = m }

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
  | Resident of Chunk.t
  | Spilled of { sp_path : string; sp_count : int }
  | Derived of (offset:int -> Chunk.t)
      (** re-computed on every cache miss; [offset] is the requested
          record's position in the segment *)

type t = {
  seg_records : int;
  shift : int;  (** log2 [seg_records] when [flat] is set *)
  total : int;
  segs : seg array;  (** [[||]] when [flat] is set *)
  flat : Chunk.t array option;
      (** every chunk, set iff the store never spilled: the fast path,
          gseq [g] is in chunk [g lsr shift] *)
  tier : tier;
  cache : (int, Chunk.t * int) Hashtbl.t;
      (** cached segment -> (chunk, resident bytes) *)
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

let length t = t.total

let is_resident t = t.flat <> None

(** The chunks when the store never spilled, [None] once it has.  Tests
    use it to check that a resident store holds little beyond them. *)
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

let make ~seg_records ~shift ~total ~segs ~flat ~tier ~cache_cap =
  { seg_records; shift; total; segs; flat; tier;
    cache = Hashtbl.create (2 * cache_cap); lru = [];
    cache_cap; s_hits = 0; s_misses = 0; s_evictions = 0; s_loaded = 0;
    resident_bytes = 0; peak_bytes = 0; lock = Mutex.create () }

(** A store of [total] records whose segment [s] (records
    [s * seg_records] onwards) is [derive s ~offset], re-computed on
    each miss of a [cache_segments]-segment LRU.  {!Reexec} builds its
    checkpoint windows this way; traffic reports under
    [reexec.window_*]. *)
let derived ~seg_records ~cache_segments ~total derive : t =
  if seg_records < 1 then invalid_arg "Segment_store.derived: seg_records < 1";
  let nsegs = (total + seg_records - 1) / seg_records in
  make ~seg_records ~shift:0 ~total
    ~segs:(Array.init nsegs (fun s -> Derived (derive s)))
    ~flat:None ~tier:window_tier ~cache_cap:(max 1 cache_segments)

(* LRU: move [s] to the front, evicting past capacity.  Called with
   [t.lock] held. *)
let cache_insert t s chunk =
  let bytes = Chunk.bytes chunk in
  Hashtbl.replace t.cache s (chunk, bytes);
  t.s_loaded <- t.s_loaded + Chunk.length chunk;
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

let load_segment ~path ~base ~count : Chunk.t =
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
  decode_segment ~path ~base ~expected_count:count raw

(* The cache lookup, LRU touch and miss-load all run under [t.lock]:
   concurrent readers from a domain pool then share one cache without
   corrupting the LRU list, and a segment is loaded once per miss
   rather than once per racing reader. *)
let seg_chunk t s ~offset =
  match t.segs.(s) with
  | Resident c -> c
  | (Spilled _ | Derived _) as seg ->
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match Hashtbl.find_opt t.cache s with
        | Some (c, _) ->
          Dr_obs.Metrics.bump t.tier.m_hits;
          t.s_hits <- t.s_hits + 1;
          if (match t.lru with hd :: _ -> hd <> s | [] -> true) then
            t.lru <- s :: List.filter (fun x -> x <> s) t.lru;
          c
        | None ->
          Dr_obs.Metrics.bump t.tier.m_misses;
          t.s_misses <- t.s_misses + 1;
          let c =
            match seg with
            | Spilled { sp_path; sp_count } ->
              load_segment ~path:sp_path ~base:(s * t.seg_records)
                ~count:sp_count
            | Derived derive -> derive ~offset
            | Resident c -> c
          in
          cache_insert t s c;
          c)

(** The chunk holding gseq [g]; read its fields with the {!Chunk}
    accessors, which take the same gseq.  A caller reading several
    fields of one record looks the chunk up once.
    @raise Dr_util.Budget.Resource_error when a spilled segment is
    missing or corrupt. *)
let chunk t g =
  match t.flat with
  | Some cs -> cs.(g lsr t.shift)
  | None ->
    let s = g / t.seg_records in
    seg_chunk t s ~offset:(g - (s * t.seg_records))

let pc t g = Chunk.pc (chunk t g) g
let flags t g = Chunk.flags (chunk t g) g
let iter_defs t g f = Chunk.iter_defs (chunk t g) g f

(** Record [g] as a boxed view, built on each call. *)
let get t g = Chunk.record (chunk t g) g

(** Budget bytes of record [g]: its cells in the columns and the pool. *)
let record_bytes t g = Chunk.row_bytes (chunk t g) g

(* ---- builder ---- *)

type builder = {
  b_seg_records : int;  (** a power of two *)
  b_shift : int;
  b_cache_cap : int;
  b_budget : Dr_util.Budget.t option;
  b_store_id : int;
  mutable b_segs : seg list;  (** completed segments, newest first *)
  mutable b_nsegs : int;
  mutable b_resident : (int * int) list;
      (** completed resident segments as (index, bytes), oldest last *)
  mutable b_cur : Chunk.t;  (** the chunk rows are appended to *)
  mutable b_spilled : bool;
}

(* Atomic so builders created concurrently (parallel fuzz cases) get
   distinct spill-file prefixes. *)
let store_ids = Atomic.make 0

(** A builder whose segments hold [seg_records] records, rounded up to
    a power of two so that a resident lookup is a shift. *)
let builder ?budget ?(seg_records = default_seg_records)
    ?(cache_segments = default_cache_segments) () : builder =
  if seg_records < 1 then invalid_arg "Segment_store.builder: seg_records < 1";
  let shift = ref 0 in
  while 1 lsl !shift < seg_records do
    incr shift
  done;
  let id = 1 + Atomic.fetch_and_add store_ids 1 in
  { b_seg_records = 1 lsl !shift; b_shift = !shift;
    b_cache_cap = max 1 cache_segments; b_budget = budget; b_store_id = id;
    b_segs = []; b_nsegs = 0; b_resident = [];
    b_cur = Chunk.create ~base:0 ~cap:(1 lsl !shift); b_spilled = false }

let built_length b = b.b_cur.Chunk.base + b.b_cur.Chunk.rows

(* Spill one completed resident segment (by completed-segment index). *)
let spill_seg b budget ~index =
  let nth_from_newest = b.b_nsegs - 1 - index in
  let rec replace i = function
    | [] -> []
    | s :: rest when i = 0 -> (
      match s with
      | Spilled _ | Derived _ -> s :: rest
      | Resident c ->
        let path =
          Dr_util.Budget.spill_file budget
            (Printf.sprintf "seg-%d-%06d.drseg" b.b_store_id index)
        in
        let data =
          Dr_obs.Metrics.time t_spill_write @@ fun () ->
          let data = encode_segment c in
          write_segment_file path data;
          data
        in
        Dr_obs.Metrics.bump m_spilled;
        Dr_obs.Metrics.add m_spill_bytes (String.length data);
        Dr_util.Budget.note_spilled budget (String.length data);
        Spilled { sp_path = path; sp_count = Chunk.length c }
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

(* Complete the current chunk: charge its bytes to the budget and spill
   if that tips it over. *)
let finish_segment b =
  let cur = b.b_cur in
  if Chunk.length cur > 0 then begin
    let c = Chunk.seal cur in
    let bytes = Chunk.bytes c in
    Option.iter (fun budget -> Dr_util.Budget.charge budget bytes) b.b_budget;
    let index = b.b_nsegs in
    b.b_segs <- Resident c :: b.b_segs;
    b.b_nsegs <- b.b_nsegs + 1;
    b.b_resident <- (index, bytes) :: b.b_resident;
    rebalance b
  end

(** The chunk the next record goes into: [Collector] and [rebuild]
    append one row to it per record. *)
let sink b =
  let cur = b.b_cur in
  if Chunk.length cur = b.b_seg_records then begin
    finish_segment b;
    (* the full chunk's columns now belong to its segment; the pool
       was copied, so the next chunk reuses its buffer *)
    b.b_cur <-
      Chunk.make ~base:(built_length b) ~cap:b.b_seg_records
        ~locs:cur.Chunk.locs
  end;
  b.b_cur

let seal (b : builder) : t =
  let total = built_length b in
  finish_segment b;
  let segs = Array.of_list (List.rev b.b_segs) in
  let make = make ~seg_records:b.b_seg_records ~shift:b.b_shift ~total in
  if not b.b_spilled then
    let flat =
      Array.map (function Resident c -> c | Spilled _ | Derived _ -> assert false) segs
    in
    make ~segs:[||] ~flat:(Some flat) ~tier:spill_tier ~cache_cap:0
  else make ~segs ~flat:None ~tier:spill_tier ~cache_cap:b.b_cache_cap

(** A resident store of the records the views describe, gseqs from 0
    (their own [gseq] fields are ignored). *)
let of_records (rs : Trace.record array) : t =
  let b = builder () in
  Array.iter (fun r -> Chunk.push_record (sink b) r) rs;
  seal b

(** Copy an existing store through a fresh (typically budgeted) builder
    — the conformance fault oracle uses this to produce a spilled twin
    of an in-memory trace. *)
let rebuild ?budget ?seg_records ?cache_segments (src : t) : t =
  let b = builder ?budget ?seg_records ?cache_segments () in
  for g = 0 to length src - 1 do
    Chunk.push_record (sink b) (get src g)
  done;
  seal b
