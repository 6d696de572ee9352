(** Backwards dynamic slicing over the combined global trace (paper
    §3(iii), §5.2).

    Starting from a criterion (a record in the global trace and,
    optionally, the specific locations of interest at it), the slicer
    walks the trace backwards recovering:

    - {e data dependences}: the most recent earlier definition of each
      wanted location (registers per thread, memory global — the
      topological order of the global trace guarantees the match is the
      true dynamic reaching definition);
    - {e control dependences}: the [cd] pointer of every included record,
      transitively.

    Two traversal drivers share the same record-processing core:

    - the {e indexed} fast path (default) pops candidate positions from
      a max-heap — the latest definition of each wanted location (found
      by binary search in the {!Def_index}), pending control-dependence
      targets, and deferred-bypass definitions — touching only
      positions that can change the slice state;
    - the {e scan} path walks every position backwards, skipping whole
      {!Lp} blocks that define no wanted location (Zhang et al.'s
      Limited Preprocessing, answered by range queries on the
      {!Def_index}) — kept as the reference implementation and the
      ablation baseline.

    Both produce the same positions and dependence edges (the edge
    array order is unspecified; compare canonically).

    When save/restore [pairs] are supplied, a wanted register satisfied by
    a confirmed restore is {e bypassed} (§5.2): the restore and its save
    stay out of the slice and the search for the register's definition
    resumes below the save, adding the paper's direct edge from the use to
    the real definition. *)

let m_computes = Dr_obs.Metrics.counter "slicer.computes"
let h_slice_size = Dr_obs.Metrics.histogram "slicer.slice_size"
let m_visited = Dr_obs.Metrics.counter "slicer.records_visited"
let m_skipped = Dr_obs.Metrics.counter "slicer.blocks_skipped"
let m_edges = Dr_obs.Metrics.counter "slicer.edges"
let m_heap_pops = Dr_obs.Metrics.counter "slicer.heap_pops"
let m_stale_pops = Dr_obs.Metrics.counter "slicer.heap_stale_pops"
let m_adj_builds = Dr_obs.Metrics.counter "slicer.adjacency_builds"
let m_truncated = Dr_obs.Metrics.counter "slicer.truncated_slices"
let m_degraded = Dr_obs.Metrics.counter "slicer.degraded_to_scan"

type dep_kind =
  | Data of int  (** data dependence on this location *)
  | Data_bypassed of int
      (** data dependence that skipped one or more save/restore pairs *)
  | Control

type edge = {
  from_pos : int;  (** the dependent (later) record's position *)
  to_pos : int;  (** the record it depends on *)
  kind : dep_kind;
}

type criterion = {
  crit_pos : int;  (** position in the global trace *)
  crit_locs : int list option;
      (** specific locations to chase; [None] = the record's uses *)
}

type stats = {
  visited : int;  (** records examined *)
  skipped_blocks : int;
  total_blocks : int;
  slice_time : float;
  truncated : bool;
      (** a watchdog stopped the traversal early: the positions are a
          sound {e subset} of the full slice, honestly marked partial *)
}

(* edge indices grouped by endpoint, in edge-array order *)
type adjacency = {
  by_from : (int, int list) Hashtbl.t;
  by_to : (int, int list) Hashtbl.t;
}

type t = {
  gt : Global_trace.t;
  criterion : criterion;
  positions : int array;  (** included positions, ascending *)
  edges : edge array;
  stats : stats;
  mutable adj : adjacency option;  (** lazy edge adjacency index *)
}

let size t = Array.length t.positions

let equal a b =
  let sorted_edges t =
    let e = Array.copy t.edges in
    Array.sort compare e;
    e
  in
  a.positions = b.positions && sorted_edges a = sorted_edges b

let mem t pos =
  (* positions is sorted ascending *)
  let a = t.positions in
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = pos then found := true
    else if a.(mid) < pos then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* deferred want created by a save/restore bypass *)
type deferred = {
  d_loc : int;
  d_save_pos : int;  (** re-activate strictly below this position *)
  d_requesters : (int * bool) list;  (** (requester, was already bypassed) *)
  mutable d_pending : bool;  (** cleared on activation (stale-heap check) *)
}

(* a wanted location's requesters plus, on the indexed path, the
   position of its latest definition below the cap in force when the
   entry was created (-1 = none / scan path) *)
type want_entry = { mutable reqs : (int * bool) list; cand : int }

(* indexed-path heap payloads; validity is re-checked at pop time
   because satisfied wants / reached includes / activated deferrals
   leave stale entries behind *)
type cand_kind =
  | Cand_want of int  (** location; valid iff its entry's cand = key *)
  | Cand_inc  (** valid iff key is still in [to_include] *)
  | Cand_defer of deferred  (** valid iff still pending *)

type driver = [ `Indexed | `Scan_skip | `Scan | `Reexec of Reexec.t ]

let driver_name : driver -> string = function
  | `Indexed -> "indexed"
  | `Scan_skip -> "scan+skip"
  | `Scan -> "scan"
  | `Reexec _ -> "reexec"

(** Compute the backwards dynamic slice for [criterion].

    [lp]: reuse a precomputed block geometry and definition index (they
    are valid for any slice over the same global trace).  [pairs]:
    enable save/restore bypassing (§5.2).  [watchdog]: a polled
    wall-clock deadline; when it fires mid-walk the traversal stops and
    the result is marked [stats.truncated] — the positions found so far
    are a sound subset of the full slice.  [driver] (default
    [`Indexed]) names the traversal backend: [`Indexed] is the
    definition-index fast path; [`Scan_skip] the backwards scan with LP
    block skipping and [`Scan] the scan without it (the LP ablation);
    [`Reexec rx] answers record lookups by on-demand re-execution from
    checkpoints (see {!Reexec}) and walks the scan path with skipping
    off — record contents come from [rx], only [gt]'s merge order is
    consulted.  The slice is identical on every driver. *)
let compute ?(lp : Lp.t option) ?(pairs : Prune.pairs option)
    ?(watchdog : Dr_util.Budget.watchdog option) ?(driver : driver = `Indexed)
    (gt : Global_trace.t) (criterion : criterion) : t =
  Dr_obs.Metrics.bump m_computes;
  let t0 = Dr_util.Timer.now () in
  let n = Global_trace.length gt in
  if criterion.crit_pos < 0 || criterion.crit_pos >= n then
    invalid_arg "Slicer.compute: criterion out of range";
  let indexed = driver = `Indexed in
  let block_skipping = driver = `Scan_skip in
  Dr_obs.Obs.with_span ~cat:"slice" "slicer.compute" @@ fun sp ->
  Dr_obs.Obs.add_attr sp "crit_pos" (Dr_obs.Obs.Int criterion.crit_pos);
  Dr_obs.Obs.add_attr sp "driver" (Dr_obs.Obs.Str (driver_name driver));
  let lp =
    match lp with
    | Some l -> l
    | None -> (
      match driver with
      (* the re-execution driver must not walk the stored records to
         build the index — that would defeat its purpose *)
      | `Reexec _ -> Lp.prepare_lite gt
      | _ -> Lp.prepare gt)
  in
  (* record columns: the stored trace, or re-derived on demand; both
     are indexed by gseq *)
  let records =
    match driver with
    | `Reexec rx -> Reexec.store rx
    | _ -> gt.Global_trace.records
  in
  let index = Lp.def_index lp in
  let wanted : (int, want_entry) Hashtbl.t = Hashtbl.create 256 in
  let deferred : deferred list ref = ref [] in
  let heap = Dr_util.Heap.create ~dummy:Cand_inc in
  let to_include = Dr_util.Bitset.create n in
  let to_include_in_block = Array.make lp.Lp.num_blocks 0 in
  let in_slice = Dr_util.Bitset.create n in
  let slice_positions = Dr_util.Vec.Int_vec.create () in
  let edges = Dr_util.Vec.create ~dummy:{ from_pos = 0; to_pos = 0; kind = Control } in
  let visited = ref 0 and skipped = ref 0 in
  let truncated = ref false in
  (* polled every 2048 steps: one clock read, no cost on the happy path *)
  let steps = ref 0 in
  let deadline_hit () =
    match watchdog with
    | None -> false
    | Some wd ->
      incr steps;
      (* one up-front poll so an already-blown deadline stops even a
         trace shorter than the polling interval *)
      if (!steps = 1 || !steps land 2047 = 0) && Dr_util.Budget.expired wd
      then begin
        truncated := true;
        true
      end
      else false
  in
  (* [cap]: the largest position at which the want may be satisfied —
     the criterion and a record's uses look strictly below themselves,
     a reactivated deferral may be satisfied by the very record that
     activates it *)
  let add_want ?(bypassed = false) ~cap loc requester =
    match Hashtbl.find_opt wanted loc with
    | Some e ->
      (* the existing candidate is still the latest definition at or
         below [cap]: anything later was already popped and would have
         satisfied the entry *)
      e.reqs <- (requester, bypassed) :: e.reqs
    | None ->
      let cand =
        if indexed then Def_index.latest_at_or_before index ~loc ~pos:cap
        else -1
      in
      Hashtbl.replace wanted loc { reqs = [ (requester, bypassed) ]; cand };
      if indexed && cand >= 0 then
        Dr_util.Heap.push heap cand (Cand_want loc)
  in
  let mark_cd ~branch_gseq ~requester =
    let bpos = Global_trace.position gt ~gseq:branch_gseq in
    Dr_util.Vec.push edges { from_pos = requester; to_pos = bpos; kind = Control };
    if (not (Dr_util.Bitset.mem in_slice bpos))
       && not (Dr_util.Bitset.mem to_include bpos)
    then begin
      Dr_util.Bitset.add to_include bpos;
      to_include_in_block.(Lp.block_of lp bpos)
      <- to_include_in_block.(Lp.block_of lp bpos) + 1;
      if indexed then Dr_util.Heap.push heap bpos Cand_inc
    end
  in
  (* include a record: follow its uses and its control dependence *)
  let include_record pos =
    if not (Dr_util.Bitset.mem in_slice pos) then begin
      Dr_util.Bitset.add in_slice pos;
      Dr_util.Vec.Int_vec.push slice_positions pos;
      let g = Global_trace.gseq_at gt pos in
      let c = Segment_store.chunk records g in
      Segment_store.Chunk.iter_uses c g (fun u -> add_want ~cap:(pos - 1) u pos);
      let cd = Segment_store.Chunk.cd c g in
      if cd >= 0 then mark_cd ~branch_gseq:cd ~requester:pos
    end
  in
  (* seed from the criterion *)
  let crit_g = Global_trace.gseq_at gt criterion.crit_pos in
  let crit_chunk = Segment_store.chunk records crit_g in
  Dr_util.Bitset.add in_slice criterion.crit_pos;
  Dr_util.Vec.Int_vec.push slice_positions criterion.crit_pos;
  let crit_cap = criterion.crit_pos - 1 in
  (match criterion.crit_locs with
  | Some locs -> List.iter (fun l -> add_want ~cap:crit_cap l criterion.crit_pos) locs
  | None ->
    Segment_store.Chunk.iter_uses crit_chunk crit_g (fun u ->
        add_want ~cap:crit_cap u criterion.crit_pos));
  let crit_cd = Segment_store.Chunk.cd crit_chunk crit_g in
  if crit_cd >= 0 then mark_cd ~branch_gseq:crit_cd ~requester:criterion.crit_pos;
  (* process one record — shared by both traversal drivers *)
  let process pos =
    incr visited;
    (* activate deferred wants that apply strictly below their save;
       runs before the defs loop so this very record may satisfy them *)
    if !deferred <> [] then begin
      let active, still = List.partition (fun d -> pos < d.d_save_pos) !deferred in
      deferred := still;
      List.iter
        (fun d ->
          d.d_pending <- false;
          List.iter
            (fun (req, _) -> add_want ~bypassed:true ~cap:pos d.d_loc req)
            d.d_requesters)
        active
    end;
    let g = Global_trace.gseq_at gt pos in
    let c = Segment_store.chunk records g in
    let included = ref (Dr_util.Bitset.mem to_include pos) in
    if !included then begin
      Dr_util.Bitset.remove to_include pos;
      let b = Lp.block_of lp pos in
      to_include_in_block.(b) <- to_include_in_block.(b) - 1
    end;
    Segment_store.Chunk.iter_defs c g (fun d ->
        match Hashtbl.find_opt wanted d with
        | None -> ()
        | Some e ->
          let bypassed =
            match pairs with
            | None -> None
            | Some pairs -> (
              match Dr_isa.Loc.view d with
              | Dr_isa.Loc.Reg { reg; _ } -> (
                match Prune.bypass pairs ~gseq:g ~reg with
                | Some save_gseq ->
                  Some (Global_trace.position gt ~gseq:save_gseq)
                | None -> None)
              | Dr_isa.Loc.Mem _ -> None)
          in
          (match bypassed with
          | Some save_pos ->
            (* skip the restore and its save; resume below the save *)
            let dfr =
              { d_loc = d; d_save_pos = save_pos; d_requesters = e.reqs;
                d_pending = true }
            in
            deferred := dfr :: !deferred;
            if indexed then begin
              let dc =
                Def_index.latest_at_or_before index ~loc:d ~pos:(save_pos - 1)
              in
              if dc >= 0 then Dr_util.Heap.push heap dc (Cand_defer dfr)
            end
          | None ->
            List.iter
              (fun (req, via_bypass) ->
                Dr_util.Vec.push edges
                  { from_pos = req; to_pos = pos;
                    kind = (if via_bypass then Data_bypassed d else Data d) })
              e.reqs;
            included := true);
          Hashtbl.remove wanted d);
    if !included then include_record pos
  in
  if indexed then begin
    (* indexed driver: pop candidate positions, largest first; stale
       entries (want satisfied, include reached, deferral activated
       since the push) are dropped.  Keys only ever decrease: every
       push during [process pos] is <= pos, and a key = pos re-pop is
       provably stale, so no position is processed twice. *)
    let continue = ref true in
    while !continue do
      if deadline_hit () then continue := false
      else
      match Dr_util.Heap.pop heap with
      | None -> continue := false
      | Some (key, kind) ->
        Dr_obs.Metrics.bump m_heap_pops;
        let valid =
          match kind with
          | Cand_inc -> Dr_util.Bitset.mem to_include key
          | Cand_want loc -> (
            match Hashtbl.find_opt wanted loc with
            | Some e -> e.cand = key
            | None -> false)
          | Cand_defer d -> d.d_pending
        in
        if valid then process key else Dr_obs.Metrics.bump m_stale_pops
    done
  end
  else begin
    (* scan driver: backwards walk with LP block skipping *)
    let pos = ref (criterion.crit_pos - 1) in
    while !pos >= 0 && not (deadline_hit ()) do
      let b = Lp.block_of lp !pos in
      let lo, hi = Lp.block_range lp b in
      (* the skippable top of this block: its range clamped to the
         trace end (the final block is partial) and to the walk's
         start below the criterion *)
      let block_top = min (min hi (n - 1)) (criterion.crit_pos - 1) in
      let can_skip =
        block_skipping && !pos = block_top && to_include_in_block.(b) = 0
        && not (Lp.may_satisfy lp ~block:b ~wanted)
        && List.for_all
             (fun d -> d.d_save_pos <= lo || not (Lp.defines lp ~block:b ~loc:d.d_loc))
             !deferred
      in
      if can_skip then begin
        incr skipped;
        pos := lo - 1
      end
      else begin
        process !pos;
        decr pos
      end
    done
  end;
  let positions = Dr_util.Vec.Int_vec.to_array slice_positions in
  Array.sort Int.compare positions;
  let edges = Dr_util.Vec.to_array edges in
  Dr_obs.Metrics.add m_visited !visited;
  Dr_obs.Metrics.add m_skipped !skipped;
  Dr_obs.Metrics.add m_edges (Array.length edges);
  let slice_time = Dr_util.Timer.now () -. t0 in
  if !truncated then Dr_obs.Metrics.bump m_truncated;
  Dr_obs.Obs.add_attr sp "truncated" (Dr_obs.Obs.Bool !truncated);
  Dr_obs.Obs.add_attr sp "visited" (Dr_obs.Obs.Int !visited);
  Dr_obs.Obs.add_attr sp "skipped_blocks" (Dr_obs.Obs.Int !skipped);
  Dr_obs.Obs.add_attr sp "total_blocks" (Dr_obs.Obs.Int lp.Lp.num_blocks);
  Dr_obs.Obs.add_attr sp "slice_size" (Dr_obs.Obs.Int (Array.length positions));
  Dr_obs.Metrics.observe h_slice_size (float_of_int (Array.length positions));
  { gt; criterion; positions; edges;
    stats =
      { visited = !visited; skipped_blocks = !skipped;
        total_blocks = lp.Lp.num_blocks; slice_time; truncated = !truncated };
    adj = None }

(* ---- resource-governed slicing: the degradation ladder ---- *)

type rung = Rung_indexed | Rung_scan

let rung_name = function Rung_indexed -> "indexed" | Rung_scan -> "scan"

type governed = {
  g_slice : t;
  g_rung : rung;  (** the driver actually used *)
}

(** Rough resident bytes of [Lp.prepare] (the definition index) — the
    quantity {!compute_governed} tests against the memory budget before
    committing to the indexed rung. *)
let index_estimate_bytes gt = 40 * Global_trace.length gt

(** Compute the slice under [budget], stepping down the degradation
    ladder instead of dying when a budget trips:

    + {e indexed} (the default driver) when the definition index fits
      the remaining memory budget;
    + {e scan} with an {!Lp.prepare_lite} skeleton (O(1) preprocessing
      memory) when it does not;
    + on either rung, a {e partial} slice honestly marked
      [stats.truncated] when the budget's wall-clock watchdog fires.

    Every step down is recorded in the budget's degradation list and the
    [slicer.degraded_to_scan] / [slicer.truncated_slices] metrics.  Pass
    [lp] to reuse an index already paid for — that skips the memory
    check (the memory is already spent). *)
let compute_governed ?lp ?pairs ~(budget : Dr_util.Budget.t)
    (gt : Global_trace.t) (criterion : criterion) : governed =
  let watchdog = Dr_util.Budget.watchdog_of budget ~what:"slicer.compute" in
  let rung, lp =
    match lp with
    | Some l -> (Rung_indexed, l)
    | None ->
      if Dr_util.Budget.mem_would_exceed budget ~bytes:(index_estimate_bytes gt)
      then begin
        Dr_obs.Metrics.bump m_degraded;
        Dr_util.Budget.note_degradation budget ~what:"slicer"
          ~from_:"indexed" ~to_:"scan"
          ~reason:
            (Printf.sprintf "definition index (~%d bytes) over memory budget"
               (index_estimate_bytes gt));
        (Rung_scan, Lp.prepare_lite gt)
      end
      else (Rung_indexed, Lp.prepare gt)
  in
  let driver = match rung with Rung_indexed -> `Indexed | Rung_scan -> `Scan in
  let slice = compute ~lp ?pairs ?watchdog ~driver gt criterion in
  if slice.stats.truncated then
    Dr_util.Budget.note_degradation budget ~what:"slicer"
      ~from_:(rung_name rung) ~to_:"partial"
      ~reason:"wall-clock budget expired mid-traversal";
  { g_slice = slice; g_rung = rung }

(* ---- derived views ---- *)

(* the chunk and gseq of the record at merge position [pos] *)
let row t pos =
  let g = Global_trace.gseq_at t.gt pos in
  (Segment_store.chunk t.gt.Global_trace.records g, g)

(** The slice as (tid, pc, instance) statements, in trace order. *)
let statements t =
  Array.map
    (fun pos ->
      let c, g = row t pos in
      Segment_store.Chunk.(tid c g, pc c g, instance c g))
    t.positions

(** Distinct source lines touched by the slice (for GUI highlighting). *)
let source_lines prog t =
  let lines = Hashtbl.create 32 in
  Array.iter
    (fun pos ->
      let c, g = row t pos in
      let line = Trace.line_of_pc prog (Segment_store.Chunk.pc c g) in
      if line >= 0 then Hashtbl.replace lines line ())
    t.positions;
  List.sort Int.compare (Hashtbl.fold (fun l () acc -> l :: acc) lines [])

(* Build the per-endpoint edge index once; iterating backwards with
   prepends keeps each bucket in edge-array order, matching what the
   old whole-array filter returned. *)
let adjacency t =
  match t.adj with
  | Some a -> a
  | None ->
    Dr_obs.Metrics.bump m_adj_builds;
    let by_from = Hashtbl.create 64 and by_to = Hashtbl.create 64 in
    let prepend tbl key i =
      match Hashtbl.find_opt tbl key with
      | Some is -> Hashtbl.replace tbl key (i :: is)
      | None -> Hashtbl.replace tbl key [ i ]
    in
    for i = Array.length t.edges - 1 downto 0 do
      prepend by_from t.edges.(i).from_pos i;
      prepend by_to t.edges.(i).to_pos i
    done;
    let a = { by_from; by_to } in
    t.adj <- Some a;
    a

(** Dependence edges out of the record at [pos] (what it depends on), for
    backwards navigation in the slice browser.  Indexed: one hash lookup
    after the adjacency is built. *)
let deps_of t pos =
  match Hashtbl.find_opt (adjacency t).by_from pos with
  | None -> []
  | Some idxs ->
    List.map
      (fun i ->
        let e = t.edges.(i) in
        (e.kind, e.to_pos))
      idxs

(** Records that depend on [pos] (forward navigation).  Indexed. *)
let uses_of t pos =
  match Hashtbl.find_opt (adjacency t).by_to pos with
  | None -> []
  | Some idxs ->
    List.map
      (fun i ->
        let e = t.edges.(i) in
        (e.kind, e.from_pos))
      idxs

let pp_kind fmt = function
  | Data l -> Format.fprintf fmt "data(%s)" (Dr_isa.Loc.to_string l)
  | Data_bypassed l -> Format.fprintf fmt "data*(%s)" (Dr_isa.Loc.to_string l)
  | Control -> Format.pp_print_string fmt "control"

(* ---- slice files ---- *)

let slice_file_header = "# drdebug slice v1"

(** A slice file failed to parse: the 1-based line number and the reason. *)
exception Slice_file_error of { sf_line : int; sf_reason : string }

let slice_file_error sf_line sf_reason =
  raise (Slice_file_error { sf_line; sf_reason })

(** Save in the paper's "normal slice file" form: statements plus
    dependence edges, usable across debug sessions.  The write is atomic
    (tmp + fsync + rename): a crash mid-save cannot clobber a good file. *)
let save_file prog path t =
  Dr_util.Atomic_file.with_out path
    (fun oc ->
      Printf.fprintf oc "%s\n" slice_file_header;
      let c, g = row t t.criterion.crit_pos in
      Printf.fprintf oc "criterion %d %d %d\n" (Segment_store.Chunk.tid c g)
        (Segment_store.Chunk.pc c g) (Segment_store.Chunk.instance c g);
      Array.iter
        (fun pos ->
          let c, g = row t pos in
          let pc = Segment_store.Chunk.pc c g in
          Printf.fprintf oc "stmt %d %d %d %d\n" (Segment_store.Chunk.tid c g)
            pc (Segment_store.Chunk.instance c g) (Trace.line_of_pc prog pc))
        t.positions;
      Array.iter
        (fun e ->
          let kind, loc =
            match e.kind with
            | Data l -> ("data", l)
            | Data_bypassed l -> ("data*", l)
            | Control -> ("control", -1)
          in
          Printf.fprintf oc "edge %d %d %s %d\n" e.from_pos e.to_pos kind loc)
        t.edges)

(** Statements read back from a slice file: (tid, pc, instance, line).

    The header line is validated and malformed [stmt] lines raise
    {!Slice_file_error} — a corrupted slice file fails loudly instead of
    silently dropping statements.
    @raise Slice_file_error on a missing header or unparseable statement. *)
let load_file_statements path : (int * int * int * int) list =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (match In_channel.input_line ic with
      | Some h when String.trim h = slice_file_header -> ()
      | Some h ->
        slice_file_error 1 (Printf.sprintf "bad slice file header %S" h)
      | None -> slice_file_error 1 "empty slice file");
      let int_field lineno what s =
        match int_of_string_opt s with
        | Some v -> v
        | None ->
          slice_file_error lineno (Printf.sprintf "bad %s field %S" what s)
      in
      let stmts = ref [] in
      let lineno = ref 1 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match String.split_on_char ' ' line with
           | [ "stmt"; tid; pc; inst; ln ] ->
             stmts :=
               (int_field !lineno "tid" tid, int_field !lineno "pc" pc,
                int_field !lineno "instance" inst, int_field !lineno "line" ln)
               :: !stmts
           | "stmt" :: _ ->
             slice_file_error !lineno "stmt line does not have 4 fields"
           | _ -> ()
         done
       with End_of_file -> ());
      List.rev !stmts)
