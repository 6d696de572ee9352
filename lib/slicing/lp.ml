(** Limited Preprocessing (LP) for fast backwards traversal (Zhang et
    al. [33], used in paper §3(iii)).

    The global trace is divided into fixed-size blocks; for each block a
    summary of the locations it defines is precomputed.  The backwards
    slice traversal can then skip a whole block when the summary proves
    the block can satisfy none of the currently wanted locations and no
    pending control-dependence target lies inside it.

    Since PR 2, [prepare] first builds the per-location {!Def_index}
    and derives the block summaries from it: each location's ascending
    def-position array visits every block at most in runs, so one pass
    per location yields the distinct (location, block) pairs without a
    dedup pass over raw defs.  The index rides along in [t] and powers
    the indexed {!Slicer} fast path. *)

let default_block_size = 4096

let m_may_satisfy = Dr_obs.Metrics.counter "lp.may_satisfy_checks"

type t = {
  block_size : int;
  num_blocks : int;
  (* per block: sorted array of distinct defined locations *)
  summaries : int array array;
  index : Def_index.t;
}

(** [prepare] builds the {!Def_index} in one pass over the trace, then
    derives the summaries in one pass over the index. *)
let prepare ?(block_size = default_block_size) (gt : Global_trace.t) : t =
  Dr_obs.Obs.with_span ~cat:"slice" "lp.prepare" @@ fun _ ->
  let n = Global_trace.length gt in
  let num_blocks = (n + block_size - 1) / block_size in
  let index = Def_index.build gt in
  let accs =
    Array.init num_blocks (fun _ -> Dr_util.Vec.Int_vec.create ())
  in
  (* Each location contributes once to every block containing one of
     its defs; its positions are ascending, so a block change in the
     walk below is a first visit. *)
  Def_index.iter index (fun loc positions ->
      let last_block = ref (-1) in
      Array.iter
        (fun pos ->
          let b = pos / block_size in
          if b <> !last_block then begin
            last_block := b;
            Dr_util.Vec.Int_vec.push accs.(b) loc
          end)
        positions);
  let summaries =
    Array.map
      (fun acc ->
        let a = Dr_util.Vec.Int_vec.to_array acc in
        Array.sort Int.compare a;
        a)
      accs
  in
  { block_size; num_blocks; summaries; index }

(** A degraded LP: correct block geometry but {e empty} summaries and an
    empty {!Def_index} — built in O(1) memory.  Only valid for the
    [`Scan] and [`Reexec] drivers, which never consult either; the
    memory-budget degradation rung in {!Slicer.compute_governed} uses it
    when the full index would not fit. *)
let prepare_lite ?(block_size = default_block_size) (gt : Global_trace.t) : t =
  let n = Global_trace.length gt in
  let num_blocks = (n + block_size - 1) / block_size in
  { block_size; num_blocks;
    summaries = Array.make num_blocks [||];
    index = Def_index.empty ~trace_len:n }

let def_index t = t.index

let block_of t pos = pos / t.block_size

let block_range t b =
  (b * t.block_size, ((b + 1) * t.block_size) - 1)

(** Does block [b] define location [loc]?  Binary search in the summary. *)
let defines t ~block ~loc =
  let a = t.summaries.(block) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = loc then found := true
    else if v < loc then lo := mid + 1
    else hi := mid - 1
  done;
  !found

exception Found

(** Can block [b] satisfy any of [wanted]?  Iterates over the smaller of
    the wanted set and the block summary, stopping at the first hit. *)
let may_satisfy t ~block ~(wanted : (int, 'a) Hashtbl.t) : bool =
  Dr_obs.Metrics.bump m_may_satisfy;
  let summary = t.summaries.(block) in
  let nw = Hashtbl.length wanted in
  if nw = 0 then false
  else if nw <= Array.length summary then (
    try
      Hashtbl.iter
        (fun loc _ -> if defines t ~block ~loc then raise_notrace Found)
        wanted;
      false
    with Found -> true)
  else Array.exists (fun loc -> Hashtbl.mem wanted loc) summary
