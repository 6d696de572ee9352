(** Limited Preprocessing (LP) for fast backwards traversal (Zhang et
    al. [33], used in paper §3(iii)).

    The global trace is divided into fixed-size blocks.  The backwards
    slice traversal can skip a whole block when no location it still
    wants is defined inside the block and no pending control-dependence
    target lies inside it.  "Is [loc] defined in this block" is one
    range query on the per-location {!Def_index}, which rides along in
    [t] and also powers the indexed {!Slicer} fast path. *)

let default_block_size = 4096

let m_may_satisfy = Dr_obs.Metrics.counter "lp.may_satisfy_checks"

type t = {
  block_size : int;
  num_blocks : int;
  index : Def_index.t;
}

let prepare ?(block_size = default_block_size) (gt : Global_trace.t) : t =
  Dr_obs.Obs.with_span ~cat:"slice" "lp.prepare" @@ fun _ ->
  let n = Global_trace.length gt in
  { block_size; num_blocks = (n + block_size - 1) / block_size;
    index = Def_index.build gt }

(** A degraded LP: correct block geometry but an {e empty}
    {!Def_index} — built in O(1) memory.  Only valid for the [`Scan]
    and [`Reexec] drivers, which never consult it; the memory-budget
    degradation rung in {!Slicer.compute_governed} uses it when the
    full index would not fit. *)
let prepare_lite ?(block_size = default_block_size) (gt : Global_trace.t) : t =
  let n = Global_trace.length gt in
  { block_size; num_blocks = (n + block_size - 1) / block_size;
    index = Def_index.empty ~trace_len:n }

let def_index t = t.index

let block_of t pos = pos / t.block_size

let block_range t b =
  (b * t.block_size, ((b + 1) * t.block_size) - 1)

(** Does block [b] define location [loc]?  One range query on the
    index over the whole block. *)
let defines t ~block ~loc =
  let lo, hi = block_range t block in
  Def_index.defined_in t.index ~loc ~lo ~hi

exception Found

(** Can block [b] satisfy any of [wanted]?  Stops at the first wanted
    location the block defines. *)
let may_satisfy t ~block ~(wanted : (int, 'a) Hashtbl.t) : bool =
  Dr_obs.Metrics.bump m_may_satisfy;
  try
    Hashtbl.iter
      (fun loc _ -> if defines t ~block ~loc then raise_notrace Found)
      wanted;
    false
  with Found -> true
