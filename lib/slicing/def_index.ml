(** Per-location definition index over the combined global trace.

    For every {!Dr_isa.Loc} encoding that is ever defined in the trace,
    the index stores the ascending array of merge positions whose record
    defines it.  Built in one pass over the trace (positions are visited
    in ascending order, so the per-location arrays come out sorted for
    free) and shared by {!Lp} (whose block skipping asks whether a
    location is defined inside a block) and the indexed {!Slicer} fast
    path, which resolves "the most recent definition of [loc] at or
    before [pos]" with one binary search instead of a linear backwards
    scan. *)

let m_builds = Dr_obs.Metrics.counter "def_index.builds"
let m_locations = Dr_obs.Metrics.counter "def_index.locations"
let m_defs = Dr_obs.Metrics.counter "def_index.def_positions"
let m_lookups = Dr_obs.Metrics.counter "def_index.lookups"

type t = {
  defs_by_loc : (int, int array) Hashtbl.t;
      (** location -> ascending positions of records defining it *)
  trace_len : int;
}

(** Build the index in one ascending pass over the trace: positions
    are visited in order, so each location's vector comes out sorted. *)
let build (gt : Global_trace.t) : t =
  Dr_obs.Metrics.bump m_builds;
  Dr_obs.Obs.with_span ~cat:"slice" "def_index.build" @@ fun _ ->
  let n = Global_trace.length gt in
  let records = gt.Global_trace.records in
  let acc : (int, Dr_util.Vec.Int_vec.t) Hashtbl.t = Hashtbl.create 256 in
  let pos = ref 0 in
  let add d =
    match Hashtbl.find_opt acc d with
    | Some v -> Dr_util.Vec.Int_vec.push v !pos
    | None ->
      let v = Dr_util.Vec.Int_vec.create () in
      Dr_util.Vec.Int_vec.push v !pos;
      Hashtbl.replace acc d v
  in
  for p = 0 to n - 1 do
    pos := p;
    Segment_store.iter_defs records (Global_trace.gseq_at gt p) add
  done;
  let defs_by_loc = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter
    (fun loc v ->
      let a = Dr_util.Vec.Int_vec.to_array v in
      Dr_obs.Metrics.add m_defs (Array.length a);
      Hashtbl.replace defs_by_loc loc a)
    acc;
  Dr_obs.Metrics.add m_locations (Hashtbl.length defs_by_loc);
  { defs_by_loc; trace_len = n }

(** An index with no entries — the scan-driver degradation rung uses it
    so {!Lp.prepare_lite} can skip the index build entirely. *)
let empty ~trace_len = { defs_by_loc = Hashtbl.create 1; trace_len }

let trace_len t = t.trace_len

let num_locations t = Hashtbl.length t.defs_by_loc

let positions t ~loc =
  match Hashtbl.find_opt t.defs_by_loc loc with Some a -> a | None -> [||]

(* The latest definition of [loc] at or before [pos], or [-1]: one
   binary search in the location's def array. *)
let latest t ~loc ~pos : int =
  match Hashtbl.find_opt t.defs_by_loc loc with
  | None -> -1
  | Some a ->
    let len = Array.length a in
    if len = 0 || a.(0) > pos then -1
    else begin
      (* invariant: a.(lo) <= pos; answer is the last such element *)
      let lo = ref 0 and hi = ref (len - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if a.(mid) <= pos then lo := mid else hi := mid - 1
      done;
      a.(!lo)
    end

(** Position of the latest definition of [loc] at or before [pos], or
    [-1] when none exists.  Counted in [def_index.lookups]. *)
let latest_at_or_before t ~loc ~pos : int =
  Dr_obs.Metrics.bump m_lookups;
  latest t ~loc ~pos

(** Does some record in positions [lo..hi] define [loc]?  Not counted
    in [def_index.lookups], which counts the indexed driver's searches
    only. *)
let defined_in t ~loc ~lo ~hi = latest t ~loc ~pos:hi >= lo

let iter t f = Hashtbl.iter (fun loc a -> f loc a) t.defs_by_loc
