(** Limited Preprocessing (LP) block skipping for fast backwards
    traversal (Zhang et al. [33], paper §3(iii)).

    The global trace is divided into fixed-size blocks; the slicer skips
    a whole block when it defines none of the wanted locations, which is
    a range query on the per-location {!Def_index} over the block's
    positions.  The index is criterion-independent: prepare once per
    global trace and reuse for every slice. *)

val default_block_size : int

type t = {
  block_size : int;
  num_blocks : int;
  index : Def_index.t;
      (** per-location definition index the block queries read *)
}

(** Block geometry plus {!Def_index.build}: one sequential pass over
    the trace. *)
val prepare : ?block_size:int -> Global_trace.t -> t

(** A degraded LP with correct block geometry but an empty index, built
    in O(1) memory.  Only valid for the [`Scan] and [`Reexec] drivers
    (which never consult the index) — the memory-budget rung of
    {!Slicer.compute_governed}. *)
val prepare_lite : ?block_size:int -> Global_trace.t -> t

(** The per-location definition index built by {!prepare}. *)
val def_index : t -> Def_index.t

(** Block containing the given trace position. *)
val block_of : t -> int -> int

(** Inclusive (lo, hi) position range of a block. *)
val block_range : t -> int -> int * int

(** Does the block define [loc]? *)
val defines : t -> block:int -> loc:int -> bool

(** Can the block satisfy any currently wanted location?  Asks
    {!defines} for each wanted location, stopping at the first hit. *)
val may_satisfy : t -> block:int -> wanted:(int, 'a) Hashtbl.t -> bool
