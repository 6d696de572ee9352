(** Limited Preprocessing (LP) block summaries for fast backwards
    traversal (Zhang et al. [33], paper §3(iii)).

    The global trace is divided into fixed-size blocks, each summarised
    by the set of locations it defines; the slicer skips whole blocks
    whose summary can satisfy no wanted location.  Summaries are
    criterion-independent: prepare once per global trace and reuse for
    every slice. *)

val default_block_size : int

type t = {
  block_size : int;
  num_blocks : int;
  summaries : int array array;
      (** per block: sorted distinct defined locations *)
  index : Def_index.t;
      (** per-location definition index the summaries derive from *)
}

(** Prepare summaries + definition index: one sequential pass over the
    trace ({!Def_index.build}), then one over the index. *)
val prepare : ?block_size:int -> Global_trace.t -> t

(** A degraded LP with correct block geometry but empty summaries and an
    empty index, built in O(1) memory.  Only valid for the [`Scan] and
    [`Reexec] drivers (which consult neither) — the memory-budget rung
    of {!Slicer.compute_governed}. *)
val prepare_lite : ?block_size:int -> Global_trace.t -> t

(** The per-location definition index built by {!prepare}. *)
val def_index : t -> Def_index.t

(** Block containing the given trace position. *)
val block_of : t -> int -> int

(** Inclusive (lo, hi) position range of a block. *)
val block_range : t -> int -> int * int

(** Does the block define [loc]? *)
val defines : t -> block:int -> loc:int -> bool

(** Can the block satisfy any currently wanted location?  Iterates the
    smaller of the two sets, stopping at the first hit. *)
val may_satisfy : t -> block:int -> wanted:(int, 'a) Hashtbl.t -> bool
