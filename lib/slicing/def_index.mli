(** Per-location definition index over the combined global trace.

    Maps each defined {!Dr_isa.Loc} encoding to the ascending array of
    global-trace positions whose record defines it.  Built once per
    trace ({!build} is criterion-independent) and shared by {!Lp}
    (block skipping: {!defined_in} over a block's positions) and the
    indexed {!Slicer} fast path, which finds "the most recent
    definition of [loc] at or before [pos]" by binary search instead of
    a linear backwards scan. *)

type t

(** Build the index in one ascending pass over the trace. *)
val build : Global_trace.t -> t

(** An index with no entries, built in O(1) — for {!Lp.prepare_lite},
    the scan-only degradation rung that never consults it. *)
val empty : trace_len:int -> t

(** Length of the trace the index was built over. *)
val trace_len : t -> int

(** Number of distinct locations with at least one definition. *)
val num_locations : t -> int

(** Ascending positions of records defining [loc]; [[||]] when none.
    The returned array is owned by the index — do not mutate. *)
val positions : t -> loc:int -> int array

(** Position of the latest definition of [loc] at or before [pos], or
    [-1] when none exists.  Counted in the [def_index.lookups] metric. *)
val latest_at_or_before : t -> loc:int -> pos:int -> int

(** Does some record in positions [lo..hi] (inclusive) define [loc]?
    Not counted in [def_index.lookups]. *)
val defined_in : t -> loc:int -> lo:int -> hi:int -> bool

(** Iterate over (location, ascending def positions) pairs, in
    unspecified order. *)
val iter : t -> (int -> int array -> unit) -> unit
