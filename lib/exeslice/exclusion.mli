(** Code-exclusion region construction from a dynamic slice (paper §4,
    Fig. 6a).

    Per thread, maximal runs of non-slice records become exclusion
    regions.  Synchronization instructions and thread-final returns are
    always kept: their effects (thread creation, lock state, heap growth)
    are not expressible as memory/register injections. *)

type stats = {
  total_records : int;
  included_records : int;  (** slice + forced sync instructions *)
  excluded_records : int;
  regions : int;
}

(** Is the record with this gseq kept regardless of slice membership? *)
val forced : Dr_slicing.Segment_store.t -> int -> bool

(** Build the exclusion regions for [slice] over the collector's
    per-thread traces. *)
val build :
  slice:Dr_slicing.Slicer.t ->
  collector:Dr_slicing.Collector.result ->
  Dr_pinplay.Relogger.exclusion list * stats

(** One-call pipeline: slice -> exclusion regions -> relogged slice
    pinball.
    @raise Dr_pinplay.Relogger.Relog_error if a forced instruction was
    somehow excluded (a builder invariant violation). *)
val slice_pinball :
  Dr_isa.Program.t ->
  Dr_pinplay.Pinball.t ->
  slice:Dr_slicing.Slicer.t ->
  collector:Dr_slicing.Collector.result ->
  Dr_pinplay.Pinball.t * stats
