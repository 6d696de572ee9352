(** Code exclusion from a dynamic slice (paper §4, Fig. 6a).

    A slice pinball keeps the slice's records plus the forced ones:
    synchronization instructions and thread-final returns, whose effects
    (thread creation, lock state, heap growth) are not expressible as
    memory/register injections.  The relogger takes that keep-set over
    gseq; this module alone derives the paper's exclusion regions from
    it ({!build}) and reads them back ({!kept_by}). *)

type stats = {
  total_records : int;
  included_records : int;  (** slice + forced sync instructions *)
  excluded_records : int;
  regions : int;
}

(** One per-thread exclusion region
    [[startPc:sinstance, endPc:einstance)]: the start instruction is the
    first excluded, the end instruction the first included again.
    Instances are 1-based per (thread, pc), counted from the region
    start (the trace records' [instance]).  The interval is half-open: a
    region whose end marker equals its start ([p:i, p:i)) is empty and
    excludes nothing. *)
type region = {
  x_tid : int;
  x_start_pc : int;
  x_start_instance : int;
  x_end : (int * int) option;  (** [None] = excluded through region end *)
}

(** Is the record with this gseq kept regardless of slice membership?
    Its flag bits were set by {!Dr_pinplay.Relogger.forced}, the rule
    the relogger enforces. *)
val forced : Dr_slicing.Segment_store.t -> int -> bool

(** The gseqs a slice pinball keeps: the slice's and the forced ones. *)
val keep :
  slice:Dr_slicing.Slicer.t ->
  collector:Dr_slicing.Collector.result ->
  Dr_util.Bitset.t

(** The paper's exclusion regions for [slice]: per thread, the maximal
    runs of records outside {!keep}, in region order. *)
val build :
  slice:Dr_slicing.Slicer.t ->
  collector:Dr_slicing.Collector.result ->
  region list * stats

(** The gseqs [regions] keep: walking each thread's records in order, a
    region's start marker turns exclusion on (that record is excluded)
    and its end marker turns it off (that record is kept).  [Error r]
    names a bounded region whose end marker never came. *)
val kept_by :
  collector:Dr_slicing.Collector.result ->
  region list ->
  (Dr_util.Bitset.t, region) result

(** One-call pipeline: slice -> keep-set -> relogged slice pinball.
    @raise Dr_pinplay.Relogger.Relog_error if a forced instruction was
    somehow excluded (a builder invariant violation). *)
val slice_pinball :
  Dr_isa.Program.t ->
  Dr_pinplay.Pinball.t ->
  slice:Dr_slicing.Slicer.t ->
  collector:Dr_slicing.Collector.result ->
  Dr_pinplay.Pinball.t * stats
