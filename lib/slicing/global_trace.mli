(** Combined global trace construction (paper §3(ii)): a topological
    merge of the per-thread traces under program order and the
    shared-memory access order, greedily clustering runs from the same
    thread for LP locality. *)

type t = {
  records : Segment_store.t;  (** shared with the collector result *)
  order : int array;  (** position -> gseq *)
  pos_of_gseq : int array;  (** gseq -> position *)
}

(** One blocked per-thread head at the moment the merge stalled. *)
type cycle_head = {
  ch_tid : int;
  ch_gseq : int;
  ch_pc : int;
  ch_indeg : int;  (** unsatisfied incoming access-order edges *)
}

type cycle_info = {
  cy_emitted : int;  (** records merged before the stall *)
  cy_total : int;
  cy_heads : cycle_head list;  (** the offending record window *)
}

(** The access-order edges are cyclic — cannot happen for edges collected
    from a real execution; carries the blocked record window. *)
exception Cycle of cycle_info

val cycle_message : cycle_info -> string

(** Merge per-thread traces under the collector's cross-thread edges.
    [cluster] (default true) applies the paper's locality heuristic;
    disabling it rotates threads every record (ablation only — any
    topological order yields the same slices). *)
val construct : ?cluster:bool -> Collector.result -> t

val length : t -> int

(** Record at merge position [pos], as a view built on each call (for
    printing, oracles and tests; hot paths read the columns through
    {!gseq_at} and the [Segment_store] accessors).  Spilled traces go
    through the segment cache, which can raise
    {!Dr_util.Budget.Resource_error} on a corrupt segment. *)
val record : t -> int -> Trace.record

(** Merge position of the record with the given gseq. *)
val position : t -> gseq:int -> int

(** Global sequence number of the record at merge position [pos] — the
    inverse of {!position}. *)
val gseq_at : t -> int -> int

(** Check the order against program order and the collector's
    cross-thread edges (used by tests). *)
val is_topological : t -> Collector.result -> bool

(** Position of the last record satisfying [p], if any: a backwards
    scan. *)
val find_last : t -> p:(Trace.record -> bool) -> int option

(** The default slicing criterion's position: the last record whose
    instruction is a print (a value-bearing statement, as when slicing
    at a failure point), or the last record when no print ran; [-1] on
    an empty trace.  [drdebug_cli slice] and the conformance oracles
    slice here. *)
val last_print_pos : Dr_isa.Program.t -> t -> int
