(** Backwards dynamic slicing over the combined global trace (paper
    §3(iii), §5.2).

    Starting from a criterion, the slicer walks the global trace
    backwards recovering data dependences (most recent earlier definition
    of each wanted location) and control dependences (the [cd] pointers,
    transitively).  The default {e indexed} driver jumps between
    candidate positions found by binary search in the {!Def_index}; the
    {e scan} driver walks every position, skipping {!Lp} blocks that
    define no wanted location.  Both produce the same positions and
    edges (edge array order is unspecified; compare with {!equal}).
    With save/restore [pairs], wanted registers satisfied by a confirmed
    restore are bypassed: the search resumes below the matching save
    and a direct edge to the true definition is recorded. *)

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
      (** specific {!Dr_isa.Loc} encodings to chase; [None] = the
          record's own uses *)
}

type stats = {
  visited : int;  (** records examined *)
  skipped_blocks : int;
  total_blocks : int;
  slice_time : float;  (** wall-clock seconds *)
  truncated : bool;
      (** a watchdog stopped the traversal early: the positions are a
          sound {e subset} of the full slice, honestly marked partial *)
}

(** Edge adjacency index, built lazily for {!deps_of}/{!uses_of}. *)
type adjacency

type t = {
  gt : Global_trace.t;
  criterion : criterion;
  positions : int array;  (** included positions, ascending *)
  edges : edge array;
  stats : stats;
  mutable adj : adjacency option;  (** managed internally *)
}

(** Number of trace records in the slice. *)
val size : t -> int

(** Same positions and the same edge multiset — the agreement every
    driver guarantees.  Stats are not compared. *)
val equal : t -> t -> bool

(** Is the record at this global-trace position in the slice? *)
val mem : t -> int -> bool

(** The traversal backend: [`Indexed] jumps between candidate
    positions via the {!Def_index}; [`Scan_skip] walks every position
    backwards with LP block skipping, [`Scan] without it (the LP
    ablation); [`Reexec rx] answers every record lookup by on-demand
    re-execution from checkpoints ({!Reexec}) — only the trace's merge
    order is consulted, never its stored records. *)
type driver = [ `Indexed | `Scan_skip | `Scan | `Reexec of Reexec.t ]

(** Compute the slice.  [lp]: reuse a precomputed block geometry and
    definition index.  [pairs]: enable save/restore bypassing (§5.2).
    [watchdog]: polled wall-clock deadline; on expiry the traversal
    stops and the result is marked [stats.truncated].  [driver]
    (default [`Indexed]) picks the traversal; the slice is identical on
    every driver. *)
val compute :
  ?lp:Lp.t ->
  ?pairs:Prune.pairs ->
  ?watchdog:Dr_util.Budget.watchdog ->
  ?driver:driver ->
  Global_trace.t ->
  criterion ->
  t

(** {2 Resource-governed slicing} *)

(** The rung of the degradation ladder a governed slice ran on. *)
type rung = Rung_indexed | Rung_scan

val rung_name : rung -> string

type governed = {
  g_slice : t;
  g_rung : rung;  (** the driver actually used *)
}

(** Rough resident bytes {!Lp.prepare} would allocate for this trace —
    what {!compute_governed} tests against the memory budget. *)
val index_estimate_bytes : Global_trace.t -> int

(** Compute the slice under [budget], degrading instead of dying:
    indexed driver when the definition index fits the remaining memory
    budget, scan driver over an {!Lp.prepare_lite} skeleton when it does
    not, and on either rung a partial slice marked [stats.truncated]
    when the budget's wall-clock watchdog fires.  Degradations are
    recorded in the budget and mirrored to metrics.  [lp] skips the
    memory check (an existing index is already-spent memory). *)
val compute_governed :
  ?lp:Lp.t ->
  ?pairs:Prune.pairs ->
  budget:Dr_util.Budget.t ->
  Global_trace.t ->
  criterion ->
  governed

(** The slice as (tid, pc, instance) statements, in trace order. *)
val statements : t -> (int * int * int) array

(** Distinct source lines touched by the slice, sorted (for
    highlighting), read from the sliced program's debug info. *)
val source_lines : Dr_isa.Program.t -> t -> int list

(** Dependence edges out of the record at [pos] — what it depends on
    (backwards navigation).  One hash lookup once the lazy adjacency
    index is built. *)
val deps_of : t -> int -> (dep_kind * int) list

(** Records that depend on [pos] (forward navigation).  Indexed. *)
val uses_of : t -> int -> (dep_kind * int) list

val pp_kind : Format.formatter -> dep_kind -> unit

(** A slice file failed to parse: the 1-based line number and the reason. *)
exception Slice_file_error of { sf_line : int; sf_reason : string }

(** Save in the paper's "normal slice file" form (statements plus
    dependence edges), reusable across debug sessions; each statement's
    source line comes from the sliced program's debug info.  The write
    is atomic (tmp + fsync + rename). *)
val save_file : Dr_isa.Program.t -> string -> t -> unit

(** Statements read back from a slice file: (tid, pc, instance, line).
    @raise Slice_file_error on a missing/bad header or a malformed
    [stmt] line. *)
val load_file_statements : string -> (int * int * int * int) list
