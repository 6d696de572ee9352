(** Trace collection during deterministic replay (paper §3(i), §5).

    Attaches to a replay of a region pinball and records per-instruction
    def/use sets, online dynamic control dependences (Xin–Zhang, driven
    by {!Dr_cfg.Cfg} post-dominators), shared-memory access-order edges,
    dynamically observed indirect-jump targets, and confirmed
    save/restore pairs.  With [refine] (§5.1) collection runs twice:
    pass 1 gathers indirect-jump targets, the CFG is refined, pass 2
    collects the precise trace — sound because replay is deterministic.
    The indirect-target pass runs only when the program has indirect
    jumps or calls; without them its table is provably empty. *)

type result = {
  records : Segment_store.t;  (** indexed by gseq = execution order *)
  per_thread : int array array;  (** tid -> gseqs in program order *)
  order_edges : (int * int) array;
      (** (earlier gseq, later gseq) cross-thread RAW/WAW/WAR edges *)
  indirect_targets : (int * int list) list;
      (** observed targets per indirect jump/call pc *)
  pairs : Prune.pairs;  (** confirmed save/restore pairs *)
  cfg : Dr_cfg.Cfg.t;  (** the CFG used in the final pass *)
}

(** The record-derivation state machine shared between collection and
    on-demand re-execution ({!Reexec}): Xin–Zhang control-dependence
    stacks and per-(tid, pc) instance counters.  The state is prefix-dependent, so a checkpoint
    that wants to resume derivation mid-trace carries a {!Derive.copy}
    taken at the same event boundary as the machine snapshot.  Both
    users call {!Derive.next} exactly once per retired instruction, in
    execution order, writing one row into a {!Segment_store.Chunk} —
    field-identical rows follow from replay determinism plus this
    shared core. *)
module Derive : sig
  type t

  (** Fresh state for a replay from the region start.  [cfg] must be
      the (refined) CFG the records' control dependences should be
      computed against. *)
  val create : cfg:Dr_cfg.Cfg.t -> Dr_isa.Program.t -> t

  (** Deep copy, safe to advance independently of the original. *)
  val copy : t -> t

  (** Derive the trace record of a retired instruction, append it to
      the chunk as row [base + length] (its gseq) and advance the
      state.  Allocation-free unless the chunk's location pool grows. *)
  val next : t -> Segment_store.Chunk.t -> Dr_machine.Event.t -> unit
end

(** Pass-1 helper: the dynamically observed targets of every indirect
    jump/call in the region.  Returns an empty table without replaying
    when the program has no indirect jump or call. *)
val collect_indirect_targets :
  Dr_isa.Program.t -> Dr_pinplay.Pinball.t -> (int, int list) Hashtbl.t

(** Collect the full region trace.  [refine] (default true) enables the
    two-pass CFG refinement of §5.1; [max_save] is the save/restore
    candidate window of §5.2.  With [budget], records past the memory
    budget spill to disk in segments and the wall-clock watchdog aborts collection
    with a structured {!Dr_util.Budget.Resource_error} (a partial trace
    is useless). *)
val collect :
  ?refine:bool ->
  ?max_save:int ->
  ?budget:Dr_util.Budget.t ->
  Dr_isa.Program.t ->
  Dr_pinplay.Pinball.t ->
  result
