(** The PinPlay relogger: replay a region pinball while {e excluding} code,
    producing a slice pinball (paper §4, Fig. 4b).

    The code to keep is given as a set over gseq: the k-th instruction
    the region's replay retires (all threads, in replay order) is gseq k,
    the same numbering as the slicer's trace records.  While a thread
    runs excluded code, side-effect detection records the memory cells
    and registers it modifies; at the thread's next kept instruction, an
    injection record restoring those values is emitted — the same
    mechanism PinPlay uses for system-call side effects.  The paper's
    [[startPc:sinstance, endPc:einstance)] exclusion regions are derived
    from the same set by [Dr_exeslice.Exclusion]. *)

(** Whether an instruction must stay in every slice pinball, and why: a
    synchronization effect
    (spawn/join/lock/unlock/exit/alloc/wait/signal) or a return that
    finishes its thread.  Their effects (thread creation, lock state,
    heap growth, thread exit) are not memory/register injections. *)
type forced = Not_forced | Forced_sync | Forced_final_ret

(** The one forced-instruction rule: {!relog} rejects a keep-set that
    excludes a forced instruction, and the Collector flags forced
    records so the slice's keep-set includes them.  Allocation-free. *)
val forced : Dr_machine.Event.t -> forced

(** The keep-set is not replayable as-is: it excludes a {!forced}
    instruction. *)
exception Relog_error of string

(** Replay [pinball] (a region pinball) and produce the slice pinball
    that retires exactly the instructions whose gseq is in [keep].
    @raise Invalid_argument if [pinball] is not a region pinball or
    [Bitset.length keep] is not its instruction count
    ({!Pinball.schedule_instructions}).
    @raise Relog_error per the exception's documentation. *)
val relog :
  Dr_isa.Program.t -> Pinball.t -> keep:Dr_util.Bitset.t -> Pinball.t
