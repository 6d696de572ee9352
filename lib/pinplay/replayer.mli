(** The PinPlay replayer: deterministically re-execute a region pinball
    (paper Fig. 2, phase 2).

    Replays restore the snapshot, drive threads with the recorded
    schedule, and feed syscall results from the log; hooks, breakpoints
    and step budgets attach any analysis or debugger interaction.
    Replaying the same pinball always reproduces the same events — the
    repeatability guarantee every other component builds on. *)

(** Why a replay left the recorded execution. *)
type divergence =
  | Schedule_divergence of string
      (** the recorded schedule named a blocked/bad thread *)
  | Syscall_log_exhausted of { consumed : int }
      (** the replay asked for more nondet results than were recorded *)
  | Digest_mismatch of { step : int; tid : int; expected : int; got : int }
      (** first sampled digest that disagrees with the recording; [step]
          and [tid] localize the divergence *)

(** The pinball does not match the execution (wrong program build, or a
    corrupted log). *)
exception Divergence of divergence

(** Human-readable rendering, e.g.
    ["first divergence at step 112 in thread 1 (digest ..., recorded ...)"]. *)
val divergence_message : divergence -> string

type t

(** A mid-replay checkpoint: enough state to resume the {e same} replay
    from this point without re-executing the prefix — the substrate for
    reverse debugging (paper §8).  [c_output] (the program output printed
    before the checkpoint) and [c_outcome] live only in memory: pinball
    snapshots carry neither. *)
type checkpoint = {
  c_snapshot : Dr_machine.Snapshot.t;
  c_steps : int;
  c_syscall_pos : int;
  c_output : int array;
  c_outcome : Dr_machine.Machine.outcome;
}

(** Create a replayer for a region pinball, optionally resuming [from] a
    checkpoint taken on an earlier replay of the {e same} pinball.  The
    recorded schedule is used in place: the picker seeks to the
    checkpoint's step with one allocation-free scan of the run counts,
    so creation costs a snapshot restore, not a copy of the schedule.
    A resumed replay starts with the checkpoint's output and outcome.
    @raise Invalid_argument on slice pinballs (those replay via
    [Dr_exeslice.Slice_replay]). *)
val create : ?from:checkpoint -> Dr_isa.Program.t -> Pinball.t -> t

val machine : t -> Dr_machine.Machine.t

(** Retired instructions since the region start. *)
val steps : t -> int

(** Capture a checkpoint at the current (between-instructions) position. *)
val checkpoint : t -> checkpoint

(** Resume replay until a stop condition (a pc in [break_at], before it
    executes; [stop_when], after a retired step; [max_steps]) or the end
    of the recorded region ([Schedule_end]).  Hooks go straight to the
    driver; recorded digests are checked at the driver's chunk
    boundaries, one chunk per digest interval.
    @raise Divergence if the pinball does not match the program. *)
val resume :
  ?hooks:Dr_machine.Driver.hooks ->
  ?max_steps:int ->
  ?break_at:Dr_util.Bitset.t ->
  ?stop_when:(Dr_machine.Event.t -> bool) ->
  t ->
  Dr_machine.Driver.stop_reason

(** Replay the whole region in one go. *)
val run : ?hooks:Dr_machine.Driver.hooks -> t -> Dr_machine.Driver.stop_reason

(** Convenience: replay a pinball against [prog], returning the final
    machine and the stop reason. *)
val replay :
  ?hooks:Dr_machine.Driver.hooks ->
  Dr_isa.Program.t ->
  Pinball.t ->
  Dr_machine.Machine.t * Dr_machine.Driver.stop_reason
