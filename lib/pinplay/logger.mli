(** The PinPlay logger: fast-forward to an execution region, snapshot the
    architectural state, and record every source of non-determinism until
    the region ends (paper Fig. 2, phase 1). *)

type spec =
  | Skip_length of { skip : int; length : int }
      (** capture [length] main-thread instructions after skipping [skip] *)
  | Skip_until of { skip : int; until : Dr_machine.Event.t -> bool }
      (** capture from [skip] until the predicate fires or the program
          terminates (e.g. at an assertion failure) *)
  | Whole  (** capture from program start to termination *)

type stats = {
  ff_time : float;  (** fast-forward wall-clock seconds (uninstrumented) *)
  log_time : float;  (** logging wall-clock seconds *)
  region_instructions : int;  (** retired instructions, all threads *)
  main_instructions : int;  (** retired instructions, main thread *)
  stop : Dr_machine.Driver.stop_reason;  (** why the region ended *)
}

type error =
  | Terminated_before_region of Dr_machine.Machine.outcome
  | Deadlock_before_region

val pp_error : Format.formatter -> error -> unit

(** Log a region of [prog]'s execution under the given schedule [policy]
    (default: a seeded pseudo-random schedule — the "native" run whose
    non-determinism the pinball captures).

    [digest_interval] (default 256, 0 disables) is the sampling period of
    the execution digests stored in the pinball for divergence
    localization during replay. *)
val log :
  ?policy:Dr_machine.Driver.policy ->
  ?input:int array ->
  ?nondet_seed:int ->
  ?max_steps:int ->
  ?digest_interval:int ->
  Dr_isa.Program.t ->
  spec ->
  (Pinball.t * stats, error) result
