(** A recorded thread schedule: the runs of a region in order, each a
    thread and the number of instructions it retired in a row.  A count
    may be 0; the scripted picker skips such runs.

    Stored flat, as one [int array] of [2n] cells (run [i]'s tid at [2i],
    its count at [2i+1]), so recording, decoding and replaying a schedule
    never box a tuple per run. *)

type t

val length : t -> int
(** Number of runs. *)

val tid : t -> int -> int
(** [tid t i]: the thread of run [i]. *)

val count : t -> int -> int
(** [count t i]: the instructions run [i] retires. *)

val steps : t -> int
(** Total retired instructions: the sum of the counts. *)

val of_runs : (int * int) list -> t
(** From [(tid, count)] runs, in order. *)

val to_runs : t -> (int * int) list

val encode : Dr_util.Codec.encoder -> t -> unit
(** The pinball schedule section: the run count, then each run's tid and
    count, all unsigned varints. *)

val decode : Dr_util.Codec.decoder -> t
(** Inverse of {!encode}.  The run count is checked against the input
    left (a run takes at least 2 bytes), so the allocation is bounded by
    the input's size; raises {!Dr_util.Codec.Corrupt}. *)

(** {2 Recording} *)

type recorder
(** A schedule as it is recorded, one retired step at a time.  The open
    run is two mutable ints and closed runs are pushed as two ints onto
    an unboxed vector, so a step allocates nothing. *)

val recorder : unit -> recorder

val record : recorder -> int -> unit
(** [record r tid]: one retired step of thread [tid]. *)

val recorded : recorder -> t
(** The schedule recorded so far.  It closes the open run, so a step
    recorded afterwards starts a new run. *)
