(** Fan one batch of independent tasks over OCaml 5 domains (the
    conformance fuzz farm, one task per case).

    {!run} spawns [min domains n - 1] domains for a batch of [n] tasks
    and joins them before it returns; the calling domain drains the
    batch alongside them, so [~domains:1] spawns nothing.  Tasks are
    claimed by atomic fetch-and-add on one shared cursor, so scheduling
    is dynamic (good balance for uneven task costs); a caller that
    wants results independent of the schedule has task [i] write slot
    [i] of its own array.

    Exceptions raised by tasks are captured; the first one (by
    completion order) is re-raised once every task has run and every
    domain has joined, with its backtrace.  A batch is not torn down
    half-way, which keeps shared structures (metric registries, segment
    caches) in a sane state.

    Every worker has a stable {e slot}: the caller is slot 0 and the
    spawned domains are slots 1, 2, ....  Slots identify workers to the
    batch hook (per-slot metrics, per-domain span tracks) independently
    of the runtime's domain ids. *)

type task = unit -> unit

(** Instrumentation of one {!run} batch.  [wrap ~slot ~task f] runs
    task [task] (claimed by worker [slot]) and must run [f] exactly
    once, propagating its exception; [finish ()] runs on the calling
    domain once every worker has joined, also when a task raised
    (before the exception is re-raised). *)
type batch = {
  wrap : slot:int -> task:int -> (unit -> unit) -> unit;
  finish : unit -> unit;
}

(** Install the batch hook (last install wins).  [Dr_obs.Obs] installs
    one at module initialisation: [dr_util] cannot depend on [dr_obs],
    so the dependency is inverted through this hook. *)
val set_instrument : (tasks:int -> batch) -> unit

(** Run every task to completion over at most [domains] domains (the
    caller included) and return when all have finished.  Every task
    runs through the installed batch hook, so a traced 1-domain batch
    records the same span sequence as a 4-domain one. *)
val run : domains:int -> task array -> unit
