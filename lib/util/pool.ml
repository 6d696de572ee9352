(** A small fixed pool of OCaml 5 domains for embarrassingly parallel
    fan-out (parallel slicing criteria, the conformance fuzz farm).

    The pool owns [size - 1] worker domains parked on a condition
    variable; the domain that calls {!run} participates as the
    [size]-th worker, so a pool of size 1 spawns nothing and the caller
    drains every task alone.  A {!run} hands every worker the same
    {e drain loop}: tasks are claimed by atomic fetch-and-add on a
    shared cursor, so scheduling is dynamic (good load balance for
    uneven task costs) while {e results stay deterministic} — {!map}
    writes slot [i] of the output from task [i] regardless of which
    domain ran it or in what order.  There is one execution path at
    every pool size and batch length.

    Exceptions raised by tasks are captured; the first one (by
    completion order) is re-raised in the caller after the barrier, with
    its backtrace.  The remaining tasks still run — a parallel batch is
    not torn down half-way, which keeps shared structures (metric
    registries, segment caches) in a sane state.

    Every worker has a stable {e slot}: the caller is slot 0 and the
    spawned domains are slots 1 .. size-1.  Slots identify workers to
    the batch hook (per-slot utilization metrics, per-domain span
    tracks) independently of the runtime's domain ids, which are
    not stable across pools or runs.

    The caller's wait at the barrier is a [Domain.cpu_relax] spin: it
    only covers the in-flight tail of tasks on other domains, and every
    intended workload (a slice, a fuzz worker loop) is far coarser than
    a spin quantum.  [run] must not be called from two domains at once
    on the same pool; nested [run] from inside a task deadlocks no one
    (the caller drains its own queue) but is not supported either. *)

type task = unit -> unit

(** Instrumentation of one {!run} batch.  [wrap ~slot ~task f] runs
    task [task] (claimed by worker [slot]) and must run [f] exactly
    once, propagating its exception; [finish ()] runs on the
    coordinating domain once the barrier has passed, also when a task
    raised (before the exception is re-raised). *)
type batch = {
  wrap : slot:int -> task:int -> (unit -> unit) -> unit;
  finish : unit -> unit;
}

(* The batch hook, installed once by the observability layer
   ([Dr_obs.Obs] installs it at module initialisation).  [dr_util]
   cannot depend on [dr_obs], so the dependency is inverted through
   this hook: the pool stays observability-agnostic and pays one ref
   load + option match per batch when no hook is installed. *)
let instrument : (tasks:int -> batch) option ref = ref None

(** Install the batch hook (last install wins). *)
let set_instrument i = instrument := Some i

let plain = { wrap = (fun ~slot:_ ~task:_ f -> f ()); finish = ignore }

type t = {
  size : int;  (** total parallelism: worker domains + the caller *)
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable queue : (int -> unit) list;
      (** pending drain loops; a worker applies one to its own slot *)
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.size

let worker t slot () =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec next () =
      if t.closing then None
      else
        match t.queue with
        | task :: rest ->
          t.queue <- rest;
          Some task
        | [] ->
          Condition.wait t.has_work t.mutex;
          next ()
    in
    let task = next () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
      task slot;
      loop ()
  in
  loop ()

(** Create a pool of [domains] total workers (at least 1).
    [domains - 1] domains are spawned; they idle on a condition variable
    until {!run}/{!map} hands them work. *)
let create ~domains : t =
  let size = max 1 domains in
  let t =
    { size; mutex = Mutex.create (); has_work = Condition.create ();
      queue = []; closing = false; workers = [] }
  in
  t.workers <- List.init (size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

(** Join all worker domains.  Idempotent; the pool must be idle. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(** [with_pool ~domains f] runs [f pool] and shuts the pool down even
    when [f] raises. *)
let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** Run every task to completion, fanning out over the pool; returns
    when all have finished.  The first task exception (if any) is
    re-raised after the barrier, once every task has run.  Every task
    runs through the installed batch hook, so a traced 1-domain batch
    records the same span sequence as a 4-domain one. *)
let run t (tasks : task array) =
  let n = Array.length tasks in
  if n > 0 then begin
    let batch =
      match !instrument with
      | Some begin_batch -> begin_batch ~tasks:n
      | None -> plain
    in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure = Atomic.make None in
    let drain slot =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          (try batch.wrap ~slot ~task:i tasks.(i)
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          (* the atomic increment publishes the task's writes to the
             caller, which reads [completed] before touching results *)
          Atomic.incr completed
        end
      done
    in
    (* a stale drain surviving past its batch exits immediately (the
       cursor is spent), so leftovers in the queue are harmless *)
    let helpers = min (t.size - 1) (n - 1) in
    Mutex.lock t.mutex;
    for _ = 1 to helpers do
      t.queue <- drain :: t.queue
    done;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    drain 0;
    while Atomic.get completed < n do
      Domain.cpu_relax ()
    done;
    batch.finish ();
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(** [map t f xs] applies [f] to every element in parallel.  Output slot
    [i] holds [f xs.(i)] — the result array is identical to
    [Array.map f xs] whatever the domain count or schedule. *)
let map t (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out : 'b option array = Array.make n None in
    run t (Array.init n (fun i () -> out.(i) <- Some (f xs.(i))));
    Array.map (function Some v -> v | None -> assert false) out
  end
