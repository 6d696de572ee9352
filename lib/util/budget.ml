(** Resource governance: memory/time budgets, watchdogs, and the
    structured failure taxonomy shared by the out-of-core trace pipeline.

    A {!t} bundles the three knobs a resource-governed run can set —
    a memory budget in bytes (past which trace segments spill to disk),
    a wall-clock budget in seconds (enforced by {!watchdog}s), and the
    directory spilled segments are written to — plus the running
    accounting against them.  Failures are never free-form strings:
    every way the pipeline can hit a wall is one {!resource_error}
    constructor, so callers (the CLI exit-code map, the conformance
    fault oracle) can dispatch on the cause.

    The module also records {e degradation decisions}: when a budget
    trips, the pipeline steps down a rung (indexed slicer -> scan
    slicer -> partial slice) instead of dying, and each step is noted
    here so run reports and the CLI can surface what was traded away.
    The budget also owns what spilling leaves on disk: every segment
    file its stores wrote and every directory it created, which
    {!cleanup_spill} removes.
    [dr_util] sits below [dr_obs], so the metrics mirroring of these
    counts lives in the consumers ({!Dr_slicing.Segment_store},
    {!Dr_slicing.Slicer}). *)

type resource_error =
  | Disk_full of { re_path : string; re_reason : string }
      (** a spill write failed: ENOSPC, unwritable directory, ... *)
  | Segment_corrupt of { re_path : string; re_reason : string }
      (** a spilled segment is missing, truncated or fails its CRC *)
  | Watchdog_timeout of
      { re_what : string; re_elapsed_s : float; re_limit_s : float }
      (** a wall-clock watchdog fired *)

exception Resource_error of resource_error

let error_to_string = function
  | Disk_full { re_path; re_reason } ->
    Printf.sprintf "disk full or unwritable at %s: %s" re_path re_reason
  | Segment_corrupt { re_path; re_reason } ->
    Printf.sprintf "segment corrupt at %s: %s" re_path re_reason
  | Watchdog_timeout { re_what; re_elapsed_s; re_limit_s } ->
    Printf.sprintf "watchdog timeout in %s: %.3fs elapsed, limit %.3fs"
      re_what re_elapsed_s re_limit_s

let error fmt_arg = raise (Resource_error fmt_arg)

(* ---- watchdogs ---- *)

(** A polled wall-clock deadline.  Pollers call {!expired} (cheap: one
    clock read + compare) every few thousand steps; {!check} raises
    {!Resource_error} instead for phases where a partial result is
    useless (e.g. trace collection). *)
type watchdog = {
  wd_what : string;
  wd_started : float;
  wd_limit_s : float;
  mutable wd_fired : bool;  (** set once the deadline has passed *)
}

let watchdog ~what ~limit_s =
  { wd_what = what; wd_started = Timer.now (); wd_limit_s = limit_s;
    wd_fired = false }

let elapsed wd = Timer.now () -. wd.wd_started

let expired wd =
  if wd.wd_fired then true
  else begin
    let e = elapsed wd in
    if e > wd.wd_limit_s then wd.wd_fired <- true;
    wd.wd_fired
  end

let check wd =
  if expired wd then
    error
      (Watchdog_timeout
         { re_what = wd.wd_what; re_elapsed_s = elapsed wd;
           re_limit_s = wd.wd_limit_s })

(* ---- degradation ladder bookkeeping ---- *)

type degradation = {
  d_what : string;  (** the phase that degraded, e.g. "slicer" *)
  d_from : string;  (** the rung given up, e.g. "indexed" *)
  d_to : string;  (** the rung fallen back to, e.g. "scan" *)
  d_reason : string;
}

(* ---- budgets ---- *)

type t = {
  mem_bytes : int option;  (** memory budget for trace records *)
  time_s : float option;  (** wall-clock budget *)
  spill_dir : string;  (** directory for spilled segments *)
  created : float;
  mutable mem_used : int;  (** resident record bytes currently charged *)
  mutable spilled_bytes : int;  (** total bytes written to spill files *)
  mutable degradations : degradation list;  (** newest first *)
  mutable spill_files : string list;
      (** segment files this budget's stores wrote, newest first *)
  mutable created_dirs : string list;
      (** directories {!spill_file} created, deepest first *)
}

let default_spill_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "drdebug-spill-%d" (Unix.getpid ()))

let create ?mem_bytes ?time_s ?spill_dir () =
  (match mem_bytes with
  | Some b when b < 0 -> invalid_arg "Budget.create: negative mem_bytes"
  | _ -> ());
  { mem_bytes; time_s;
    spill_dir = (match spill_dir with Some d -> d | None -> default_spill_dir ());
    created = Timer.now (); mem_used = 0; spilled_bytes = 0;
    degradations = []; spill_files = []; created_dirs = [] }

(** An unlimited budget: never spills, never times out.  Lets callers
    thread [Budget.t] unconditionally. *)
let unlimited () = create ()

let spill_dir t = t.spill_dir

let mem_used t = t.mem_used

let spilled_bytes t = t.spilled_bytes

(** Charge [bytes] of resident memory against the budget (no check —
    pair with {!over_mem} to decide whether to spill). *)
let charge t bytes = t.mem_used <- t.mem_used + bytes

let release t bytes = t.mem_used <- max 0 (t.mem_used - bytes)

let note_spilled t bytes = t.spilled_bytes <- t.spilled_bytes + bytes

(** Is the resident charge above the memory budget?  [false] when no
    memory budget is set. *)
let over_mem t =
  match t.mem_bytes with None -> false | Some limit -> t.mem_used > limit

(** Would charging [bytes] more stay within the memory budget? *)
let mem_would_exceed t ~bytes =
  match t.mem_bytes with
  | None -> false
  | Some limit -> t.mem_used + bytes > limit

(** A watchdog over the budget's {e remaining} wall-clock time, or
    [None] when no time budget is set.  Each call measures from the
    budget's creation, so successive phases share one global deadline. *)
let watchdog_of t ~what =
  match t.time_s with
  | None -> None
  | Some limit ->
    let used = Timer.now () -. t.created in
    Some
      { wd_what = what; wd_started = t.created; wd_limit_s = limit;
        wd_fired = used > limit }

let note_degradation t ~what ~from_ ~to_ ~reason =
  t.degradations <-
    { d_what = what; d_from = from_; d_to = to_; d_reason = reason }
    :: t.degradations

(** Degradation decisions so far, oldest first. *)
let degradations t = List.rev t.degradations

let pp_degradation fmt d =
  Format.fprintf fmt "%s: %s -> %s (%s)" d.d_what d.d_from d.d_to d.d_reason

(* ---- spill directory management ---- *)

(** Ensure the spill directory exists and is a writable directory.
    @raise Resource_error [Disk_full] when it cannot be created (e.g.
    the path names an existing regular file). *)
let ensure_spill_dir t =
  (match Atomic_file.mkdir_p t.spill_dir with
  | made -> t.created_dirs <- made @ t.created_dirs
  | exception Sys_error msg ->
    (* [msg] reads "<dir>: <reason>" for the directory that failed *)
    let re_path, re_reason =
      match String.rindex_opt msg ':' with
      | Some i when i + 2 <= String.length msg ->
        (String.sub msg 0 i, String.sub msg (i + 2) (String.length msg - i - 2))
      | _ -> (t.spill_dir, msg)
    in
    error (Disk_full { re_path; re_reason }));
  if not (try Sys.is_directory t.spill_dir with Sys_error _ -> false) then
    error
      (Disk_full
         { re_path = t.spill_dir; re_reason = "spill path is not a directory" });
  t.spill_dir

(** Path of a new spill file [name] in the spill directory, creating
    the directory if missing.  The file is the budget's from here on,
    written or not: {!cleanup_spill} removes it. *)
let spill_file t name =
  let path = Filename.concat (ensure_spill_dir t) name in
  t.spill_files <- path :: t.spill_files;
  path

(** Remove every spill file this budget handed out, then each
    directory it created, deepest first and only when empty.  A
    directory that existed before the first spill, such as one the
    caller named as the spill directory, is never removed.  Never
    raises: a file already gone is skipped. *)
let cleanup_spill t =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.spill_files;
  List.iter
    (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
    t.created_dirs;
  t.spill_files <- [];
  t.created_dirs <- []
