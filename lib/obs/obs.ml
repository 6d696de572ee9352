(** Nested tracing spans — the gated half of the observability library
    ({!Metrics} is the always-on half), sharded per domain.

    A span is a named, monotonic-clock [start]/[stop] interval with a
    thread attribution, a phase category and key:value attributes.
    Spans nest: [start] pushes onto an open-span stack, [stop] pops and
    appends a completed {!span} to the completed-span buffer, from which
    the sinks ({!Chrome_trace}, {!Report}) read.  Each span also carries
    the minor-heap words its domain allocated while it was open
    ([Gc.minor_words] read at open and at close: per domain, and
    allocation-free in native code).

    Overhead discipline: every entry point checks the tracing switch
    ({!set_enabled}) first.
    With tracing off, [start] returns the preallocated {!none} token and
    [stop]/[add_attr]/[with_span] are a single field check — hot paths
    stay allocation-free.  Tokens are plain [int]s so the disabled path
    boxes nothing.

    Mismatched stops are detected, not ignored: stopping a token that is
    not the top of the stack closes the intervening spans (their data is
    kept) and records a diagnostic in [mismatch_messages]; stopping an
    unknown token records a diagnostic and does nothing else.  The count
    also surfaces as the [obs.span_mismatches] counter so a run report
    can never hide a broken instrumentation site.

    {2 Domain discipline: sharded recorders}

    Every domain owns a {e shard} in [Domain.DLS]: its own open-span
    stack, completed-span buffer, token counter and mismatch list.  A
    recording call touches only its own shard — the enabled hot path has
    no cross-domain synchronization at all, and the disabled path is the
    one switch load.  A span must be stopped on the domain that
    started it (tokens are shard-local).

    Export merges shards {e deterministically by (logical stream, local
    record order)} — never by timestamp.  Streams are assigned in
    program order on the coordinating domain: the main domain records on
    stream 0, and every {!Dr_util.Pool} batch claims a contiguous stream
    range so task [i] of a batch records on the same stream whatever
    domain happens to claim it.  Two traced runs of the same workload
    therefore export identical merged span sequences whatever the
    schedule.  Spans recorded on a worker domain {e outside} any pool
    task land on the {!orphan} stream and sort last (their cross-shard
    order is the one schedule-dependent corner; no instrumented site
    does this).

    Readers ([spans], [reset], the sinks) require {e quiescence}: call
    them from the main domain while no pool batch is in flight.  Every
    pool barrier ({!Dr_util.Pool.run} returning) publishes the workers'
    shard writes to the caller. *)

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span = {
  sp_name : string;
  sp_cat : string;  (** phase category: "log", "replay", "slice", ... *)
  sp_tid : int;  (** attributed thread (simulated tid; 0 = tool) *)
  sp_dom : int;
      (** recording domain slot: 0 = main domain, the pool worker slot
          inside a pool task — the Perfetto track dimension.  Unlike
          [sp_stream] it reflects the actual claim schedule. *)
  sp_stream : int;
      (** logical stream — the deterministic merge key: 0 = main
          domain, [base + i] inside pool task [i], {!orphan} for
          worker-domain spans outside any task *)
  sp_start_s : float;  (** seconds since the trace epoch *)
  sp_dur_s : float;
  sp_depth : int;  (** nesting depth within its stream *)
  sp_minor_words : float;
      (** words allocated on the minor heap of the recording domain
          while the span was open, children included *)
  sp_attrs : (string * attr) list;
}

let m_spans = Metrics.counter "obs.spans"
let m_mismatches = Metrics.counter "obs.span_mismatches"

(** Stream id of worker-domain spans recorded outside any pool task;
    they sort after every deterministic stream. *)
let orphan = max_int

(* ---- per-domain shards ---- *)

let dummy_span =
  { sp_name = ""; sp_cat = ""; sp_tid = 0; sp_dom = 0; sp_stream = 0;
    sp_start_s = 0.0; sp_dur_s = 0.0; sp_depth = 0; sp_minor_words = 0.0;
    sp_attrs = [] }

type open_span = {
  o_id : int;
  o_name : string;
  o_cat : string;
  o_tid : int;
  o_t0 : float;
  mutable o_w0 : float;  (** [Gc.minor_words] when the span opened *)
  mutable o_attrs : (string * attr) list;  (** newest first *)
}

let dummy_open =
  { o_id = 0; o_name = ""; o_cat = ""; o_tid = 0; o_t0 = 0.0; o_w0 = 0.0;
    o_attrs = [] }

type shard = {
  sh_main : bool;  (** created on the main (stream-0) domain? *)
  sh_domain : int;  (** runtime domain id, for diagnostics only *)
  spans : span Dr_util.Vec.t;
  stack : open_span Dr_util.Vec.t;
  mutable next_id : int;
  mutable stream : int;  (** current logical stream for closed spans *)
  mutable dom : int;  (** current domain slot for track attribution *)
  mutable depth_base : int;
      (** stack depth where the current stream began; depths are
          reported relative to it so a task span nests identically
          whether the caller or a worker claimed it *)
  mutable mismatches : string list;  (** newest first *)
}

(* Registry of every shard ever created (newest first), guarded by
   [reg_lock].  Shards of joined pool domains stay registered: their
   buffers must survive the domain so a post-shutdown export still sees
   every span.  The leak is bounded by the number of domains the
   process ever spawns, and [reset] clears the buffers. *)
let reg_lock = Mutex.create ()
let shards : shard list ref = ref []

(* stream 0 is the main domain; pool batches allocate from 1 up *)
let next_stream = Atomic.make 1

(** Claim [n] consecutive logical stream ids; returns the base.  Called
    by the pool hook on the coordinating domain, in program order. *)
let alloc_streams n = Atomic.fetch_and_add next_stream n

(* trace epoch: set once by the first span on any domain; [epoch] is
   written under the lock before the atomic flag is raised, so a racing
   reader that sees the flag also sees the value *)
let epoch = ref 0.0
let epoch_set = Atomic.make false

let now () = Dr_util.Timer.now ()

let ensure_epoch () =
  if not (Atomic.get epoch_set) then begin
    Mutex.lock reg_lock;
    if not (Atomic.get epoch_set) then begin
      epoch := now ();
      Atomic.set epoch_set true
    end;
    Mutex.unlock reg_lock
  end

(* ---- switch ---- *)

(* Hot paths read the field directly: with tracing off every recording
   call costs one field load and allocates nothing. *)
let enabled_flag = ref false

let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* the domain that loaded the library = the main domain, whose shard
   records on stream 0 *)
let main_domain : int = (Domain.self () :> int)

let new_shard () =
  let main = (Domain.self () :> int) = main_domain in
  let sh =
    { sh_main = main; sh_domain = (Domain.self () :> int);
      spans = Dr_util.Vec.create ~dummy:dummy_span;
      stack = Dr_util.Vec.create ~dummy:dummy_open; next_id = 1;
      stream = (if main then 0 else orphan);
      dom = (if main then 0 else (Domain.self () :> int)); depth_base = 0;
      mismatches = [] }
  in
  Mutex.lock reg_lock;
  shards := sh :: !shards;
  Mutex.unlock reg_lock;
  sh

let shard_key : shard Domain.DLS.key = Domain.DLS.new_key new_shard
let shard () = Domain.DLS.get shard_key

(** Drop all recorded spans, open spans and mismatch diagnostics in
    every shard, reset the token and stream counters and clear the epoch
    (the {!Metrics} registry is untouched).  Requires quiescence: no
    pool batch in flight. *)
let reset () =
  Mutex.lock reg_lock;
  List.iter
    (fun sh ->
      Dr_util.Vec.clear sh.spans;
      Dr_util.Vec.clear sh.stack;
      sh.next_id <- 1;
      sh.stream <- (if sh.sh_main then 0 else orphan);
      sh.dom <- (if sh.sh_main then 0 else sh.sh_domain);
      sh.depth_base <- 0;
      sh.mismatches <- [])
    !shards;
  Atomic.set next_stream 1;
  epoch := 0.0;
  Atomic.set epoch_set false;
  Mutex.unlock reg_lock

(* ---- recording ---- *)

(** The token [start] returns when tracing is disabled; stopping it is
    a no-op. *)
let none = 0

let mismatch sh fmt =
  Printf.ksprintf
    (fun msg ->
      Metrics.bump m_mismatches;
      sh.mismatches <- msg :: sh.mismatches)
    fmt

(** Open a span on the calling domain's shard.  [cat] groups spans into
    a phase for the trace viewer and the report; [tid] attributes the
    span to a simulated thread. *)
let start ?(tid = 0) ?(cat = "drdebug") name =
  if not !enabled_flag then none
  else begin
    let sh = shard () in
    ensure_epoch ();
    let id = sh.next_id in
    sh.next_id <- id + 1;
    let o =
      { o_id = id; o_name = name; o_cat = cat; o_tid = tid; o_t0 = now ();
        o_w0 = 0.0; o_attrs = [] }
    in
    Dr_util.Vec.push sh.stack o;
    (* read last, so the recorder's own allocation is not counted *)
    o.o_w0 <- Gc.minor_words ();
    id
  end

(* index of [tok] in the shard's open stack, or -1 *)
let find_open sh tok =
  let n = Dr_util.Vec.length sh.stack in
  let idx = ref (-1) in
  for i = n - 1 downto 0 do
    if !idx < 0 && (Dr_util.Vec.get sh.stack i).o_id = tok then idx := i
  done;
  !idx

(** Attach an attribute to a still-open span (same domain as [start]). *)
let add_attr tok key v =
  if !enabled_flag && tok <> none then begin
    let sh = shard () in
    let i = find_open sh tok in
    if i >= 0 then begin
      let o = Dr_util.Vec.get sh.stack i in
      o.o_attrs <- (key, v) :: o.o_attrs
    end
    else mismatch sh "add_attr %S on a closed or unknown span token" key
  end

(* pop the top open span and append the completed record; [t1] and
   [w1] are the clock and [Gc.minor_words] at the stop call *)
let close_top sh t1 w1 =
  let o = Dr_util.Vec.pop sh.stack in
  Metrics.bump m_spans;
  let depth = max 0 (Dr_util.Vec.length sh.stack - sh.depth_base) in
  Dr_util.Vec.push sh.spans
    { sp_name = o.o_name; sp_cat = o.o_cat; sp_tid = o.o_tid;
      sp_dom = sh.dom; sp_stream = sh.stream; sp_start_s = o.o_t0 -. !epoch;
      sp_dur_s = t1 -. o.o_t0; sp_depth = depth;
      sp_minor_words = w1 -. o.o_w0; sp_attrs = List.rev o.o_attrs }

(** Close a span, optionally attaching final [attrs].  Stopping out of
    order closes the spans opened above it first (recording a mismatch
    diagnostic); stopping an unknown token only records the mismatch. *)
let stop ?(attrs = []) tok =
  if !enabled_flag && tok <> none then begin
    let w1 = Gc.minor_words () in
    let sh = shard () in
    let i = find_open sh tok in
    if i < 0 then mismatch sh "stop of a closed or unknown span token %d" tok
    else begin
      let t1 = now () in
      let n = Dr_util.Vec.length sh.stack in
      if i < n - 1 then
        mismatch sh "stop of %S closed %d unfinished child span(s)"
          (Dr_util.Vec.get sh.stack i).o_name
          (n - 1 - i);
      while Dr_util.Vec.length sh.stack > i + 1 do
        close_top sh t1 w1
      done;
      let o = Dr_util.Vec.get sh.stack i in
      o.o_attrs <- List.rev_append attrs o.o_attrs;
      close_top sh t1 w1
    end
  end

(** [with_span name f] runs [f token] inside a span; the span is closed
    (and recorded) even when [f] raises.  [f] receives the token so it
    can {!add_attr} results as they become known. *)
let with_span ?tid ?cat ?attrs name f =
  if not !enabled_flag then f none
  else begin
    let tok = start ?tid ?cat name in
    Fun.protect ~finally:(fun () -> stop ?attrs tok) (fun () -> f tok)
  end

(* ---- reading (quiescent, main domain) ---- *)

(* snapshot the registry in shard-creation order *)
let all_shards () =
  Mutex.lock reg_lock;
  let l = List.rev !shards in
  Mutex.unlock reg_lock;
  l

(** Completed spans of every shard, merged deterministically: stable
    sort by logical stream, record order within a stream.  A stream's
    spans all come from the single shard that ran it, so the merged
    sequence is independent of the claim schedule. *)
let spans () =
  let arr =
    Array.concat (List.map (fun sh -> Dr_util.Vec.to_array sh.spans) (all_shards ()))
  in
  Array.stable_sort (fun a b -> Int.compare a.sp_stream b.sp_stream) arr;
  arr

let span_count () =
  List.fold_left
    (fun acc sh -> acc + Dr_util.Vec.length sh.spans)
    0 (all_shards ())

(** Mismatch diagnostics, oldest first per shard, shards in creation
    order. *)
let mismatch_messages () =
  List.concat_map (fun sh -> List.rev sh.mismatches) (all_shards ())

let mismatch_count () =
  List.fold_left
    (fun acc sh -> acc + List.length sh.mismatches)
    0 (all_shards ())

(* ---- pool instrumentation ----

   Installed into Dr_util.Pool at module initialisation (dr_obs depends
   on dr_util, so the pool cannot call us directly).  Registry: a
   per-slot claim counter and busy timer, always on.  Spans (gated): the
   task runs under its batch-assigned stream with a fresh depth
   base, wrapped in claim/exec spans, so Perfetto shows a per-domain
   utilization timeline and the merged export stays schedule-
   independent. *)

let pool_task ~stream ~slot ~task f =
  Metrics.bump
    (Metrics.counter (Printf.sprintf "pool.slot%d.tasks_claimed" slot));
  Metrics.time (Metrics.timer (Printf.sprintf "pool.slot%d.busy" slot))
  @@ fun () ->
  if not !enabled_flag then f ()
  else begin
    let sh = shard () in
    let prev_stream = sh.stream
    and prev_dom = sh.dom
    and prev_base = sh.depth_base in
    sh.stream <- stream;
    sh.dom <- slot;
    sh.depth_base <- Dr_util.Vec.length sh.stack;
    Fun.protect
      ~finally:(fun () ->
        sh.stream <- prev_stream;
        sh.dom <- prev_dom;
        sh.depth_base <- prev_base)
      (fun () ->
        with_span ~cat:"pool" "pool.claim" (fun sp ->
            add_attr sp "task" (Int task);
            add_attr sp "slot" (Int slot);
            with_span ~cat:"pool" "pool.exec" (fun _ -> f ())))
  end

let () =
  Dr_util.Pool.set_instrument
    { Dr_util.Pool.i_run_begin =
        (fun ~tasks -> if !enabled_flag then alloc_streams tasks else 0);
      i_task = pool_task }
