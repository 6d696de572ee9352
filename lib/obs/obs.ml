(** Nested tracing spans — the gated half of the observability library
    ({!Metrics} is the always-on half).

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

    {2 Domain discipline: one recorder per pool task}

    A {e recorder} holds an open-span stack, a completed-span buffer, a
    token counter and a mismatch list.  The main domain records into
    the one main recorder, which the readers ([spans], [mismatch_*])
    read directly.  Each {!Dr_util.Pool} task records into a fresh
    recorder of its own, whichever domain claims it; once the batch
    barrier passes, the coordinator appends the task recorders to its
    own recorder in task order.  The exported sequence is therefore the
    plain sequential close order — a batch's spans sit between the
    spans closed before and after it — and is identical at any domain
    count and schedule.  A span must be stopped inside the task (or on
    the domain) that started it: tokens are recorder-local.

    A span opened on a worker domain outside any pool task is not
    recorded; it counts as a mismatch instead, so it cannot hide (no
    instrumented site does this).

    Readers ([spans], [reset], the sinks) require {e quiescence}: call
    them from the main domain while no pool batch is in flight. *)

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
      (** recording domain slot: 0 = main domain, the claiming pool
          worker slot inside a pool task — the Perfetto track
          dimension *)
  sp_start_s : float;  (** seconds since the trace epoch *)
  sp_dur_s : float;
  sp_depth : int;  (** nesting depth within its recorder *)
  sp_minor_words : float;
      (** words allocated on the minor heap of the recording domain
          while the span was open, children included *)
  sp_attrs : (string * attr) list;
}

let m_spans = Metrics.counter "obs.spans"
let m_mismatches = Metrics.counter "obs.span_mismatches"

(* ---- recorders ---- *)

let dummy_span =
  { sp_name = ""; sp_cat = ""; sp_tid = 0; sp_dom = 0; sp_start_s = 0.0;
    sp_dur_s = 0.0; sp_depth = 0; sp_minor_words = 0.0; sp_attrs = [] }

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

type recorder = {
  spans : span Dr_util.Vec.t;
  stack : open_span Dr_util.Vec.t;
  mutable next_id : int;
  mutable dom : int;  (** domain slot stamped on the spans it closes *)
  mutable mismatches : string list;  (** newest first *)
}

let new_recorder () =
  { spans = Dr_util.Vec.create ~dummy:dummy_span;
    stack = Dr_util.Vec.create ~dummy:dummy_open; next_id = 1; dom = 0;
    mismatches = [] }

(* the main domain's recorder: every reader reads it *)
let main = new_recorder ()

(* Worker domains outside a pool task record on [stray], which is never
   written: their span calls only count in [strays]. *)
let stray = new_recorder ()
let strays = Atomic.make 0

(* the domain that loaded the library is the main domain *)
let main_domain = Domain.self ()

let current : recorder Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      if Domain.self () = main_domain then main else stray)

let recorder () = Domain.DLS.get current

(* trace epoch: span start times are relative to it *)
let epoch = ref 0.0

let now () = Dr_util.Timer.now ()

(* ---- switch ---- *)

(* Hot paths read the field directly: with tracing off every recording
   call costs one field load and allocates nothing. *)
let enabled_flag = ref false

(** Turn tracing on or off.  Turning it on over an empty main recorder
    starts a new trace epoch. *)
let set_enabled b =
  if b && Dr_util.Vec.is_empty main.spans && Dr_util.Vec.is_empty main.stack
  then epoch := now ();
  enabled_flag := b

let enabled () = !enabled_flag

(** Drop all recorded spans, open spans and mismatch diagnostics,
    restart token ids and start a new trace epoch (the {!Metrics}
    registry is untouched).  Requires quiescence: no pool batch in
    flight. *)
let reset () =
  Dr_util.Vec.clear main.spans;
  Dr_util.Vec.clear main.stack;
  main.next_id <- 1;
  main.mismatches <- [];
  Atomic.set strays 0;
  epoch := now ()

(* ---- recording ---- *)

(** The token [start] returns when tracing is disabled; stopping it is
    a no-op. *)
let none = 0

let mismatch r fmt =
  Printf.ksprintf
    (fun msg ->
      Metrics.bump m_mismatches;
      if r == stray then Atomic.incr strays
      else r.mismatches <- msg :: r.mismatches)
    fmt

(** Open a span on the calling domain's recorder.  [cat] groups spans
    into a phase for the trace viewer and the report; [tid] attributes
    the span to a simulated thread. *)
let start ?(tid = 0) ?(cat = "drdebug") name =
  if not !enabled_flag then none
  else begin
    let r = recorder () in
    if r == stray then begin
      mismatch r "span %S opened on a worker domain outside a pool task" name;
      none
    end
    else begin
      let id = r.next_id in
      r.next_id <- id + 1;
      let o =
        { o_id = id; o_name = name; o_cat = cat; o_tid = tid; o_t0 = now ();
          o_w0 = 0.0; o_attrs = [] }
      in
      Dr_util.Vec.push r.stack o;
      (* read last, so the recorder's own allocation is not counted *)
      o.o_w0 <- Gc.minor_words ();
      id
    end
  end

(* index of [tok] in the recorder's open stack, or -1 *)
let find_open r tok =
  let n = Dr_util.Vec.length r.stack in
  let idx = ref (-1) in
  for i = n - 1 downto 0 do
    if !idx < 0 && (Dr_util.Vec.get r.stack i).o_id = tok then idx := i
  done;
  !idx

(** Attach an attribute to a still-open span (same domain as [start]). *)
let add_attr tok key v =
  if !enabled_flag && tok <> none then begin
    let r = recorder () in
    let i = find_open r tok in
    if i >= 0 then begin
      let o = Dr_util.Vec.get r.stack i in
      o.o_attrs <- (key, v) :: o.o_attrs
    end
    else mismatch r "add_attr %S on a closed or unknown span token" key
  end

(* pop the top open span and append the completed record; [t1] and
   [w1] are the clock and [Gc.minor_words] at the stop call *)
let close_top r t1 w1 =
  let o = Dr_util.Vec.pop r.stack in
  Metrics.bump m_spans;
  Dr_util.Vec.push r.spans
    { sp_name = o.o_name; sp_cat = o.o_cat; sp_tid = o.o_tid; sp_dom = r.dom;
      sp_start_s = o.o_t0 -. !epoch; sp_dur_s = t1 -. o.o_t0;
      sp_depth = Dr_util.Vec.length r.stack; sp_minor_words = w1 -. o.o_w0;
      sp_attrs = List.rev o.o_attrs }

(** Close a span, optionally attaching final [attrs].  Stopping out of
    order closes the spans opened above it first (recording a mismatch
    diagnostic); stopping an unknown token only records the mismatch. *)
let stop ?(attrs = []) tok =
  if !enabled_flag && tok <> none then begin
    let w1 = Gc.minor_words () in
    let r = recorder () in
    let i = find_open r tok in
    if i < 0 then mismatch r "stop of a closed or unknown span token %d" tok
    else begin
      let t1 = now () in
      let n = Dr_util.Vec.length r.stack in
      if i < n - 1 then
        mismatch r "stop of %S closed %d unfinished child span(s)"
          (Dr_util.Vec.get r.stack i).o_name
          (n - 1 - i);
      while Dr_util.Vec.length r.stack > i + 1 do
        close_top r t1 w1
      done;
      let o = Dr_util.Vec.get r.stack i in
      o.o_attrs <- List.rev_append attrs o.o_attrs;
      close_top r t1 w1
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

(** Completed spans in close order, every pool batch spliced in task
    order at its barrier. *)
let spans () = Dr_util.Vec.to_array main.spans

let span_count () = Dr_util.Vec.length main.spans

(** Mismatch diagnostics, oldest first; span calls on worker domains
    outside a pool task come last. *)
let mismatch_messages () =
  List.rev main.mismatches
  @ List.init (Atomic.get strays) (fun _ ->
        "span call on a worker domain outside a pool task")

let mismatch_count () = List.length main.mismatches + Atomic.get strays

(* ---- pool instrumentation ----

   Installed into Dr_util.Pool at module initialisation (dr_obs depends
   on dr_util, so the pool cannot call us directly).  Registry: a
   per-slot claim counter and busy timer, always on.  Spans (gated):
   task [i] records into its own fresh recorder, wrapped in claim/exec
   spans on the claiming slot, so Perfetto shows a per-domain
   utilization timeline; [finish] appends the task recorders to the
   caller's in task order once the barrier has passed. *)

let pool_batch ~tasks =
  let caller = recorder () in
  let traced = !enabled_flag && caller != stray in
  let recs =
    Array.init (if traced then tasks else 0) (fun _ -> new_recorder ())
  in
  let wrap ~slot ~task f =
    Metrics.bump
      (Metrics.counter (Printf.sprintf "pool.slot%d.tasks_claimed" slot));
    Metrics.time (Metrics.timer (Printf.sprintf "pool.slot%d.busy" slot))
    @@ fun () ->
    if not traced then f ()
    else begin
      let r = recs.(task) and prev = recorder () in
      r.dom <- slot;
      Domain.DLS.set current r;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set current prev)
        (fun () ->
          with_span ~cat:"pool" "pool.claim" (fun sp ->
              add_attr sp "task" (Int task);
              add_attr sp "slot" (Int slot);
              with_span ~cat:"pool" "pool.exec" (fun _ -> f ())))
    end
  in
  let finish () =
    Array.iter
      (fun r ->
        Dr_util.Vec.iter (Dr_util.Vec.push caller.spans) r.spans;
        caller.mismatches <- r.mismatches @ caller.mismatches)
      recs
  in
  { Dr_util.Pool.wrap; finish }

let () = Dr_util.Pool.set_instrument pool_batch
