(** A DrDebug debugging session: the state machine behind the debugger
    front end (paper Fig. 2 and §6).

    A session owns a program and moves through the cyclic-debugging
    phases:

    - {e native}: run or record the program (logger);
    - {e replay}: deterministically re-execute a region pinball with
      breakpoints and stepping; request dynamic slices at any stop;
    - {e slice replay}: after a slice has been saved and relogged into a
      slice pinball, step statement-by-statement through the execution
      slice while examining program state.

    All analysis artifacts (trace, global trace, LP definition index)
    are cached per pinball: PinPlay's repeatability guarantee makes them
    valid for every subsequent replay of the same pinball. *)

open Dr_machine

type breakpoint = { bp_id : int; bp_pc : int; bp_line : int option; mutable bp_enabled : bool }

type watchpoint = { wp_id : int; wp_name : string; wp_addr : int }

type stop = {
  stop_tid : int;
  stop_pc : int;
  stop_line : int option;
  stop_reason : string;
}

type mode =
  | Idle
  | Replaying of Dr_pinplay.Replayer.t
  | Slice_stepping of Dr_exeslice.Slice_replay.t

type analysis = {
  collector : Dr_slicing.Collector.result;
  gt : Dr_slicing.Global_trace.t;
  lp : Dr_slicing.Lp.t;
}

type t = {
  prog : Dr_isa.Program.t;
  input : int array;
  mutable policy : Driver.policy;  (** schedule for native runs / recording *)
  mutable mode : mode;
  mutable pinball : Dr_pinplay.Pinball.t option;
  mutable slice_pinball : Dr_pinplay.Pinball.t option;
  mutable analysis : analysis option;
  mutable slice : Dr_slicing.Slicer.t option;
  mutable breakpoints : breakpoint list;
  mutable watchpoints : watchpoint list;
  mutable next_bp_id : int;
  mutable last_stop : stop option;
  mutable replay_steps : int;  (** retired instructions in the current replay *)
  mutable prune : bool;  (** apply save/restore pruning to slices *)
  mutable refine : bool;  (** apply CFG refinement to control deps *)
  mutable checkpoints : Dr_pinplay.Replayer.checkpoint list;
      (** auto-captured during replay, sorted by step (reverse debugging):
          a ladder of at most {!ladder_rungs} periodic checkpoints plus
          those that stops take *)
  mutable checkpoint_interval : int;
      (** least distance between auto-captured checkpoints *)
  mutable stopped_at_bp : bool;
      (** gdb semantics: continuing from a breakpoint first steps off it *)
}

let create ?(input = [||]) ?(seed = 1)
    ?(policy : Driver.policy option) (prog : Dr_isa.Program.t) : t =
  let policy =
    match policy with
    | Some p -> p
    | None -> Driver.Seeded { seed; max_quantum = 6 }
  in
  { prog; input; policy; mode = Idle; pinball = None; slice_pinball = None;
    analysis = None; slice = None; breakpoints = []; watchpoints = [];
    next_bp_id = 1;
    last_stop = None; replay_steps = 0; prune = true; refine = true;
    checkpoints = []; checkpoint_interval = 2000; stopped_at_bp = false }

let line_of_pc t pc = Dr_isa.Debug_info.line_of_pc t.prog.Dr_isa.Program.debug pc

(* ---- recording ---- *)

type record_spec = Whole | Region of { skip : int; length : int } | Until_failure

let record (t : t) (spec : record_spec) :
    (Dr_pinplay.Logger.stats, string) result =
  let lspec =
    match spec with
    | Whole -> Dr_pinplay.Logger.Whole
    | Region { skip; length } -> Dr_pinplay.Logger.Skip_length { skip; length }
    | Until_failure -> Dr_pinplay.Logger.Skip_until { skip = 0; until = (fun _ -> false) }
  in
  match Dr_pinplay.Logger.log ~policy:t.policy ~input:t.input t.prog lspec with
  | Error e -> Error (Format.asprintf "%a" Dr_pinplay.Logger.pp_error e)
  | Ok (pb, stats) ->
    t.pinball <- Some pb;
    (* a new pinball invalidates all cached analysis *)
    t.analysis <- None;
    t.slice <- None;
    t.slice_pinball <- None;
    t.mode <- Idle;
    Ok stats

let load_pinball (t : t) (pb : Dr_pinplay.Pinball.t) =
  t.pinball <- Some pb;
  t.analysis <- None;
  t.slice <- None;
  t.slice_pinball <- None;
  t.mode <- Idle

(* ---- breakpoints ---- *)

let add_breakpoint_pc (t : t) pc =
  let bp =
    { bp_id = t.next_bp_id; bp_pc = pc; bp_line = line_of_pc t pc;
      bp_enabled = true }
  in
  t.next_bp_id <- t.next_bp_id + 1;
  t.breakpoints <- t.breakpoints @ [ bp ];
  bp

let add_breakpoint_line (t : t) line : (breakpoint, string) result =
  match Dr_isa.Debug_info.pc_of_line t.prog.Dr_isa.Program.debug line with
  | Some pc -> Ok (add_breakpoint_pc t pc)
  | None -> Error (Printf.sprintf "no code at line %d" line)

let add_breakpoint_func (t : t) name : (breakpoint, string) result =
  match Dr_isa.Debug_info.func_named t.prog.Dr_isa.Program.debug name with
  | Some f -> Ok (add_breakpoint_pc t f.Dr_isa.Debug_info.entry)
  | None -> Error (Printf.sprintf "no function named %s" name)

let delete_breakpoint (t : t) id =
  let before = List.length t.breakpoints + List.length t.watchpoints in
  t.breakpoints <- List.filter (fun b -> b.bp_id <> id) t.breakpoints;
  t.watchpoints <- List.filter (fun w -> w.wp_id <> id) t.watchpoints;
  List.length t.breakpoints + List.length t.watchpoints < before

(** Watch writes to a variable: replay stops on any store to its memory
    cell (globals, or a frame slot resolved at the current stop). *)
let add_watchpoint (t : t) (m : Machine.t option) ~tid name :
    (watchpoint, string) result =
  let resolve () =
    match m with
    | None -> (
      (* without a live machine only globals can be resolved *)
      match
        List.find_opt
          (fun (n, _, _) -> n = name)
          t.prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals
      with
      | Some (_, addr, _) -> Ok addr
      | None -> Error (Printf.sprintf "no global named %s (start a replay to watch locals)" name))
    | Some m -> (
      let th = Machine.thread m tid in
      match
        Dr_isa.Debug_info.lookup_var t.prog.Dr_isa.Program.debug
          ~pc:th.Machine.pc name
      with
      | Some (Dr_isa.Debug_info.Global a) -> Ok a
      | Some (Dr_isa.Debug_info.Frame off) ->
        Ok (th.Machine.regs.(Dr_isa.Reg.fp) + off)
      | Some (Dr_isa.Debug_info.Register _) ->
        Error (Printf.sprintf "%s lives in a register; watchpoints cover memory" name)
      | None -> Error (Printf.sprintf "no variable %s in scope" name))
  in
  match resolve () with
  | Error e -> Error e
  | Ok addr ->
    let wp = { wp_id = t.next_bp_id; wp_name = name; wp_addr = addr } in
    t.next_bp_id <- t.next_bp_id + 1;
    t.watchpoints <- t.watchpoints @ [ wp ];
    Ok wp

(* The enabled breakpoints' pcs, or None when there are none.  A thread's
   pc ranges over the code and one past its end (where the next step
   faults), so the set covers both. *)
let breakpoint_set (t : t) =
  let bs = Dr_util.Bitset.create (Dr_isa.Program.code_size t.prog + 1) in
  List.iter
    (fun b ->
      if b.bp_enabled && b.bp_pc >= 0 && b.bp_pc < Dr_util.Bitset.length bs then
        Dr_util.Bitset.add bs b.bp_pc)
    t.breakpoints;
  if Dr_util.Bitset.is_empty bs then None else Some bs

(* ---- replay control ---- *)

let start_replay (t : t) : (unit, string) result =
  match t.pinball with
  | None -> Error "no pinball: record first"
  | Some pb ->
    let r = Dr_pinplay.Replayer.create t.prog pb in
    t.mode <- Replaying r;
    t.replay_steps <- 0;
    t.last_stop <- None;
    t.checkpoints <- [];
    t.stopped_at_bp <- false;
    Ok ()

let machine (t : t) : Machine.t option =
  match t.mode with
  | Idle -> None
  | Replaying r -> Some (Dr_pinplay.Replayer.machine r)
  | Slice_stepping s -> Some (Dr_exeslice.Slice_replay.machine s)

let stop_of_reason (t : t) (m : Machine.t) (reason : Driver.stop_reason) : stop =
  let mk tid pc why =
    { stop_tid = tid; stop_pc = pc; stop_line = line_of_pc t pc;
      stop_reason = why }
  in
  match reason with
  | Driver.Breakpoint { tid; pc } -> mk tid pc "breakpoint"
  | Driver.Terminated o ->
    let tid, pc =
      match o with
      | Machine.Assert_failed { tid; pc; _ } | Machine.Fault { tid; pc; _ } ->
        (tid, pc)
      | _ -> (0, (Machine.thread m 0).Machine.pc)
    in
    mk tid pc (Format.asprintf "%a" Machine.pp_outcome o)
  | Driver.Schedule_end -> mk 0 (Machine.thread m 0).Machine.pc "end of region"
  | Driver.Max_steps -> mk 0 (Machine.thread m 0).Machine.pc "step limit"
  | Driver.Deadlock -> mk 0 (Machine.thread m 0).Machine.pc "deadlock"
  | Driver.Stop_requested -> mk 0 (Machine.thread m 0).Machine.pc "stopped"

(* ---- checkpoint ladder ----

   Replay is deterministic, so a checkpoint taken on one replay of the
   pinball is valid for every later one.  [continue_replay] runs in
   chunks and captures a checkpoint at every rung it passes: the rungs
   sit [ladder_spacing] steps apart, so a rewind re-runs at most one
   spacing from the nearest checkpoint. *)

(** Periodic checkpoints per replay, at most (the same records/16 ladder
    as {!Dr_slicing.Reexec}). *)
let ladder_rungs = 16

let ladder_spacing (t : t) pb =
  max 1
    (max t.checkpoint_interval
       (Dr_pinplay.Pinball.schedule_instructions pb / ladder_rungs))

(* the checkpoint nearest at or before [step] (the list is sorted) *)
let checkpoint_before (t : t) step =
  List.fold_left
    (fun acc c -> if c.Dr_pinplay.Replayer.c_steps <= step then Some c else acc)
    None t.checkpoints

let insert_checkpoint (t : t) (r : Dr_pinplay.Replayer.t) =
  let c = Dr_pinplay.Replayer.checkpoint r in
  let rec ins = function
    | x :: rest when x.Dr_pinplay.Replayer.c_steps < c.Dr_pinplay.Replayer.c_steps
      -> x :: ins rest
    | l -> c :: l
  in
  t.checkpoints <- ins t.checkpoints

(* at a stop: capture a checkpoint if we've moved far enough past the
   nearest earlier one *)
let maybe_checkpoint (t : t) (r : Dr_pinplay.Replayer.t) =
  let here = Dr_pinplay.Replayer.steps r in
  let last =
    match checkpoint_before t here with
    | Some c -> c.Dr_pinplay.Replayer.c_steps
    | None -> -t.checkpoint_interval
  in
  if here - last >= t.checkpoint_interval then insert_checkpoint t r

(* Resume [r] for at most [budget] steps, pausing at every rung on the
   way to capture the rung's checkpoint unless the ladder has it. *)
let resume_laddered ?stop_when ?break_at ~budget (t : t) pb r =
  let spacing = ladder_spacing t pb in
  let rec go budget =
    let here = Dr_pinplay.Replayer.steps r in
    (if here > 0 && here mod spacing = 0 then
       match checkpoint_before t here with
       | Some c when c.Dr_pinplay.Replayer.c_steps = here -> ()
       | _ -> insert_checkpoint t r);
    let chunk = min budget (spacing - (here mod spacing)) in
    match Dr_pinplay.Replayer.resume ~max_steps:chunk ?break_at ?stop_when r with
    | Driver.Max_steps when chunk < budget -> go (budget - chunk)
    | reason -> reason
  in
  go budget

(** Continue replay until a breakpoint, the end of the region, or (with
    [max_steps]) a step count.  Checkpoints for reverse debugging are
    captured on the ladder's rungs and at every stop.  Continuing from a
    breakpoint first steps off it (gdb semantics). *)
let continue_replay ?max_steps (t : t) : (stop, string) result =
  match (t.mode, t.pinball) with
  | Replaying r, Some pb -> (
    let finish reason =
      t.replay_steps <- Dr_pinplay.Replayer.steps r;
      maybe_checkpoint t r;
      t.stopped_at_bp <- (match reason with Driver.Breakpoint _ -> true | _ -> false);
      let stop = stop_of_reason t (Dr_pinplay.Replayer.machine r) reason in
      t.last_stop <- Some stop;
      Ok stop
    in
    let budget = ref (Option.value ~default:max_int max_steps) in
    let step_off =
      if t.stopped_at_bp && !budget > 0 then begin
        t.stopped_at_bp <- false;
        decr budget;
        try
          match Dr_pinplay.Replayer.resume ~max_steps:1 r with
          | Driver.Max_steps -> Ok None  (* stepped off; keep going *)
          | reason -> Ok (Some reason)
        with Dr_pinplay.Replayer.Divergence d ->
          Error ("replay divergence: " ^ Dr_pinplay.Replayer.divergence_message d)
      end
      else Ok None
    in
    match step_off with
    | Error e -> Error e
    | Ok (Some reason) -> finish reason
    | Ok None ->
      if !budget <= 0 then finish Driver.Max_steps
      else (
        let fired_watch = ref None in
        let stop_when =
          match t.watchpoints with
          | [] -> None
          | wps ->
            Some
              (fun (ev : Event.t) ->
                let addr = ev.Event.mem_write in
                addr >= 0
                &&
                match List.find_opt (fun w -> w.wp_addr = addr) wps with
                | Some w ->
                  fired_watch :=
                    Some (w, ev.Event.mem_write_value, ev.Event.tid, ev.Event.pc);
                  true
                | None -> false)
        in
        try
          let reason =
            resume_laddered ?stop_when ?break_at:(breakpoint_set t)
              ~budget:!budget t pb r
          in
          match (reason, !fired_watch) with
          | Driver.Stop_requested, Some (w, v, tid, pc) ->
            t.replay_steps <- Dr_pinplay.Replayer.steps r;
            maybe_checkpoint t r;
            t.stopped_at_bp <- false;
            let stop =
              { stop_tid = tid; stop_pc = pc; stop_line = line_of_pc t pc;
                stop_reason =
                  Printf.sprintf "watchpoint: %s = %d" w.wp_name v }
            in
            t.last_stop <- Some stop;
            Ok stop
          | _ -> finish reason
        with Dr_pinplay.Replayer.Divergence d ->
          Error ("replay divergence: " ^ Dr_pinplay.Replayer.divergence_message d)))
  | _ -> Error "not replaying: use replay first"

let stepi (t : t) n = continue_replay ~max_steps:n t

(* ---- reverse debugging (paper section 8's proposal, implemented) ----

   Replay is deterministic, so "going backwards" is: restart from the
   nearest checkpoint at or before the target step count and run forward
   to the target.  Once a replay has passed the target, the ladder bounds
   that run by one spacing; before, it starts at the region start. *)

(** Move the replay to exactly [target] retired instructions. *)
let goto_step (t : t) ~target : (stop, string) result =
  match t.pinball with
  | None -> Error "no pinball"
  | Some pb ->
    if target < 0 then Error "cannot step before the region start"
    else begin
      let from = checkpoint_before t target in
      let r = Dr_pinplay.Replayer.create ?from t.prog pb in
      t.mode <- Replaying r;
      let already = Dr_pinplay.Replayer.steps r in
      let need = target - already in
      let result =
        if need = 0 then Ok ()
        else
          match Dr_pinplay.Replayer.resume ~max_steps:need r with
          | Driver.Max_steps | Driver.Schedule_end | Driver.Terminated _ -> Ok ()
          | reason ->
            Error
              (Format.asprintf "unexpected stop while rewinding: %a"
                 Driver.pp_stop_reason reason)
      in
      match result with
      | Error e -> Error e
      | Ok () ->
        t.stopped_at_bp <- false;
        t.replay_steps <- Dr_pinplay.Replayer.steps r;
        (* the last retired step is the machine's scratch event *)
        let m = Dr_pinplay.Replayer.machine r in
        let tid, pc =
          if t.replay_steps > already then
            (m.Machine.ev.Event.tid, m.Machine.ev.Event.pc)
          else (0, (Machine.thread m 0).Machine.pc)
        in
        let stop =
          { stop_tid = tid; stop_pc = pc; stop_line = line_of_pc t pc;
            stop_reason = Printf.sprintf "rewound to step %d" t.replay_steps }
        in
        t.last_stop <- Some stop;
        Ok stop
    end

(** Step backwards by [n] retired instructions. *)
let reverse_stepi (t : t) n : (stop, string) result =
  match t.mode with
  | Replaying _ -> goto_step t ~target:(max 0 (t.replay_steps - n))
  | _ -> Error "not replaying"

(** Run backwards to the most recent earlier breakpoint hit.  Scans
    forward from the region start (deterministically) to find breakpoint
    hits before the current position, then rewinds to the last one. *)
let reverse_continue (t : t) : (stop, string) result =
  match (t.mode, t.pinball) with
  | Replaying _, Some pb ->
    let current = t.replay_steps in
    if current = 0 then Error "already at the region start"
    else begin
      (* scan: replay from the start, collecting breakpoint-hit step
         counts strictly before the current position *)
      let scan = Dr_pinplay.Replayer.create t.prog pb in
      let hits = ref [] in
      let break_at = breakpoint_set t in
      let rec loop () =
        match
          Dr_pinplay.Replayer.resume ?break_at
            ~max_steps:(current - Dr_pinplay.Replayer.steps scan)
            scan
        with
        | Driver.Breakpoint { tid; pc } when Dr_pinplay.Replayer.steps scan < current ->
          hits := (Dr_pinplay.Replayer.steps scan, tid, pc) :: !hits;
          (* step past the breakpoint instruction and keep scanning *)
          (match Dr_pinplay.Replayer.resume ~max_steps:1 scan with
          | Driver.Max_steps -> loop ()
          | _ -> ())
        | _ -> ()
      in
      loop ();
      match !hits with
      | [] -> Error "no earlier breakpoint hit in this region"
      | (last, tid, pc) :: _ -> (
        match goto_step t ~target:last with
        | Error e -> Error e
        | Ok _ ->
          (* we are now stopped AT the breakpoint again *)
          t.stopped_at_bp <- true;
          let stop =
            { stop_tid = tid; stop_pc = pc; stop_line = line_of_pc t pc;
              stop_reason = "reverse-continue: breakpoint" }
          in
          t.last_stop <- Some stop;
          Ok stop)
    end
  | _ -> Error "not replaying"

(* ---- inspecting state ---- *)

(** Value of variable [name] as seen from the given thread's current
    frame. *)
let read_var (t : t) (m : Machine.t) ~tid name : (int, string) result =
  let th = Machine.thread m tid in
  match Dr_isa.Debug_info.lookup_var t.prog.Dr_isa.Program.debug ~pc:th.Machine.pc name with
  | None -> Error (Printf.sprintf "no variable %s in scope at pc %d" name th.Machine.pc)
  | Some (Dr_isa.Debug_info.Global a) -> Ok m.Machine.mem.(a)
  | Some (Dr_isa.Debug_info.Frame off) ->
    let addr = th.Machine.regs.(Dr_isa.Reg.fp) + off in
    if addr < 0 || addr >= Array.length m.Machine.mem then Error "frame slot out of range"
    else Ok m.Machine.mem.(addr)
  | Some (Dr_isa.Debug_info.Register r) -> Ok th.Machine.regs.(r)

(** The dependence location of variable [name] for slicing purposes. *)
let var_loc (t : t) (m : Machine.t) ~tid name : (int, string) result =
  let th = Machine.thread m tid in
  match Dr_isa.Debug_info.lookup_var t.prog.Dr_isa.Program.debug ~pc:th.Machine.pc name with
  | None -> Error (Printf.sprintf "no variable %s in scope" name)
  | Some (Dr_isa.Debug_info.Global a) -> Ok (Dr_isa.Loc.mem a)
  | Some (Dr_isa.Debug_info.Frame off) ->
    Ok (Dr_isa.Loc.mem (th.Machine.regs.(Dr_isa.Reg.fp) + off))
  | Some (Dr_isa.Debug_info.Register r) -> Ok (Dr_isa.Loc.reg ~tid r)

(** Call stack of a thread, innermost first: (function name, pc). *)
let backtrace (t : t) (m : Machine.t) ~tid : (string * int) list =
  let th = Machine.thread m tid in
  let dbg = t.prog.Dr_isa.Program.debug in
  let name_of pc =
    match Dr_isa.Debug_info.func_at dbg pc with
    | Some f -> f.Dr_isa.Debug_info.fname
    | None -> "??"
  in
  let rec walk pc fp acc depth =
    if depth > 64 then List.rev acc
    else begin
      let acc = (name_of pc, pc) :: acc in
      if fp < 0 || fp >= Array.length m.Machine.mem then List.rev acc
      else begin
        let ra = if fp + 1 < Array.length m.Machine.mem then m.Machine.mem.(fp + 1) else -1 in
        if ra = Machine.ret_sentinel || ra <= 0 then List.rev acc
        else walk (ra - 1) m.Machine.mem.(fp) acc (depth + 1)
      end
    end
  in
  let pc = th.Machine.pc and fp = th.Machine.regs.(Dr_isa.Reg.fp) in
  match Dr_isa.Debug_info.func_at dbg pc with
  | Some f when pc = f.Dr_isa.Debug_info.entry ->
    (* stopped at a function entry: the frame is not built yet, so the
       return address sits at the top of the stack and fp still belongs
       to the caller *)
    let sp = th.Machine.regs.(Dr_isa.Reg.sp) in
    let ra =
      if sp >= 0 && sp < Array.length m.Machine.mem then m.Machine.mem.(sp)
      else -1
    in
    if ra = Machine.ret_sentinel || ra <= 0 then [ (name_of pc, pc) ]
    else (name_of pc, pc) :: walk (ra - 1) fp [] 0
  | _ -> walk pc fp [] 0

(* ---- slicing ---- *)

(** Collect (and cache) the trace/global-trace/LP analysis for the
    current pinball. *)
let ensure_analysis (t : t) : (analysis, string) result =
  match t.analysis with
  | Some a -> Ok a
  | None -> (
    match t.pinball with
    | None -> Error "no pinball: record first"
    | Some pb ->
      let collector = Dr_slicing.Collector.collect ~refine:t.refine t.prog pb in
      let gt = Dr_slicing.Global_trace.construct collector in
      let lp = Dr_slicing.Lp.prepare gt in
      let a = { collector; gt; lp } in
      t.analysis <- Some a;
      Ok a)

(** Compute a backwards dynamic slice for variable [name] at the current
    stop point of the replay. *)
let slice_var (t : t) name : (Dr_slicing.Slicer.t, string) result =
  match t.mode with
  | Replaying r when t.replay_steps > 0 -> (
    match ensure_analysis t with
    | Error e -> Error e
    | Ok a -> (
      let m = Dr_pinplay.Replayer.machine r in
      let stop = Option.get t.last_stop in
      match var_loc t m ~tid:stop.stop_tid name with
      | Error e -> Error e
      | Ok loc ->
        (* the criterion is the last retired instruction: collection order
           equals replay order, so its gseq is replay_steps - 1 *)
        let crit_gseq = t.replay_steps - 1 in
        if crit_gseq
           >= Dr_slicing.Segment_store.length
                a.collector.Dr_slicing.Collector.records
        then Error "replay position beyond collected trace"
        else begin
          let crit_pos = Dr_slicing.Global_trace.position a.gt ~gseq:crit_gseq in
          let pairs =
            if t.prune then Some a.collector.Dr_slicing.Collector.pairs else None
          in
          let slice =
            Dr_slicing.Slicer.compute ~lp:a.lp ?pairs a.gt
              { Dr_slicing.Slicer.crit_pos; crit_locs = Some [ loc ] }
          in
          t.slice <- Some slice;
          Ok slice
        end))
  | Replaying _ -> Error "replay has not executed yet: continue or stepi first"
  | _ -> Error "slicing requires an active replay"

(** Slice for the failure point: criterion is the last record of the
    trace (the assert/fault), chasing all its inputs. *)
let slice_failure (t : t) : (Dr_slicing.Slicer.t, string) result =
  match ensure_analysis t with
  | Error e -> Error e
  | Ok a ->
    let n = Dr_slicing.Global_trace.length a.gt in
    if n = 0 then Error "empty trace"
    else begin
      let pairs = if t.prune then Some a.collector.Dr_slicing.Collector.pairs else None in
      let slice =
        Dr_slicing.Slicer.compute ~lp:a.lp ?pairs a.gt
          { Dr_slicing.Slicer.crit_pos = n - 1; crit_locs = None }
      in
      t.slice <- Some slice;
      Ok slice
    end

(** Generate the slice pinball for the current slice (paper Fig. 4b). *)
let make_slice_pinball (t : t) : (Dr_pinplay.Pinball.t * Dr_exeslice.Exclusion.stats, string) result =
  match (t.slice, t.pinball, t.analysis) with
  | Some slice, Some pb, Some a -> (
    try
      let spb, stats =
        Dr_exeslice.Exclusion.slice_pinball t.prog pb ~slice
          ~collector:a.collector
      in
      t.slice_pinball <- Some spb;
      Ok (spb, stats)
    with Dr_pinplay.Relogger.Relog_error msg -> Error ("relog failed: " ^ msg))
  | None, _, _ -> Error "no slice: compute one first"
  | _, None, _ -> Error "no pinball"
  | _ -> Error "no analysis"

(** Enter slice-stepping mode on the slice pinball (paper Fig. 4c). *)
let start_slice_replay (t : t) : (unit, string) result =
  match t.slice_pinball with
  | None -> Error "no slice pinball: use slice-pinball first"
  | Some spb ->
    t.mode <- Slice_stepping (Dr_exeslice.Slice_replay.create t.prog spb);
    t.last_stop <- None;
    Ok ()

let slice_step (t : t) : (Dr_exeslice.Slice_replay.step_result, string) result =
  match t.mode with
  | Slice_stepping s ->
    let r = Dr_exeslice.Slice_replay.step_statement s in
    (match r with
    | Dr_exeslice.Slice_replay.Stepped { tid; pc; line } ->
      t.last_stop <-
        Some
          { stop_tid = tid; stop_pc = pc;
            stop_line = (if line >= 0 then Some line else None);
            stop_reason = "slice step" }
    | _ -> ());
    Ok r
  | _ -> Error "not in slice replay: use slice-replay first"
