(** Trace collection during deterministic replay (paper §3(i), §5).

    The collector attaches to a {!Dr_pinplay.Replayer} run of a region
    pinball and records, per retired instruction:

    - the locations defined and used (registers thread-local, memory
      global),
    - the dynamic control dependence, via the online Xin–Zhang algorithm
      driven by immediate post-dominators from {!Dr_cfg.Cfg},
    - shared-memory access-order edges between threads (RAW/WAW/WAR),
      needed to construct the combined global trace,
    - dynamically observed indirect-jump targets (for CFG refinement),
    - dynamically confirmed save/restore pairs (for spurious-dependence
      pruning).

    Because replay is deterministic, collection can run in two passes:
    pass 1 gathers indirect-jump targets, the CFG is refined, and pass 2
    collects the trace with precise control dependences (the [refine]
    flag; §5.1).  Pass 1 runs only when the program has indirect jumps
    or calls: without them its target table is empty. *)

open Dr_machine

type result = {
  records : Segment_store.t;  (** indexed by gseq = execution order *)
  per_thread : int array array;  (** tid -> gseqs in program order *)
  order_edges : (int * int) array;  (** (earlier gseq, later gseq) cross-thread *)
  indirect_targets : (int * int list) list;
  pairs : Prune.pairs;
  cfg : Dr_cfg.Cfg.t;  (** the CFG used in the final pass *)
}

(* per-thread control-dependence stack entry *)
type cd_entry = { branch_gseq : int; ipdom_pc : int; cd_depth : int }
(* ipdom_pc = -1 means "pops at function return" *)

(* per-thread derivation state *)
type thread_st = {
  mutable stack : cd_entry list;  (* innermost region first *)
  mutable depth : int;  (* call depth *)
  instances : Instance_count.t;
}

(** The record-derivation state machine, factored out of the collection
    hook so that {!Reexec} can re-derive the {e exact} records of a
    window by replaying forward from a checkpoint: Xin–Zhang
    control-dependence stacks and per-(tid, pc) instance counters.  The
    state is {e prefix-dependent} — a record's cd/instance fields depend on
    every earlier event of its thread — so a checkpoint that wants to
    resume derivation mid-trace must carry a {!Derive.copy} taken at the
    same event boundary as the machine snapshot.

    Both users drive it identically: one {!Derive.next} call per retired
    instruction, in event order, each writing one row into a
    {!Segment_store.Chunk} (the collector's segment builder, or a
    re-execution window).  The collector keeps its own concerns
    (access-order edges, save/restore confirmation, watchdog polling)
    outside, so a field-for-field agreement between a collected row and
    a re-derived one follows from determinism of the replay plus this
    shared core. *)
module Derive = struct
  type t = {
    region_end : Dr_cfg.Cfg.region_end array;
        (* shared, read-only: [Cfg.branch_region_end] of every branch pc,
           one entry per pc of the code *)
    threads : thread_st array;
        (* tid-indexed (the machine numbers threads below [max_threads]);
           [no_thread] = not seen yet *)
    scratch_defs : Dr_util.Vec.Int_vec.t;  (* per-copy, never shared *)
    scratch_uses : Dr_util.Vec.Int_vec.t;
  }

  let no_thread =
    { stack = []; depth = 0; instances = Instance_count.create ~code_size:0 }

  let create ~(cfg : Dr_cfg.Cfg.t) (prog : Dr_isa.Program.t) : t =
    let code = prog.Dr_isa.Program.code in
    let region_end =
      Array.init (Array.length code) (fun pc ->
          if Dr_isa.Instr.is_branch code.(pc) then
            Dr_cfg.Cfg.branch_region_end cfg ~pc
          else Dr_cfg.Cfg.Unknown)
    in
    { region_end;
      threads = Array.make prog.Dr_isa.Program.max_threads no_thread;
      scratch_defs = Dr_util.Vec.Int_vec.create ();
      scratch_uses = Dr_util.Vec.Int_vec.create () }

  (* Deep copy, safe to resume independently: the per-thread records
     and their counters are re-allocated (the cd stacks are immutable
     lists and can be shared), the read-only tables are shared. *)
  let copy (t : t) : t =
    { t with
      threads =
        Array.map
          (fun st ->
            if st == no_thread then st
            else { st with instances = Instance_count.copy st.instances })
          t.threads;
      scratch_defs = Dr_util.Vec.Int_vec.create ();
      scratch_uses = Dr_util.Vec.Int_vec.create () }

  let thread t tid =
    let st = t.threads.(tid) in
    if st != no_thread then st
    else begin
      let st =
        { stack = []; depth = 0;
          instances =
            Instance_count.create ~code_size:(Array.length t.region_end) }
      in
      t.threads.(tid) <- st;
      st
    end

  (* close the control-dependence regions ending at [pc] *)
  let rec pop_ipdoms st pc =
    match st.stack with
    | e :: rest when e.cd_depth = st.depth && e.ipdom_pc = pc ->
      st.stack <- rest;
      pop_ipdoms st pc
    | _ -> ()

  (* Drop the regions of frame [d].  Entries are pushed at the current
     depth and a return drops every entry of the returning frame, so
     depths never increase from the top of the stack down: the frame's
     entries are a prefix. *)
  let rec drop_frame d = function
    | e :: rest when e.cd_depth = d -> drop_frame d rest
    | stack -> stack

  (** Derive the trace record of a retired instruction, append it to
      [chunk] as row [base + length] (that is its gseq) and advance the
      derivation state.  Must be called exactly once per event, in
      execution order. *)
  let next (t : t) (chunk : Segment_store.Chunk.t) (ev : Event.t) : unit =
    let gseq = Segment_store.Chunk.base chunk + Segment_store.Chunk.length chunk in
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let st = thread t tid in
    (* 1. close control-dependence regions ending at this pc *)
    pop_ipdoms st pc;
    (* 2. current control dependence *)
    let cd = match st.stack with e :: _ -> e.branch_gseq | [] -> -1 in
    (* 3. def/use *)
    Dr_util.Vec.Int_vec.clear t.scratch_defs;
    Dr_util.Vec.Int_vec.clear t.scratch_uses;
    Def_use.collect ev ~defs:t.scratch_defs ~uses:t.scratch_uses;
    (* 4. flags and instance *)
    let flags =
      (match Dr_pinplay.Relogger.forced ev with
      | Dr_pinplay.Relogger.Not_forced -> 0
      | Dr_pinplay.Relogger.Forced_sync -> Trace.flag_sync
      | Dr_pinplay.Relogger.Forced_final_ret ->
        Trace.flag_final_ret lor Trace.flag_sync)
      lor if ev.Event.mem_read >= 0 then Trace.flag_load else 0
    in
    let instance = Instance_count.next st.instances pc in
    Segment_store.Chunk.push chunk ~tid ~pc ~instance ~cd ~flags
      ~defs:t.scratch_defs ~uses:t.scratch_uses;
    (* 5. maintain CD frame depth (the row above is already written) *)
    let instr = ev.Event.instr in
    (match instr with
    | Dr_isa.Instr.Call _ | Dr_isa.Instr.Callind _ -> st.depth <- st.depth + 1
    | Dr_isa.Instr.Ret ->
      (* close regions belonging to the returning frame *)
      let d = st.depth in
      st.stack <- drop_frame d st.stack;
      st.depth <- max 0 (d - 1)
    | _ -> ());
    (* 6. push a CD region for branches *)
    if Dr_isa.Instr.is_branch instr then begin
      match t.region_end.(pc) with
      | Dr_cfg.Cfg.Unknown ->
        (* unresolved indirect jump: control dependence is lost (§5.1) *)
        ()
      | Dr_cfg.Cfg.To_exit ->
        st.stack <-
          { branch_gseq = gseq; ipdom_pc = -1; cd_depth = st.depth } :: st.stack
      | Dr_cfg.Cfg.At p ->
        st.stack <-
          { branch_gseq = gseq; ipdom_pc = p; cd_depth = st.depth } :: st.stack
    end
end

(* per-address access-order state *)
type addr_state = {
  mutable last_writer : int;  (** gseq, -1 if none *)
  mutable last_writer_tid : int;
  mutable readers : (int * int) list;  (** (gseq, tid) since last write *)
}

let has_indirect (prog : Dr_isa.Program.t) =
  Array.exists
    (function Dr_isa.Instr.Jind _ | Dr_isa.Instr.Callind _ -> true | _ -> false)
    prog.Dr_isa.Program.code

(* Pass 1 records only at indirect jumps and calls, so a program without
   any has an empty target table and the replay is skipped. *)
let collect_indirect_targets prog pinball : (int, int list) Hashtbl.t =
  let targets = Hashtbl.create 32 in
  if has_indirect prog then begin
    let on_event (ev : Event.t) =
      match ev.Event.instr with
      | Dr_isa.Instr.Jind _ | Dr_isa.Instr.Callind _ ->
        let pc = ev.Event.pc in
        let old = Option.value ~default:[] (Hashtbl.find_opt targets pc) in
        if not (List.mem ev.Event.next_pc old) then
          Hashtbl.replace targets pc (ev.Event.next_pc :: old)
      | _ -> ()
    in
    let replayer = Dr_pinplay.Replayer.create prog pinball in
    ignore (Dr_pinplay.Replayer.resume ~hooks:{ Driver.on_event } replayer)
  end;
  targets

let addr_state addr_states a =
  match Hashtbl.find_opt addr_states a with
  | Some s -> s
  | None ->
    let s = { last_writer = -1; last_writer_tid = -1; readers = [] } in
    Hashtbl.replace addr_states a s;
    s

(* WAR edges from every other thread's read since the last write *)
let rec push_war_edges order_edges ~tid ~gseq = function
  | [] -> ()
  | (rg, rt) :: rest ->
    if rt <> tid then Dr_util.Vec.push order_edges (rg, gseq);
    push_war_edges order_edges ~tid ~gseq rest

(* tid -> gseqs in program order, from the tids of all records in gseq
   order: one pass counts each thread's records, one fills. *)
let per_thread_of_tids ~nthreads tids =
  let counts = Array.make nthreads 0 in
  let d = Dr_util.Codec.decoder tids in
  while not (Dr_util.Codec.at_end d) do
    let tid = Dr_util.Codec.get_uint d in
    counts.(tid) <- counts.(tid) + 1
  done;
  let per_thread = Array.map (fun k -> Array.make k 0) counts in
  let fill = Array.make nthreads 0 in
  let d = Dr_util.Codec.decoder tids in
  let gseq = ref 0 in
  while not (Dr_util.Codec.at_end d) do
    let tid = Dr_util.Codec.get_uint d in
    per_thread.(tid).(fill.(tid)) <- !gseq;
    fill.(tid) <- fill.(tid) + 1;
    incr gseq
  done;
  per_thread

(** Collect the full region trace.  [refine] (default true) enables the
    two-pass CFG refinement of §5.1; [max_save] is the save/restore
    candidate window of §5.2.  [budget] governs resources: records spill
    to disk in segments past its memory budget, and its wall-clock
    watchdog aborts collection (a partial trace is useless) with a
    structured {!Dr_util.Budget.Resource_error}. *)
let collect ?(refine = true) ?(max_save = Prune.default_max_save) ?budget
    (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t) : result =
  Dr_obs.Obs.with_span ~cat:"trace" "collector.collect" @@ fun sp ->
  Dr_obs.Obs.add_attr sp "refine" (Dr_obs.Obs.Bool refine);
  Dr_obs.Obs.add_attr sp "indirect_pass"
    (Dr_obs.Obs.Bool (refine && has_indirect prog));
  let indirect_tbl =
    if refine then collect_indirect_targets prog pinball else Hashtbl.create 1
  in
  let indirect_targets =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) indirect_tbl []
  in
  let cfg = Dr_cfg.Cfg.build ~indirect_targets prog in
  let cands = Prune.static_candidates ~max_save prog ~functions:(Dr_cfg.Cfg.functions cfg) in
  let prune_state = Prune.create_state cands in
  let derive = Derive.create ~cfg prog in
  let records = Segment_store.builder ?budget () in
  let watchdog =
    Option.bind budget (Dr_util.Budget.watchdog_of ~what:"collector.collect")
  in
  (* the tid of every record, one varint each, from which [per_thread]
     is built exactly sized once the count per thread is known *)
  let tids = Dr_util.Codec.encoder () in
  let max_tid = ref 0 in
  let order_edges = Dr_util.Vec.create ~dummy:(0, 0) in
  let addr_states : (int, addr_state) Hashtbl.t = Hashtbl.create 4096 in
  let on_event (ev : Event.t) =
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let gseq = Segment_store.built_length records in
    (* cheap polled deadline: one clock read every 4096 records *)
    if gseq land 4095 = 0 then Option.iter Dr_util.Budget.check watchdog;
    (* cd / def-use / flags / instance: the shared derivation
       core (also replayed window-by-window by {!Reexec}) *)
    Derive.next derive (Segment_store.sink records) ev;
    Dr_util.Codec.put_uint tids tid;
    if tid > !max_tid then max_tid := tid;
    (* 5. shared-memory access order edges *)
    if ev.Event.mem_read >= 0 then begin
      let s = addr_state addr_states ev.Event.mem_read in
      if s.last_writer >= 0 && s.last_writer_tid <> tid then
        Dr_util.Vec.push order_edges (s.last_writer, gseq);
      s.readers <- (gseq, tid) :: s.readers
    end;
    if ev.Event.mem_write >= 0 then begin
      let s = addr_state addr_states ev.Event.mem_write in
      if s.last_writer >= 0 && s.last_writer_tid <> tid then
        Dr_util.Vec.push order_edges (s.last_writer, gseq);
      push_war_edges order_edges ~tid ~gseq s.readers;
      s.last_writer <- gseq;
      s.last_writer_tid <- tid;
      s.readers <- []
    end;
    (* 6. save/restore confirmation (the CD bookkeeping lives in Derive) *)
    (match ev.Event.instr with
    | Dr_isa.Instr.Call _ | Dr_isa.Instr.Callind _ -> Prune.on_call prune_state tid
    | Dr_isa.Instr.Ret -> Prune.on_ret prune_state tid
    | Dr_isa.Instr.Push reg when Hashtbl.mem cands.Prune.saves pc ->
      if Hashtbl.find cands.Prune.saves pc = reg then
        Prune.on_save prune_state ~tid ~pc ~reg ~addr:ev.Event.mem_write
          ~value:ev.Event.mem_write_value ~gseq
    | Dr_isa.Instr.Pop reg when Hashtbl.mem cands.Prune.restores pc ->
      if Hashtbl.find cands.Prune.restores pc = reg then
        Prune.on_restore prune_state ~tid ~pc ~reg ~addr:ev.Event.mem_read
          ~value:ev.Event.mem_read_value ~gseq
    | _ -> ())
  in
  let replayer = Dr_pinplay.Replayer.create prog pinball in
  ignore (Dr_pinplay.Replayer.resume ~hooks:{ Driver.on_event } replayer);
  let per_thread =
    per_thread_of_tids ~nthreads:(!max_tid + 1) (Dr_util.Codec.to_string tids)
  in
  let records = Segment_store.seal records in
  Dr_obs.Obs.add_attr sp "records" (Dr_obs.Obs.Int (Segment_store.length records));
  Dr_obs.Obs.add_attr sp "spilled_segments"
    (Dr_obs.Obs.Int (Segment_store.spilled_segments records));
  { records;
    per_thread;
    order_edges = Dr_util.Vec.to_array order_edges;
    indirect_targets;
    pairs = prune_state.Prune.pairs;
    cfg }
