(** The PinPlay relogger: replay a region pinball while {e excluding} code
    regions, producing a slice pinball (paper §4).

    Exclusion regions follow the paper's form
    [[startPc:sinstance:tid, endPc:einstance:tid)]: a per-thread exclusion
    flag turns on when the [sinstance]-th execution of [startPc] is
    encountered in [tid] (that instruction is excluded) and turns off when
    the [einstance]-th execution of [endPc] is reached (that instruction
    is included).  While the flag is on, side-effect detection records the
    memory cells and registers the excluded code modifies; when it turns
    off, an injection record restoring those values is emitted before the
    next included instruction — the same mechanism PinPlay uses for
    system-call side effects. *)

open Dr_machine

exception Relog_error of string

type exclusion = {
  x_tid : int;
  x_start_pc : int;
  x_start_instance : int;  (** 1-based, counted from region start, per thread *)
  x_end : (int * int) option;  (** (end_pc, end_instance); [None] = to region end *)
}

type per_thread = {
  mutable flag : bool;
  mutable queue : exclusion list;  (** remaining exclusions, in region order *)
  pending_mem : (int, int) Hashtbl.t;
  pending_regs : int array;  (** register file after the last excluded instr *)
  mutable dirty : bool;  (** an excluded instruction has executed *)
  instances : Instance_count.t;
}

let fresh_thread_state ~code_size queue =
  { flag = false; queue; pending_mem = Hashtbl.create 16;
    pending_regs = Array.make Dr_isa.Reg.file_size 0; dirty = false;
    instances = Instance_count.create ~code_size }

(* An included write supersedes any pending excluded write to the same
   cell: injecting the excluded (earlier) value at region end would
   clobber this one.  The included instruction re-executes during slice
   replay, so the cell needs no injection at all. *)
let drop_pending_write per_thread addr =
  for i = 0 to Array.length per_thread - 1 do
    let other = per_thread.(i) in
    if other.dirty then Hashtbl.remove other.pending_mem addr
  done

(** Replay [pinball] (a region pinball) and produce the slice pinball that
    skips the given exclusion regions.  The exclusions of each thread must
    be given in region order and must not overlap. *)
let relog (prog : Dr_isa.Program.t) (pinball : Pinball.t)
    ~(exclusions : exclusion list) : Pinball.t =
  if pinball.Pinball.kind <> Pinball.Region then
    invalid_arg "Relogger.relog: expected a region pinball";
  Dr_obs.Obs.with_span ~cat:"relog" "relogger.relog" @@ fun sp ->
  let max_tid =
    List.fold_left (fun acc x -> max acc x.x_tid) 0 exclusions
    + prog.Dr_isa.Program.max_threads
  in
  let per_thread =
    Array.init max_tid (fun tid ->
        fresh_thread_state ~code_size:(Dr_isa.Program.code_size prog)
          (List.filter (fun x -> x.x_tid = tid) exclusions))
  in
  let events = Dr_util.Vec.create ~dummy:(Pinball.Inject (-1)) in
  let injections = Dr_util.Vec.create ~dummy:{ Pinball.inj_tid = 0; inj_mem = []; inj_regs = [] } in
  let syscalls = Dr_util.Vec.Int_vec.create () in
  let schedule = Schedule.recorder () in
  let replayer = Replayer.create prog pinball in
  let m = Replayer.machine replayer in
  (* Flush the side effects of a just-finished exclusion region: the final
     values of every memory cell the excluded code wrote, plus the
     thread's complete register file as of the last excluded instruction
     (registers untouched by the excluded code re-inject their unchanged
     values, which is harmless). *)
  let flush_injection tid (st : per_thread) =
    if st.dirty then begin
      let inj_mem =
        List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) st.pending_mem [])
      in
      let inj_regs =
        List.init Dr_isa.Reg.file_size (fun r -> (r, st.pending_regs.(r)))
      in
      let idx = Dr_util.Vec.length injections in
      Dr_util.Vec.push injections { Pinball.inj_tid = tid; inj_mem; inj_regs };
      Dr_util.Vec.push events (Pinball.Inject idx);
      Hashtbl.reset st.pending_mem;
      st.dirty <- false
    end
  in
  (* exclusion end: the end instruction itself is included *)
  let check_end tid (st : per_thread) ~pc ~instance =
    if st.flag then
      match st.queue with
      | { x_end = Some (epc, einst); _ } :: rest when epc = pc && einst = instance ->
        st.flag <- false;
        st.queue <- rest;
        flush_injection tid st
      | _ -> ()
  in
  let on_event (ev : Event.t) =
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let st = per_thread.(tid) in
    let instance = Instance_count.next st.instances pc in
    check_end tid st ~pc ~instance;
    (* exclusion start: the start instruction itself is excluded.  An
       empty region [p:i, p:i) has its end marker on the same
       instruction: re-checking the end right after the start keeps that
       instruction included and excludes nothing (half-open interval). *)
    (if not st.flag then
       match st.queue with
       | { x_start_pc; x_start_instance; _ } :: _
         when x_start_pc = pc && x_start_instance = instance ->
         st.flag <- true;
         check_end tid st ~pc ~instance
       | _ -> ());
    if st.flag then begin
      (* side-effect detection for the excluded instruction *)
      (match ev.Event.sys with
      | Event.Sys_spawn _ | Event.Sys_join _ | Event.Sys_lock _
      | Event.Sys_unlock _ | Event.Sys_exit _ | Event.Sys_alloc _
      | Event.Sys_wait _ | Event.Sys_signal _ ->
        raise
          (Relog_error
             (Printf.sprintf
                "synchronization instruction excluded at tid=%d pc=%d" tid pc))
      | _ -> ());
      (match ev.Event.instr with
      | Dr_isa.Instr.Ret when ev.Event.mem_read_value = Machine.ret_sentinel ->
        raise
          (Relog_error
             (Printf.sprintf "thread-final return excluded at tid=%d pc=%d" tid pc))
      | _ -> ());
      if ev.Event.mem_write >= 0 then
        Hashtbl.replace st.pending_mem ev.Event.mem_write ev.Event.mem_write_value;
      let th = Machine.thread m tid in
      Array.blit th.Machine.regs 0 st.pending_regs 0 Dr_isa.Reg.file_size;
      st.dirty <- true
    end
    else begin
      (* included instruction *)
      if ev.Event.mem_write >= 0 then drop_pending_write per_thread ev.Event.mem_write;
      Dr_util.Vec.push events (Pinball.Step { tid; pc });
      Schedule.record schedule tid;
      match ev.Event.sys with
      | Event.Sys_nondet { result; _ } -> Dr_util.Vec.Int_vec.push syscalls result
      | _ -> ()
    end
  in
  let _reason = Replayer.run ~hooks:{ Driver.on_event } replayer in
  (* trailing exclusions: flush what's left *)
  Array.iteri (fun tid st -> if st.flag then flush_injection tid st) per_thread;
  Dr_obs.Obs.add_attr sp "exclusions"
    (Dr_obs.Obs.Int (List.length exclusions));
  Dr_obs.Obs.add_attr sp "injections"
    (Dr_obs.Obs.Int (Dr_util.Vec.length injections));
  Dr_obs.Obs.add_attr sp "slice_events"
    (Dr_obs.Obs.Int (Dr_util.Vec.length events));
  (* the region pinball's digests are indexed by region step, which slice
     replay does not follow — they would all misfire, so drop them *)
  { pinball with
    Pinball.kind = Pinball.Slice;
    schedule = Schedule.recorded schedule;
    syscalls = Dr_util.Vec.Int_vec.to_array syscalls;
    injections = Dr_util.Vec.to_array injections;
    slice_events = Dr_util.Vec.to_array events;
    digest_interval = 0;
    digests = [||] }
