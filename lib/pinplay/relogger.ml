(** The PinPlay relogger: replay a region pinball while {e excluding} code,
    producing a slice pinball (paper §4).

    The code to keep arrives as a bitset over gseq, the index of an
    instruction in the region's replay order (all threads): the k-th
    [on_event] of a fresh {!Replayer} is gseq k, exactly as the slicer's
    Collector numbers its trace records.  An instruction outside the set
    is excluded: side-effect detection records the memory cells and
    registers it modifies, and at the thread's next kept instruction
    (or at region end) an injection record restoring those values is
    emitted — the same mechanism PinPlay uses for system-call side
    effects. *)

open Dr_machine

exception Relog_error of string

type forced = Not_forced | Forced_sync | Forced_final_ret

(* Allocation-free: the Collector calls it once per trace record. *)
let[@inline] forced (ev : Event.t) =
  match ev.Event.sys with
  | Event.Sys_spawn _ | Event.Sys_join _ | Event.Sys_lock _
  | Event.Sys_unlock _ | Event.Sys_exit _ | Event.Sys_alloc _
  | Event.Sys_wait _ | Event.Sys_signal _ ->
    Forced_sync
  | _ -> (
    match ev.Event.instr with
    | Dr_isa.Instr.Ret when ev.Event.mem_read_value = Machine.ret_sentinel ->
      Forced_final_ret
    | _ -> Not_forced)

type per_thread = {
  pending_mem : (int, int) Hashtbl.t;
  pending_regs : int array;  (** register file after the last excluded instr *)
  mutable dirty : bool;  (** an excluded instruction has executed *)
}

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
    retires exactly the instructions whose gseq is in [keep]. *)
let relog (prog : Dr_isa.Program.t) (pinball : Pinball.t)
    ~(keep : Dr_util.Bitset.t) : Pinball.t =
  if pinball.Pinball.kind <> Pinball.Region then
    invalid_arg "Relogger.relog: expected a region pinball";
  if Dr_util.Bitset.length keep <> Pinball.schedule_instructions pinball then
    invalid_arg "Relogger.relog: keep-set length is not the region's length";
  Dr_obs.Obs.with_span ~cat:"relog" "relogger.relog" @@ fun sp ->
  let per_thread =
    Array.init prog.Dr_isa.Program.max_threads (fun _ ->
        { pending_mem = Hashtbl.create 16;
          pending_regs = Array.make Dr_isa.Reg.file_size 0; dirty = false })
  in
  let events = Dr_util.Vec.create ~dummy:(Pinball.Inject (-1)) in
  let injections = Dr_util.Vec.create ~dummy:{ Pinball.inj_tid = 0; inj_mem = []; inj_regs = [] } in
  let syscalls = Dr_util.Vec.Int_vec.create () in
  let schedule = Schedule.recorder () in
  let replayer = Replayer.create prog pinball in
  let m = Replayer.machine replayer in
  (* Flush the side effects of a thread's just-finished excluded run: the
     final values of every memory cell the excluded code wrote, plus the
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
  let gseq = ref 0 in
  let on_event (ev : Event.t) =
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let st = per_thread.(tid) in
    let kept = Dr_util.Bitset.mem keep !gseq in
    incr gseq;
    if not kept then begin
      (match forced ev with
      | Not_forced -> ()
      | Forced_sync ->
        raise
          (Relog_error
             (Printf.sprintf
                "synchronization instruction excluded at tid=%d pc=%d" tid pc))
      | Forced_final_ret ->
        raise
          (Relog_error
             (Printf.sprintf "thread-final return excluded at tid=%d pc=%d" tid pc)));
      (* side-effect detection for the excluded instruction *)
      if ev.Event.mem_write >= 0 then
        Hashtbl.replace st.pending_mem ev.Event.mem_write ev.Event.mem_write_value;
      let th = Machine.thread m tid in
      Array.blit th.Machine.regs 0 st.pending_regs 0 Dr_isa.Reg.file_size;
      st.dirty <- true
    end
    else begin
      (* included instruction: the thread's excluded run, if any, ends *)
      flush_injection tid st;
      if ev.Event.mem_write >= 0 then drop_pending_write per_thread ev.Event.mem_write;
      Dr_util.Vec.push events (Pinball.Step { tid; pc });
      Schedule.record schedule tid;
      match ev.Event.sys with
      | Event.Sys_nondet { result; _ } -> Dr_util.Vec.Int_vec.push syscalls result
      | _ -> ()
    end
  in
  let _reason = Replayer.run ~hooks:{ Driver.on_event } replayer in
  (* excluded runs that reach the region end: flush what's left *)
  Array.iteri flush_injection per_thread;
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
