(** Resolve the locations defined and used by a retired instruction.

    This is the per-instruction def/use information of paper §3(i):
    registers are thread-local locations, memory addresses (resolved
    dynamically from the event) are global.

    The stack and frame pointers are excluded from dependence tracking, as
    in binary slicers: sp/fp updates would otherwise chain every stack
    operation to every other.  The {e memory} traffic of push/pop remains
    fully tracked (addresses are concrete in the trace), which is exactly
    what creates the save/restore dependence chains that
    {!Dr_slicing.Prune} removes (§5.2). *)

open Dr_isa

(* Top-level helpers rather than local closures: [collect] runs once per
   retired instruction during collection and must not allocate. *)

let push_reg v ~tid r =
  if r <> Reg.sp && r <> Reg.fp then Dr_util.Vec.Int_vec.push v (Loc.reg ~tid r)

let push_operand v ~tid = function
  | Instr.Reg r -> push_reg v ~tid r
  | Instr.Imm _ -> ()

let push_mem v a = if a >= 0 then Dr_util.Vec.Int_vec.push v (Loc.mem a)

(** Appends the defs and uses of [ev] to the two vectors (they are not
    cleared first).  Locations are {!Dr_isa.Loc} encodings.  Allocates
    nothing except when a vector grows. *)
let collect (ev : Event.t) ~(defs : Dr_util.Vec.Int_vec.t)
    ~(uses : Dr_util.Vec.Int_vec.t) : unit =
  let tid = ev.Event.tid in
  match ev.Event.instr with
  | Instr.Nop | Instr.Halt -> ()
  | Instr.Mov (rd, op) ->
    push_operand uses ~tid op;
    push_reg defs ~tid rd
  | Instr.Bin (_, rd, rs, op) ->
    push_reg uses ~tid rs;
    push_operand uses ~tid op;
    push_reg defs ~tid rd
  | Instr.Load (rd, rb, _) ->
    push_reg uses ~tid rb;
    push_mem uses ev.Event.mem_read;
    push_reg defs ~tid rd
  | Instr.Store (rb, _, rs) ->
    push_reg uses ~tid rb;
    push_reg uses ~tid rs;
    push_mem defs ev.Event.mem_write
  | Instr.Push r ->
    push_reg uses ~tid r;
    push_mem defs ev.Event.mem_write
  | Instr.Pop r ->
    push_mem uses ev.Event.mem_read;
    push_reg defs ~tid r
  | Instr.Cmp (r, op) ->
    push_reg uses ~tid r;
    push_operand uses ~tid op;
    Dr_util.Vec.Int_vec.push defs (Loc.flags ~tid)
  | Instr.Setcc (_, rd) ->
    Dr_util.Vec.Int_vec.push uses (Loc.flags ~tid);
    push_reg defs ~tid rd
  | Instr.Jmp _ -> ()
  | Instr.Jcc _ -> Dr_util.Vec.Int_vec.push uses (Loc.flags ~tid)
  | Instr.Jind r -> push_reg uses ~tid r
  | Instr.Call _ -> push_mem defs ev.Event.mem_write
  | Instr.Callind r ->
    push_reg uses ~tid r;
    push_mem defs ev.Event.mem_write
  | Instr.Ret -> push_mem uses ev.Event.mem_read
  | Instr.Assert (r, _) -> push_reg uses ~tid r
  | Instr.Sys sys -> (
    (* sys arguments and results live in r0–r2, never sp/fp *)
    match sys with
    | Instr.Exit -> push_reg uses ~tid Reg.r1
    | Instr.Print -> push_reg uses ~tid Reg.r1
    | Instr.Rand | Instr.Time | Instr.Read -> push_reg defs ~tid Reg.r0
    | Instr.Spawn ->
      push_reg uses ~tid Reg.r1;
      push_reg uses ~tid Reg.r2;
      push_reg defs ~tid Reg.r0;
      (* the child's argument register is written by the spawn: the
         inter-thread dependence from parent arg to child body *)
      (match ev.Event.sys with
      | Event.Sys_spawn { child; _ } -> push_reg defs ~tid:child Reg.r1
      | _ -> ())
    | Instr.Join ->
      push_reg uses ~tid Reg.r1;
      push_reg defs ~tid Reg.r0
    | Instr.Lock | Instr.Unlock -> push_reg uses ~tid Reg.r1
    | Instr.Yield -> ()
    | Instr.Alloc ->
      push_reg uses ~tid Reg.r1;
      push_reg defs ~tid Reg.r0
    | Instr.Wait ->
      push_reg uses ~tid Reg.r1;
      push_reg uses ~tid Reg.r2
    | Instr.Signal | Instr.Broadcast -> push_reg uses ~tid Reg.r1)
