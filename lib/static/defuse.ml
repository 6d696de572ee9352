(** Static per-instruction def/use sets, as register bit masks.

    The conservative static counterpart of {!Dr_machine.Def_use}: where the
    dynamic resolver emits concrete {!Dr_isa.Loc} encodings for one retired
    event, this module answers, for a bare instruction, which register
    {e numbers} it may read or write and whether it may touch memory.  The
    two must stay in lock-step — every location the dynamic side can emit
    for an instruction must be covered by the static mask — because the
    static program-dependence graph is used as a soundness bound on dynamic
    slices (oracle 6).

    Conventions shared with the dynamic side:
    - [sp]/[fp] are untracked (never appear in masks);
    - the flags pseudo-register is bit {!Dr_isa.Reg.flags} (16);
    - register masks are thread-blind: [Sys Spawn]'s write of the {e child}
      thread's [r1] appears as an [r1] bit in {!def_mask} but not in
      {!strong_def_mask} — the parent's own [r1] survives a spawn, so a
      reaching-definitions analysis must not kill through it. *)

open Dr_isa

let tracked r = r <> Reg.sp && r <> Reg.fp
let bit r = if tracked r then 1 lsl r else 0
let flags_bit = 1 lsl Reg.flags

(** Caller-saved registers, clobbered (conservatively: defined) by a call
    under the calling convention: [r0]..[r5], [r12], [r13]. *)
let caller_saved_mask =
  List.fold_left (fun m r -> m lor bit r) 0 [ 0; 1; 2; 3; 4; 5; 12; 13 ]

let operand_mask = function Instr.Reg r -> bit r | Instr.Imm _ -> 0

(** Registers the instruction may read. *)
let use_mask (i : Instr.t) : int =
  match i with
  | Instr.Nop | Instr.Halt -> 0
  | Instr.Mov (_, op) -> operand_mask op
  | Instr.Bin (_, _, rs, op) -> bit rs lor operand_mask op
  | Instr.Load (_, rb, _) -> bit rb
  | Instr.Store (rb, _, rs) -> bit rb lor bit rs
  | Instr.Push r -> bit r
  | Instr.Pop _ -> 0
  | Instr.Cmp (r, op) -> bit r lor operand_mask op
  | Instr.Setcc (_, _) -> flags_bit
  | Instr.Jmp _ -> 0
  | Instr.Jcc _ -> flags_bit
  | Instr.Jind r -> bit r
  | Instr.Call _ -> 0
  | Instr.Callind r -> bit r
  | Instr.Ret -> 0
  | Instr.Assert (r, _) -> bit r
  | Instr.Sys sys -> (
    match sys with
    | Instr.Exit | Instr.Print -> bit Reg.r1
    | Instr.Rand | Instr.Time | Instr.Read -> 0
    | Instr.Spawn -> bit Reg.r1 lor bit Reg.r2
    | Instr.Join -> bit Reg.r1
    | Instr.Lock | Instr.Unlock -> bit Reg.r1
    | Instr.Yield -> 0
    | Instr.Alloc -> bit Reg.r1
    | Instr.Wait -> bit Reg.r1 lor bit Reg.r2
    | Instr.Signal | Instr.Broadcast -> bit Reg.r1)

(** Registers the instruction may write, in any thread. *)
let def_mask (i : Instr.t) : int =
  match i with
  | Instr.Mov (rd, _) -> bit rd
  | Instr.Bin (_, rd, _, _) -> bit rd
  | Instr.Load (rd, _, _) -> bit rd
  | Instr.Pop r -> bit r
  | Instr.Cmp _ -> flags_bit
  | Instr.Setcc (_, rd) -> bit rd
  | Instr.Sys (Instr.Rand | Instr.Time | Instr.Read | Instr.Join | Instr.Alloc)
    ->
    bit Reg.r0
  | Instr.Sys Instr.Spawn -> bit Reg.r0 lor bit Reg.r1  (* r1: the child's *)
  | _ -> 0

(** Registers the instruction always writes in the {e executing} thread —
    the kill set for reaching definitions.  Excludes [Sys Spawn]'s write of
    the child's [r1]. *)
let strong_def_mask (i : Instr.t) : int =
  match i with
  | Instr.Sys Instr.Spawn -> bit Reg.r0
  | i -> def_mask i

(** May the instruction write memory?  [Call]/[Callind] push the return
    address; [Push]/[Store] write their slot. *)
let writes_mem = function
  | Instr.Store _ | Instr.Push _ | Instr.Call _ | Instr.Callind _ -> true
  | _ -> false

(** May the instruction read memory?  [Ret] pops the return address. *)
let reads_mem = function
  | Instr.Load _ | Instr.Pop _ | Instr.Ret -> true
  | _ -> false

let iter_mask f mask =
  for r = 0 to Reg.file_size - 1 do
    if mask land (1 lsl r) <> 0 then f r
  done
