(** Static save/restore candidates of one function (paper §5.2).

    The prologue saves are the first [max_save] pushes from the function
    entry; the epilogue restores of each [ret] are the last [max_save]
    pops before it.  Frame glue ([mov fp, sp] and immediate stack
    adjustments) in between is skipped, but any other instruction ends
    the scan — so mid-function pushes of expression temporaries are
    never candidates.  {!Dr_slicing.Prune} confirms these candidates
    dynamically; the save-restore lint pass checks that each epilogue
    undoes its prologue. *)

let default_max_save = 10

(** Instructions that may appear interleaved with prologue pushes /
    epilogue pops without ending the scan. *)
let is_frame_glue = function
  | Instr.Mov (rd, Instr.Reg rs) -> rd = Reg.fp && rs = Reg.sp
  | Instr.Bin ((Instr.Sub | Instr.Add), rd, rs, Instr.Imm _) ->
    rd = Reg.sp && (rs = Reg.sp || rs = Reg.fp)
  | _ -> false

type scan = {
  saves : (int * Reg.t) list;  (** prologue pushes (pc, register), in execution order *)
  rets : (int * (int * Reg.t) list) list;
      (** every [ret] pc, ascending, with its epilogue pops (pc,
          register) in execution order *)
}

(** Scan the function occupying pcs [\[fentry, fend)] of [code]. *)
let scan ?(max_save = default_max_save) (code : Instr.t array) ~fentry ~fend
    : scan =
  let rec prologue pc n acc =
    if pc >= fend || n >= max_save then List.rev acc
    else
      match code.(pc) with
      | Instr.Push r -> prologue (pc + 1) (n + 1) ((pc, r) :: acc)
      | i when is_frame_glue i -> prologue (pc + 1) n acc
      | _ -> List.rev acc
  in
  (* walking backwards from the ret conses the pops in execution order *)
  let rec epilogue pc n acc =
    if pc < fentry || n >= max_save then acc
    else
      match code.(pc) with
      | Instr.Pop r -> epilogue (pc - 1) (n + 1) ((pc, r) :: acc)
      | i when is_frame_glue i -> epilogue (pc - 1) n acc
      | _ -> acc
  in
  let rets = ref [] in
  for ret_pc = fend - 1 downto fentry do
    if code.(ret_pc) = Instr.Ret then
      rets := (ret_pc, epilogue (ret_pc - 1) 0 []) :: !rets
  done;
  { saves = prologue fentry 0 []; rets = !rets }
