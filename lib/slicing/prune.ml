(** Save/restore pair detection (paper §5.2).

    A {e save/restore pair} is a push at function entry and the matching
    pop at function exit that exist only to preserve a callee-saved
    register.  Binary-level slicing would otherwise thread data
    dependences through the pair ([use -> restore -> save -> older def])
    and, because the restore is control dependent on whatever guarded the
    call, drag large spurious subgraphs into the slice.

    Detection is two-stage, exactly as in the paper:

    - {e static candidates}: the prologue pushes and epilogue pops found
      by {!Dr_isa.Frame.scan};
    - {e dynamic confirmation}: a candidate pair is confirmed for one
      invocation only if the pop reads the same value from the same stack
      slot that the push wrote from the same register. *)

open Dr_isa

type candidates = {
  saves : (int, Reg.t) Hashtbl.t;  (** pc of candidate save push -> register *)
  restores : (int, Reg.t) Hashtbl.t;  (** pc of candidate restore pop -> register *)
}

let default_max_save = Frame.default_max_save

(** Scan every function of [prog] for candidate saves and restores. *)
let static_candidates ?(max_save = default_max_save) (prog : Program.t)
    ~(functions : (int * int) list) : candidates =
  let saves = Hashtbl.create 64 and restores = Hashtbl.create 64 in
  let add tbl = List.iter (fun (pc, r) -> Hashtbl.replace tbl pc r) in
  List.iter
    (fun (fentry, fend) ->
      let s = Frame.scan ~max_save prog.Program.code ~fentry ~fend in
      add saves s.Frame.saves;
      List.iter (fun (_, pops) -> add restores pops) s.Frame.rets)
    functions;
  { saves; restores }

(** Confirmed pairs: maps the gseq of a confirmed {e restore} record to
    the gseq of its {e save} record and the register involved. *)
type pairs = (int, int * Reg.t) Hashtbl.t

(** Dynamic confirmation state, driven by the trace collector. *)
type frame = { mutable fsaves : (Reg.t * int * int * int) list }
(* (register, stack address, value, save gseq) *)

type thread_state = { mutable frames : frame list }

type state = {
  cands : candidates;
  threads : (int, thread_state) Hashtbl.t;
  pairs : pairs;
}

let create_state cands =
  { cands; threads = Hashtbl.create 8; pairs = Hashtbl.create 256 }

let thread_state st tid =
  match Hashtbl.find_opt st.threads tid with
  | Some t -> t
  | None ->
    let t = { frames = [ { fsaves = [] } ] } in
    Hashtbl.replace st.threads tid t;
    t

let on_call st tid =
  let t = thread_state st tid in
  t.frames <- { fsaves = [] } :: t.frames

let on_ret st tid =
  let t = thread_state st tid in
  match t.frames with _ :: (_ :: _ as rest) -> t.frames <- rest | _ -> ()

(** Record a candidate save execution: [push reg] wrote [value] to stack
    slot [addr] at trace position [gseq]. *)
let on_save st ~tid ~pc ~reg ~addr ~value ~gseq =
  ignore pc;
  let t = thread_state st tid in
  match t.frames with
  | f :: _ -> f.fsaves <- (reg, addr, value, gseq) :: f.fsaves
  | [] -> ()

(** Check a candidate restore execution; on match, confirm the pair. *)
let on_restore st ~tid ~pc ~reg ~addr ~value ~gseq =
  ignore pc;
  let t = thread_state st tid in
  match t.frames with
  | f :: _ -> (
    match
      List.find_opt (fun (r, a, v, _) -> r = reg && a = addr && v = value) f.fsaves
    with
    | Some (_, _, _, save_gseq) -> Hashtbl.replace st.pairs gseq (save_gseq, reg)
    | None -> ())
  | [] -> ()

(** Is the record at [gseq] a confirmed restore of register [reg]?  If so,
    return the gseq of the matching save. *)
let bypass (pairs : pairs) ~gseq ~reg : int option =
  match Hashtbl.find_opt pairs gseq with
  | Some (save_gseq, r) when r = reg -> Some save_gseq
  | _ -> None
