(** Source-level debug information emitted by the mini-C compiler.

    This plays the role of DWARF in the paper's setting: the debugger uses
    it to set breakpoints by line, print variables by name, and render
    slices as highlighted source lines. *)

type var_loc =
  | Global of int  (** absolute memory address *)
  | Frame of int  (** offset from the frame pointer (negative = local) *)
  | Register of Reg.t  (** allocated to a callee-saved register *)

type var = { vname : string; vloc : var_loc; varray : int option  (** element count if an array *) }

type func = {
  fname : string;
  entry : int;  (** pc of the first instruction *)
  code_end : int;  (** one past the last instruction *)
  params : string list;
  vars : var list;  (** params and locals, in declaration order *)
}

type t = {
  file : string;
  source : string;  (** full source text, for the debugger's [list] *)
  funcs : func list;
  lines : (int * int) array;  (** (pc, line), sorted by pc; line of a pc is the last entry at or before it *)
  globals : (string * int * int option) list;  (** name, address, array size *)
}

let empty =
  { file = "<none>"; source = ""; funcs = []; lines = [||]; globals = [] }

(** Function containing [pc], if any. *)
let func_at t pc = List.find_opt (fun f -> pc >= f.entry && pc < f.code_end) t.funcs

let func_named t name = List.find_opt (fun f -> f.fname = name) t.funcs

(** Source line of [pc] via binary search over the line table. *)
let line_of_pc t pc =
  let a = t.lines in
  let n = Array.length a in
  if n = 0 then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let p, _ = a.(mid) in
      if p <= pc then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best < 0 then None else Some (snd a.(!best))
  end

(** First pc whose line is exactly [line] (for breakpoints). *)
let pc_of_line t line =
  let found = ref None in
  Array.iter
    (fun (p, l) -> if l = line && !found = None then found := Some p)
    t.lines;
  !found

(** Resolve a variable name visible at [pc]: locals of the enclosing
    function shadow globals. *)
let lookup_var t ~pc name =
  let local =
    match func_at t pc with
    | None -> None
    | Some f -> List.find_opt (fun v -> v.vname = name) f.vars
  in
  match local with
  | Some v -> Some v.vloc
  | None -> (
    match List.find_opt (fun (n, _, _) -> n = name) t.globals with
    | Some (_, addr, _) -> Some (Global addr)
    | None -> None)

let source_line t n =
  let lines = String.split_on_char '\n' t.source in
  List.nth_opt lines (n - 1)
