(** Per-instruction observation record, the analogue of Pin's
    instrumentation arguments.

    [Machine.step] fills a single mutable scratch event per machine to
    avoid allocating on the hot path; instrumentation hooks must copy any
    field they retain past the callback. *)

type nondet_kind = Rand | Time | Read

type sys_effect =
  | Sys_none
  | Sys_nondet of { kind : nondet_kind; result : int }
  | Sys_spawn of { child : int; child_pc : int; arg : int }
  | Sys_join of { target : int; blocked : bool }
  | Sys_lock of { addr : int; acquired : bool }
  | Sys_unlock of { addr : int }
  | Sys_exit of int
  | Sys_print of int
  | Sys_alloc of { addr : int; words : int }
  | Sys_yield
  | Sys_wait of { cond : int; mutex : int }
  | Sys_signal of { cond : int; woken : int; broadcast : bool }

type t = {
  mutable tid : int;
  mutable pc : int;
  mutable instr : Dr_isa.Instr.t;
  mutable next_pc : int;  (** pc after this instruction (same thread) *)
  mutable mem_read : int;  (** address read, or -1 *)
  mutable mem_read_value : int;
  mutable mem_write : int;  (** address written, or -1 *)
  mutable mem_write_value : int;
  mutable branch_taken : bool;  (** meaningful for Jcc only *)
  mutable sys : sys_effect;
  mutable retired : bool;
      (** false when the instruction blocked (lock/join) and will re-execute *)
}

let create () =
  { tid = 0; pc = 0; instr = Dr_isa.Instr.Nop; next_pc = 0; mem_read = -1;
    mem_read_value = 0; mem_write = -1; mem_write_value = 0;
    branch_taken = false; sys = Sys_none; retired = true }

let reset ev ~tid ~pc ~instr =
  ev.tid <- tid;
  ev.pc <- pc;
  ev.instr <- instr;
  ev.next_pc <- pc + 1;
  ev.mem_read <- -1;
  ev.mem_read_value <- 0;
  ev.mem_write <- -1;
  ev.mem_write_value <- 0;
  ev.branch_taken <- false;
  (* a boxed-field store costs a write barrier: skip it on the common
     step that had no syscall effect *)
  if ev.sys != Sys_none then ev.sys <- Sys_none;
  ev.retired <- true
