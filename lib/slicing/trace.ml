(** Per-instruction trace records (paper §3(i)).

    One record per retired instruction of the replayed region.  Registers
    are thread-local locations and memory addresses are global, both
    encoded with {!Dr_isa.Loc}.  [cd] points to the dynamically
    controlling branch record (by global sequence number), computed online
    with the Xin–Zhang algorithm during collection.

    A record carries no source line: that is a per-pc fact, read from
    the program's {!Dr_isa.Debug_info} by whoever prints one.

    The trace itself is stored in columns ({!Segment_store}); a
    [record] is a view of one row, built on demand for printing,
    oracles and tests. *)

(* Flag bits: only the ones a reader tests are set. *)
let flag_sync = 1
  (** spawn/join/lock/unlock/exit/alloc/wait/signal, or a final return *)

let flag_final_ret = 2  (** a return that finished its thread *)

let flag_load = 16  (** reads memory *)

type record = {
  gseq : int;  (** index in execution order (collection order) *)
  tid : int;
  pc : int;
  instance : int;  (** nth execution of [pc] by [tid] within the region, 1-based *)
  defs : int array;  (** encoded locations *)
  uses : int array;
  cd : int;  (** gseq of the controlling branch record, or -1 *)
  flags : int;
}

let is_load r = r.flags land flag_load <> 0

(** Source line of [pc], or -1 when the debug info has none or [pc] is
    past the code end (a thread that ran off its code). *)
let line_of_pc (prog : Dr_isa.Program.t) pc =
  if pc < Array.length prog.Dr_isa.Program.code then
    Option.value ~default:(-1)
      (Dr_isa.Debug_info.line_of_pc prog.Dr_isa.Program.debug pc)
  else -1

let pp fmt r =
  Format.fprintf fmt "#%d t%d pc=%d i=%d defs=[%s] uses=[%s] cd=%d" r.gseq
    r.tid r.pc r.instance
    (String.concat ";" (Array.to_list (Array.map Dr_isa.Loc.to_string r.defs)))
    (String.concat ";" (Array.to_list (Array.map Dr_isa.Loc.to_string r.uses)))
    r.cd
