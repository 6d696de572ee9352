(** Per-instruction trace records (paper §3(i)).

    One record per retired instruction of the replayed region.  Registers
    are thread-local locations and memory addresses are global, both
    encoded with {!Dr_isa.Loc}.  [cd] points to the dynamically
    controlling branch record (by global sequence number), computed online
    with the Xin–Zhang algorithm during collection.

    The trace itself is stored in columns ({!Segment_store}); a
    [record] is a view of one row, built on demand for printing,
    oracles and tests. *)

(* Flag bits. *)
let flag_sync = 1  (** spawn/join/lock/unlock/exit/alloc *)

let flag_final_ret = 2  (** a return that finished its thread *)

let flag_branch = 4  (** conditional or indirect jump *)

let flag_nondet = 8  (** rand/time/read syscall *)

let flag_load = 16  (** reads memory *)

let flag_store = 32  (** writes memory *)

type record = {
  gseq : int;  (** index in execution order (collection order) *)
  tid : int;
  pc : int;
  instance : int;  (** nth execution of [pc] by [tid] within the region, 1-based *)
  lidx : int;  (** index within the thread's local trace, 0-based *)
  defs : int array;  (** encoded locations *)
  uses : int array;
  cd : int;  (** gseq of the controlling branch record, or -1 *)
  flags : int;
  line : int;  (** source line, or -1 *)
}

let is_load r = r.flags land flag_load <> 0

let pp fmt r =
  Format.fprintf fmt "#%d t%d pc=%d i=%d defs=[%s] uses=[%s] cd=%d" r.gseq
    r.tid r.pc r.instance
    (String.concat ";" (Array.to_list (Array.map Dr_isa.Loc.to_string r.defs)))
    (String.concat ";" (Array.to_list (Array.map Dr_isa.Loc.to_string r.uses)))
    r.cd
