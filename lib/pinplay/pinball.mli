(** The pinball: a self-contained, portable capture of an execution
    region (paper §1, §2).

    A {e region pinball} holds the initial architectural state plus the
    two non-deterministic inputs of a run (thread schedule, syscall
    results); a {e slice pinball} (§4) additionally carries the event
    stream of an execution slice with side-effect injections.  Pinballs
    serialize to a versioned, checksummed binary container (format v2:
    magic + version + flags header, per-section byte lengths and CRC32s,
    whole-file trailer CRC32) and can be shipped between machines:
    replaying one reproduces the region exactly. *)

type kind = Region | Slice

type region_spec = {
  skip : int;  (** main-thread instructions skipped before the region *)
  length : int;  (** main-thread instructions captured *)
}

(** Side effects of one excluded code region, injected during slice
    replay. *)
type injection = {
  inj_tid : int;
  inj_mem : (int * int) list;  (** (address, final value) *)
  inj_regs : (int * int) list;  (** (register index incl. flags, final value) *)
}

type slice_event =
  | Step of { tid : int; pc : int }  (** execute one included instruction *)
  | Inject of int  (** apply [injections.(i)] *)

(** One sampled execution digest (see {!Exec_digest}): at region step
    [dg_step], thread [dg_tid] retired an instruction and the machine
    hashed to [dg_hash].  The replayer recomputes these to localize the
    first divergent step. *)
type digest = { dg_step : int; dg_tid : int; dg_hash : int }

type t = {
  program_name : string;
  kind : kind;
  region : region_spec;
  snapshot : Dr_machine.Snapshot.t;
  schedule : Dr_machine.Schedule.t;  (** runs of (tid, retired count) *)
  syscalls : int array;  (** nondet results in consumption order *)
  injections : injection array;
  slice_events : slice_event array;  (** empty for region pinballs *)
  digest_interval : int;  (** digest sampling period; 0 = no digests *)
  digests : digest array;  (** sampled digests, ascending [dg_step] *)
}

val make_region :
  ?digest_interval:int ->
  ?digests:digest array ->
  program_name:string ->
  region:region_spec ->
  snapshot:Dr_machine.Snapshot.t ->
  schedule:Dr_machine.Schedule.t ->
  syscalls:int array ->
  unit ->
  t

(** Total retired instructions across all threads in the captured region. *)
val schedule_instructions : t -> int

(** Number of instructions a slice pinball actually executes (for region
    pinballs, same as {!schedule_instructions}). *)
val step_count : t -> int

(** {2 Decode errors} *)

(** Where and why a pinball failed to decode: the container section being
    read, the byte offset into the file, and the low-level reason. *)
type error = { pe_section : string; pe_offset : int; pe_reason : string }

exception Pinball_error of error

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** {2 Serialization} *)

val to_bytes : t -> string

(** Decode a v2 container; rejects trailing bytes.
    @raise Pinball_error on malformed input. *)
val of_bytes : string -> t

(** Serialized size in bytes — the paper's "Space" columns. *)
val size_bytes : t -> int

(** Atomic write: the file is staged at [path ^ ".tmp"], fsynced, and
    renamed into place, so a crash mid-save never clobbers [path]. *)
val save_file : string -> t -> unit

val load_file : string -> t

(** {2 Integrity verification} *)

type section_report = { sr_name : string; sr_bytes : int; sr_crc_ok : bool }

type report = {
  r_version : int;  (** container format version (0 for a bad magic) *)
  r_trailer_ok : bool;
  r_sections : section_report list;
  r_digest_count : int;
  r_problems : string list;  (** empty iff the file is fully intact *)
}

val report_ok : report -> bool

(** Check every integrity layer (trailer CRC, per-section CRCs, full
    decode) without raising; reports all detectable problems. *)
val verify_bytes : string -> report

val verify_file : string -> report
