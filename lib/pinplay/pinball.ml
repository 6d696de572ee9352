(** The pinball: a self-contained, portable capture of an execution
    region (paper §1).

    A {e region pinball} holds the initial architectural state (snapshot)
    plus the two non-deterministic inputs of a run: the thread schedule
    (runs of retired instructions, see {!Dr_machine.Schedule}) and the
    results of rand/time/read syscalls, in consumption order.  Replaying
    a pinball reproduces the region exactly, any number of times.

    A {e slice pinball} (paper §4) additionally carries the per-event
    stream of an execution slice: [Step] events for the instructions that
    belong to the slice and [Inject] events that restore the side effects
    of skipped code regions.  Its [schedule]/[syscalls] cover only the
    included instructions.

    {2 On-disk container (format v2)}

    Pinballs are durable artifacts shipped between machines, so the
    serialized form is defensive: a header with magic, format version and
    flags; a section table (meta / snapshot / schedule / syscalls /
    injections / slice-events / digests) with per-section byte length and
    CRC32; and a whole-file trailer CRC32 over everything before it.  Any
    truncation or bit flip is reported as a structured {!Pinball_error}
    naming the section and offset — never an OOM, a crash, or a silently
    wrong replay. *)

type kind = Region | Slice

type region_spec = {
  skip : int;  (** main-thread instructions skipped before the region *)
  length : int;  (** main-thread instructions captured *)
}

(** Side effects of one excluded code region, to be injected when the
    region is skipped during slice replay. *)
type injection = {
  inj_tid : int;
  inj_mem : (int * int) list;  (** (address, final value) *)
  inj_regs : (int * int) list;  (** (register index incl. flags, final value) *)
}

type slice_event =
  | Step of { tid : int; pc : int }  (** execute one included instruction *)
  | Inject of int  (** apply [injections.(i)] *)

(** One sampled execution digest: at region step [dg_step], thread
    [dg_tid] retired an instruction and the machine hashed to [dg_hash]
    (see {!Exec_digest}).  The replayer recomputes these to localize
    divergence. *)
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

let make_region ?(digest_interval = 0) ?(digests = [||]) ~program_name
    ~region ~snapshot ~schedule ~syscalls () =
  { program_name; kind = Region; region; snapshot; schedule; syscalls;
    injections = [||]; slice_events = [||]; digest_interval; digests }

(** Total retired instructions across all threads in the captured region. *)
let schedule_instructions t = Dr_machine.Schedule.steps t.schedule

(** Number of instructions a slice pinball actually executes. *)
let step_count t =
  match t.kind with
  | Region -> schedule_instructions t
  | Slice ->
    Array.fold_left
      (fun acc e -> match e with Step _ -> acc + 1 | Inject _ -> acc)
      0 t.slice_events

(* ---- structured decode errors ---- *)

type error = { pe_section : string; pe_offset : int; pe_reason : string }

exception Pinball_error of error

let corrupt ~section ~offset reason =
  raise (Pinball_error { pe_section = section; pe_offset = offset; pe_reason = reason })

let pp_error fmt { pe_section; pe_offset; pe_reason } =
  Format.fprintf fmt "corrupt pinball: %s (section %s, byte offset %d)"
    pe_reason pe_section pe_offset

let error_to_string e = Format.asprintf "%a" pp_error e

(* ---- serialization ---- *)

let magic_v2 = "DRPB2"
let format_version = 2

(* flag bits (header [flags] word) *)
let flag_has_digests = 1

(* section ids; the table may list them in any order, each at most once *)
let sec_meta = 1
let sec_snapshot = 2
let sec_schedule = 3
let sec_syscalls = 4
let sec_injections = 5
let sec_slice_events = 6
let sec_digests = 7

let section_name = function
  | 1 -> "meta"
  | 2 -> "snapshot"
  | 3 -> "schedule"
  | 4 -> "syscalls"
  | 5 -> "injections"
  | 6 -> "slice-events"
  | 7 -> "digests"
  | id -> Printf.sprintf "unknown(%d)" id

(* -- field-level encoders/decoders of the v2 sections -- *)

let encode_meta e (t : t) =
  let open Dr_util.Codec in
  put_string e t.program_name;
  put_uint e (match t.kind with Region -> 0 | Slice -> 1);
  put_uint e t.region.skip;
  put_uint e t.region.length;
  put_uint e t.digest_interval

let encode_syscalls e (t : t) = Dr_util.Codec.put_int_array e t.syscalls

let encode_injections e (t : t) =
  let open Dr_util.Codec in
  put_uint e (Array.length t.injections);
  Array.iter
    (fun inj ->
      put_uint e inj.inj_tid;
      put_list e
        (fun e (a, v) ->
          put_uint e a;
          put_int e v)
        inj.inj_mem;
      put_list e
        (fun e (r, v) ->
          put_uint e r;
          put_int e v)
        inj.inj_regs)
    t.injections

let encode_slice_events e (t : t) =
  let open Dr_util.Codec in
  put_uint e (Array.length t.slice_events);
  Array.iter
    (fun ev ->
      match ev with
      | Step { tid; pc } ->
        put_uint e 0;
        put_uint e tid;
        put_uint e pc
      | Inject i ->
        put_uint e 1;
        put_uint e i)
    t.slice_events

let encode_digests e (t : t) =
  let open Dr_util.Codec in
  put_uint e (Array.length t.digests);
  Array.iter
    (fun dg ->
      put_uint e dg.dg_step;
      put_uint e dg.dg_tid;
      put_uint e dg.dg_hash)
    t.digests

let decode_injections d =
  let open Dr_util.Codec in
  let ninj = get_count ~min_elt_bytes:3 d "injections" in
  Array.init ninj (fun _ ->
      let inj_tid = get_uint d in
      let inj_mem =
        get_list d (fun d ->
            let a = get_uint d in
            let v = get_int d in
            (a, v))
      in
      let inj_regs =
        get_list d (fun d ->
            let r = get_uint d in
            let v = get_int d in
            (r, v))
      in
      { inj_tid; inj_mem; inj_regs })

let decode_slice_events d =
  let open Dr_util.Codec in
  let nev = get_count ~min_elt_bytes:2 d "slice events" in
  Array.init nev (fun _ ->
      match get_uint d with
      | 0 ->
        let tid = get_uint d in
        let pc = get_uint d in
        Step { tid; pc }
      | 1 -> Inject (get_uint d)
      | _ -> raise (Corrupt "slice event"))

let decode_digests d =
  let open Dr_util.Codec in
  let n = get_count ~min_elt_bytes:3 d "digests" in
  Array.init n (fun _ ->
      let dg_step = get_uint d in
      let dg_tid = get_uint d in
      let dg_hash = get_uint d in
      { dg_step; dg_tid; dg_hash })

(* -- v2 container -- *)

let trailer_bytes = 4

let crc_to_trailer crc =
  let b = Bytes.create trailer_bytes in
  Bytes.set b 0 (Char.chr ((crc lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (crc land 0xff));
  Bytes.to_string b

let trailer_of_string s =
  let n = String.length s in
  let b i = Char.code s.[n - trailer_bytes + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let trailer_ok s =
  let n = String.length s in
  n >= trailer_bytes
  && trailer_of_string s = Dr_util.Crc32.string ~pos:0 ~len:(n - trailer_bytes) s

let section_payload encode_fn t =
  let e = Dr_util.Codec.encoder () in
  encode_fn e t;
  Dr_util.Codec.to_string e

(** The (id, payload) list a pinball serializes to.  Empty optional
    sections (injections / slice events / digests of a region pinball
    without digests) are omitted. *)
let sections_of (t : t) =
  let always =
    [ (sec_meta, section_payload encode_meta t);
      (sec_snapshot, section_payload (fun e t -> Dr_machine.Snapshot.encode e t.snapshot) t);
      (sec_schedule, section_payload (fun e t -> Dr_machine.Schedule.encode e t.schedule) t);
      (sec_syscalls, section_payload encode_syscalls t) ]
  in
  let optional =
    List.filter
      (fun (id, _) ->
        (id <> sec_injections || Array.length t.injections > 0)
        && (id <> sec_slice_events || Array.length t.slice_events > 0)
        && (id <> sec_digests || Array.length t.digests > 0))
      [ (sec_injections, section_payload encode_injections t);
        (sec_slice_events, section_payload encode_slice_events t);
        (sec_digests, section_payload encode_digests t) ]
  in
  always @ optional

let to_bytes t =
  let open Dr_util.Codec in
  let sections = sections_of t in
  let e = encoder () in
  put_string e magic_v2;
  put_uint e format_version;
  put_uint e (if Array.length t.digests > 0 then flag_has_digests else 0);
  put_uint e (List.length sections);
  List.iter
    (fun (id, payload) ->
      put_uint e id;
      put_uint e (String.length payload);
      put_uint e (Dr_util.Crc32.string payload))
    sections;
  List.iter (fun (_, payload) -> Buffer.add_string e payload) sections;
  let body = to_string e in
  body ^ crc_to_trailer (Dr_util.Crc32.string body)

(* One section-table entry, located in the file.  Sections are laid end
   to end from the end of the table; an entry whose length runs past the
   trailer is [Overlong] and takes no room. *)
type section =
  | Section of { id : int; off : int; len : int; crc : int }
  | Overlong of { id : int; len : int }

(* Parsed container skeleton: header fields + section table, before any
   section payload is interpreted. *)
type container = {
  c_version : int;
  c_sections : section list;  (** in table order *)
  c_payload_start : int;
  c_payload_end : int;  (** just past the last located section *)
}

(* The one reader of the header and section table, for decoding and for
   the [verify] report alike.  [d] sits just past the magic.  A varint
   error is a "header" [Pinball_error]; so is a foreign format version
   when [strict] (decoding fails fast there, [verify_bytes] reads on and
   reports it). *)
let read_container ~strict s (d : Dr_util.Codec.decoder) : container =
  let open Dr_util.Codec in
  let n = String.length s in
  let header = fun f -> try f () with Corrupt r -> corrupt ~section:"header" ~offset:d.pos r in
  let c_version = header (fun () -> get_uint d) in
  if strict && c_version <> format_version then
    corrupt ~section:"header" ~offset:d.pos
      (Printf.sprintf "unsupported format version %d" c_version);
  let _flags = header (fun () -> get_uint d) in
  let nsec = header (fun () -> get_count ~min_elt_bytes:3 d "section table") in
  let table =
    List.init nsec (fun _ ->
        header (fun () ->
            let id = get_uint d in
            let len = get_uint d in
            let crc = get_uint d in
            (id, len, crc)))
  in
  let c_payload_start = d.pos in
  let off = ref c_payload_start in
  let c_sections =
    List.map
      (fun (id, len, crc) ->
        (* [len] comes straight from the file: compare it against the
           room left, since [!off + len] can overflow *)
        if len < 0 || len > n - trailer_bytes - !off then Overlong { id; len }
        else begin
          let sec = Section { id; off = !off; len; crc } in
          off := !off + len;
          sec
        end)
      table
  in
  { c_version; c_sections; c_payload_start; c_payload_end = !off }

(* [read_container] for decoding: the trailer and every length checked,
   and the sections must end exactly at the trailer (no trailing garbage
   between them). *)
let parse_container s (d : Dr_util.Codec.decoder) : container =
  let n = String.length s in
  if n < trailer_bytes then
    corrupt ~section:"trailer" ~offset:n "file too short for trailer checksum";
  if not (trailer_ok s) then
    corrupt ~section:"trailer" ~offset:(n - trailer_bytes)
      "whole-file checksum mismatch";
  let c = read_container ~strict:true s d in
  List.iter
    (function
      | Overlong { id; _ } ->
        corrupt ~section:(section_name id) ~offset:c.c_payload_start
          "section length exceeds file"
      | Section _ -> ())
    c.c_sections;
  if c.c_payload_end <> n - trailer_bytes then
    corrupt ~section:"header" ~offset:c.c_payload_start
      "section table does not cover the container payload";
  c

(* Decode one section payload with a fresh decoder; wraps low-level
   [Corrupt] into a located [Pinball_error] and rejects intra-section
   trailing bytes. *)
let decode_section ~name ~file_off payload f =
  let d = Dr_util.Codec.decoder payload in
  let v =
    try f d
    with Dr_util.Codec.Corrupt r -> corrupt ~section:name ~offset:(file_off + d.Dr_util.Codec.pos) r
  in
  if not (Dr_util.Codec.at_end d) then
    corrupt ~section:name ~offset:(file_off + d.Dr_util.Codec.pos)
      "trailing bytes in section";
  v

let decode_v2 s (d : Dr_util.Codec.decoder) : t =
  let c = parse_container s d in
  let meta = ref None and snapshot = ref None and schedule = ref None in
  let syscalls = ref None and injections = ref [||] in
  let slice_events = ref [||] and digests = ref [||] in
  List.iter
    (function
      | Overlong _ -> ()  (* rejected by [parse_container] *)
      | Section { id; off; len; crc } ->
        let name = section_name id in
        let payload = String.sub s off len in
        if Dr_util.Crc32.string payload <> crc then
          corrupt ~section:name ~offset:off "section checksum mismatch";
        let seen_twice taken = if taken then corrupt ~section:name ~offset:off "duplicate section" in
        if id = sec_meta then begin
          seen_twice (Option.is_some !meta);
          meta :=
            Some
              (decode_section ~name ~file_off:off payload (fun d ->
                   let open Dr_util.Codec in
                   let program_name = get_string d in
                   let kind =
                     match get_uint d with
                     | 0 -> Region
                     | 1 -> Slice
                     | _ -> raise (Corrupt "kind")
                   in
                   let skip = get_uint d in
                   let length = get_uint d in
                   let digest_interval = get_uint d in
                   (program_name, kind, { skip; length }, digest_interval)))
        end
        else if id = sec_snapshot then begin
          seen_twice (Option.is_some !snapshot);
          snapshot :=
            Some (decode_section ~name ~file_off:off payload Dr_machine.Snapshot.decode)
        end
        else if id = sec_schedule then begin
          seen_twice (Option.is_some !schedule);
          schedule :=
            Some (decode_section ~name ~file_off:off payload Dr_machine.Schedule.decode)
        end
        else if id = sec_syscalls then begin
          seen_twice (Option.is_some !syscalls);
          syscalls :=
            Some (decode_section ~name ~file_off:off payload Dr_util.Codec.get_int_array)
        end
        else if id = sec_injections then
          injections := decode_section ~name ~file_off:off payload decode_injections
        else if id = sec_slice_events then
          slice_events := decode_section ~name ~file_off:off payload decode_slice_events
        else if id = sec_digests then
          digests := decode_section ~name ~file_off:off payload decode_digests
        else corrupt ~section:name ~offset:off "unknown section id")
    c.c_sections;
  let require what = function
    | Some v -> v
    | None -> corrupt ~section:what ~offset:c.c_payload_start "missing required section"
  in
  let program_name, kind, region, digest_interval = require "meta" !meta in
  { program_name; kind; region;
    snapshot = require "snapshot" !snapshot;
    schedule = require "schedule" !schedule;
    syscalls = require "syscalls" !syscalls;
    injections = !injections;
    slice_events = !slice_events;
    digest_interval;
    digests = !digests }

let of_bytes s : t =
  let open Dr_util.Codec in
  let d = decoder s in
  let m = try get_string d with Corrupt r -> corrupt ~section:"header" ~offset:d.pos r in
  if m = magic_v2 then decode_v2 s d
  else corrupt ~section:"header" ~offset:0 "bad pinball magic"

(** On-disk size in bytes of the serialized pinball — the paper's "Space"
    column. *)
let size_bytes t = String.length (to_bytes t)

let save_file path t = Dr_util.Atomic_file.write_string path (to_bytes t)

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_bytes (really_input_string ic (in_channel_length ic)))

(* ---- integrity verification (drdebug_cli pinball verify) ---- *)

type section_report = { sr_name : string; sr_bytes : int; sr_crc_ok : bool }

type report = {
  r_version : int;  (** container format version (0 for a bad magic) *)
  r_trailer_ok : bool;
  r_sections : section_report list;
  r_digest_count : int;
  r_problems : string list;  (** empty iff the file is fully intact *)
}

let report_ok r = r.r_trailer_ok && r.r_problems = []

(** Check every integrity layer of a serialized pinball without raising:
    trailer CRC, per-section CRCs, then a full decode.  Unlike
    {!of_bytes}, which fails fast, this reports all detectable problems. *)
let verify_bytes s : report =
  let open Dr_util.Codec in
  let d = decoder s in
  let magic = try Some (get_string d) with Corrupt _ -> None in
  match magic with
  | Some m when m = magic_v2 ->
    let trailer_ok = trailer_ok s in
    let problems = ref [] in
    let problem p = problems := !problems @ [ p ] in
    if not trailer_ok then problem "whole-file trailer checksum mismatch";
    (* parse the skeleton even with a bad trailer, to locate the damage *)
    let sections =
      match
        (try Some (read_container ~strict:false s d)
         with Pinball_error { pe_reason = r; _ } ->
           problem ("unreadable section table: " ^ r);
           None)
      with
      | None -> []
      | Some c ->
        if c.c_version <> format_version then
          problem (Printf.sprintf "unsupported format version %d" c.c_version);
        List.filter_map
          (function
            | Overlong { id; len } ->
              problem
                (Printf.sprintf "section %s length %d exceeds file"
                   (section_name id) len);
              None
            | Section { id; off; len; crc } ->
              let crc_ok = Dr_util.Crc32.string ~pos:off ~len s = crc in
              if not crc_ok then
                problem (Printf.sprintf "section %s checksum mismatch" (section_name id));
              Some { sr_name = section_name id; sr_bytes = len; sr_crc_ok = crc_ok })
          c.c_sections
    in
    let digest_count =
      match (try Some (of_bytes s) with Pinball_error e ->
               if !problems = [] then problem (error_to_string e);
               None)
      with
      | Some t -> Array.length t.digests
      | None -> 0
    in
    { r_version = format_version; r_trailer_ok = trailer_ok;
      r_sections = sections; r_digest_count = digest_count;
      r_problems = !problems }
  | _ ->
    { r_version = 0; r_trailer_ok = false; r_sections = [];
      r_digest_count = 0; r_problems = [ "bad pinball magic" ] }

let verify_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> verify_bytes (really_input_string ic (in_channel_length ic)))
