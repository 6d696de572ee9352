(* Pinball inspection tool: examine, verify, and dump pinball files
   (the paper notes pinballs are portable artifacts that can be shipped
   between developers — this is the tool you run on one you received).

   Usage:
     pinball_tool info <file.pinball>
     pinball_tool dump <file.pinball>            # schedule + syscalls + events
     pinball_tool verify <file.pinball>          # section CRC integrity report
     pinball_tool verify <file.pinball> --workload <name> [--threads N --iters N]
                                                 # ... plus a double-replay check
     pinball_tool record --workload <name> [--seed N] [--digest-interval N] -o <file.pinball>

   Exit codes, as in drdebug_cli: 0 success, 1 failure (unreadable file,
   failed check), 2 usage error, 3 pinball container error
   (Pinball_error: bad magic, CRC, bounds).
*)

let usage =
  "usage: pinball_tool info|dump|verify|record <file> [--workload N] [--seed N] [-o F]"

let exit_with code fmt = Printf.ksprintf (fun s -> prerr_endline s; exit code) fmt
let die fmt = exit_with 1 fmt

let load path =
  try Dr_pinplay.Pinball.load_file path with
  | Sys_error e -> die "cannot read %s: %s" path e
  | Dr_pinplay.Pinball.Pinball_error e ->
    exit_with 3 "%s is not a valid pinball: %s" path
      (Dr_pinplay.Pinball.error_to_string e)
  | Dr_util.Codec.Corrupt e -> exit_with 3 "%s is not a valid pinball: %s" path e

let info path =
  let pb = load path in
  let open Dr_pinplay.Pinball in
  Printf.printf "pinball: %s\n" path;
  Printf.printf "  program:       %s\n" pb.program_name;
  Printf.printf "  kind:          %s\n"
    (match pb.kind with Region -> "region" | Slice -> "slice");
  Printf.printf "  region:        skip=%d length=%d (main-thread instructions)\n"
    pb.region.skip pb.region.length;
  Printf.printf "  instructions:  %d (all threads)\n" (schedule_instructions pb);
  Printf.printf "  schedule:      %d slices\n" (Array.length pb.schedule);
  Printf.printf "  syscalls:      %d logged results\n" (Array.length pb.syscalls);
  Printf.printf "  threads:       %d in snapshot\n"
    (List.length pb.snapshot.Dr_machine.Snapshot.threads);
  Printf.printf "  locks held:    %d\n" (List.length pb.snapshot.Dr_machine.Snapshot.locks);
  Printf.printf "  digests:       %d (every %d instructions)\n"
    (Array.length pb.digests) pb.digest_interval;
  (match pb.kind with
  | Slice ->
    Printf.printf "  slice events:  %d (%d executed instructions, %d injections)\n"
      (Array.length pb.slice_events) (step_count pb)
      (Array.length pb.injections)
  | Region -> ());
  Printf.printf "  size on disk:  %d bytes\n" (size_bytes pb)

let dump path =
  let pb = load path in
  let open Dr_pinplay.Pinball in
  Printf.printf "schedule (tid x count):\n ";
  Array.iter (fun (tid, n) -> Printf.printf " %d x%d" tid n) pb.schedule;
  Printf.printf "\nsyscall results:\n ";
  Array.iter (fun v -> Printf.printf " %d" v) pb.syscalls;
  print_newline ();
  if pb.kind = Slice then begin
    Printf.printf "slice events:\n";
    Array.iter
      (fun ev ->
        match ev with
        | Step { tid; pc } -> Printf.printf "  step tid=%d pc=%d\n" tid pc
        | Inject i ->
          let inj = pb.injections.(i) in
          Printf.printf "  inject tid=%d (%d cells, %d regs)\n" inj.inj_tid
            (List.length inj.inj_mem) (List.length inj.inj_regs))
      pb.slice_events
  end

let compile_workload name threads iters =
  match Dr_workloads.Registry.find name with
  | Some e -> e.Dr_workloads.Registry.compile ~threads ~iters
  | None ->
    die "unknown workload %s (available: %s)" name
      (String.concat ", " (Dr_workloads.Registry.names ()))

(* Integrity verification: header, section CRCs, trailer CRC, full decode.
   Prints one line per section and exits non-zero on any problem. *)
let verify_integrity path =
  let r =
    try Dr_pinplay.Pinball.verify_file path
    with Sys_error e -> die "cannot read %s: %s" path e
  in
  let open Dr_pinplay.Pinball in
  Printf.printf "pinball: %s\n" path;
  Printf.printf "  format:  v%d\n" r.r_version;
  List.iter
    (fun s ->
      Printf.printf "  section %-12s %8d bytes  crc %s\n" s.sr_name s.sr_bytes
        (if s.sr_crc_ok then "ok" else "MISMATCH"))
    r.r_sections;
  if r.r_version > 0 then
    Printf.printf "  trailer: %s\n" (if r.r_trailer_ok then "ok" else "MISMATCH");
  if r.r_digest_count > 0 then
    Printf.printf "  digests: %d replay checkpoints\n" r.r_digest_count;
  if report_ok r then begin
    print_endline "verify: OK — all checksums match";
    true
  end
  else begin
    List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.r_problems;
    print_endline "verify: FAILED — pinball is corrupt";
    false
  end

(* Replay verification: two replays of the pinball against the workload's
   program must be bit-identical (the paper's repeatability guarantee). *)
let verify_replay path name threads iters =
  let pb = load path in
  if pb.Dr_pinplay.Pinball.kind <> Dr_pinplay.Pinball.Region then
    die "replay verify supports region pinballs";
  let prog = compile_workload name threads iters in
  try
    let m, reason = Dr_pinplay.Replayer.replay prog pb in
    Printf.printf "replay 1: %s (%d instructions)\n"
      (Format.asprintf "%a" Dr_machine.Driver.pp_stop_reason reason)
      (Dr_machine.Machine.total_icount m
      - pb.Dr_pinplay.Pinball.snapshot.Dr_machine.Snapshot.total_icount);
    let m2, _ = Dr_pinplay.Replayer.replay prog pb in
    if
      Dr_machine.Machine.output_list m = Dr_machine.Machine.output_list m2
      && m.Dr_machine.Machine.mem = m2.Dr_machine.Machine.mem
    then print_endline "verify: OK — two replays are bit-identical"
    else die "verify: FAILED — replays diverged (pinball/program mismatch?)"
  with Dr_pinplay.Replayer.Divergence d ->
    die "verify: FAILED — %s (wrong program build?)"
      (Dr_pinplay.Replayer.divergence_message d)

let verify path workload threads iters =
  let intact = verify_integrity path in
  if not intact then exit 1;
  match workload with
  | Some name -> verify_replay path name threads iters
  | None -> ()

let record name seed out threads iters digest_interval =
  let prog = compile_workload name threads iters in
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 6 })
      ~digest_interval prog Dr_pinplay.Logger.Whole
  with
  | Error e -> die "recording failed: %s" (Format.asprintf "%a" Dr_pinplay.Logger.pp_error e)
  | Ok (pb, stats) ->
    Dr_pinplay.Pinball.save_file out pb;
    Printf.printf "recorded %s: %d instructions -> %s (%d bytes)\n" name
      stats.Dr_pinplay.Logger.region_instructions out
      stats.Dr_pinplay.Logger.pinball_bytes

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec go = function
      | a :: b :: _ when a = name -> Some b
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let opt_or name default = Option.value ~default (opt name) in
  let req name what =
    match opt name with Some v -> v | None -> die "%s needs %s" what name
  in
  let int_opt name default =
    match opt name with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> exit_with 2 "%s expects an integer, got %S\n%s" name v usage)
  in
  let threads = int_opt "--threads" 4 in
  let iters = int_opt "--iters" 500 in
  match args with
  | _ :: "info" :: path :: _ -> info path
  | _ :: "dump" :: path :: _ -> dump path
  | _ :: "verify" :: path :: _ -> verify path (opt "--workload") threads iters
  | _ :: "record" :: _ ->
    record
      (req "--workload" "record")
      (int_opt "--seed" 1)
      (opt_or "-o" "out.pinball") threads iters
      (int_opt "--digest-interval" 64)
  | _ ->
    prerr_endline usage;
    exit 2
