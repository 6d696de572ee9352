(* The DrDebug command-line debugger.

   Usage:
     drdebug_cli --workload pbzip2 [--seed N]
     drdebug_cli --source prog.c [--input 1,2,3]
     drdebug_cli --workload Aget --script 'record until-fail;replay;continue;slice-failure;slice-lines'
     drdebug_cli slice --workload pbzip2 --trace-out trace.json --report-out report.json
     drdebug_cli fuzz --runs 50 --stats
     drdebug_cli report report.json
     drdebug_cli pinball record --workload pbzip2 --iters 30 -o t.pinball
     drdebug_cli pinball info|dump|verify t.pinball
     drdebug_cli pinball verify t.pinball --workload pbzip2 --iters 30

   Without --script, reads commands from stdin (one per line; `quit`
   exits).  See `help` inside the session for the command set.

   Every pipeline subcommand takes --trace-out (Chrome trace-event JSON,
   loadable in ui.perfetto.dev) and --report-out (drdebug-report-v1 run
   report); either flag enables tracing for the run.

   Exit codes (stable, documented in README "Resource limits"):
     0  success
     1  generic failure (bad arguments, failed run, fuzz failures,
        unreadable or unwritable file)
     2  command-line usage error (unknown option, malformed value)
     3  pinball container error (Pinball_error: bad magic, CRC, bounds)
     4  slice file error (Slice_file_error: bad header or statement)
     5  resource error (Resource_error: budget exceeded, disk full,
        segment corrupt, watchdog timeout) *)

let exit_pinball_error = 3
let exit_slice_file_error = 4
let exit_resource_error = 5

(* Map structured pipeline errors to documented exit codes instead of
   uncaught exceptions with backtraces.  Wraps every subcommand body. *)
let guarded f =
  try f () with
  | Dr_pinplay.Pinball.Pinball_error e ->
    Printf.eprintf "pinball error: %s\n"
      (Dr_pinplay.Pinball.error_to_string e);
    exit_pinball_error
  | Dr_slicing.Slicer.Slice_file_error { sf_line; sf_reason } ->
    Printf.eprintf "slice file error: line %d: %s\n" sf_line sf_reason;
    exit_slice_file_error
  | Dr_util.Budget.Resource_error e ->
    Printf.eprintf "resource error: %s\n" (Dr_util.Budget.error_to_string e);
    exit_resource_error
  | Sys_error e ->
    Printf.eprintf "cannot read/write %s\n" e;
    1

(* ---- observability plumbing shared by the subcommands ---- *)

(* Tracing is enabled iff some sink will consume it: a trace file, a
   report file, a metrics file, or the --stats span summary. *)
let setup_obs ~trace_out ~report_out ~metrics_out ~stats =
  if trace_out <> None || report_out <> None || metrics_out <> None || stats
  then Dr_obs.Obs.set_enabled true

(* Every export below is derived from one Report.document: the run
   report, the OpenMetrics text and the --stats table. *)
let write_metrics_of doc path =
  match Dr_obs.Openmetrics.of_report doc with
  | Error e -> invalid_arg ("metrics export: " ^ e)
  | Ok text ->
    Dr_util.Atomic_file.with_out path (fun oc -> output_string oc text);
    Printf.printf "metrics written to %s\n" path

(* The registry is always on, so --metrics-out works even on
   subcommands with no tracing plumbing of their own. *)
let write_metrics =
  Option.iter (fun path -> write_metrics_of (Dr_obs.Report.document ()) path)

let finish_obs ~trace_out ~report_out ~metrics_out ~stats ~label =
  Dr_obs.Obs.set_enabled false;
  (match trace_out with
  | Some path ->
    Dr_obs.Chrome_trace.write path;
    Printf.printf "trace written to %s (%d spans; load in ui.perfetto.dev)\n"
      path (Dr_obs.Obs.span_count ())
  | None -> ());
  let doc = lazy (Dr_obs.Report.document ~label ()) in
  Option.iter
    (fun path ->
      Dr_obs.Report.write path (Lazy.force doc);
      Printf.printf "run report written to %s\n" path)
    report_out;
  Option.iter (fun path -> write_metrics_of (Lazy.force doc) path) metrics_out;
  if stats then
    print_string (Format.asprintf "%a" Dr_obs.Report.pp_document (Lazy.force doc));
  List.iter
    (fun m -> Printf.eprintf "span mismatch: %s\n" m)
    (Dr_obs.Obs.mismatch_messages ())

let load_program ?(threads = 4) ?(iters = 500) workload source =
  match (workload, source) with
  | Some name, None -> (
    match Dr_workloads.Registry.find name with
    | Some e -> Ok (e.Dr_workloads.Registry.compile ~threads ~iters)
    | None ->
      Error
        (Printf.sprintf "unknown workload %s (available: %s)" name
           (String.concat ", " (Dr_workloads.Registry.names ()))))
  | None, Some path ->
    In_channel.with_open_text path In_channel.input_all
    |> Dr_lang.Codegen.compile_result ~name:(Filename.basename path) ~file:path
  | _ -> Error "specify exactly one of --workload or --source"

let run workload source seed input script stats trace_out report_out
    metrics_out =
  guarded @@ fun () ->
  match load_program workload source with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog ->
    setup_obs ~trace_out ~report_out ~metrics_out ~stats;
    let input =
      match input with
      | None -> [||]
      | Some s ->
        Array.of_list
          (List.filter_map int_of_string_opt (String.split_on_char ',' s))
    in
    let session = Drdebug.Session.create ~input ~seed prog in
    let dbg = Drdebug.Debugger.create session in
    let exec_one line =
      let line = String.trim line in
      if line = "" then true
      else if line = "quit" || line = "exit" then false
      else begin
        (match Drdebug.Debugger.exec dbg line with
        | Ok out -> print_string out
        | Error e -> Printf.printf "error: %s\n" e);
        true
      end
    in
    (match script with
    | Some s -> List.iter (fun l -> ignore (exec_one l)) (String.split_on_char ';' s)
    | None ->
      Printf.printf "DrDebug on %s — type help for commands, quit to exit\n"
        prog.Dr_isa.Program.name;
      let rec loop () =
        print_string "(drdebug) ";
        match In_channel.input_line stdin with
        | None -> ()
        | Some line -> if exec_one line then loop ()
      in
      loop ());
    finish_obs ~trace_out ~report_out ~metrics_out ~stats
      ~label:("debug:" ^ prog.Dr_isa.Program.name);
    0

(* ---- slice subcommand: one-shot pipeline run ---- *)

(* Run the whole pipeline non-interactively: log the execution (or load
   a pinball with --pinball), collect the trace, build the global trace,
   and slice at the last print statement (or the last record).  With a
   resource budget (--mem-budget / --time-budget / --spill-dir), trace
   records spill to disk in segments past the memory budget and the
   governed degradation ladder may step down from the indexed driver to
   a scan or a partial slice.  This is the canonical
   producer of --trace-out / --report-out documents. *)
let run_slice workload source seed input stats trace_out report_out
    metrics_out slice_out pinball_in mem_budget time_budget spill_dir =
  guarded @@ fun () ->
  match load_program workload source with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog ->
    setup_obs ~trace_out ~report_out ~metrics_out ~stats;
    let input =
      match input with
      | None -> [||]
      | Some s ->
        Array.of_list
          (List.filter_map int_of_string_opt (String.split_on_char ',' s))
    in
    let budget =
      if mem_budget > 0 || time_budget > 0.0 || spill_dir <> None then
        Some
          (Dr_util.Budget.create
             ?mem_bytes:(if mem_budget > 0 then Some mem_budget else None)
             ?time_s:(if time_budget > 0.0 then Some time_budget else None)
             ?spill_dir ())
      else None
    in
    (* the spill files go on every exit path, a resource error's too *)
    Fun.protect ~finally:(fun () ->
        Option.iter Dr_util.Budget.cleanup_spill budget)
    @@ fun () ->
    let finish () =
      finish_obs ~trace_out ~report_out ~metrics_out ~stats
        ~label:("slice:" ^ prog.Dr_isa.Program.name)
    in
    let pinball =
      match pinball_in with
      | Some path ->
        (* raises Pinball_error (exit 3) on a corrupt container *)
        let pb = Dr_pinplay.Pinball.load_file path in
        Printf.printf "loaded pinball %s\n" path;
        Ok pb
      | None -> (
        match
          Dr_pinplay.Logger.log ~input
            ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 8 })
            prog Dr_pinplay.Logger.Whole
        with
        | Error e ->
          Format.eprintf "logging failed: %a@." Dr_pinplay.Logger.pp_error e;
          Error ()
        | Ok (pb, lstats) ->
          Printf.printf "logged %s: %d instructions, pinball %d bytes\n"
            prog.Dr_isa.Program.name
            lstats.Dr_pinplay.Logger.region_instructions
            (Dr_pinplay.Pinball.size_bytes pb);
          Ok pb)
    in
    (match pinball with
    | Error () ->
      finish ();
      1
    | Ok pb ->
      let c = Dr_slicing.Collector.collect ?budget prog pb in
      let gt = Dr_slicing.Global_trace.construct c in
      let n = Dr_slicing.Global_trace.length gt in
      if n = 0 then begin
        prerr_endline "empty trace: nothing to slice";
        finish ();
        1
      end
      else begin
        let crit_pos = Dr_slicing.Global_trace.last_print_pos prog gt in
        let criterion = { Dr_slicing.Slicer.crit_pos; crit_locs = None } in
        let pairs = c.Dr_slicing.Collector.pairs in
        (* without a budget the ladder never steps down: an unlimited
           budget keeps the indexed rung and sets no watchdog *)
        let g =
          Dr_slicing.Slicer.compute_governed ~pairs
            ~budget:(Option.value budget ~default:(Dr_util.Budget.unlimited ()))
            gt criterion
        in
        if Option.is_some budget then
          Printf.printf "governed slicing: %s driver\n"
            (Dr_slicing.Slicer.rung_name g.Dr_slicing.Slicer.g_rung);
        let slice = g.Dr_slicing.Slicer.g_slice in
        let st = slice.Dr_slicing.Slicer.stats in
        Printf.printf
          "slice at position %d/%d: %d statements over %d source lines \
           (visited %d records, skipped %d of %d blocks, %.6fs)%s\n"
          crit_pos n
          (Dr_slicing.Slicer.size slice)
          (List.length (Dr_slicing.Slicer.source_lines prog slice))
          st.Dr_slicing.Slicer.visited st.Dr_slicing.Slicer.skipped_blocks
          st.Dr_slicing.Slicer.total_blocks st.Dr_slicing.Slicer.slice_time
          (if st.Dr_slicing.Slicer.truncated then " [TRUNCATED]" else "");
        (match budget with
        | Some b ->
          let spilled =
            Dr_slicing.Segment_store.spilled_segments
              c.Dr_slicing.Collector.records
          in
          if spilled > 0 then
            Printf.printf "spilled %d segments (%d bytes) to %s\n" spilled
              (Dr_util.Budget.spilled_bytes b)
              (Dr_util.Budget.spill_dir b);
          List.iter
            (fun d ->
              Printf.printf "degraded: %s\n"
                (Format.asprintf "%a" Dr_util.Budget.pp_degradation d))
            (Dr_util.Budget.degradations b)
        | None -> ());
        (match slice_out with
        | Some path ->
          Dr_slicing.Slicer.save_file prog path slice;
          Printf.printf "slice saved to %s\n" path
        | None -> ());
        finish ();
        0
      end)

(* ---- analyze subcommand: static binary lint ---- *)

(* Purely static: no execution, no pinball.  Runs the five lint passes
   (or the --passes subset) over the program image, prints a per-pass
   summary and optionally writes the validated drdebug-analyze-v1 JSON
   document. *)
let run_analyze workload source passes out metrics_out =
  guarded @@ fun () ->
  match load_program workload source with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog ->
    let g = Dr_static.Supercfg.build prog in
    let lint, doc = Dr_static.Report.analyze ?passes g in
    Printf.printf "analyze %s: %d instructions, %d functions\n"
      prog.Dr_isa.Program.name
      (Array.length prog.Dr_isa.Program.code)
      (Dr_static.Callgraph.num_functions g.Dr_static.Supercfg.cg);
    let ran = lint.Dr_static.Lint.passes_run in
    let pass name count =
      if List.mem name ran then Printf.printf "  %-20s %d\n" name count
    in
    pass "unreachable-blocks" (List.length lint.Dr_static.Lint.unreachable);
    pass "maybe-uninit" (List.length lint.Dr_static.Lint.uninit);
    pass "indirect-audit" (List.length lint.Dr_static.Lint.indirect);
    pass "save-restore" (List.length lint.Dr_static.Lint.save_restore);
    pass "races" (List.length lint.Dr_static.Lint.races);
    Printf.printf "  %-20s %d\n" "findings total"
      (Dr_static.Lint.findings_total lint);
    List.iter
      (fun (u : Dr_static.Lint.unreachable_block) ->
        Printf.printf "  [unreachable-blocks] fn@%d block %d pcs %d..%d\n"
          u.Dr_static.Lint.ub_fentry u.Dr_static.Lint.ub_block
          u.Dr_static.Lint.ub_start
          (u.Dr_static.Lint.ub_end - 1))
      lint.Dr_static.Lint.unreachable;
    List.iter
      (fun (u : Dr_static.Lint.uninit) ->
        Printf.printf "  [maybe-uninit] fn@%d pc %d reg %s\n"
          u.Dr_static.Lint.un_fentry u.Dr_static.Lint.un_pc
          (Dr_isa.Reg.name u.Dr_static.Lint.un_reg))
      lint.Dr_static.Lint.uninit;
    List.iter
      (fun (i : Dr_static.Lint.indirect) ->
        Printf.printf "  [indirect-audit] pc %d %s %s suggestions: %s\n"
          i.Dr_static.Lint.ind_pc
          (match i.Dr_static.Lint.ind_kind with
          | `Jind -> "jind"
          | `Callind -> "callind")
          (Dr_isa.Reg.name i.Dr_static.Lint.ind_reg)
          (match i.Dr_static.Lint.ind_suggestions with
          | [] -> "(none)"
          | l -> String.concat "," (List.map string_of_int l)))
      lint.Dr_static.Lint.indirect;
    List.iter
      (fun (s : Dr_static.Lint.sr_issue) ->
        Printf.printf "  [save-restore] fn@%d %s pc %d reg %s\n"
          s.Dr_static.Lint.sr_fentry
          (Dr_static.Lint.sr_kind_name s.Dr_static.Lint.sr_kind)
          s.Dr_static.Lint.sr_pc
          (Dr_isa.Reg.name s.Dr_static.Lint.sr_reg))
      lint.Dr_static.Lint.save_restore;
    List.iter
      (fun (p : Dr_static.Race.pair) ->
        let acc (a : Dr_static.Race.access) roots lockset =
          Printf.sprintf "pc %d%s%s roots:%s locks:%s" a.Dr_static.Race.acc_pc
            (if a.Dr_static.Race.acc_write then " write" else " read")
            (match a.Dr_static.Race.acc_addr with
            | Some ad -> Printf.sprintf " @%d" ad
            | None -> "")
            (String.concat "," (List.map string_of_int roots))
            (String.concat "," (List.map string_of_int lockset))
        in
        Printf.printf "  [races] score %d: %s <-> %s\n" p.Dr_static.Race.p_score
          (acc p.Dr_static.Race.p_a p.Dr_static.Race.p_roots_a
             p.Dr_static.Race.p_lockset_a)
          (acc p.Dr_static.Race.p_b p.Dr_static.Race.p_roots_b
             p.Dr_static.Race.p_lockset_b))
      lint.Dr_static.Lint.races;
    write_metrics metrics_out;
    match out with
    | None -> 0
    | Some path -> (
      match Dr_static.Report.validate doc with
      | Error e ->
        Printf.eprintf "internal error: generated report fails validation: %s\n"
          e;
        1
      | Ok () ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Dr_util.Json.to_string ~indent:true doc);
            Out_channel.output_char oc '\n');
        Printf.printf "report written to %s\n" path;
        0)

(* ---- maple subcommand: active iRoot testing campaign ---- *)

(* Profile, predict, and actively schedule candidate iRoots until a bug
   is exposed.  With --static-races the candidate queue is reordered so
   iRoots matching a static race candidate pair run first — the
   campaign-seeding integration of the static race detector. *)
let run_maple workload source static_races max_candidates max_steps out
    metrics_out =
  guarded @@ fun () ->
  match load_program workload source with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog ->
    let static_pairs =
      if static_races then begin
        let r = Dr_static.Race.analyze (Dr_static.Supercfg.build prog) in
        let pairs = Dr_static.Race.candidate_pairs r in
        Printf.printf "static race candidates: %d%s\n" (List.length pairs)
          (if Dr_static.Race.fully_resolved r then "" else " (degraded: unresolved targets)");
        Some pairs
      end
      else None
    in
    let exposed =
      Dr_maple.Active.expose ?static_pairs ~max_candidates ~max_steps prog
    in
    write_metrics metrics_out;
    (match exposed with
    | None ->
      Printf.printf "maple: no bug exposed (%s)\n"
        (match static_pairs with
        | Some _ -> "with static seeding"
        | None -> "no static seeding");
      0
    | Some e ->
      let n = List.length e.Dr_maple.Active.attempts in
      Printf.printf "maple: exposed %s after %d attempt(s) via %s\n"
        (match e.Dr_maple.Active.outcome with
        | Dr_machine.Machine.Assert_failed { msg; _ } ->
          Printf.sprintf "assertion %S" msg
        | Dr_machine.Machine.Fault { msg; _ } -> Printf.sprintf "fault %S" msg
        | _ -> "deadlock")
        n
        (Dr_maple.Iroot.to_string e.Dr_maple.Active.failing_iroot);
      (match out with
      | Some path ->
        Dr_pinplay.Pinball.save_file path e.Dr_maple.Active.pinball;
        Printf.printf "failing run recorded to %s\n" path
      | None -> ());
      0)

(* ---- fuzz subcommand: differential pipeline fuzzing ---- *)

let run_fuzz seed runs out budget disk_faults domains stats trace_out
    report_out metrics_out =
  guarded @@ fun () ->
  setup_obs ~trace_out ~report_out ~metrics_out ~stats;
  let budget_s = if budget <= 0.0 then None else Some budget in
  let log msg = Printf.printf "%s\n%!" msg in
  let s =
    Dr_conformance.Fuzz.run ~disk_faults ?budget_s ?out_dir:out ~log
      ~domains:(max 1 domains) ~seed ~runs ()
  in
  Printf.printf
    "fuzz: %d cases (%d passed, %d skipped, %d failed) in %.1fs [seed %d]\n"
    s.Dr_conformance.Fuzz.s_cases s.Dr_conformance.Fuzz.s_passes
    s.Dr_conformance.Fuzz.s_skips
    (List.length s.Dr_conformance.Fuzz.s_failures)
    s.Dr_conformance.Fuzz.s_elapsed seed;
  List.iter
    (fun (f : Dr_conformance.Fuzz.failure) ->
      Printf.printf "  case %d: %s: %s (%d-line repro, %d shrink steps)\n"
        f.Dr_conformance.Fuzz.fr_case_id
        (Dr_conformance.Oracles.kind_name f.Dr_conformance.Fuzz.fr_kind)
        f.Dr_conformance.Fuzz.fr_detail
        (Array.length f.Dr_conformance.Fuzz.fr_lines)
        f.Dr_conformance.Fuzz.fr_shrink_steps)
    s.Dr_conformance.Fuzz.s_failures;
  finish_obs ~trace_out ~report_out ~metrics_out ~stats ~label:"fuzz";
  if Dr_conformance.Fuzz.all_green s then 0 else 1

(* ---- report subcommand: validate + pretty-print a run report ---- *)

(* ---- slice-file subcommand: validate + summarize a saved slice ---- *)

let run_slice_file path metrics_out =
  guarded @@ fun () ->
  (* raises Slice_file_error (exit 4) on a corrupt file *)
  let stmts = Dr_slicing.Slicer.load_file_statements path in
  Printf.printf "%s: %d statements\n" path (List.length stmts);
  List.iter
    (fun (tid, pc, inst, line) ->
      Printf.printf "  tid %d pc %d instance %d line %d\n" tid pc inst line)
    stmts;
  write_metrics metrics_out;
  0

(* Load and validate a drdebug-report-v1 document; a bench file with an
   embedded report (BENCH_slicing.json's "report" member) is unwrapped,
   so the @obs CI gate can diff bench trajectories directly. *)
let load_report path : (Dr_util.Json.t, int) result =
  match
    Dr_util.Json.parse (In_channel.with_open_text path In_channel.input_all)
  with
  | Error e ->
    Printf.eprintf "%s: not valid JSON: %s\n" path e;
    Error 1
  | Ok doc -> (
    let doc =
      match
        Option.bind (Dr_util.Json.member "schema" doc) Dr_util.Json.to_str
      with
      | Some s when s <> Dr_obs.Report.schema_version -> (
        match Dr_util.Json.member "report" doc with
        | Some embedded -> embedded
        | None -> doc)
      | _ -> doc
    in
    match Dr_obs.Report.validate doc with
    | Error e ->
      Printf.eprintf "%s: invalid %s document: %s\n" path
        Dr_obs.Report.schema_version e;
      Error 1
    | Ok () -> Ok doc)

(* `report FILE` validates and pretty-prints; `report diff BASE CUR`
   compares the timing trajectories and exits 1 on a regression beyond
   --threshold-pct — the CI gate for BENCH report trajectories. *)
let run_report args threshold_pct =
  guarded @@ fun () ->
  match args with
  | [ path ] -> (
    match load_report path with
    | Error code -> code
    | Ok doc ->
      print_string (Format.asprintf "%a" Dr_obs.Report.pp_document doc);
      0)
  | [ "diff"; base_path; cur_path ] -> (
    match (load_report base_path, load_report cur_path) with
    | Error code, _ | _, Error code -> code
    | Ok base, Ok cur -> (
      match Dr_obs.Report.diff ~threshold_pct base cur with
      | Error e ->
        Printf.eprintf "diff failed: %s\n" e;
        1
      | Ok r ->
        Printf.printf "report diff (threshold %g%%): %s -> %s\n" threshold_pct
          base_path cur_path;
        let buf = Buffer.create 256 in
        let fmt = Format.formatter_of_buffer buf in
        let regressed = Dr_obs.Report.pp_diff fmt r in
        Format.pp_print_flush fmt ();
        print_string (Buffer.contents buf);
        if regressed then 1 else 0))
  | _ ->
    prerr_endline "usage: drdebug report FILE | drdebug report diff BASE CUR";
    1

(* ---- metrics subcommand: OpenMetrics-style text export ---- *)

let run_metrics path out =
  guarded @@ fun () ->
  match load_report path with
  | Error code -> code
  | Ok doc -> (
    match Dr_obs.Openmetrics.of_report doc with
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      1
    | Ok text ->
      (match out with
      | None -> print_string text
      | Some dst ->
        Dr_util.Atomic_file.with_out dst (fun oc -> output_string oc text);
        Printf.printf "metrics written to %s\n" dst);
      0)

(* ---- pinball subcommands: inspect, verify and record pinball files ---- *)

(* Pinballs are portable artifacts shipped between developers (paper
   §1); these are the commands you run on one you received.  A corrupt
   container raises Pinball_error, which [guarded] maps to exit 3. *)

let run_pinball_info path =
  guarded @@ fun () ->
  let pb = Dr_pinplay.Pinball.load_file path in
  let open Dr_pinplay.Pinball in
  Printf.printf "pinball: %s\n" path;
  Printf.printf "  program:       %s\n" pb.program_name;
  Printf.printf "  kind:          %s\n"
    (match pb.kind with Region -> "region" | Slice -> "slice");
  Printf.printf "  region:        skip=%d length=%d (main-thread instructions)\n"
    pb.region.skip pb.region.length;
  Printf.printf "  instructions:  %d (all threads)\n" (schedule_instructions pb);
  Printf.printf "  schedule:      %d runs\n" (Dr_machine.Schedule.length pb.schedule);
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
  Printf.printf "  size on disk:  %d bytes\n" (size_bytes pb);
  0

let run_pinball_dump path =
  guarded @@ fun () ->
  let pb = Dr_pinplay.Pinball.load_file path in
  let open Dr_pinplay.Pinball in
  Printf.printf "schedule (tid x count):\n ";
  List.iter (fun (tid, n) -> Printf.printf " %d x%d" tid n)
    (Dr_machine.Schedule.to_runs pb.schedule);
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
  end;
  0

(* Integrity verification: header, section CRCs, trailer CRC, full
   decode.  Prints one line per section; false on any problem. *)
let verify_integrity path =
  let r = Dr_pinplay.Pinball.verify_file path in
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

(* Replay verification: two replays of the pinball against the
   workload's program must be bit-identical (the paper's repeatability
   guarantee). *)
let verify_replay path name threads iters =
  let pb = Dr_pinplay.Pinball.load_file path in
  if pb.Dr_pinplay.Pinball.kind <> Dr_pinplay.Pinball.Region then begin
    prerr_endline "replay verify supports region pinballs";
    1
  end
  else
    match load_program ~threads ~iters (Some name) None with
    | Error e ->
      prerr_endline e;
      1
    | Ok prog -> (
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
        then begin
          print_endline "verify: OK — two replays are bit-identical";
          0
        end
        else begin
          prerr_endline
            "verify: FAILED — replays diverged (pinball/program mismatch?)";
          1
        end
      with Dr_pinplay.Replayer.Divergence d ->
        Printf.eprintf "verify: FAILED — %s (wrong program build?)\n"
          (Dr_pinplay.Replayer.divergence_message d);
        1)

let run_pinball_verify path workload threads iters =
  guarded @@ fun () ->
  if not (verify_integrity path) then 1
  else
    match workload with
    | Some name -> verify_replay path name threads iters
    | None -> 0

let run_pinball_record name seed out threads iters digest_interval =
  guarded @@ fun () ->
  match load_program ~threads ~iters (Some name) None with
  | Error e ->
    prerr_endline e;
    1
  | Ok prog -> (
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 6 })
        ~digest_interval prog Dr_pinplay.Logger.Whole
    with
    | Error e ->
      Format.eprintf "recording failed: %a@." Dr_pinplay.Logger.pp_error e;
      1
    | Ok (pb, stats) ->
      let bytes = Dr_pinplay.Pinball.to_bytes pb in
      Dr_util.Atomic_file.write_string out bytes;
      Printf.printf "recorded %s: %d instructions -> %s (%d bytes)\n" name
        stats.Dr_pinplay.Logger.region_instructions out (String.length bytes);
      0)

open Cmdliner

let workload =
  Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~doc:"Named workload to debug.")

let source =
  Arg.(value & opt (some string) None & info [ "source"; "s" ] ~doc:"Mini-C source file to debug.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed for native runs/recording.")

let input =
  Arg.(value & opt (some string) None & info [ "input" ] ~doc:"Comma-separated input words for read().")

let script =
  Arg.(value & opt (some string) None & info [ "script" ] ~doc:"Semicolon-separated commands to run non-interactively.")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the run report (phases, counters, timers, histograms) on exit.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ]
         ~doc:"Write a Chrome trace-event JSON file (load in ui.perfetto.dev or chrome://tracing); enables tracing.")

let report_out =
  Arg.(value & opt (some string) None & info [ "report-out" ]
         ~doc:"Write a drdebug-report-v1 JSON run report; enables tracing.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ]
         ~doc:"Write the metrics registry as OpenMetrics-style text; enables tracing.")

let debug_term =
  Term.(
    const run $ workload $ source $ seed $ input $ script $ stats $ trace_out
    $ report_out $ metrics_out)

let slice_cmd =
  let doc =
    "one-shot pipeline run: log the whole execution (or load --pinball), \
     collect the trace, build the global trace, and slice at the last print \
     statement — under an optional resource budget with disk spill and \
     graceful degradation"
  in
  let slice_out =
    Arg.(value & opt (some string) None & info [ "slice-out" ] ~doc:"Save the computed slice file.")
  in
  let pinball_in =
    Arg.(value & opt (some string) None & info [ "pinball" ]
           ~doc:"Replay this pinball file instead of logging a fresh run (exit 3 on a corrupt container).")
  in
  let mem_budget =
    Arg.(value & opt int 0 & info [ "mem-budget" ]
           ~doc:"Memory budget in bytes for trace records; past it, segments spill to --spill-dir. 0 = unlimited.")
  in
  let time_budget =
    Arg.(value & opt float 0.0 & info [ "time-budget" ]
           ~doc:"Wall-clock budget in seconds; collection aborts (exit 5) and slicing returns an honestly-marked partial slice when it expires. 0 = unlimited.")
  in
  let spill_dir =
    Arg.(value & opt (some string) None & info [ "spill-dir" ]
           ~doc:"Directory for spilled trace segments (default: a per-process directory under the system temp dir).")
  in
  Cmd.v (Cmd.info "slice" ~doc)
    Term.(
      const run_slice $ workload $ source $ seed $ input $ stats $ trace_out
      $ report_out $ metrics_out $ slice_out $ pinball_in $ mem_budget
      $ time_budget $ spill_dir)

let analyze_cmd =
  let doc =
    "static binary lint: unreachable blocks, maybe-uninitialized registers, \
     unresolved-indirect audit with refinement suggestions, save/restore \
     discipline (over the candidate scan the slicer prunes with), and \
     static data-race candidates (lockset + happens-before)"
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ]
           ~doc:"Write the drdebug-analyze-v1 JSON report.")
  in
  let passes =
    let names = List.map (fun p -> (p, p)) Dr_static.Lint.pass_names in
    Arg.(value & opt (some (list (enum names))) None & info [ "passes" ]
           ~doc:(Printf.sprintf
                   "Comma-separated subset of lint passes to run (%s). \
                    Default: all."
                   (String.concat ", " Dr_static.Lint.pass_names)))
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run_analyze $ workload $ source $ passes $ out $ metrics_out)

let maple_cmd =
  let doc =
    "Maple active-scheduling campaign: profile observed iRoots, predict \
     untested interleavings, and force each candidate under the PinPlay \
     logger until a bug is exposed; --static-races seeds the queue with \
     the static race detector's candidate pairs"
  in
  let static_races =
    Arg.(value & flag & info [ "static-races" ]
           ~doc:"Prioritize candidate iRoots whose pc pair is a static race \
                 candidate (lockset + happens-before analysis).")
  in
  let max_candidates =
    Arg.(value & opt int 64 & info [ "max-candidates" ]
           ~doc:"Test at most this many candidate iRoots.")
  in
  let max_steps =
    Arg.(value & opt int 2_000_000 & info [ "max-steps" ]
           ~doc:"Per-attempt step bound.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ]
           ~doc:"Save the failing run's pinball.")
  in
  Cmd.v (Cmd.info "maple" ~doc)
    Term.(
      const run_maple $ workload $ source $ static_races $ max_candidates
      $ max_steps $ out $ metrics_out)

let fuzz_cmd =
  let doc =
    "differential pipeline fuzzing: generated programs through log, replay, \
     relog, slice and slice-replay, checking determinism, roundtrip, driver \
     agreement, slice soundness and exclusion sanity"
  in
  let fseed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master fuzz seed; every case derives deterministically from it.")
  in
  let runs =
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of fuzz cases to run.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Directory for report.json and shrunk failure cases.")
  in
  let budget =
    Arg.(value & opt float 0.0 & info [ "budget-s" ] ~doc:"Wall-clock budget in seconds; 0 = unlimited.")
  in
  let disk_faults =
    Arg.(value & flag & info [ "disk-faults" ]
           ~doc:"Also run the resource-robustness oracle on every case: rebuild the trace through a disk-spilled segment store and inject one deterministic disk fault (ENOSPC, short write, bit flip, truncation, deletion).")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ]
           ~doc:"Fan fuzz cases over this many OCaml domains. Case derivation is pure in (seed, case id), so any failure still reproduces on one domain from its seed alone.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ fseed $ runs $ out $ budget $ disk_faults $ domains
      $ stats $ trace_out $ report_out $ metrics_out)

let report_cmd =
  let doc =
    "validate and pretty-print a drdebug-report-v1 run report \
     ($(b,report FILE)), or compare two reports' timing trajectories \
     ($(b,report diff BASE CUR)), exiting 1 when any timer or phase \
     total regressed beyond --threshold-pct"
  in
  let args =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ARGS"
           ~doc:"Either a report file, or $(b,diff) followed by the base and current report files (bench files with an embedded report are unwrapped).")
  in
  let threshold =
    Arg.(value & opt float 10.0 & info [ "threshold-pct" ]
           ~doc:"Relative timing change (percent) that counts as a regression/improvement for $(b,report diff).")
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ args $ threshold)

let metrics_cmd =
  let doc =
    "emit the counters/timers/histograms of a stored drdebug-report-v1 \
     (or bench) file as OpenMetrics-style text"
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Report (or bench) file to re-export.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ]
           ~doc:"Write to this file instead of stdout.")
  in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run_metrics $ file $ out)

let slice_file_cmd =
  let doc =
    "validate and summarize a saved slice file (exit 4 on a corrupt file)"
  in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Slice file to load.")
  in
  Cmd.v (Cmd.info "slice-file" ~doc)
    Term.(const run_slice_file $ file $ metrics_out)

let pinball_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Pinball file.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Thread count the workload is compiled for.")
  in
  let iters =
    Arg.(value & opt int 500 & info [ "iters" ] ~doc:"Iteration count the workload is compiled for.")
  in
  let info_cmd =
    Cmd.v (Cmd.info "info" ~doc:"summarize a pinball's header and sections")
      Term.(const run_pinball_info $ file)
  in
  let dump_cmd =
    Cmd.v (Cmd.info "dump" ~doc:"print the schedule, syscall results and slice events")
      Term.(const run_pinball_dump $ file)
  in
  let verify_cmd =
    let doc =
      "check every checksum and decode the whole file; with --workload, also \
       replay it twice against that workload and require bit-identical runs"
    in
    Cmd.v (Cmd.info "verify" ~doc)
      Term.(const run_pinball_verify $ file $ workload $ threads $ iters)
  in
  let record_cmd =
    let workload =
      Arg.(required & opt (some string) None & info [ "workload"; "w" ] ~doc:"Named workload to record.")
    in
    let out =
      Arg.(value & opt string "out.pinball" & info [ "o" ] ~docv:"FILE" ~doc:"Pinball file to write.")
    in
    let digest_interval =
      Arg.(value & opt int 64 & info [ "digest-interval" ]
             ~doc:"Record an execution digest every this many instructions; 0 = none.")
    in
    Cmd.v
      (Cmd.info "record" ~doc:"record a whole run of a workload into a pinball")
      Term.(
        const run_pinball_record $ workload $ seed $ out $ threads $ iters
        $ digest_interval)
  in
  Cmd.group
    (Cmd.info "pinball"
       ~doc:"inspect, verify and record pinball files (exit 3 on a corrupt container)")
    [ info_cmd; dump_cmd; verify_cmd; record_cmd ]

let cmd =
  let doc = "deterministic replay based cyclic debugging with dynamic slicing" in
  Cmd.group ~default:debug_term (Cmd.info "drdebug" ~doc)
    [ slice_cmd; analyze_cmd; maple_cmd; fuzz_cmd; report_cmd; metrics_cmd;
      slice_file_cmd; pinball_cmd ]

(* A parse or term error is a usage error (exit 2), not cmdliner's
   default 124. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
