(** The DrDebug command interpreter: the gdb/KDbg front end of the paper
    as a scriptable textual debugger.

    Every interaction from the paper's workflow is a command here:
    recording regions ([record]), deterministic replay with breakpoints
    ([replay], [break], [continue], [stepi]), state inspection ([print],
    [backtrace], [info threads], [list]), dynamic slicing ([slice],
    [slice-failure]), slice browsing ([slice-lines], [deps]), execution
    slices ([slice-pinball], [slice-replay], [sstep]) and the Maple
    integration ([maple]).  Commands return their output as a string, so
    the same engine drives the interactive CLI, scripts, and tests. *)

type t = { session : Session.t }

let create (session : Session.t) : t = { session }

let of_program ?input ?seed prog = create (Session.create ?input ?seed prog)

(* ---- helpers ---- *)

let buf_printf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let describe_stop (t : t) b (stop : Session.stop) =
  let line_str =
    match stop.Session.stop_line with
    | Some l -> Printf.sprintf " line %d" l
    | None -> ""
  in
  buf_printf b "[tid %d] %s at pc %d%s\n" stop.Session.stop_tid
    stop.Session.stop_reason stop.Session.stop_pc line_str;
  match stop.Session.stop_line with
  | Some l -> (
    match Dr_isa.Debug_info.source_line t.session.Session.prog.Dr_isa.Program.debug l with
    | Some src -> buf_printf b "%4d  %s\n" l src
    | None -> ())
  | None -> ()

let int_of_string_opt' s = int_of_string_opt (String.trim s)

let slice_statement_line (t : t) (slice : Dr_slicing.Slicer.t) idx =
  let prog = t.session.Session.prog in
  let pos = slice.Dr_slicing.Slicer.positions.(idx) in
  let r = Dr_slicing.Global_trace.record slice.Dr_slicing.Slicer.gt pos in
  let line = Dr_slicing.Trace.line_of_pc prog r.Dr_slicing.Trace.pc in
  let line_str =
    if line >= 0 then
      match Dr_isa.Debug_info.source_line prog.Dr_isa.Program.debug line with
      | Some src -> Printf.sprintf " | %s" (String.trim src)
      | None -> ""
    else ""
  in
  Printf.sprintf "[%d] tid %d pc %d #%d line %d%s" idx r.Dr_slicing.Trace.tid
    r.Dr_slicing.Trace.pc r.Dr_slicing.Trace.instance line line_str

let help_text =
  {|DrDebug commands:
  record whole | record region <skip> <len> | record until-fail
                          capture a pinball of the (region of) execution
  replay                  start (or restart) deterministic replay
  break <line|function>   set a breakpoint          delete <id>
  watch <var>             stop when the variable's memory cell is written
  continue | c            run to next breakpoint or end of region
  stepi [n]               execute n instructions (default 1)
  reverse-stepi [n]       step n instructions backwards (checkpoint + replay)
  reverse-continue | rc   run backwards to the previous breakpoint hit
  goto <step>             move the replay to an absolute step count
  where                   show the current stop
  info checkpoints        list auto-captured reverse-debugging checkpoints
  print <var> [tid]       read a variable (thread's frame or global)
  backtrace [tid]         call stack of a thread
  info threads|breaks|pinball|slice
  list <line>             show source around a line
  slice <var>             backwards dynamic slice for var at current stop
  slice-failure           slice for the failure point of the region
  slice-lines             source lines in the current slice
  slice-stmts [n]         first n slice statements (default 20)
  deps <idx>              dependences of slice statement idx (backwards nav)
  slice-tree [idx] [d]    dependence tree from statement idx (default: criterion)
  slice-save <file>       save the slice file
  slice-pinball           relog the slice into a slice pinball
  slice-replay            start replaying the execution slice
  sstep [n]               step n slice statements (default 1)
  set prune|refine on|off precision toggles (paper section 5)
  maple                   expose a concurrency bug and load its pinball
  help                    this text|}

(* ---- command execution ---- *)

let exec (t : t) (line : string) : (string, string) result =
  let s = t.session in
  let b = Buffer.create 256 in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  Dr_obs.Obs.with_span ~cat:"debugger" "debugger.exec" @@ fun sp ->
  (match words with
  | cmd :: _ -> Dr_obs.Obs.add_attr sp "command" (Dr_obs.Obs.Str cmd)
  | [] -> ());
  let result =
    match words with
    | [] -> Ok ()
    | [ "help" ] ->
      Buffer.add_string b help_text;
      Buffer.add_char b '\n';
      Ok ()
    (* ---- recording ---- *)
    | [ "record" ] | [ "record"; "whole" ] | [ "record"; "region" ] -> (
      match Session.record s Session.Whole with
      | Error e -> Error e
      | Ok stats ->
        buf_printf b
          "recorded whole execution: %d instructions (%d main thread), pinball %d bytes\n"
          stats.Dr_pinplay.Logger.region_instructions
          stats.Dr_pinplay.Logger.main_instructions
          (Dr_pinplay.Pinball.size_bytes (Option.get s.Session.pinball));
        buf_printf b "region ended: %s\n"
          (Format.asprintf "%a" Dr_machine.Driver.pp_stop_reason
             stats.Dr_pinplay.Logger.stop);
        Ok ())
    | [ "record"; "region"; skip; len ] -> (
      match (int_of_string_opt' skip, int_of_string_opt' len) with
      | Some skip, Some length -> (
        match Session.record s (Session.Region { skip; length }) with
        | Error e -> Error e
        | Ok stats ->
          buf_printf b
            "recorded region: skip=%d length=%d (%d instructions all threads), pinball %d bytes\n"
            skip stats.Dr_pinplay.Logger.main_instructions
            stats.Dr_pinplay.Logger.region_instructions
            (Dr_pinplay.Pinball.size_bytes (Option.get s.Session.pinball));
          Ok ())
      | _ -> Error "usage: record region <skip> <length>")
    | [ "record"; "until-fail" ] -> (
      match Session.record s Session.Until_failure with
      | Error e -> Error e
      | Ok stats ->
        buf_printf b "recorded until: %s (%d instructions)\n"
          (Format.asprintf "%a" Dr_machine.Driver.pp_stop_reason
             stats.Dr_pinplay.Logger.stop)
          stats.Dr_pinplay.Logger.region_instructions;
        Ok ())
    (* ---- replay ---- *)
    | [ "replay" ] -> (
      match Session.start_replay s with
      | Error e -> Error e
      | Ok () ->
        buf_printf b "replaying region pinball (deterministic)\n";
        Ok ())
    | [ "continue" ] | [ "c" ] -> (
      match Session.continue_replay s with
      | Error e -> Error e
      | Ok stop ->
        describe_stop t b stop;
        Ok ())
    | "stepi" :: rest -> (
      let n =
        match rest with
        | [] -> Some 1
        | [ x ] -> int_of_string_opt' x
        | _ -> None
      in
      match n with
      | None -> Error "usage: stepi [n]"
      | Some n -> (
        match Session.stepi s n with
        | Error e -> Error e
        | Ok stop ->
          describe_stop t b stop;
          Ok ()))
    | [ "where" ] -> (
      match s.Session.last_stop with
      | Some stop ->
        describe_stop t b stop;
        Ok ()
      | None -> Error "no current stop")
    (* ---- reverse debugging (paper section 8, implemented) ---- *)
    | "reverse-stepi" :: rest -> (
      let n =
        match rest with
        | [] -> Some 1
        | [ x ] -> int_of_string_opt' x
        | _ -> None
      in
      match n with
      | None -> Error "usage: reverse-stepi [n]"
      | Some n -> (
        match Session.reverse_stepi s n with
        | Error e -> Error e
        | Ok stop ->
          describe_stop t b stop;
          Ok ()))
    | [ "reverse-continue" ] | [ "rc" ] -> (
      match Session.reverse_continue s with
      | Error e -> Error e
      | Ok stop ->
        describe_stop t b stop;
        Ok ())
    | [ "goto"; target ] -> (
      match int_of_string_opt' target with
      | None -> Error "usage: goto <step>"
      | Some target -> (
        match Session.goto_step s ~target with
        | Error e -> Error e
        | Ok stop ->
          describe_stop t b stop;
          Ok ()))
    | [ "info"; "checkpoints" ] ->
      if s.Session.checkpoints = [] then buf_printf b "no checkpoints yet\n"
      else
        List.iter
          (fun c ->
            buf_printf b "checkpoint at step %d\n" c.Dr_pinplay.Replayer.c_steps)
          s.Session.checkpoints;
      Ok ()
    (* ---- breakpoints ---- *)
    | [ "break"; target ] -> (
      let r =
        match int_of_string_opt' target with
        | Some line -> Session.add_breakpoint_line s line
        | None -> Session.add_breakpoint_func s target
      in
      match r with
      | Error e -> Error e
      | Ok bp ->
        buf_printf b "breakpoint %d at pc %d%s\n" bp.Session.bp_id
          bp.Session.bp_pc
          (match bp.Session.bp_line with
          | Some l -> Printf.sprintf " (line %d)" l
          | None -> "");
        Ok ())
    | [ "watch"; name ] -> (
      let tid =
        match s.Session.last_stop with
        | Some st -> st.Session.stop_tid
        | None -> 0
      in
      match Session.add_watchpoint s (Session.machine s) ~tid name with
      | Error e -> Error e
      | Ok wp ->
        buf_printf b "watchpoint %d on %s (address %d)\n" wp.Session.wp_id
          wp.Session.wp_name wp.Session.wp_addr;
        Ok ())
    | [ "info"; "watch" ] ->
      if s.Session.watchpoints = [] then buf_printf b "no watchpoints\n"
      else
        List.iter
          (fun w ->
            buf_printf b "%d: %s at address %d\n" w.Session.wp_id
              w.Session.wp_name w.Session.wp_addr)
          s.Session.watchpoints;
      Ok ()
    | [ "delete"; id ] -> (
      match int_of_string_opt' id with
      | Some id ->
        if Session.delete_breakpoint s id then begin
          buf_printf b "deleted breakpoint %d\n" id;
          Ok ()
        end
        else Error (Printf.sprintf "no breakpoint %d" id)
      | None -> Error "usage: delete <id>")
    (* ---- inspection ---- *)
    | "print" :: name :: rest -> (
      match Session.machine s with
      | None -> Error "no active replay"
      | Some m -> (
        let tid =
          match rest with
          | [ x ] -> int_of_string_opt' x
          | [] ->
            Some
              (match s.Session.last_stop with
              | Some st -> st.Session.stop_tid
              | None -> 0)
          | _ -> None
        in
        match tid with
        | None -> Error "usage: print <var> [tid]"
        | Some tid -> (
          match Session.read_var s m ~tid name with
          | Error e -> Error e
          | Ok v ->
            buf_printf b "%s = %d\n" name v;
            Ok ())))
    | "backtrace" :: rest -> (
      match Session.machine s with
      | None -> Error "no active replay"
      | Some m -> (
        let tid =
          match rest with
          | [ x ] -> int_of_string_opt' x
          | [] ->
            Some
              (match s.Session.last_stop with
              | Some st -> st.Session.stop_tid
              | None -> 0)
          | _ -> None
        in
        match tid with
        | None -> Error "usage: backtrace [tid]"
        | Some tid ->
          List.iteri
            (fun i (fname, pc) -> buf_printf b "#%d %s (pc %d)\n" i fname pc)
            (Session.backtrace s m ~tid);
          Ok ()))
    | [ "info"; "threads" ] -> (
      match Session.machine s with
      | None -> Error "no active replay"
      | Some m ->
        for tid = 0 to Dr_machine.Machine.num_threads m - 1 do
          let th = Dr_machine.Machine.thread m tid in
          let state =
            match th.Dr_machine.Machine.state with
            | Dr_machine.Machine.Runnable -> "runnable"
            | Dr_machine.Machine.Blocked_lock a -> Printf.sprintf "blocked on lock %d" a
            | Dr_machine.Machine.Blocked_join j -> Printf.sprintf "joining tid %d" j
            | Dr_machine.Machine.Blocked_cond a ->
              Printf.sprintf "waiting on condvar %d" a
            | Dr_machine.Machine.Finished -> "finished"
          in
          buf_printf b "tid %d: pc %d%s icount %d %s\n" tid
            th.Dr_machine.Machine.pc
            (match Session.line_of_pc s th.Dr_machine.Machine.pc with
            | Some l -> Printf.sprintf " (line %d)" l
            | None -> "")
            th.Dr_machine.Machine.icount state
        done;
        Ok ())
    | [ "info"; "breaks" ] ->
      if s.Session.breakpoints = [] then buf_printf b "no breakpoints\n"
      else
        List.iter
          (fun bp ->
            buf_printf b "%d: pc %d%s %s\n" bp.Session.bp_id bp.Session.bp_pc
              (match bp.Session.bp_line with
              | Some l -> Printf.sprintf " (line %d)" l
              | None -> "")
              (if bp.Session.bp_enabled then "enabled" else "disabled"))
          s.Session.breakpoints;
      Ok ()
    | [ "info"; "pinball" ] -> (
      match s.Session.pinball with
      | None -> Error "no pinball"
      | Some pb ->
        buf_printf b
          "pinball: %s region skip=%d length=%d, %d instructions, %d bytes\n"
          pb.Dr_pinplay.Pinball.program_name
          pb.Dr_pinplay.Pinball.region.Dr_pinplay.Pinball.skip
          pb.Dr_pinplay.Pinball.region.Dr_pinplay.Pinball.length
          (Dr_pinplay.Pinball.schedule_instructions pb)
          (Dr_pinplay.Pinball.size_bytes pb);
        (match s.Session.slice_pinball with
        | Some spb ->
          buf_printf b "slice pinball: %d instructions (%d injections), %d bytes\n"
            (Dr_pinplay.Pinball.step_count spb)
            (Array.length spb.Dr_pinplay.Pinball.injections)
            (Dr_pinplay.Pinball.size_bytes spb)
        | None -> ());
        Ok ())
    | [ "info"; "slice" ] -> (
      match s.Session.slice with
      | None -> Error "no slice"
      | Some slice ->
        buf_printf b "slice: %d statements, %d lines, %d edges\n"
          (Dr_slicing.Slicer.size slice)
          (List.length (Dr_slicing.Slicer.source_lines s.Session.prog slice))
          (Array.length slice.Dr_slicing.Slicer.edges);
        buf_printf b "traversal: visited %d records, skipped %d/%d blocks\n"
          slice.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.visited
          slice.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks
          slice.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.total_blocks;
        Ok ())
    | [ "list"; at ] -> (
      match int_of_string_opt' at with
      | None -> Error "usage: list <line>"
      | Some line ->
        let dbg = s.Session.prog.Dr_isa.Program.debug in
        for l = max 1 (line - 3) to line + 3 do
          match Dr_isa.Debug_info.source_line dbg l with
          | Some src -> buf_printf b "%4d%s %s\n" l (if l = line then ">" else " ") src
          | None -> ()
        done;
        Ok ())
    (* ---- slicing ---- *)
    | [ "slice"; var ] -> (
      match Session.slice_var s var with
      | Error e -> Error e
      | Ok slice ->
        buf_printf b "slice for %s: %d statements over %d source lines\n" var
          (Dr_slicing.Slicer.size slice)
          (List.length (Dr_slicing.Slicer.source_lines s.Session.prog slice));
        Ok ())
    | [ "slice-failure" ] -> (
      match Session.slice_failure s with
      | Error e -> Error e
      | Ok slice ->
        buf_printf b "failure slice: %d statements over %d source lines\n"
          (Dr_slicing.Slicer.size slice)
          (List.length (Dr_slicing.Slicer.source_lines s.Session.prog slice));
        Ok ())
    | [ "slice-lines" ] -> (
      match s.Session.slice with
      | None -> Error "no slice"
      | Some slice ->
        let dbg = s.Session.prog.Dr_isa.Program.debug in
        List.iter
          (fun l ->
            match Dr_isa.Debug_info.source_line dbg l with
            | Some src -> buf_printf b "%4d* %s\n" l src
            | None -> buf_printf b "%4d*\n" l)
          (Dr_slicing.Slicer.source_lines s.Session.prog slice);
        Ok ())
    | "slice-stmts" :: rest -> (
      match s.Session.slice with
      | None -> Error "no slice"
      | Some slice -> (
        let n =
          match rest with
          | [] -> Some 20
          | [ x ] -> int_of_string_opt' x
          | _ -> None
        in
        match n with
        | None -> Error "usage: slice-stmts [n]"
        | Some n ->
          let total = Dr_slicing.Slicer.size slice in
          for i = max 0 (total - n) to total - 1 do
            buf_printf b "%s\n" (slice_statement_line t slice i)
          done;
          Ok ()))
    | [ "deps"; idx ] -> (
      match (s.Session.slice, int_of_string_opt' idx) with
      | None, _ -> Error "no slice"
      | _, None -> Error "usage: deps <idx>"
      | Some slice, Some i ->
        if i < 0 || i >= Dr_slicing.Slicer.size slice then Error "index out of range"
        else begin
          let pos = slice.Dr_slicing.Slicer.positions.(i) in
          let deps = Dr_slicing.Slicer.deps_of slice pos in
          if deps = [] then buf_printf b "no recorded dependences\n"
          else
            List.iter
              (fun (kind, target) ->
                (* find target's index within the slice *)
                let tidx = ref (-1) in
                Array.iteri
                  (fun j p -> if p = target then tidx := j)
                  slice.Dr_slicing.Slicer.positions;
                buf_printf b "%s -> %s\n"
                  (Format.asprintf "%a" Dr_slicing.Slicer.pp_kind kind)
                  (if !tidx >= 0 then slice_statement_line t slice !tidx
                   else Printf.sprintf "pos %d (outside slice)" target))
              deps;
          Ok ()
        end)
    | "slice-tree" :: rest -> (
      (* render the backwards dependence tree from a slice statement (the
         criterion by default): the textual version of browsing the
         dynamic dependence graph in the paper's KDbg GUI *)
      match s.Session.slice with
      | None -> Error "no slice"
      | Some slice -> (
        let root, depth =
          match rest with
          | [] -> (Some (Dr_slicing.Slicer.size slice - 1), 3)
          | [ i ] -> (int_of_string_opt' i, 3)
          | [ i; d ] -> (int_of_string_opt' i, Option.value ~default:3 (int_of_string_opt' d))
          | _ -> (None, 3)
        in
        match root with
        | None -> Error "usage: slice-tree [idx] [depth]"
        | Some root when root < 0 || root >= Dr_slicing.Slicer.size slice ->
          Error "index out of range"
        | Some root ->
          let visited = Hashtbl.create 32 in
          let idx_of_pos pos =
            let found = ref (-1) in
            Array.iteri
              (fun j p -> if p = pos then found := j)
              slice.Dr_slicing.Slicer.positions;
            !found
          in
          let rec render indent pos depth =
            let idx = idx_of_pos pos in
            let seen = Hashtbl.mem visited pos in
            buf_printf b "%s%s%s\n" indent
              (if idx >= 0 then slice_statement_line t slice idx
               else Printf.sprintf "(outside slice: pos %d)" pos)
              (if seen then "  [seen above]" else "");
            if (not seen) && depth > 0 then begin
              Hashtbl.replace visited pos ();
              List.iter
                (fun (kind, target) ->
                  buf_printf b "%s  %s\n" indent
                    (Format.asprintf "└─ %a" Dr_slicing.Slicer.pp_kind kind);
                  render (indent ^ "     ") target (depth - 1))
                (Dr_slicing.Slicer.deps_of slice pos)
            end
          in
          render "" slice.Dr_slicing.Slicer.positions.(root) depth;
          Ok ()))
    | [ "slice-save"; path ] -> (
      match s.Session.slice with
      | None -> Error "no slice"
      | Some slice ->
        Dr_slicing.Slicer.save_file s.Session.prog path slice;
        buf_printf b "slice saved to %s\n" path;
        Ok ())
    | [ "slice-pinball" ] -> (
      match Session.make_slice_pinball s with
      | Error e -> Error e
      | Ok (spb, stats) ->
        buf_printf b
          "slice pinball: %d of %d instructions kept (%.1f%%), %d exclusion regions, %d bytes\n"
          stats.Dr_exeslice.Exclusion.included_records
          stats.Dr_exeslice.Exclusion.total_records
          (Dr_util.Stats.percent
             ~part:stats.Dr_exeslice.Exclusion.included_records
             ~total:stats.Dr_exeslice.Exclusion.total_records)
          stats.Dr_exeslice.Exclusion.regions
          (Dr_pinplay.Pinball.size_bytes spb);
        Ok ())
    | [ "slice-replay" ] -> (
      match Session.start_slice_replay s with
      | Error e -> Error e
      | Ok () ->
        buf_printf b "replaying execution slice (skipped code is injected)\n";
        Ok ())
    | "sstep" :: rest -> (
      let n =
        match rest with
        | [] -> Some 1
        | [ x ] -> int_of_string_opt' x
        | _ -> None
      in
      match n with
      | None -> Error "usage: sstep [n]"
      | Some n ->
        let rec go k =
          if k = 0 then Ok ()
          else
            match Session.slice_step s with
            | Error e -> Error e
            | Ok (Dr_exeslice.Slice_replay.Stepped { tid; pc; line }) ->
              buf_printf b "[tid %d] slice statement at pc %d line %d" tid pc line;
              (match
                 if line >= 0 then
                   Dr_isa.Debug_info.source_line
                     s.Session.prog.Dr_isa.Program.debug line
                 else None
               with
              | Some src -> buf_printf b " | %s\n" (String.trim src)
              | None -> buf_printf b "\n");
              go (k - 1)
            | Ok (Dr_exeslice.Slice_replay.Finished o) ->
              buf_printf b "slice replay finished: %s\n"
                (Format.asprintf "%a" Dr_machine.Machine.pp_outcome o);
              Ok ()
            | Ok Dr_exeslice.Slice_replay.End_of_slice ->
              buf_printf b "end of execution slice\n";
              Ok ()
            | Ok (Dr_exeslice.Slice_replay.Injected _) -> go k
        in
        go n)
    (* ---- settings ---- *)
    | [ "set"; "prune"; v ] when v = "on" || v = "off" ->
      s.Session.prune <- v = "on";
      s.Session.analysis <- None;
      buf_printf b "save/restore pruning %s\n" v;
      Ok ()
    | [ "set"; "refine"; v ] when v = "on" || v = "off" ->
      s.Session.refine <- v = "on";
      s.Session.analysis <- None;
      buf_printf b "CFG refinement %s\n" v;
      Ok ()
    (* ---- maple ---- *)
    | [ "maple" ] -> (
      match Dr_maple.Active.expose ~input:s.Session.input s.Session.prog with
      | None -> Error "maple: no bug exposed"
      | Some exposed ->
        Session.load_pinball s exposed.Dr_maple.Active.pinball;
        buf_printf b "maple exposed a bug via iRoot %s: %s\n"
          (Dr_maple.Iroot.to_string exposed.Dr_maple.Active.failing_iroot)
          (Format.asprintf "%a" Dr_machine.Machine.pp_outcome
             exposed.Dr_maple.Active.outcome);
        buf_printf b "buggy pinball loaded; use replay\n";
        Ok ())
    | cmd :: _ -> Error (Printf.sprintf "unknown command %s (try help)" cmd)
  in
  Result.map (fun () -> Buffer.contents b) result
