(* DrDebug benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 7).

     table1    Table 1   bug inventory + reproduction check
     table2    Table 2   overheads with the buggy execution region
     table3    Table 3   overheads with the whole-program region
     fig11     Fig. 11   logging times vs region length (PARSEC)
     fig12     Fig. 12   replay times vs region length (PARSEC)
     fig13     Fig. 13   slice-size reduction from save/restore pruning
     fig14     Fig. 14   execution-slice replay times + slice %
     sec7text  section 7 prose: tracing time, slice size, slicing time
     races     static race candidates vs seeded Maple campaigns

   Usage: dune exec bench/main.exe -- [experiment ...] [--quick]
   With no arguments, all experiments run.  --quick caps the fig11/12
   sweep at 100k instructions.

   Instruction counts are scaled down ~100x from the paper (the substrate
   is an interpreter, not native-under-Pin); the shapes — linear scaling,
   who wins, slice percentages — are the reproduction target.  See
   EXPERIMENTS.md. *)

let quick = ref false

let printf = Printf.printf

module Timer = Dr_util.Timer

let hr () = printf "%s\n" (String.make 78 '-')

let section title =
  printf "\n";
  hr ();
  printf "%s\n" title;
  hr ()

(* ---------- shared helpers ---------- *)

let log_or_fail ?policy ?max_steps prog spec =
  match Dr_pinplay.Logger.log ?policy ?max_steps prog spec with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "logging failed: %a" Dr_pinplay.Logger.pp_error e)

(* Criteria for "the last N read instructions, spread across threads"
   (section 7): walk the global trace backwards, first taking the last
   data load of each thread, then the most recent remaining loads.
   Pop/ret also read memory but make degenerate criteria (their cone is
   the matching push), so only Load instructions qualify. *)
let last_load_criteria ?prog gt ~n =
  let is_data_load (r : Dr_slicing.Trace.record) =
    Dr_slicing.Trace.is_load r
    &&
    match prog with
    | None -> true
    | Some (p : Dr_isa.Program.t) -> (
      match Dr_isa.Program.instr p r.Dr_slicing.Trace.pc with
      | Some (Dr_isa.Instr.Load _) -> true
      | _ -> false)
  in
  let len = Dr_slicing.Global_trace.length gt in
  let per_tid = Hashtbl.create 8 in
  let rest = ref [] in
  let found = ref 0 in
  let pos = ref (len - 1) in
  while !found < n * 4 && !pos >= 0 do
    let r = Dr_slicing.Global_trace.record gt !pos in
    if is_data_load r then begin
      incr found;
      if not (Hashtbl.mem per_tid r.Dr_slicing.Trace.tid) then
        Hashtbl.replace per_tid r.Dr_slicing.Trace.tid !pos
      else rest := !pos :: !rest
    end;
    decr pos
  done;
  let spread = Hashtbl.fold (fun _ p acc -> p :: acc) per_tid [] in
  let all = List.sort (fun a b -> compare b a) (spread @ !rest) in
  List.filteri (fun i _ -> i < n) all

(* Full slicing pipeline timings for one pinball. *)
type slicing_run = {
  collect_s : float;
  construct_s : float;
  lp_s : float;
  analysis : Dr_slicing.Collector.result * Dr_slicing.Global_trace.t * Dr_slicing.Lp.t;
}

let run_slicing_pipeline ?(refine = true) prog pb : slicing_run =
  let c, collect_s = Timer.time (fun () -> Dr_slicing.Collector.collect ~refine prog pb) in
  let gt, construct_s = Timer.time (fun () -> Dr_slicing.Global_trace.construct c) in
  let lp, lp_s = Timer.time (fun () -> Dr_slicing.Lp.prepare gt) in
  { collect_s; construct_s; lp_s; analysis = (c, gt, lp) }

(* ---------- Table 1 ---------- *)

let table1 () =
  section "Table 1: Data race bugs used in our experiments";
  printf "%-9s| %-40s| %-5s| %s\n" "Program" "Program Description" "Type" "Bug Description";
  hr ();
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      printf "%-9s| %-40s| %-5s| %s\n" b.Dr_workloads.Bugs.name
        b.Dr_workloads.Bugs.program_description "Real"
        b.Dr_workloads.Bugs.description)
    Dr_workloads.Bugs.all;
  hr ();
  printf "reproduction check (modelled bugs, seeded schedule search):\n";
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      match Dr_workloads.Bugs.find_failing_seed b with
      | Some (seed, reason) ->
        printf "  %-9s manifests (seed %d): %s\n" b.Dr_workloads.Bugs.name seed
          (Format.asprintf "%a" Dr_machine.Driver.pp_stop_reason reason)
      | None -> printf "  %-9s DID NOT MANIFEST\n" b.Dr_workloads.Bugs.name)
    Dr_workloads.Bugs.all

(* ---------- Tables 2 and 3 ---------- *)

(* main-thread icount when the root-cause line first executes *)
let skip_to_root_cause prog ~seed ~root_line =
  let m = Dr_machine.Machine.create prog in
  let dbg = prog.Dr_isa.Program.debug in
  let main_at = ref 0 in
  let stop =
    Dr_machine.Driver.run ~max_steps:10_000_000 m
      ~stop_when:(fun ev ->
        match Dr_isa.Debug_info.line_of_pc dbg ev.Dr_machine.Event.pc with
        | Some l when l = root_line ->
          main_at := (Dr_machine.Machine.thread m 0).Dr_machine.Machine.icount;
          true
        | _ -> false)
      (Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
  in
  match stop with
  | Dr_machine.Driver.Stop_requested -> Some !main_at
  | _ -> None

type bug_row = {
  r_name : string;
  r_executed : int;
  r_slice_instrs : int;
  r_slice_pct : float;
  r_log_time : float;
  r_space_kb : float;
  r_replay_time : float;
  r_slicing_time : float;
}

let measure_bug ~(b : Dr_workloads.Bugs.t) ~whole : bug_row =
  let seed, _ =
    match Dr_workloads.Bugs.find_failing_seed b with
    | Some s -> s
    | None -> failwith (b.Dr_workloads.Bugs.name ^ ": bug did not manifest")
  in
  let prog = Dr_workloads.Bugs.compile b in
  let policy = Dr_machine.Driver.Seeded { seed; max_quantum = 3 } in
  let skip =
    if whole then 0
    else
      match skip_to_root_cause prog ~seed ~root_line:b.Dr_workloads.Bugs.root_cause_line with
      | Some s -> max 0 (s - 20)
      | None -> 0
  in
  (* capture from the region start to the failure point *)
  let pb, stats =
    log_or_fail ~policy prog
      (Dr_pinplay.Logger.Skip_until { skip; until = (fun _ -> false) })
  in
  let executed = stats.Dr_pinplay.Logger.region_instructions in
  (* replay, timed *)
  let _, replay_time = Timer.time (fun () -> Dr_pinplay.Replayer.replay prog pb) in
  (* slice the failure point *)
  let sr = run_slicing_pipeline prog pb in
  let c, gt, lp = sr.analysis in
  let slice, slice_s =
    Timer.time (fun () ->
        Dr_slicing.Slicer.compute ~lp ~pairs:c.Dr_slicing.Collector.pairs gt
          { Dr_slicing.Slicer.crit_pos = Dr_slicing.Global_trace.length gt - 1;
            crit_locs = None })
  in
  let slicing_time = sr.collect_s +. sr.construct_s +. sr.lp_s +. slice_s in
  (* the slice pinball *)
  let spb, _ = Dr_exeslice.Exclusion.slice_pinball prog pb ~slice ~collector:c in
  let slice_instrs = Dr_pinplay.Pinball.step_count spb in
  { r_name = b.Dr_workloads.Bugs.name;
    r_executed = executed;
    r_slice_instrs = slice_instrs;
    r_slice_pct = Dr_util.Stats.percent ~part:slice_instrs ~total:executed;
    r_log_time = stats.Dr_pinplay.Logger.log_time;
    r_space_kb = float_of_int (Dr_pinplay.Pinball.size_bytes pb) /. 1024.0;
    r_replay_time = replay_time;
    r_slicing_time = slicing_time }

let print_bug_table rows =
  printf "%-9s| %-10s| %-22s| %-9s %-9s| %-8s| %s\n" "Program" "#executed"
    "#instrs in slice pinball" "Logging" "" "Replay" "Slicing";
  printf "%-9s| %-10s| %-22s| %-9s %-9s| %-8s| %s\n" "Name" "instrs"
    "(% of executed)" "Time(s)" "Space(KB)" "Time(s)" "Time(s)";
  hr ();
  List.iter
    (fun r ->
      printf "%-9s| %-10d| %8d (%5.2f%%)      | %-9.3f %-9.1f| %-8.3f| %.3f\n"
        r.r_name r.r_executed r.r_slice_instrs r.r_slice_pct r.r_log_time
        r.r_space_kb r.r_replay_time r.r_slicing_time)
    rows

let table2 () =
  section "Table 2: overheads for data race bugs with buggy execution region";
  print_bug_table
    (List.map (fun b -> measure_bug ~b ~whole:false) Dr_workloads.Bugs.all)

let table3 () =
  section "Table 3: overheads for data race bugs with whole program execution region";
  print_bug_table
    (List.map (fun b -> measure_bug ~b ~whole:true) Dr_workloads.Bugs.all)

(* ---------- Figures 11 and 12 ---------- *)

let fig11_lengths () =
  if !quick then [ 10_000; 31_600; 100_000 ]
  else [ 10_000; 31_600; 100_000; 316_000; 1_000_000 ]

let fig11_skip = 1_000

(* shared measurement: log then replay each region *)
let fig11_data = ref []

let measure_fig11 () =
  if !fig11_data = [] then begin
    let lengths = fig11_lengths () in
    let max_len = List.fold_left max 0 lengths in
    fig11_data :=
      List.map
        (fun (w : Dr_workloads.Parsec.t) ->
          let entry =
            Option.get (Dr_workloads.Registry.find w.Dr_workloads.Parsec.name)
          in
          let iters =
            Dr_workloads.Registry.iters_for entry
              ~main_instrs:(fig11_skip + max_len) ()
          in
          let prog = Dr_workloads.Parsec.compile ~threads:4 ~iters w in
          let rows =
            List.map
              (fun length ->
                let pb, stats =
                  log_or_fail prog
                    (Dr_pinplay.Logger.Skip_length { skip = fig11_skip; length })
                in
                let _, replay_s =
                  Timer.time (fun () -> Dr_pinplay.Replayer.replay prog pb)
                in
                ( length,
                  stats.Dr_pinplay.Logger.log_time,
                  replay_s,
                  stats.Dr_pinplay.Logger.region_instructions,
                  Dr_pinplay.Pinball.size_bytes pb ))
              lengths
          in
          (w.Dr_workloads.Parsec.name, w.Dr_workloads.Parsec.kind, rows))
        Dr_workloads.Parsec.all
  end;
  !fig11_data

let print_sweep ~title ~select () =
  section title;
  let data = measure_fig11 () in
  let lengths = fig11_lengths () in
  printf "%-14s %-7s|" "program" "kind";
  List.iter (fun l -> printf " %9s |" (Printf.sprintf "%dk" (l / 1000))) lengths;
  printf "\n";
  hr ();
  List.iter
    (fun (name, kind, rows) ->
      printf "%-14s %-7s|" name
        (match kind with Dr_workloads.Parsec.App -> "app" | _ -> "kernel");
      List.iter (fun row -> printf " %8.3fs |" (select row)) rows;
      printf "\n")
    data;
  printf
    "(main-thread region lengths; skip=%d; all-thread instructions are ~3-5x)\n"
    fig11_skip

let fig11 () =
  print_sweep
    ~title:"Figure 11: logging times (wall clock) for regions of varying sizes"
    ~select:(fun (_, log_s, _, _, _) -> log_s)
    ()

let fig12 () =
  print_sweep
    ~title:"Figure 12: replay times (wall clock) for regions of varying sizes"
    ~select:(fun (_, _, replay_s, _, _) -> replay_s)
    ();
  (* the paper also notes pinball sizes are not proportional to length *)
  let data = measure_fig11 () in
  printf "\npinball sizes (KB) for the same regions:\n";
  List.iter
    (fun (name, _, rows) ->
      printf "%-14s |" name;
      List.iter (fun (_, _, _, _, bytes) -> printf " %8.1f |" (float_of_int bytes /. 1024.)) rows;
      printf "\n")
    data

(* ---------- Figure 13 ---------- *)

let fig13_lengths = [ 10_000; 100_000 ]  (* paper: 1M and 10M *)

let fig13 () =
  section
    "Figure 13: removal of spurious dependences - % reduction in slice sizes\n\
     (10 slices per region; MaxSave = 10; SPECOMP analogues)";
  printf "%-10s|" "program";
  List.iter (fun l -> printf " %8s region |" (Printf.sprintf "%dk" (l / 1000))) fig13_lengths;
  printf "\n";
  hr ();
  let per_length_reductions = Hashtbl.create 4 in
  List.iter
    (fun (w : Dr_workloads.Specomp.t) ->
      let entry = Option.get (Dr_workloads.Registry.find w.Dr_workloads.Specomp.name) in
      printf "%-10s|" w.Dr_workloads.Specomp.name;
      List.iter
        (fun length ->
          let iters =
            Dr_workloads.Registry.iters_for entry ~main_instrs:(500 + length) ()
          in
          let prog = Dr_workloads.Specomp.compile ~threads:4 ~iters w in
          let pb, _ =
            log_or_fail prog (Dr_pinplay.Logger.Skip_length { skip = 500; length })
          in
          let sr = run_slicing_pipeline prog pb in
          let c, gt, lp = sr.analysis in
          let criteria = last_load_criteria ~prog gt ~n:10 in
          let reductions =
            List.map
              (fun pos ->
                let crit = { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None } in
                let unpruned = Dr_slicing.Slicer.compute ~lp gt crit in
                let pruned =
                  Dr_slicing.Slicer.compute ~lp
                    ~pairs:c.Dr_slicing.Collector.pairs gt crit
                in
                let u = Dr_slicing.Slicer.size unpruned in
                let p = Dr_slicing.Slicer.size pruned in
                if u = 0 then 0.0 else 100.0 *. float_of_int (u - p) /. float_of_int u)
              criteria
          in
          let avg = Dr_util.Stats.mean reductions in
          let old = Option.value ~default:[] (Hashtbl.find_opt per_length_reductions length) in
          Hashtbl.replace per_length_reductions length (avg :: old);
          printf " %8.2f%%      |" avg)
        fig13_lengths;
      printf "\n")
    Dr_workloads.Specomp.all;
  hr ();
  printf "%-10s|" "average";
  List.iter
    (fun length ->
      let avg =
        Dr_util.Stats.mean
          (Option.value ~default:[] (Hashtbl.find_opt per_length_reductions length))
      in
      printf " %8.2f%%      |" avg)
    fig13_lengths;
  printf "\n(paper: 9.49%% for 1M regions, 6.31%% for 10M regions)\n"

(* ---------- Figure 14 + section 7 text ---------- *)

type fig14_row = {
  f_name : string;
  f_full_replay_s : float;
  f_avg_slice_replay_s : float;
  f_avg_slice_pct : float;
  f_collect_s : float;
  f_avg_slice_size : int;
  f_avg_slice_time : float;
}

let fig14_data = ref []

let measure_fig14 () =
  if !fig14_data = [] then begin
    let length = if !quick then 30_000 else 100_000 in
    fig14_data :=
      List.map
        (fun (w : Dr_workloads.Parsec.t) ->
          let entry =
            Option.get (Dr_workloads.Registry.find w.Dr_workloads.Parsec.name)
          in
          let iters =
            Dr_workloads.Registry.iters_for entry ~main_instrs:(500 + length) ()
          in
          let prog = Dr_workloads.Parsec.compile ~threads:4 ~iters w in
          let pb, _ =
            log_or_fail prog (Dr_pinplay.Logger.Skip_length { skip = 500; length })
          in
          let total = Dr_pinplay.Pinball.schedule_instructions pb in
          let _, full_replay_s = Timer.time (fun () -> Dr_pinplay.Replayer.replay prog pb) in
          let sr = run_slicing_pipeline prog pb in
          let c, gt, lp = sr.analysis in
          let criteria = last_load_criteria ~prog gt ~n:10 in
          let slice_pcts = ref [] and slice_replays = ref [] in
          let slice_sizes = ref [] and slice_times = ref [] in
          List.iter
            (fun pos ->
              let slice, slice_s =
                Timer.time (fun () ->
                    Dr_slicing.Slicer.compute ~lp
                      ~pairs:c.Dr_slicing.Collector.pairs gt
                      { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None })
              in
              slice_sizes := Dr_slicing.Slicer.size slice :: !slice_sizes;
              slice_times := slice_s :: !slice_times;
              match
                try
                  Some
                    (Dr_exeslice.Exclusion.slice_pinball prog pb ~slice
                       ~collector:c)
                with Dr_pinplay.Relogger.Relog_error _ -> None
              with
              | None -> ()
              | Some (spb, _) ->
                let steps = Dr_pinplay.Pinball.step_count spb in
                slice_pcts := Dr_util.Stats.percent ~part:steps ~total :: !slice_pcts;
                let sr2 = Dr_exeslice.Slice_replay.create prog spb in
                let _, t = Timer.time (fun () -> Dr_exeslice.Slice_replay.run sr2) in
                slice_replays := t :: !slice_replays)
            criteria;
          { f_name = w.Dr_workloads.Parsec.name;
            f_full_replay_s = full_replay_s;
            f_avg_slice_replay_s = Dr_util.Stats.mean !slice_replays;
            f_avg_slice_pct = Dr_util.Stats.mean !slice_pcts;
            f_collect_s = sr.collect_s;
            f_avg_slice_size =
              int_of_float
                (Dr_util.Stats.mean (List.map float_of_int !slice_sizes));
            f_avg_slice_time = Dr_util.Stats.mean !slice_times })
        Dr_workloads.Parsec.all
  end;
  !fig14_data

let fig14 () =
  let length_desc = if !quick then "30k" else "100k" in
  section
    (Printf.sprintf
       "Figure 14: execution slicing - avg replay times over 10 slices\n\
        (regions of %s main-thread instructions; PARSEC analogues)"
       length_desc);
  let rows = measure_fig14 () in
  printf "%-14s| %-13s| %-17s| %s\n" "program" "region replay"
    "avg slice replay" "avg %instrs in slice pinball";
  hr ();
  List.iter
    (fun r ->
      printf "%-14s| %10.3fs  | %14.3fs  | %.1f%%\n" r.f_name r.f_full_replay_s
        r.f_avg_slice_replay_s r.f_avg_slice_pct)
    rows;
  hr ();
  let avg_pct = Dr_util.Stats.mean (List.map (fun r -> r.f_avg_slice_pct) rows) in
  let avg_speedup =
    Dr_util.Stats.mean
      (List.filter_map
         (fun r ->
           if r.f_full_replay_s > 0.0 then
             Some (100.0 *. (1.0 -. (r.f_avg_slice_replay_s /. r.f_full_replay_s)))
           else None)
         rows)
  in
  printf "average: %.1f%% of instructions in slice pinballs; slice replay %.1f%% faster\n"
    avg_pct avg_speedup;
  printf "(paper: 41%% of instructions, replay 36%% faster)\n"

let sec7text () =
  section "Section 7 prose: slicing overhead and precision statistics";
  let rows = measure_fig14 () in
  printf "%-14s| %-14s| %-16s| %s\n" "program" "tracing time" "avg slice size"
    "avg slicing time";
  hr ();
  List.iter
    (fun r ->
      printf "%-14s| %11.3fs  | %8d instrs | %.3fs\n" r.f_name r.f_collect_s
        r.f_avg_slice_size r.f_avg_slice_time)
    rows;
  hr ();
  printf "averages: tracing %.3fs, slice size %d instrs, slicing %.3fs\n"
    (Dr_util.Stats.mean (List.map (fun r -> r.f_collect_s) rows))
    (int_of_float
       (Dr_util.Stats.mean (List.map (fun r -> float_of_int r.f_avg_slice_size) rows)))
    (Dr_util.Stats.mean (List.map (fun r -> r.f_avg_slice_time) rows));
  printf
    "(paper, 1M regions: tracing 51s; avg slice 218k instrs; avg slicing 585s;\n\
     \ the dynamic information is collected once per pinball and reused)\n"

(* ---------- Ablations ---------- *)

(* Design-choice ablations (DESIGN.md): the LP block skipping of §3(iii),
   the thread-clustering heuristic of §3(ii), the MaxSave window of §5.2,
   and the CFG refinement of §5.1. *)
let ablation () =
  section "Ablation: LP block skipping (paper section 3(iii))";
  let w = Option.get (Dr_workloads.Specomp.find "apsi") in
  let entry = Option.get (Dr_workloads.Registry.find "apsi") in
  let iters = Dr_workloads.Registry.iters_for entry ~main_instrs:60_000 () in
  let prog = Dr_workloads.Specomp.compile ~threads:4 ~iters w in
  let pb, _ =
    log_or_fail prog (Dr_pinplay.Logger.Skip_length { skip = 500; length = 50_000 })
  in
  let sr = run_slicing_pipeline prog pb in
  let c, gt, lp = sr.analysis in
  let criteria = last_load_criteria ~prog gt ~n:10 in
  printf "%-24s| %-12s| %-12s| %s\n" "configuration" "avg time" "avg visited"
    "avg blocks skipped";
  hr ();
  let run_config name ~driver =
    let times = ref [] and visited = ref [] and skipped = ref [] in
    List.iter
      (fun pos ->
        let s, t =
          Timer.time (fun () ->
              (* scan driver on both sides: the ablation isolates LP
                 block skipping, not the indexed fast path *)
              Dr_slicing.Slicer.compute ~lp ~driver gt
                { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None })
        in
        times := t :: !times;
        visited := float_of_int s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.visited :: !visited;
        skipped :=
          float_of_int s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks
          :: !skipped)
      criteria;
    printf "%-24s| %9.4fs  | %10.0f  | %.0f / %d\n" name
      (Dr_util.Stats.mean !times)
      (Dr_util.Stats.mean !visited)
      (Dr_util.Stats.mean !skipped)
      lp.Dr_slicing.Lp.num_blocks
  in
  run_config "LP skipping on" ~driver:`Scan_skip;
  run_config "LP skipping off" ~driver:`Scan;
  printf
    "(broad slices touch most blocks, so skipping is a wash here; LP pays\n\
     \ off on narrow slices over long traces, below)\n";
  (* narrow-cone case: a long irrelevant prefix before a small relevant
     computation — the regime LP was designed for *)
  let narrow_src = {|global int g;
global int noise;
fn main() {
  for (int i = 0; i < 40000; i = i + 1) {
    noise = noise + i;
  }
  int a = 5;
  int b = a * 2;
  g = b + 1;
  print(g);
}|}
  in
  let narrow_prog =
    match Dr_lang.Codegen.compile_result ~name:"narrow" narrow_src with
    | Ok p -> p
    | Error e -> failwith e
  in
  let narrow_pb, _ = log_or_fail narrow_prog Dr_pinplay.Logger.Whole in
  let nsr = run_slicing_pipeline narrow_prog narrow_pb in
  let _, ngt, nlp = nsr.analysis in
  (* criterion: the load of g feeding the final print — a narrow cone
     (a, b, g) at the very end of a long noisy trace *)
  let ncrit =
    { Dr_slicing.Slicer.crit_pos =
        List.hd (last_load_criteria ~prog:narrow_prog ngt ~n:1);
      crit_locs = None }
  in
  printf "\nnarrow slice over a %d-instruction trace:\n"
    (Dr_slicing.Global_trace.length ngt);
  List.iter
    (fun (name, driver) ->
      let s, t =
        Timer.time (fun () -> Dr_slicing.Slicer.compute ~lp:nlp ~driver ngt ncrit)
      in
      printf "%-24s| %9.4fs  | visited %7d  | skipped %d/%d blocks\n" name t
        s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.visited
        s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks
        nlp.Dr_slicing.Lp.num_blocks)
    [ ("LP skipping on", `Scan_skip); ("LP skipping off", `Scan) ];

  section "Ablation: thread clustering in global trace construction (section 3(ii))";
  printf "%-24s| %-12s| %s\n" "configuration" "construct" "thread switches in order";
  hr ();
  let switches gt2 =
    let sw = ref 0 in
    for pos = 1 to Dr_slicing.Global_trace.length gt2 - 1 do
      if
        (Dr_slicing.Global_trace.record gt2 pos).Dr_slicing.Trace.tid
        <> (Dr_slicing.Global_trace.record gt2 (pos - 1)).Dr_slicing.Trace.tid
      then incr sw
    done;
    !sw
  in
  List.iter
    (fun (name, cluster) ->
      let gt2, t = Timer.time (fun () -> Dr_slicing.Global_trace.construct ~cluster c) in
      printf "%-24s| %9.4fs  | %d\n" name t (switches gt2))
    [ ("clustering on", true); ("clustering off", false) ];

  section "Ablation: MaxSave window for save/restore detection (section 5.2)";
  printf "%-10s| %-16s| %s\n" "MaxSave" "confirmed pairs" "avg slice reduction";
  hr ();
  List.iter
    (fun max_save ->
      let c2 = Dr_slicing.Collector.collect ~max_save prog pb in
      let gt2 = Dr_slicing.Global_trace.construct c2 in
      let lp2 = Dr_slicing.Lp.prepare gt2 in
      let criteria2 = last_load_criteria ~prog gt2 ~n:5 in
      let reductions =
        List.map
          (fun pos ->
            let crit = { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None } in
            let u = Dr_slicing.Slicer.compute ~lp:lp2 gt2 crit in
            let p =
              Dr_slicing.Slicer.compute ~lp:lp2
                ~pairs:c2.Dr_slicing.Collector.pairs gt2 crit
            in
            let us = Dr_slicing.Slicer.size u and ps = Dr_slicing.Slicer.size p in
            if us = 0 then 0.0 else 100.0 *. float_of_int (us - ps) /. float_of_int us)
          criteria2
      in
      printf "%-10d| %14d  | %.2f%%\n" max_save
        (Hashtbl.length c2.Dr_slicing.Collector.pairs)
        (Dr_util.Stats.mean reductions))
    [ 0; 1; 2; 4; 10 ];

  section "Ablation: CFG refinement with dynamic jump targets (section 5.1)";
  printf "%-24s| %-16s| %s\n" "configuration" "indirect targets" "avg slice size";
  hr ();
  (* use a switch-heavy program so indirect jumps matter *)
  let sw_src = {|global int acc;
fn classify(int x) {
  int r = 0;
  switch (x % 5) {
    case 0: r = x + 1; break;
    case 1: r = x - 1; break;
    case 2: r = x * 2; break;
    case 3: r = x / 2; break;
    default: r = 0 - x; break;
  }
  return r;
}
fn main() {
  for (int i = 0; i < 2000; i = i + 1) {
    acc = acc + classify(i);
  }
  print(acc);
}|}
  in
  let sw_prog =
    match Dr_lang.Codegen.compile_result ~name:"switchy" sw_src with
    | Ok p -> p
    | Error e -> failwith e
  in
  let sw_pb, _ = log_or_fail sw_prog Dr_pinplay.Logger.Whole in
  List.iter
    (fun (name, refine) ->
      let c2 = Dr_slicing.Collector.collect ~refine sw_prog sw_pb in
      let gt2 = Dr_slicing.Global_trace.construct c2 in
      let lp2 = Dr_slicing.Lp.prepare gt2 in
      let criteria2 = last_load_criteria ~prog:sw_prog gt2 ~n:5 in
      let sizes =
        List.map
          (fun pos ->
            float_of_int
              (Dr_slicing.Slicer.size
                 (Dr_slicing.Slicer.compute ~lp:lp2 gt2
                    { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None })))
          criteria2
      in
      printf "%-24s| %14d  | %.0f instrs\n" name
        (List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0
           c2.Dr_slicing.Collector.indirect_targets)
        (Dr_util.Stats.mean sizes))
    [ ("refinement off", false); ("refinement on", true) ];
  printf
    "(the approximate CFG errs both ways: it misses control dependences\n\
     \ through the jump table — Fig. 7's missing statements — and it\n\
     \ over-extends other branches' regions to the function exit; refinement\n\
     \ fixes both, so refined slices are complete AND often smaller)\n"

(* ---------- driver ---------- *)

let bench_out = ref "BENCH_slicing.json"
let races_out = ref "BENCH_races.json"

let slicing () =
  section "Slicing fast path: indexed traversal vs backwards scan";
  Slicing_bench.run ~quick:!quick ~out:!bench_out ()

let races () =
  section "Race detection: static candidates vs Maple campaign";
  Races_bench.run ~quick:!quick ~out:!races_out ()

let experiments =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig11", fig11); ("fig12", fig12); ("fig13", fig13); ("fig14", fig14);
    ("sec7text", sec7text); ("ablation", ablation);
    ("slicing", slicing); ("races", races) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--bench-out" :: path :: rest ->
      bench_out := path;
      parse acc rest
    | "--races-out" :: path :: rest ->
      races_out := path;
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let chosen =
    match args with
    | [] -> List.map fst experiments
    | names -> names
  in
  printf "DrDebug benchmark harness (reproducing CGO'14 tables and figures)\n";
  if !quick then printf "[quick mode: reduced region sizes]\n";
  let t0 = Timer.now () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        printf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    chosen;
  printf "\ntotal bench time: %.1fs\n" (Timer.now () -. t0)
