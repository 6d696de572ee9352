(* Slicing fast-path benchmark: indexed traversal vs the backwards scan
   (with and without LP block skipping), across registry workloads and
   randomly generated programs.  Emits BENCH_slicing.json (schema
   drdebug-bench-slicing-v3, see README "Benchmarking") so the perf
   trajectory of the slicer is tracked in-repo; a dune runtest smoke
   runs this in --quick mode and validates the emitted JSON. *)

let printf = Printf.printf

module Timer = Dr_util.Timer

module J = Dr_util.Json

let schema_version = "drdebug-bench-slicing-v3"

let log_or_fail ?policy prog spec =
  match Dr_pinplay.Logger.log ?policy prog spec with
  | Ok (pb, _) -> pb
  | Error e ->
    failwith (Format.asprintf "logging failed: %a" Dr_pinplay.Logger.pp_error e)

(* One prepared workload: its global trace, LP (the def index),
   and the slicing criteria (the last data loads, newest first, plus one
   register-chasing criterion that exercises LP block skipping). *)
type prepared = {
  w_name : string;
  w_kind : string;  (* "registry" | "generated" *)
  w_collect : Dr_slicing.Collector.result;
      (* retained for the out-of-core rerun *)
  gt : Dr_slicing.Global_trace.t;
  lp : Dr_slicing.Lp.t;
  collect_s : float;
  construct_s : float;
  lp_s : float;
  criteria : Dr_slicing.Slicer.criterion list;
}

let criteria_of gt ~n =
  let len = Dr_slicing.Global_trace.length gt in
  let picks = ref [] and found = ref 0 and pos = ref (len - 1) in
  while !found < n && !pos > 0 do
    if Dr_slicing.Trace.is_load (Dr_slicing.Global_trace.record gt !pos)
    then begin
      picks := !pos :: !picks;
      incr found
    end;
    decr pos
  done;
  let picks = if !picks = [] then [ len - 1 ] else List.rev !picks in
  List.map
    (fun p -> { Dr_slicing.Slicer.crit_pos = p; crit_locs = None })
    picks

(* One register-chasing criterion: slice the full trace for the defined
   register location with the fewest dynamic definitions (ties broken by
   encoding, for determinism).  A scarce register concentrates its defs
   in few trace blocks, which is the shape LP block skipping prunes;
   memory-chasing criteria rarely do, because almost every block
   contains a store. *)
let register_criterion gt lp =
  let len = Dr_slicing.Global_trace.length gt in
  let best = ref None in
  Dr_slicing.Def_index.iter
    (Dr_slicing.Lp.def_index lp)
    (fun loc positions ->
      match Dr_isa.Loc.view loc with
      | Dr_isa.Loc.Mem _ -> ()
      | Dr_isa.Loc.Reg _ ->
        let n = Array.length positions in
        if
          n > 0
          &&
          match !best with
          | None -> true
          | Some (bn, bloc) -> n < bn || (n = bn && loc < bloc)
        then best := Some (n, loc));
  match !best with
  | None -> []
  | Some (_, loc) ->
    [ { Dr_slicing.Slicer.crit_pos = len - 1; crit_locs = Some [ loc ] } ]

let prepare ~name ~kind ~n_criteria prog pb =
  let c, collect_s = Timer.time (fun () -> Dr_slicing.Collector.collect prog pb) in
  let gt, construct_s = Timer.time (fun () -> Dr_slicing.Global_trace.construct c) in
  let lp, lp_s = Timer.time (fun () -> Dr_slicing.Lp.prepare gt) in
  { w_name = name; w_kind = kind; w_collect = c; gt; lp; collect_s;
    construct_s; lp_s;
    criteria = criteria_of gt ~n:n_criteria @ register_criterion gt lp }

let prepare_registry ~name ~main_instrs ~n_criteria =
  match Dr_workloads.Registry.find name with
  | None -> failwith (Printf.sprintf "unknown registry workload %s" name)
  | Some e ->
    let iters = Dr_workloads.Registry.iters_for e ~main_instrs () in
    let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters in
    let pb = log_or_fail prog Dr_pinplay.Logger.Whole in
    prepare ~name ~kind:"registry" ~n_criteria prog pb

(* Generated workloads: wider than the property-test default so traces
   reach interesting sizes, several seeds, keep the largest traces. *)
let gen_cfg =
  { Dr_lang.Gen.max_stmts = 10; max_depth = 3; max_helpers = 4;
    with_threads = true; max_workers = 1 }

let prepare_generated ~seeds ~keep ~n_criteria =
  let candidates =
    List.filter_map
      (fun seed ->
        let src = Dr_lang.Gen.program ~cfg:gen_cfg seed in
        let name = Printf.sprintf "gen-%d" seed in
        match Dr_lang.Codegen.compile_result ~name src with
        | Error _ -> None
        | Ok prog ->
          let pb =
            log_or_fail
              ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
              prog Dr_pinplay.Logger.Whole
          in
          Some (prepare ~name ~kind:"generated" ~n_criteria prog pb))
      seeds
  in
  let by_size =
    List.sort
      (fun a b ->
        Int.compare
          (Dr_slicing.Global_trace.length b.gt)
          (Dr_slicing.Global_trace.length a.gt))
      candidates
  in
  List.filteri (fun i _ -> i < keep) by_size

(* ---- measurement ---- *)

(* Single-pass times (one pass = every criterion sliced once) over the
   reps: back-to-back passes of one binary differ by up to 2x, so the
   artifact keeps the median with the spread beside it. *)
type spread = { median : float; lo : float; hi : float }

let spread_of (times : float list) =
  let a = Array.of_list times in
  Array.sort Float.compare a;
  let n = Array.length a in
  let median =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  { median; lo = a.(0); hi = a.(n - 1) }

type measured = {
  records : int;
  n_criteria : int;
  reps : int;
  indexed_s : spread;
  scan_skip_s : spread;
  scan_noskip_s : spread;
  blocks_skipped : int;
  total_blocks : int;
  visited_indexed : int;
  visited_scan : int;
  slice_size_total : int;
  identical : bool;
  spilled_segments : int;  (* segments on disk during the out-of-core rerun *)
  spill_read_s : float;  (* one indexed pass over the spilled store *)
  degradations : int;  (* ladder steps recorded by the governed rerun *)
  spill_identical : bool;  (* spilled rerun matches in-memory, all drivers *)
  record_bytes_total : int;  (* stored size of every trace record *)
  segstore_hit_rate : float;  (* segment-cache hits/(hits+misses), spilled run *)
}

(* Out-of-core rerun: rebuild the trace through a segment store whose
   memory budget is a quarter of the record bytes, so most segments
   spill to disk, then re-slice every criterion with the three drivers
   and the governed ladder, and demand byte-identical positions and
   edges vs the in-memory run.
   The governed driver runs under the same budget, which cannot fit the
   definition index either — the recorded indexed->scan degradation is
   the ladder exercising itself. *)
let measure_spill (p : prepared) =
  let c = p.w_collect in
  let n = Dr_slicing.Segment_store.length c.Dr_slicing.Collector.records in
  let total_bytes = ref 0 in
  for g = 0 to n - 1 do
    total_bytes :=
      !total_bytes
      + Dr_slicing.Segment_store.record_bytes c.Dr_slicing.Collector.records g
  done;
  let spill_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drdebug-bench-spill-%d-%s" (Unix.getpid ()) p.w_name)
  in
  let budget =
    Dr_util.Budget.create ~mem_bytes:(!total_bytes / 4) ~spill_dir ()
  in
  Fun.protect ~finally:(fun () -> Dr_util.Budget.cleanup_spill budget)
  @@ fun () ->
  let store =
    Dr_slicing.Segment_store.rebuild ~budget ~seg_records:1024
      c.Dr_slicing.Collector.records
  in
  let spilled_segments = Dr_slicing.Segment_store.spilled_segments store in
  let gt' =
    Dr_slicing.Global_trace.construct
      { c with Dr_slicing.Collector.records = store }
  in
  let lp' = Dr_slicing.Lp.prepare gt' in
  let clean crit = Dr_slicing.Slicer.compute ~lp:p.lp p.gt crit in
  let spilled ?driver crit =
    Dr_slicing.Slicer.compute ~lp:lp' ?driver gt' crit
  in
  let spill_identical =
    n = Dr_slicing.Segment_store.length store
    && List.for_all
         (fun crit ->
           let base = clean crit in
           let governed =
             Dr_slicing.Slicer.compute_governed ~budget gt' crit
           in
           List.for_all
             (fun s -> Dr_slicing.Slicer.equal s base)
             [ spilled crit;
               spilled ~driver:`Scan_skip crit;
               spilled ~driver:`Scan crit;
               governed.Dr_slicing.Slicer.g_slice ])
         p.criteria
  in
  let _, spill_read_s =
    Timer.time (fun () -> List.iter (fun crit -> ignore (spilled crit)) p.criteria)
  in
  ( spilled_segments,
    spill_read_s,
    List.length (Dr_util.Budget.degradations budget),
    spill_identical,
    !total_bytes,
    Dr_slicing.Segment_store.cache_hit_rate store )

let measure ~reps (p : prepared) : measured =
  let gt = p.gt and lp = p.lp in
  let records = Dr_slicing.Global_trace.length gt in
  let compute ?driver crit = Dr_slicing.Slicer.compute ~lp ?driver gt crit in
  (* correctness first: all three stored-trace drivers must agree on
     every criterion *)
  let identical =
    List.for_all
      (fun crit ->
        let fast = compute crit in
        let skip = compute ~driver:`Scan_skip crit in
        let noskip = compute ~driver:`Scan crit in
        Dr_slicing.Slicer.equal fast skip
        && Dr_slicing.Slicer.equal skip noskip)
      p.criteria
  in
  (* stats from one pass per driver *)
  let stats ?driver () =
    List.fold_left
      (fun (v, sk, sz) crit ->
        let s = compute ?driver crit in
        ( v + s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.visited,
          sk + s.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks,
          sz + Dr_slicing.Slicer.size s ))
      (0, 0, 0) p.criteria
  in
  let visited_indexed, _, slice_size_total = stats () in
  let visited_scan, blocks_skipped, _ = stats ~driver:`Scan_skip () in
  (* timed runs: tracing off, so the measured loops stay comparable to
     pre-observability baselines (the gate is a single field check).
     Each rep times one pass per driver, the drivers taking turns, so a
     slow stretch of the host lands on all three. *)
  let pass ?driver () =
    snd
      (Timer.time (fun () ->
           List.iter (fun crit -> ignore (compute ?driver crit)) p.criteria))
  in
  let was_enabled = Dr_obs.Obs.enabled () in
  Dr_obs.Obs.set_enabled false;
  let passes =
    List.init reps (fun _ ->
        let i = pass () in
        let sk = pass ~driver:`Scan_skip () in
        (i, sk, pass ~driver:`Scan ()))
  in
  Dr_obs.Obs.set_enabled was_enabled;
  let spread_by f = spread_of (List.map f passes) in
  let ( spilled_segments,
        spill_read_s,
        degradations,
        spill_identical,
        record_bytes_total,
        segstore_hit_rate ) =
    measure_spill p
  in
  { records; n_criteria = List.length p.criteria; reps;
    indexed_s = spread_by (fun (i, _, _) -> i);
    scan_skip_s = spread_by (fun (_, sk, _) -> sk);
    scan_noskip_s = spread_by (fun (_, _, s) -> s);
    blocks_skipped; total_blocks = lp.Dr_slicing.Lp.num_blocks;
    visited_indexed; visited_scan; slice_size_total; identical;
    spilled_segments; spill_read_s; degradations; spill_identical;
    record_bytes_total; segstore_hit_rate }

let ratio a b = if b > 0.0 then a /. b else 0.0

let speedup_vs_scan_skip m = ratio m.scan_skip_s.median m.indexed_s.median

(* [name] is the median single-pass time; [name_min]/[name_max] its spread *)
let timing_json name t =
  [ (name, J.Num t.median); (name ^ "_min", J.Num t.lo);
    (name ^ "_max", J.Num t.hi) ]

let workload_json (p : prepared) (m : measured) : J.t =
  let per_slice_indexed =
    m.indexed_s.median /. Float.max (float_of_int m.n_criteria) 1.0
  in
  J.Obj
    ([ ("name", J.Str p.w_name);
      ("kind", J.Str p.w_kind);
      ("records", J.int m.records);
      ("criteria", J.int m.n_criteria);
      ("reps", J.int m.reps);
      ("collect_s", J.Num p.collect_s);
      ("construct_s", J.Num p.construct_s);
      ("lp_prepare_s", J.Num p.lp_s) ]
    @ timing_json "indexed_s" m.indexed_s
    @ timing_json "scan_skip_s" m.scan_skip_s
    @ timing_json "scan_noskip_s" m.scan_noskip_s
    @ [ ("speedup_vs_scan_skip", J.Num (speedup_vs_scan_skip m));
      ( "speedup_vs_scan_noskip",
        J.Num (ratio m.scan_noskip_s.median m.indexed_s.median) );
      ( "records_per_s_indexed",
        J.Num (ratio (float_of_int m.records) per_slice_indexed) );
      ("blocks_skipped", J.int m.blocks_skipped);
      ("total_blocks", J.int m.total_blocks);
      ( "visited_ratio_indexed",
        J.Num
          (ratio
             (float_of_int m.visited_indexed)
             (float_of_int (m.records * m.n_criteria))) );
      ( "visited_ratio_scan",
        J.Num
          (ratio (float_of_int m.visited_scan)
             (float_of_int (m.records * m.n_criteria))) );
      ( "slice_size_avg",
        J.Num (ratio (float_of_int m.slice_size_total) (float_of_int m.n_criteria)) );
      ("slice_size_total", J.int m.slice_size_total);
      ("results_identical", J.Bool m.identical);
      ("spilled_segments", J.int m.spilled_segments);
      ("spill_read_s", J.Num m.spill_read_s);
      ("degradations", J.int m.degradations);
      ("spill_identical", J.Bool m.spill_identical);
      ("record_bytes_total", J.int m.record_bytes_total);
      ("row_cells", J.int Dr_slicing.Segment_store.Chunk.row_cells);
      ("segstore_hit_rate", J.Num m.segstore_hit_rate) ])

(** Run the slicing benchmark and write [out] (BENCH_slicing.json). *)
let run ~quick ~out () =
  (* tracing on for the preparation and stats passes (their spans feed
     the embedded run report); [measure] turns it off around the timed
     loops so the measurements stay gate-check-only *)
  Dr_obs.Obs.reset ();
  Dr_obs.Obs.set_enabled true;
  let n_criteria = if quick then 3 else 6 in
  let reps = if quick then 1 else 3 in
  let main_instrs = if quick then 6_000 else 40_000 in
  let seeds = if quick then [ 11; 23; 37 ] else [ 3; 7; 11; 23; 31; 37; 43; 51 ] in
  let keep = if quick then 2 else 3 in
  let registry_names = [ "pbzip2"; "streamcluster"; "ammp" ] in
  let prepared =
    List.map
      (fun name -> prepare_registry ~name ~main_instrs ~n_criteria)
      registry_names
    @ prepare_generated ~seeds ~keep ~n_criteria
  in
  printf "%-16s %-10s %9s %10s %10s %10s %8s %6s %s\n" "workload" "kind"
    "records" "indexed" "scan+skip" "scan" "speedup" "spill" "identical";
  let rows =
    List.map
      (fun p ->
        let m = measure ~reps p in
        printf "%-16s %-10s %9d %9.4fs %9.4fs %9.4fs %7.1fx %6d %b/%b\n"
          p.w_name p.w_kind m.records m.indexed_s.median
          m.scan_skip_s.median m.scan_noskip_s.median
          (speedup_vs_scan_skip m)
          m.spilled_segments m.identical m.spill_identical;
        (p, m))
      prepared
  in
  let largest_generated =
    rows
    |> List.filter (fun (p, _) -> p.w_kind = "generated")
    |> List.sort (fun (_, a) (_, b) -> Int.compare b.records a.records)
    |> function
    | [] -> J.Null
    | (p, m) :: _ ->
      J.Obj
        [ ("name", J.Str p.w_name);
          ("records", J.int m.records);
          ("speedup_vs_scan_skip", J.Num (speedup_vs_scan_skip m));
          ("results_identical", J.Bool m.identical) ]
  in
  let report = Dr_obs.Report.document ~label:"slicing-bench" () in
  let doc =
    J.Obj
      [ ("schema", J.Str schema_version);
        ("quick", J.Bool quick);
        ("workloads", J.List (List.map (fun (p, m) -> workload_json p m) rows));
        ("largest_generated", largest_generated);
        ("report", report) ]
  in
  Dr_obs.Obs.set_enabled false;
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (J.to_string doc);
      Out_channel.output_char oc '\n');
  printf "wrote %s\n" out
