(* On-demand re-execution driver tests (Reexec): the qcheck property
   that re-exec slices equal indexed slices on generated programs over
   shuffled criteria, a handwritten corpus case whose
   checkpoint boundaries land mid-block (open control-dependence stack
   and mid-call at the window edge), byte-identity of every re-derived
   record against the stored trace, watchdog truncation through the
   reexec driver, and LRU cache / peak-memory accounting. *)

module Slicer = Dr_slicing.Slicer
module Reexec = Dr_slicing.Reexec
module Lp = Dr_slicing.Lp
module Global_trace = Dr_slicing.Global_trace

let compile ?(name = "test") src =
  match Dr_lang.Codegen.compile_result ~name src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let log_whole ?policy ?(seed = 3) prog =
  let policy =
    match policy with
    | Some p -> p
    | None -> Dr_machine.Driver.Seeded { seed; max_quantum = 4 }
  in
  match
    Dr_pinplay.Logger.log ~policy ~nondet_seed:1 prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> pb
  | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e

(* load-record criteria spread over the trace, same recipe as the bench *)
let criteria_of gt ~n =
  let len = Global_trace.length gt in
  let picks = ref [] and found = ref 0 and pos = ref (len - 1) in
  while !found < n && !pos > 0 do
    if Dr_slicing.Trace.is_load (Global_trace.record gt !pos) then begin
      picks := !pos :: !picks;
      incr found
    end;
    decr pos
  done;
  let picks = if !picks = [] then [ len - 1 ] else List.rev !picks in
  List.map (fun p -> { Slicer.crit_pos = p; crit_locs = None }) picks

(* positions + edges only: the reexec driver runs the plain-scan
   traversal, so visited/skip stats legitimately differ from indexed *)
let slice_eq (a : Slicer.t) (b : Slicer.t) =
  Slicer.equal a b
  && a.Slicer.stats.Slicer.truncated = b.Slicer.stats.Slicer.truncated

type fx = {
  f_name : string;
  f_prog : Dr_isa.Program.t;
  f_pb : Dr_pinplay.Pinball.t;
  f_cfg : Dr_cfg.Cfg.t;
  f_gt : Global_trace.t;
  f_lp : Lp.t;
  f_crits : Slicer.criterion list;
  f_rx : Reexec.t;
}

(* Generated programs, as in the bench: wide enough for real traces,
   several seeds, keep the ones that compile and produce work.  The
   checkpoint interval is a prime-ish fraction of the trace so window
   edges do not line up with loop iterations or LP blocks. *)
let gen_cfg =
  { Dr_lang.Gen.max_stmts = 8; max_depth = 3; max_helpers = 3;
    with_threads = true; max_workers = 1 }

let make_fixture ~name ?policy ?seed prog =
  let pb = log_whole ?policy ?seed prog in
  let c = Dr_slicing.Collector.collect ~refine:true prog pb in
  let gt = Global_trace.construct c in
  let n = Global_trace.length gt in
  if n < 50 then None
  else
    let lp = Lp.prepare gt in
    let interval = max 7 (n / 11) in
    let rx =
      Reexec.create ~cfg:c.Dr_slicing.Collector.cfg ~ckpt_interval:interval
        ~cache_windows:3 prog pb
    in
    Some
      { f_name = name; f_prog = prog; f_pb = pb;
        f_cfg = c.Dr_slicing.Collector.cfg; f_gt = gt; f_lp = lp;
        f_crits = criteria_of gt ~n:6; f_rx = rx }

let fixtures =
  lazy
    (let of_seed seed =
       let src = Dr_lang.Gen.program ~cfg:gen_cfg seed in
       match Dr_lang.Codegen.compile_result ~name:(Printf.sprintf "gen-%d" seed) src with
       | Error _ -> None
       | Ok prog -> make_fixture ~name:(Printf.sprintf "gen-%d" seed) ~seed prog
     in
     let fxs = List.filter_map of_seed [ 1; 2; 3; 5; 8; 13; 21 ] in
     let fxs = List.filteri (fun i _ -> i < 3) fxs in
     if List.length fxs < 2 then
       Alcotest.fail "fewer than two generated fixtures survived";
     fxs)

(* ---- property: reexec = indexed, shuffled criteria ---- *)

let prop_reexec_matches_indexed =
  QCheck.Test.make
    ~name:"reexec slices = indexed slices, shuffled criteria"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun shuffle_seed ->
      let fxs = Lazy.force fixtures in
      let fx = List.nth fxs (shuffle_seed mod List.length fxs) in
      let rng = Random.State.make [| shuffle_seed |] in
      let shuffled =
        List.map (fun c -> (Random.State.bits rng, c)) fx.f_crits
        |> List.sort compare |> List.map snd
      in
      let indexed = List.map (Slicer.compute ~lp:fx.f_lp fx.f_gt) shuffled in
      List.for_all2
        (fun crit (ix : Slicer.t) ->
          let re =
            Slicer.compute ~lp:fx.f_lp ~driver:(`Reexec fx.f_rx) fx.f_gt crit
          in
          ix.Slicer.criterion = crit && slice_eq re ix)
        shuffled indexed)

(* ---- handwritten corpus case: checkpoint boundary mid-block ---- *)

let corpus_fixture =
  lazy
    (match
       Dr_conformance.Fuzz.load_corpus_case "corpus/reexec-window-boundary.json"
     with
    | Error e -> Alcotest.failf "corpus case unreadable: %s" e
    | Ok cc ->
      let src = String.concat "\n" (Array.to_list cc.Dr_conformance.Fuzz.cc_lines) in
      let prog = compile ~name:"reexec-window-boundary" src in
      let pb =
        log_whole
          ~policy:(Dr_conformance.Sched.policy cc.Dr_conformance.Fuzz.cc_sched)
          prog
      in
      let c = Dr_slicing.Collector.collect ~refine:true prog pb in
      let gt = Global_trace.construct c in
      (* a deliberately prime interval: 7 never divides the 9- and
         11-iteration call-bearing loops, so checkpoints land mid-call
         with the cd stack open *)
      let rx =
        Reexec.create ~cfg:c.Dr_slicing.Collector.cfg ~ckpt_interval:7
          ~cache_windows:2 prog pb
      in
      (prog, gt, Lp.prepare gt, rx))

let pos_of_gseq gt =
  let n = Global_trace.length gt in
  let inv = Array.make n (-1) in
  for p = 0 to n - 1 do
    inv.(Global_trace.gseq_at gt p) <- p
  done;
  inv

let test_corpus_boundary_mid_block () =
  let _, gt, lp, rx = Lazy.force corpus_fixture in
  let n = Global_trace.length gt in
  Alcotest.(check int) "reexec sees every record" n (Reexec.length rx);
  Alcotest.(check bool) "several windows" true (Reexec.num_checkpoints rx > 4);
  (* at least one checkpoint boundary must fall strictly inside an LP
     block of the merged trace — the case exists to exercise exactly
     that window edge *)
  let inv = pos_of_gseq gt in
  let mid_block = ref 0 in
  for w = 1 to Reexec.num_checkpoints rx - 1 do
    let g = w * 7 in
    if g < n then begin
      let p = inv.(g) in
      let lo, _ = Lp.block_range lp (Lp.block_of lp p) in
      if p > lo then incr mid_block
    end
  done;
  Alcotest.(check bool) "a checkpoint boundary falls mid-block" true
    (!mid_block > 0)

let test_corpus_records_byte_identical () =
  let _, gt, _, rx = Lazy.force corpus_fixture in
  (* the strongest form of the driver contract: every re-derived record
     equals the stored one, field for field, in any lookup order *)
  let n = Global_trace.length gt in
  for p = n - 1 downto 0 do
    let stored = Global_trace.record gt p in
    let rederived = Reexec.record rx ~gseq:(Global_trace.gseq_at gt p) in
    if stored <> rederived then
      Alcotest.failf "record at position %d differs after re-execution" p
  done

let test_corpus_slices_match_indexed () =
  let _, gt, lp, rx = Lazy.force corpus_fixture in
  List.iter
    (fun crit ->
      let ix = Slicer.compute ~lp gt crit in
      let re = Slicer.compute ~lp ~driver:(`Reexec rx) gt crit in
      Alcotest.(check bool) "slice identical across the window boundary" true
        (slice_eq re ix))
    (criteria_of gt ~n:8)

(* ---- watchdog truncation through the reexec driver ---- *)

let test_watchdog_truncates_reexec () =
  let fx = List.hd (Lazy.force fixtures) in
  let crit = List.hd fx.f_crits in
  let clean = Slicer.compute ~lp:fx.f_lp ~driver:(`Reexec fx.f_rx) fx.f_gt crit in
  Alcotest.(check bool) "clean run not truncated" false
    clean.Slicer.stats.Slicer.truncated;
  let wd = Dr_util.Budget.watchdog ~what:"test" ~limit_s:0.0 in
  ignore (Dr_util.Budget.expired wd);
  let partial =
    Slicer.compute ~lp:fx.f_lp ~watchdog:wd ~driver:(`Reexec fx.f_rx) fx.f_gt
      crit
  in
  Alcotest.(check bool) "marked truncated" true
    partial.Slicer.stats.Slicer.truncated;
  Array.iter
    (fun p ->
      if not (Array.mem p clean.Slicer.positions) then
        Alcotest.failf "truncated reexec slice has spurious position %d" p)
    partial.Slicer.positions

(* ---- LRU cache and peak-memory accounting ---- *)

let test_cache_and_peak_memory () =
  let fx = List.hd (Lazy.force fixtures) in
  let n = Global_trace.length fx.f_gt in
  let interval = max 4 (n / 8) in
  (* a one-window cache over ~8 windows: the backward traversal must
     thrash it, and peak residency must still stay near one window *)
  let rx =
    Reexec.create ~cfg:fx.f_cfg ~ckpt_interval:interval ~cache_windows:1
      fx.f_prog fx.f_pb
  in
  List.iter
    (fun crit ->
      let ix = Slicer.compute ~lp:fx.f_lp fx.f_gt crit in
      let re = Slicer.compute ~lp:fx.f_lp ~driver:(`Reexec rx) fx.f_gt crit in
      Alcotest.(check bool) "thrashed cache still identical" true
        (slice_eq re ix))
    fx.f_crits;
  let s = Reexec.stats rx in
  Alcotest.(check bool) "windows were re-derived" true
    (s.Reexec.windows_rederived >= 1);
  Alcotest.(check bool) "records accounted" true
    (s.Reexec.records_rederived >= s.Reexec.windows_rederived);
  (* per-window byte ceiling from the stored trace *)
  let window_bytes = Array.make (Reexec.num_checkpoints rx) 0 in
  for p = 0 to n - 1 do
    let g = Global_trace.gseq_at fx.f_gt p in
    let w = g / interval in
    window_bytes.(w) <-
      window_bytes.(w)
      + Dr_slicing.Segment_store.record_bytes fx.f_gt.Global_trace.records g
  done;
  let max_window = Array.fold_left max 0 window_bytes in
  let total = Array.fold_left ( + ) 0 window_bytes in
  (* eviction runs after insertion, so at most two windows are ever
     resident with a one-window cache *)
  Alcotest.(check bool) "peak bounded by two windows" true
    (s.Reexec.peak_resident_bytes <= 2 * max_window);
  if Reexec.num_checkpoints rx > 2 then
    Alcotest.(check bool) "peak below whole-trace bytes" true
      (s.Reexec.peak_resident_bytes < total)

let () =
  Alcotest.run "reexec"
    [ ( "property",
        [ QCheck_alcotest.to_alcotest prop_reexec_matches_indexed ] );
      ( "window boundary corpus",
        [ Alcotest.test_case "checkpoint lands mid-block" `Quick
            test_corpus_boundary_mid_block;
          Alcotest.test_case "records byte-identical" `Quick
            test_corpus_records_byte_identical;
          Alcotest.test_case "slices match indexed" `Quick
            test_corpus_slices_match_indexed ] );
      ( "contract",
        [ Alcotest.test_case "watchdog truncates" `Quick
            test_watchdog_truncates_reexec;
          Alcotest.test_case "LRU cache and peak memory" `Quick
            test_cache_and_peak_memory ] ) ]
