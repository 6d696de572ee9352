(* Tests for dr_exeslice: exclusion-region construction, slice pinball
   generation, and slice replay with value-equivalence at slice
   statements (the paper's key §4 property). *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let log_whole ?(seed = 3) ?(input = [||]) prog =
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
      ~input prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> pb
  | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e

let assert_criterion prog gt =
  match
    Dr_slicing.Global_trace.find_last gt ~p:(fun r ->
        match prog.Dr_isa.Program.code.(r.Dr_slicing.Trace.pc) with
        | Dr_isa.Instr.Assert _ -> true
        | _ -> false)
  with
  | Some pos -> { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None }
  | None -> Alcotest.fail "no assert record in trace"

(* full pipeline: program -> region pinball -> slice -> slice pinball *)
let pipeline ?seed ?input src =
  let prog = compile src in
  let pb = log_whole ?seed ?input prog in
  let collector = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct collector in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let spb, stats = Dr_exeslice.Exclusion.slice_pinball prog pb ~slice ~collector in
  (prog, pb, collector, gt, slice, spb, stats)

let slicing_src = {|global int g;
global int noise;
fn main() {
  int a = 2;
  for (int i = 0; i < 50; i = i + 1) {
    noise = noise + i;
  }
  g = a * 10;
  int w = g + 1;
  assert(w == 0, "w");
}|}

let test_exclusion_regions_structure () =
  let _, _, collector, _, slice, _, stats = pipeline slicing_src in
  let exclusions, _ = Dr_exeslice.Exclusion.build ~slice ~collector in
  Alcotest.(check bool) "some exclusions" true (exclusions <> []);
  Alcotest.(check bool) "region count matches" true
    (stats.Dr_exeslice.Exclusion.regions = List.length exclusions);
  Alcotest.(check int) "included + excluded = total"
    stats.Dr_exeslice.Exclusion.total_records
    (stats.Dr_exeslice.Exclusion.included_records
    + stats.Dr_exeslice.Exclusion.excluded_records);
  (* the noisy loop must be excluded: far fewer included than total *)
  Alcotest.(check bool) "most records excluded" true
    (stats.Dr_exeslice.Exclusion.excluded_records
    > stats.Dr_exeslice.Exclusion.included_records)

let test_slice_pinball_smaller () =
  let _, pb, _, _, _, spb, _ = pipeline slicing_src in
  let full = Dr_pinplay.Pinball.schedule_instructions pb in
  let sliced = Dr_pinplay.Pinball.step_count spb in
  Alcotest.(check bool) "slice executes fewer instructions" true (sliced < full);
  Alcotest.(check bool) "nonempty" true (sliced > 0)

let test_slice_replay_reaches_assert () =
  let prog, _, _, _, _, spb, _ = pipeline slicing_src in
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  let result = Dr_exeslice.Slice_replay.run sr in
  match result with
  | Dr_exeslice.Slice_replay.Finished
      (Dr_machine.Machine.Assert_failed { msg; _ }) ->
    Alcotest.(check string) "assert reproduced in slice replay" "w" msg
  | Dr_exeslice.Slice_replay.End_of_slice ->
    (* acceptable: the assert is the last event *)
    ()
  | _ -> Alcotest.fail "slice replay did not reach the failure"

(* The central correctness property: replaying the slice pinball computes
   the SAME VALUES at every slice instruction as the original region
   replay, even though non-slice code is skipped and its effects
   injected. *)
let values_at_slice_statements prog pb slice =
  (* original replay: record (tid,pc,instance) -> (mem_write_value or r0) *)
  let wanted = Hashtbl.create 256 in
  Array.iter
    (fun pos ->
      let r =
        Dr_slicing.Global_trace.record slice.Dr_slicing.Slicer.gt pos
      in
      Hashtbl.replace wanted
        (r.Dr_slicing.Trace.tid, r.Dr_slicing.Trace.pc, r.Dr_slicing.Trace.instance)
        ())
    slice.Dr_slicing.Slicer.positions;
  let values = Hashtbl.create 256 in
  let counts = Hashtbl.create 256 in
  let record_value tid pc mev_write m =
    let k = (tid, pc) in
    let i = 1 + Option.value ~default:0 (Hashtbl.find_opt counts k) in
    Hashtbl.replace counts k i;
    if Hashtbl.mem wanted (tid, pc, i) then begin
      let th = Dr_machine.Machine.thread m tid in
      Hashtbl.replace values (tid, pc, i)
        (mev_write, th.Dr_machine.Machine.regs.(0))
    end
  in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev -> ()
          |> fun () -> ignore ev) }
  in
  ignore hooks;
  let replayer = Dr_pinplay.Replayer.create prog pb in
  let m = Dr_pinplay.Replayer.machine replayer in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev ->
          record_value ev.Dr_machine.Event.tid ev.Dr_machine.Event.pc
            ev.Dr_machine.Event.mem_write_value m) }
  in
  ignore (Dr_pinplay.Replayer.resume ~hooks replayer);
  values

let test_slice_replay_value_equivalence () =
  let prog, pb, _, _, slice, spb, _ = pipeline slicing_src in
  let original = values_at_slice_statements prog pb slice in
  (* now replay the slice pinball and compare *)
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  let m = Dr_exeslice.Slice_replay.machine sr in
  let counts = Hashtbl.create 256 in
  let mismatches = ref [] in
  let rec go () =
    match Dr_exeslice.Slice_replay.step sr with
    | Dr_exeslice.Slice_replay.Stepped { tid; pc; _ } ->
      let k = (tid, pc) in
      let i = 1 + Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k i;
      (match Hashtbl.find_opt original (tid, pc, i) with
      | Some (_, orig_r0) ->
        let th = Dr_machine.Machine.thread m tid in
        if th.Dr_machine.Machine.regs.(0) <> orig_r0 then
          mismatches := (tid, pc, i) :: !mismatches
      | None -> ());
      go ()
    | Dr_exeslice.Slice_replay.Injected _ -> go ()
    | _ -> ()
  in
  go ();
  Alcotest.(check (list (triple int int int))) "identical r0 at slice steps" []
    !mismatches

let multithreaded_src = {|global int x;
global int y;
global int scratch;
fn t1(int n) {
  for (int i = 0; i < 30; i = i + 1) { scratch = scratch + i; }
  y = 10;
  x = y + 1;
}
fn main() {
  int t = spawn(t1, 0);
  int k = 0;
  for (int i = 0; i < 30; i = i + 1) { k = k + 0; }
  join(t);
  int v = x + k;
  assert(v == 11, "v");
}|}

let test_multithreaded_slice_replay () =
  let prog, _, _, _, _, spb, stats = pipeline multithreaded_src in
  Alcotest.(check bool) "some exclusion happened" true
    (stats.Dr_exeslice.Exclusion.excluded_records > 0);
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  match Dr_exeslice.Slice_replay.run sr with
  | Dr_exeslice.Slice_replay.Finished
      ( Dr_machine.Machine.Assert_failed _ | Dr_machine.Machine.Exited _ )
  | Dr_exeslice.Slice_replay.End_of_slice -> ()
  | Dr_exeslice.Slice_replay.Finished o ->
    Alcotest.failf "unexpected outcome %a"
      (fun fmt () -> Dr_machine.Machine.pp_outcome fmt o) ()
  | _ -> Alcotest.fail "unexpected result"

let test_step_statement_advances_lines () =
  let prog, _, _, _, _, spb, _ = pipeline slicing_src in
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  (* walk statement by statement; lines must come from the slice and the
     walk must terminate *)
  let steps = ref 0 in
  let rec go () =
    match Dr_exeslice.Slice_replay.step_statement sr with
    | Dr_exeslice.Slice_replay.Stepped { line; _ } ->
      incr steps;
      Alcotest.(check bool) "line known" true (line >= 1);
      if !steps < 1000 then go ()
    | _ -> ()
  in
  go ();
  Alcotest.(check bool) "stepped through several statements" true (!steps >= 3)

let test_sync_preserved_in_slice_pinball () =
  (* lock/unlock/spawn/join events survive exclusion even when they are
     not in the slice *)
  let src = {|global int x;
global int m;
global int noise;
fn t1(int n) {
  lock(&m);
  noise = noise + 1;
  unlock(&m);
  x = 5;
}
fn main() {
  int t = spawn(t1, 0);
  lock(&m);
  noise = noise + 2;
  unlock(&m);
  join(t);
  assert(x == 0, "x clean");
}|} in
  let prog, _, _, _, _, spb, _ = pipeline src in
  (* count sync instructions in the slice events *)
  let sync_steps = ref 0 in
  Array.iter
    (fun ev ->
      match ev with
      | Dr_pinplay.Pinball.Step { pc; _ } -> (
        match prog.Dr_isa.Program.code.(pc) with
        | Dr_isa.Instr.Sys
            ( Dr_isa.Instr.Spawn | Dr_isa.Instr.Join | Dr_isa.Instr.Lock
            | Dr_isa.Instr.Unlock ) ->
          incr sync_steps
        | _ -> ())
      | _ -> ())
    spb.Dr_pinplay.Pinball.slice_events;
  (* spawn + join + 2x(lock+unlock) = at least 6 *)
  Alcotest.(check bool) "sync instructions preserved" true (!sync_steps >= 6);
  (* and the slice pinball still replays to the assert *)
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  match Dr_exeslice.Slice_replay.run sr with
  | Dr_exeslice.Slice_replay.Finished (Dr_machine.Machine.Assert_failed _)
  | Dr_exeslice.Slice_replay.End_of_slice -> ()
  | _ -> Alcotest.fail "slice replay failed"

let prop_slice_replay_equivalence =
  QCheck.Test.make
    ~name:"slice replay computes original values under random schedules"
    ~count:10
    QCheck.(int_bound 50)
    (fun seed ->
      let prog, pb, _, _, slice, spb, _ =
        pipeline ~seed multithreaded_src
      in
      let original = values_at_slice_statements prog pb slice in
      let sr = Dr_exeslice.Slice_replay.create prog spb in
      let m = Dr_exeslice.Slice_replay.machine sr in
      let counts = Hashtbl.create 256 in
      let ok = ref true in
      let rec go () =
        match Dr_exeslice.Slice_replay.step sr with
        | Dr_exeslice.Slice_replay.Stepped { tid; pc; _ } ->
          let k = (tid, pc) in
          let i = 1 + Option.value ~default:0 (Hashtbl.find_opt counts k) in
          Hashtbl.replace counts k i;
          (match Hashtbl.find_opt original (tid, pc, i) with
          | Some (_, orig_r0) ->
            let th = Dr_machine.Machine.thread m tid in
            if th.Dr_machine.Machine.regs.(0) <> orig_r0 then ok := false
          | None -> ());
          go ()
        | Dr_exeslice.Slice_replay.Injected _ -> go ()
        | _ -> ()
      in
      go ();
      !ok)

(* ---- additional exeslice coverage ---- *)

let test_slice_pinball_serialization () =
  let prog, _, _, _, _, spb, _ = pipeline slicing_src in
  let spb' = Dr_pinplay.Pinball.of_bytes (Dr_pinplay.Pinball.to_bytes spb) in
  Alcotest.(check bool) "events preserved" true
    (spb.Dr_pinplay.Pinball.slice_events = spb'.Dr_pinplay.Pinball.slice_events);
  Alcotest.(check bool) "injections preserved" true
    (spb.Dr_pinplay.Pinball.injections = spb'.Dr_pinplay.Pinball.injections);
  (* the deserialized slice pinball replays identically *)
  let run pb =
    let sr = Dr_exeslice.Slice_replay.create prog pb in
    let rec go acc =
      match Dr_exeslice.Slice_replay.step sr with
      | Dr_exeslice.Slice_replay.Stepped { tid; pc; _ } -> go ((tid, pc) :: acc)
      | Dr_exeslice.Slice_replay.Injected _ -> go acc
      | _ -> List.rev acc
    in
    go []
  in
  Alcotest.(check bool) "same steps after round-trip" true (run spb = run spb')

let test_full_slice_is_identity () =
  (* a slice containing everything yields a slice pinball with no
     exclusions: replay equals region replay *)
  let src = {|fn main() {
  int a = 1;
  int b = a + 1;
  assert(b == 0, "b");
}|} in
  let prog = compile src in
  let pb = log_whole prog in
  let collector = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct collector in
  (* fabricate an everything-slice by slicing the criterion with every
     location wanted — instead, build exclusions directly from an
     all-inclusive bitset via Exclusion.build on a slice that contains
     every position *)
  let crit = assert_criterion prog gt in
  let slice = Dr_slicing.Slicer.compute gt crit in
  (* small straight-line program: the failure slice includes nearly
     everything except prologue scaffolding; at minimum the slice pinball
     must replay to the assert *)
  let spb, _ = Dr_exeslice.Exclusion.slice_pinball prog pb ~slice ~collector in
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  match Dr_exeslice.Slice_replay.run sr with
  | Dr_exeslice.Slice_replay.Finished (Dr_machine.Machine.Assert_failed _)
  | Dr_exeslice.Slice_replay.End_of_slice -> ()
  | _ -> Alcotest.fail "full-ish slice replay failed"

let test_remaining_counter () =
  let prog, _, _, _, _, spb, _ = pipeline slicing_src in
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  let before = Dr_exeslice.Slice_replay.remaining sr in
  Alcotest.(check int) "all events pending" (Array.length spb.Dr_pinplay.Pinball.slice_events) before;
  ignore (Dr_exeslice.Slice_replay.step sr);
  Alcotest.(check int) "one consumed" (before - 1)
    (Dr_exeslice.Slice_replay.remaining sr)

let test_forced_sync_stats_consistent () =
  let prog, _, collector, gt, slice, _, stats = pipeline multithreaded_src in
  ignore prog;
  (* every record is classified exactly once *)
  Alcotest.(check int) "partition"
    (Dr_slicing.Segment_store.length collector.Dr_slicing.Collector.records)
    (stats.Dr_exeslice.Exclusion.included_records
    + stats.Dr_exeslice.Exclusion.excluded_records);
  (* included >= slice size (forced sync adds, never removes) *)
  Alcotest.(check bool) "included covers slice" true
    (stats.Dr_exeslice.Exclusion.included_records
    >= Dr_slicing.Slicer.size slice);
  ignore gt

(* ---- kept_by: the paper's [pc:instance) regions read back ----

   The regions' half-open semantics over a single-threaded trace, where
   record k of thread 0 is gseq k. *)

let straightline_src = {|global int a;
global int b;
global int c;
fn main() {
  a = 1;
  b = 2;
  b = b * 10;
  b = b + 3;
  c = a + b;
  print(c);
}|}

let straightline () =
  let prog = compile straightline_src in
  let pb = log_whole prog in
  (prog, pb, Dr_slicing.Collector.collect prog pb)

(* (pc, instance) of gseq [g] *)
let marker collector g =
  let r = Dr_slicing.Segment_store.get collector.Dr_slicing.Collector.records g in
  (r.Dr_slicing.Trace.pc, r.Dr_slicing.Trace.instance)

let region collector ~start ~end_ =
  let x_start_pc, x_start_instance = marker collector start in
  { Dr_exeslice.Exclusion.x_tid = 0; x_start_pc; x_start_instance;
    x_end = Option.map (marker collector) end_ }

(* the gseqs [kept_by] keeps, or a failure naming the unclosed region *)
let kept collector regions =
  match Dr_exeslice.Exclusion.kept_by ~collector regions with
  | Ok keep -> Dr_util.Bitset.to_list keep
  | Error r ->
    Alcotest.failf "region at pc %d instance %d never closed"
      r.Dr_exeslice.Exclusion.x_start_pc r.Dr_exeslice.Exclusion.x_start_instance

let all_but collector lo hi =
  let n = Dr_slicing.Segment_store.length collector.Dr_slicing.Collector.records in
  List.filter (fun g -> g < lo || g >= hi) (List.init n Fun.id)

let test_kept_by_empty_region () =
  let prog, pb, collector = straightline () in
  let n = Dr_slicing.Segment_store.length collector.Dr_slicing.Collector.records in
  (* [p:i, p:i) is half-open and empty: it excludes nothing, and the
     record at the marker stays kept *)
  let empty = region collector ~start:5 ~end_:(Some 5) in
  Alcotest.(check (list int)) "nothing excluded" (List.init n Fun.id)
    (kept collector [ empty ]);
  (* relogging that keep-set excludes nothing and injects nothing *)
  let keep = Result.get_ok (Dr_exeslice.Exclusion.kept_by ~collector [ empty ]) in
  let spb = Dr_pinplay.Relogger.relog prog pb ~keep in
  Alcotest.(check int) "every event stepped" n (Dr_pinplay.Pinball.step_count spb);
  Alcotest.(check int) "no injections" 0
    (Array.length spb.Dr_pinplay.Pinball.injections);
  let rm, _ = Dr_pinplay.Replayer.replay prog pb in
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  ignore (Dr_exeslice.Slice_replay.run sr);
  Alcotest.(check (list int)) "output matches reference"
    (Dr_machine.Machine.output_list rm)
    (Dr_machine.Machine.output_list (Dr_exeslice.Slice_replay.machine sr))

let test_kept_by_region_at_start () =
  let _, _, collector = straightline () in
  (* the region starts ON the first record; its end marker is kept *)
  Alcotest.(check (list int)) "records 0..3 excluded" (all_but collector 0 4)
    (kept collector [ region collector ~start:0 ~end_:(Some 4) ])

let test_kept_by_region_at_end () =
  let _, _, collector = straightline () in
  let n = Dr_slicing.Segment_store.length collector.Dr_slicing.Collector.records in
  (* an open-ended region excludes through the region end *)
  Alcotest.(check (list int)) "last three records excluded"
    (all_but collector (n - 3) n)
    (kept collector [ region collector ~start:(n - 3) ~end_:None ])

let test_kept_by_two_adjacent_regions () =
  let _, _, collector = straightline () in
  (* [3,5) and [6,8): record 5 closes the first region and is kept *)
  Alcotest.(check (list int)) "records 3, 4, 6, 7 excluded"
    (List.filter (fun g -> g <> 6 && g <> 7) (all_but collector 3 5))
    (kept collector
       [ region collector ~start:3 ~end_:(Some 5);
         region collector ~start:6 ~end_:(Some 8) ])

let test_kept_by_unclosed_region () =
  let _, _, collector = straightline () in
  let pc, _ = marker collector 2 in
  let r = { (region collector ~start:2 ~end_:None) with x_end = Some (pc, 99) } in
  Alcotest.(check bool) "the unclosed region is named" true
    (Dr_exeslice.Exclusion.kept_by ~collector [ r ] = Error r)

(* [build] and [kept_by] are inverse over the keep-set *)
let test_kept_by_inverts_build () =
  List.iter
    (fun src ->
      let _, _, collector, _, slice, _, _ = pipeline src in
      let regions, _ = Dr_exeslice.Exclusion.build ~slice ~collector in
      let keep = Dr_exeslice.Exclusion.keep ~slice ~collector in
      Alcotest.(check (list int)) "kept_by (build) = keep"
        (Dr_util.Bitset.to_list keep) (kept collector regions))
    [ slicing_src; multithreaded_src ]

(* ---- slice pinball identity: relogged slices pinned bit for bit ----

   CRC32 of [Pinball.to_bytes (Exclusion.slice_pinball ...)] for registry
   workloads (3 threads) under two seeded schedules and three criteria:
   the last trace record, the middle one and the one a fifth of the way
   in.  The schedule, the syscalls, the injections and the slice events
   are all in the bytes, so any change to which records the relogger
   keeps, or to the side effects it injects, changes a CRC.  Every
   workload runs several threads; the pbzip2 slices end some threads
   with an open-ended exclusion region (it runs to the region end), and
   the fluidanimate rows relog a region recorded after a skip. *)

let golden_slice_specs =
  [ ("pbzip2", Dr_pinplay.Logger.Whole);
    ("fluidanimate", Dr_pinplay.Logger.Skip_length { skip = 300; length = 1500 });
    ("condvar", Dr_pinplay.Logger.Whole);
    ("ammp", Dr_pinplay.Logger.Whole) ]

let golden_slice_crcs =
  [ ("pbzip2",
     [ 0xdd8168e1; 0x5531c653; 0x157c5389; 0x14b0bad4; 0xd1c0582c; 0xfc13ac1b ]);
    ("fluidanimate",
     [ 0x48f3507d; 0xdcab2a9e; 0x461470f1; 0x0ec959c3; 0xfd0eb30b; 0x75bb66b2 ]);
    ("condvar",
     [ 0xe6d95da9; 0x9a398305; 0xbd3101d9; 0xe6d95da9; 0xd82a6437; 0x5eefce03 ]);
    ("ammp",
     [ 0xcd6a6823; 0x230a6e14; 0x89a8b93b; 0xcd6a6823; 0x230a6e14; 0x89a8b93b ]) ]

let test_slice_pinball_golden () =
  List.iter
    (fun (name, expected) ->
      let e = Option.get (Dr_workloads.Registry.find name) in
      let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
      let spec = List.assoc name golden_slice_specs in
      let got =
        List.concat_map
          (fun seed ->
            let pb =
              match
                Dr_pinplay.Logger.log
                  ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 8 })
                  prog spec
              with
              | Ok (pb, _) -> pb
              | Error err ->
                Alcotest.failf "%s seed %d: %a" name seed
                  Dr_pinplay.Logger.pp_error err
            in
            let collector = Dr_slicing.Collector.collect prog pb in
            let gt = Dr_slicing.Global_trace.construct collector in
            let n = Dr_slicing.Global_trace.length gt in
            List.map
              (fun crit_pos ->
                let slice =
                  Dr_slicing.Slicer.compute gt
                    { Dr_slicing.Slicer.crit_pos; crit_locs = None }
                in
                let spb, _ =
                  Dr_exeslice.Exclusion.slice_pinball prog pb ~slice ~collector
                in
                Dr_util.Crc32.string (Dr_pinplay.Pinball.to_bytes spb))
              [ n - 1; n / 2; n / 5 ])
          [ 1; 2 ]
      in
      Alcotest.(check (list int)) (name ^ " slice pinball CRCs") expected got)
    golden_slice_crcs

let () =
  Alcotest.run "exeslice"
    [ ( "exclusions",
        [ Alcotest.test_case "structure" `Quick test_exclusion_regions_structure;
          Alcotest.test_case "slice pinball smaller" `Quick
            test_slice_pinball_smaller;
          Alcotest.test_case "sync preserved" `Quick
            test_sync_preserved_in_slice_pinball ] );
      ( "slice replay",
        [ Alcotest.test_case "reaches assert" `Quick
            test_slice_replay_reaches_assert;
          Alcotest.test_case "value equivalence" `Quick
            test_slice_replay_value_equivalence;
          Alcotest.test_case "multithreaded" `Quick test_multithreaded_slice_replay;
          Alcotest.test_case "statement stepping" `Quick
            test_step_statement_advances_lines;
          QCheck_alcotest.to_alcotest prop_slice_replay_equivalence ] );
      ( "coverage",
        [ Alcotest.test_case "slice pinball serialization" `Quick
            test_slice_pinball_serialization;
          Alcotest.test_case "near-full slice" `Quick test_full_slice_is_identity;
          Alcotest.test_case "remaining counter" `Quick test_remaining_counter;
          Alcotest.test_case "stats partition" `Quick
            test_forced_sync_stats_consistent ] );
      ( "kept_by",
        [ Alcotest.test_case "empty region" `Quick test_kept_by_empty_region;
          Alcotest.test_case "region at trace start" `Quick
            test_kept_by_region_at_start;
          Alcotest.test_case "region at trace end" `Quick
            test_kept_by_region_at_end;
          Alcotest.test_case "two adjacent regions" `Quick
            test_kept_by_two_adjacent_regions;
          Alcotest.test_case "unclosed region" `Quick
            test_kept_by_unclosed_region;
          Alcotest.test_case "inverts build" `Quick test_kept_by_inverts_build ] );
      ( "golden",
        [ Alcotest.test_case "slice pinball CRCs" `Quick
            test_slice_pinball_golden ] ) ]
