(* Tests for dr_slicing: trace collection, control dependences, global
   trace construction, LP traversal, and the paper's two precision
   improvements (Fig. 7 indirect jumps, Fig. 8 save/restore pairs). *)

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

let collect ?(refine = true) ?input ?seed prog =
  let pb = log_whole ?seed ?input prog in
  Dr_slicing.Collector.collect ~refine prog pb

(* Criterion at the last record whose pc holds an [Assert]. *)
let assert_criterion prog gt =
  match
    Dr_slicing.Global_trace.find_last gt ~p:(fun r ->
        match prog.Dr_isa.Program.code.(r.Dr_slicing.Trace.pc) with
        | Dr_isa.Instr.Assert _ -> true
        | _ -> false)
  with
  | Some pos -> { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None }
  | None -> Alcotest.fail "no assert record in trace"

let slice_lines = Dr_slicing.Slicer.source_lines

(* ---- basic data dependences ---- *)

let test_straightline_data_deps () =
  let src = {|fn main() {
  int a = 1;
  int b = 2;
  int unrelated = 777;
  int c = a + b;
  assert(c == 3, "c");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "a=1 in slice" true (List.mem 2 lines);
  Alcotest.(check bool) "b=2 in slice" true (List.mem 3 lines);
  Alcotest.(check bool) "unrelated NOT in slice" false (List.mem 4 lines);
  Alcotest.(check bool) "c=a+b in slice" true (List.mem 5 lines)

let test_memory_data_dep () =
  let src = {|global int g;
global int h;
fn main() {
  g = 41;
  h = 999;
  int v = g + 1;
  assert(v == 42, "v");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "g=41 in slice" true (List.mem 4 lines);
  Alcotest.(check bool) "h=999 not in slice" false (List.mem 5 lines)

(* ---- control dependences ---- *)

let test_control_dep_if () =
  let src = {|fn main() {
  int c = read();
  int r = 0;
  if (c > 10) {
    r = 1;
  }
  assert(r == 1, "r");
}|} in
  let prog = compile src in
  let c = collect ~input:[| 50 |] prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  (* r=1 is control dependent on the if, which uses c *)
  Alcotest.(check bool) "r=1 in slice" true (List.mem 5 lines);
  Alcotest.(check bool) "if-cond in slice" true (List.mem 4 lines);
  Alcotest.(check bool) "c=read in slice" true (List.mem 2 lines)

let test_control_dep_loop () =
  let src = {|fn main() {
  int n = read();
  int sum = 0;
  for (int i = 0; i < n; i = i + 1) {
    sum = sum + 2;
  }
  assert(sum == 6, "sum");
}|} in
  let prog = compile src in
  let c = collect ~input:[| 3 |] prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "loop body in slice" true (List.mem 5 lines);
  Alcotest.(check bool) "loop head in slice" true (List.mem 4 lines);
  Alcotest.(check bool) "n=read in slice" true (List.mem 2 lines)

(* ---- the paper's Figure 5: multi-threaded atomicity violation ---- *)

let fig5_src = {|global int x;
global int y;
global int z;
fn t1(int n) {
  y = 10;
  x = y + 1;
}
fn main() {
  int t = spawn(t1, 0);
  int k = z;
  k = k + 1;
  k = k + x;
  join(t);
  assert(k == 1, "atomic region violated");
}|}

(* find a seed where the race bites (t1's write lands before main reads x) *)
let find_failing_seed prog =
  let rec go seed =
    if seed > 2000 then Alcotest.fail "no failing schedule found"
    else begin
      let m = Dr_machine.Machine.create prog in
      let r =
        Dr_machine.Driver.run ~max_steps:100_000 m
          (Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
      in
      match r with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Assert_failed _) -> seed
      | _ -> go (seed + 1)
    end
  in
  go 0

let test_fig5_multithreaded_slice () =
  let prog = compile fig5_src in
  let seed = find_failing_seed prog in
  let pb =
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
        prog Dr_pinplay.Logger.Whole
    with
    | Ok (pb, _) -> pb
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let c = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  (* the slice must reach across threads: x = y + 1 (line 6) in t1 is the
     root cause, and y = 10 (line 5) feeds it *)
  Alcotest.(check bool) "root cause x=y+1 in slice" true (List.mem 6 lines);
  Alcotest.(check bool) "y=10 in slice" true (List.mem 5 lines);
  Alcotest.(check bool) "k=k+x in slice" true (List.mem 12 lines);
  (* cross-thread edge exists in the collector output *)
  Alcotest.(check bool) "cross-thread order edges" true
    (Array.length c.Dr_slicing.Collector.order_edges > 0)

(* ---- global trace properties ---- *)

let prop_global_trace_topological =
  QCheck.Test.make ~name:"global trace is a valid topological order" ~count:20
    QCheck.(int_bound 100)
    (fun seed ->
      let prog = compile fig5_src in
      let pb =
        match
          Dr_pinplay.Logger.log
            ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
            prog Dr_pinplay.Logger.Whole
        with
        | Ok (pb, _) -> pb
        | Error _ -> Alcotest.fail "log failed"
      in
      let c = Dr_slicing.Collector.collect prog pb in
      let gt = Dr_slicing.Global_trace.construct c in
      Dr_slicing.Global_trace.is_topological gt c
      && Dr_slicing.Global_trace.length gt
         = Dr_slicing.Segment_store.length c.Dr_slicing.Collector.records)

let test_global_trace_positions () =
  let prog = compile fig5_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  for pos = 0 to Dr_slicing.Global_trace.length gt - 1 do
    let r = Dr_slicing.Global_trace.record gt pos in
    Alcotest.(check int) "pos_of_gseq inverse" pos
      (Dr_slicing.Global_trace.position gt ~gseq:r.Dr_slicing.Trace.gseq)
  done

(* ---- LP traversal equals naive traversal ---- *)

(* reference slicer: plain backwards walk, no block skipping, no pruning *)
let naive_slice gt (criterion : Dr_slicing.Slicer.criterion) =
  let wanted = Hashtbl.create 64 in
  let to_include = Hashtbl.create 64 in
  let in_slice = Hashtbl.create 64 in
  let crit = Dr_slicing.Global_trace.record gt criterion.Dr_slicing.Slicer.crit_pos in
  Hashtbl.replace in_slice criterion.Dr_slicing.Slicer.crit_pos ();
  (match criterion.Dr_slicing.Slicer.crit_locs with
  | Some locs -> List.iter (fun l -> Hashtbl.replace wanted l ()) locs
  | None ->
    Array.iter (fun u -> Hashtbl.replace wanted u ()) crit.Dr_slicing.Trace.uses);
  if crit.Dr_slicing.Trace.cd >= 0 then
    Hashtbl.replace to_include
      (Dr_slicing.Global_trace.position gt ~gseq:crit.Dr_slicing.Trace.cd)
      ();
  for pos = criterion.Dr_slicing.Slicer.crit_pos - 1 downto 0 do
    let r = Dr_slicing.Global_trace.record gt pos in
    let inc = ref (Hashtbl.mem to_include pos) in
    Array.iter
      (fun d ->
        if Hashtbl.mem wanted d then begin
          inc := true;
          Hashtbl.remove wanted d
        end)
      r.Dr_slicing.Trace.defs;
    if !inc && not (Hashtbl.mem in_slice pos) then begin
      Hashtbl.replace in_slice pos ();
      Array.iter (fun u -> Hashtbl.replace wanted u ()) r.Dr_slicing.Trace.uses;
      if r.Dr_slicing.Trace.cd >= 0 then
        Hashtbl.replace to_include
          (Dr_slicing.Global_trace.position gt ~gseq:r.Dr_slicing.Trace.cd)
          ()
    end
  done;
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) in_slice [])

let prop_lp_equals_naive =
  QCheck.Test.make ~name:"LP slicing equals naive backwards traversal"
    ~count:15
    QCheck.(pair (int_bound 50) (int_bound 3))
    (fun (seed, block_exp) ->
      let prog = compile fig5_src in
      let pb =
        match
          Dr_pinplay.Logger.log
            ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
            prog Dr_pinplay.Logger.Whole
        with
        | Ok (pb, _) -> pb
        | Error _ -> Alcotest.fail "log failed"
      in
      let c = Dr_slicing.Collector.collect prog pb in
      let gt = Dr_slicing.Global_trace.construct c in
      let crit =
        { Dr_slicing.Slicer.crit_pos = Dr_slicing.Global_trace.length gt - 1;
          crit_locs = None }
      in
      (* tiny blocks stress the skipping logic *)
      let lp = Dr_slicing.Lp.prepare ~block_size:(8 lsl block_exp) gt in
      let reference = naive_slice gt crit in
      let scan = Dr_slicing.Slicer.compute ~lp ~driver:`Scan_skip gt crit in
      let fast = Dr_slicing.Slicer.compute ~lp gt crit in
      Array.to_list scan.Dr_slicing.Slicer.positions = reference
      && Array.to_list fast.Dr_slicing.Slicer.positions = reference)

let test_lp_skips_blocks () =
  (* a long irrelevant prefix must be skipped block-wise *)
  let src = {|global int g;
fn main() {
  for (int i = 0; i < 3000; i = i + 1) { g = g + 1; }
  int a = 5;
  int b = a + 1;
  assert(b == 6, "b");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let lp = Dr_slicing.Lp.prepare ~block_size:256 gt in
  let slice =
    Dr_slicing.Slicer.compute ~lp ~driver:`Scan_skip gt
      (assert_criterion prog gt)
  in
  Alcotest.(check bool) "blocks were skipped" true
    (slice.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks > 0);
  (* the loop must not be in the slice *)
  Alcotest.(check bool) "loop body not in slice" false
    (List.mem 3 (slice_lines prog slice))

(* ---- Figure 7: indirect-jump control-dependence precision ---- *)

(* Hand-written program mirroring the paper's assembly: a jump-table
   switch with no bounds check, so the only path from the scrutinee to
   the case body is the indirect jump itself.  The switch runs twice with
   different inputs so that dynamic refinement observes both targets
   (with a single observed target the jump is dynamically unconditional
   and carries no control dependence). *)
let fig7_prog () =
  let open Dr_isa.Instr in
  Dr_isa.Program.make ~name:"fig7" ~entry:0
    ~data:[ (16, 7); (17, 9) ]  (* jump table: case 0 -> pc 7, case 1 -> pc 9 *)
    ~data_end:18
    [ (* 0 *) Mov (5, Imm 2);           (* loop counter *)
      (* 1 *) Sys Read;                 (* c = fgetc(fin) *)
      (* 2 *) Mov (4, Imm 7);           (* d = 7 *)
      (* 3 *) Mov (1, Imm 16);          (* table base *)
      (* 4 *) Bin (Add, 1, 1, Reg 0);
      (* 5 *) Load (2, 1, 0);
      (* 6 *) Jind 2;                   (* switch(c) *)
      (* 7 *) Bin (Add, 3, 4, Imm 2);   (* case 0: w = d + 2 *)
      (* 8 *) Jmp 10;
      (* 9 *) Bin (Sub, 3, 4, Imm 2);   (* case 1: w = d - 2 *)
      (* 10 *) Mov (1, Reg 3);
      (* 11 *) Sys Print;
      (* 12 *) Bin (Sub, 5, 5, Imm 1);
      (* 13 *) Cmp (5, Imm 0);
      (* 14 *) Jcc (Gt, 1);
      (* 15 *) Halt ]

let fig7_slice ~refine =
  let prog = fig7_prog () in
  let pb = log_whole ~input:[| 0; 1 |] prog in
  let c = Dr_slicing.Collector.collect ~refine prog pb in
  let gt = Dr_slicing.Global_trace.construct c in
  (* criterion: first execution of w = d + 2 at pc 7 *)
  let n = Dr_slicing.Global_trace.length gt in
  let rec first pos =
    if pos >= n then Alcotest.fail "case body not executed"
    else
      let r = Dr_slicing.Global_trace.record gt pos in
      if r.Dr_slicing.Trace.tid = 0 && r.Dr_slicing.Trace.pc = 7
         && r.Dr_slicing.Trace.instance = 1
      then pos
      else first (pos + 1)
  in
  let pos = first 0 in
  let slice =
    Dr_slicing.Slicer.compute gt
      { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None }
  in
  List.map
    (fun (_, pc, _) -> pc)
    (Array.to_list (Dr_slicing.Slicer.statements slice))

let test_fig7_imprecise_without_refinement () =
  let pcs = fig7_slice ~refine:false in
  (* data dep on d is found, but the control dependence through the
     indirect jump is missed: the read() never enters the slice *)
  Alcotest.(check bool) "d=7 in slice" true (List.mem 2 pcs);
  Alcotest.(check bool) "switch jind missed" false (List.mem 6 pcs);
  Alcotest.(check bool) "c=read() missed" false (List.mem 1 pcs)

let test_fig7_precise_with_refinement () =
  let pcs = fig7_slice ~refine:true in
  Alcotest.(check bool) "d=7 in slice" true (List.mem 2 pcs);
  Alcotest.(check bool) "switch jind recovered" true (List.mem 6 pcs);
  Alcotest.(check bool) "table load recovered" true (List.mem 5 pcs);
  Alcotest.(check bool) "c=read() recovered" true (List.mem 1 pcs)

(* ---- Figure 8: save/restore spurious-dependence pruning ---- *)

let fig8_src = {|global int sink;
fn q(int v) {
  int local = v * 3;
  sink = local;
}
fn main() {
  int c = read();
  int e = 2;
  if (c > 0) {
    q(c);
  }
  int w = e + 5;
  assert(w == 7, "w");
}|}

let fig8_slice ~prune =
  let prog = compile fig8_src in
  let pb = log_whole ~input:[| 1 |] prog in
  let c = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct c in
  let pairs = if prune then Some c.Dr_slicing.Collector.pairs else None in
  let slice =
    Dr_slicing.Slicer.compute ?pairs gt (assert_criterion prog gt)
  in
  (prog, slice, c)

let test_fig8_unpruned_is_spurious () =
  let prog, slice, c = fig8_slice ~prune:false in
  let lines = slice_lines prog slice in
  (* e is held in a callee-saved register that q saves/restores; without
     pruning the slice follows the restore->save chain and drags in the
     call, the guard and the read *)
  Alcotest.(check bool) "pairs were confirmed" true
    (Hashtbl.length c.Dr_slicing.Collector.pairs > 0);
  Alcotest.(check bool) "guard dragged in (spurious)" true (List.mem 9 lines);
  Alcotest.(check bool) "c=read dragged in (spurious)" true (List.mem 7 lines)

let test_fig8_pruned_is_precise () =
  let prog, slice, _ = fig8_slice ~prune:true in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "e=2 still in slice" true (List.mem 8 lines);
  Alcotest.(check bool) "w=e+5 in slice" true (List.mem 12 lines);
  Alcotest.(check bool) "guard pruned" false (List.mem 9 lines);
  Alcotest.(check bool) "read pruned" false (List.mem 7 lines)

let test_fig8_pruned_subset () =
  let _, unpruned, _ = fig8_slice ~prune:false in
  let _, pruned, _ = fig8_slice ~prune:true in
  let u = Array.to_list unpruned.Dr_slicing.Slicer.positions in
  let p = Array.to_list pruned.Dr_slicing.Slicer.positions in
  Alcotest.(check bool) "pruned smaller" true (List.length p < List.length u);
  Alcotest.(check bool) "pruned subset of unpruned" true
    (List.for_all (fun x -> List.mem x u) p)

(* ---- slice files ---- *)

let test_slice_file_roundtrip () =
  let prog = compile fig5_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let path = Filename.temp_file "drdebug" ".slice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dr_slicing.Slicer.save_file prog path slice;
      let stmts = Dr_slicing.Slicer.load_file_statements path in
      Alcotest.(check int) "statement count preserved"
        (Dr_slicing.Slicer.size slice)
        (List.length stmts);
      let direct =
        Array.to_list (Dr_slicing.Slicer.statements slice)
        |> List.map (fun (t, p, i) -> (t, p, i))
      in
      let loaded = List.map (fun (t, p, i, _) -> (t, p, i)) stmts in
      Alcotest.(check bool) "statements preserved" true (direct = loaded))

let test_slice_file_rejects_bad_input () =
  let expect_error what contents =
    let path = Filename.temp_file "drdebug" ".slice" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        match Dr_slicing.Slicer.load_file_statements path with
        | _ -> Alcotest.failf "%s: bad slice file accepted" what
        | exception Dr_slicing.Slicer.Slice_file_error _ -> ())
  in
  expect_error "empty file" "";
  expect_error "missing header" "stmt 0 1 1 2\n";
  expect_error "wrong header" "# something else\nstmt 0 1 1 2\n";
  expect_error "non-numeric field" "# drdebug slice v1\nstmt 0 x 1 2\n";
  expect_error "wrong arity" "# drdebug slice v1\nstmt 0 1\n"

(* ---- slice file identity: saved slices pinned bit for bit ----

   CRC32 of the file [Slicer.save_file] writes, for the registry
   workloads, schedules and criteria of test_exeslice's slice-pinball
   goldens: the last trace record, the middle one and the one a fifth
   of the way in, under two seeded schedules.  The criterion, every
   statement with its source line, and every dependence edge are in the
   bytes, so any change to what a slice holds or to the lines it
   reports changes a CRC. *)

let golden_slice_file_specs =
  [ ("pbzip2", Dr_pinplay.Logger.Whole);
    ("fluidanimate", Dr_pinplay.Logger.Skip_length { skip = 300; length = 1500 });
    ("condvar", Dr_pinplay.Logger.Whole);
    ("ammp", Dr_pinplay.Logger.Whole) ]

let golden_slice_file_crcs =
  [ ("pbzip2",
     [ 0x43880766; 0xf3777a4d; 0x6beb2e49; 0x845ca504; 0xc76984f6; 0xf83726a2 ]);
    ("fluidanimate",
     [ 0xa7d232e2; 0xebb6e8c8; 0xd524eb01; 0xa7d232e2; 0x659c1ec7; 0x5139c7df ]);
    ("condvar",
     [ 0x67eaa098; 0xcb230482; 0x707b3008; 0x67eaa098; 0xcb230482; 0x707b3008 ]);
    ("ammp",
     [ 0x028dddab; 0x651731a8; 0xd5719a26; 0x028dddab; 0x651731a8; 0xd5719a26 ]) ]

let test_slice_file_golden () =
  List.iter
    (fun (name, expected) ->
      let e = Option.get (Dr_workloads.Registry.find name) in
      let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
      let spec = List.assoc name golden_slice_file_specs in
      let path = Filename.temp_file "drdebug" ".slice" in
      let got =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
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
                let gt =
                  Dr_slicing.Global_trace.construct
                    (Dr_slicing.Collector.collect prog pb)
                in
                let n = Dr_slicing.Global_trace.length gt in
                List.map
                  (fun crit_pos ->
                    let slice =
                      Dr_slicing.Slicer.compute gt
                        { Dr_slicing.Slicer.crit_pos; crit_locs = None }
                    in
                    Dr_slicing.Slicer.save_file prog path slice;
                    Dr_util.Crc32.string
                      (In_channel.with_open_bin path In_channel.input_all))
                  [ n - 1; n / 2; n / 5 ])
              [ 1; 2 ])
      in
      Alcotest.(check (list int)) (name ^ " slice file CRCs") expected got)
    golden_slice_file_crcs

(* ---- LP skip decisions pinned: the scan+skip driver's traversal ----

   [stats.visited] and [stats.skipped_blocks] of the [`Scan_skip]
   driver for the last load (the bench ablation's criterion), the last
   trace record and the middle one, at two block sizes, on three
   registry workloads and on the narrow-cone program of the bench's LP
   ablation (a long irrelevant prefix before a small relevant
   computation, here with a shorter prefix).  Every block the
   walk skips or enters shows up in these counts, so any change to
   which blocks LP lets the walk skip changes them. *)

let narrow_cone_src = {|global int g;
global int noise;
fn main() {
  for (int i = 0; i < 4000; i = i + 1) {
    noise = noise + i;
  }
  int a = 5;
  int b = a * 2;
  g = b + 1;
  print(g);
}|}

(* (program, [(block size, [(visited, skipped_blocks) per criterion])]) *)
let golden_skip_counts =
  [ ("pbzip2",
     [ (64, [ (4518, 78); (4525, 78); (1879, 45) ]);
       (512, [ (9510, 0); (9517, 0); (4247, 1) ]) ]);
    ("streamcluster",
     [ (64, [ (15414, 19); (0, 261); (1219, 111) ]);
       (512, [ (16118, 1); (0, 33); (4227, 8) ]) ]);
    ("ammp",
     [ (64, [ (3704, 116); (0, 175); (409, 81) ]);
       (512, [ (6008, 10); (0, 22); (1497, 8) ]) ]);
    ("narrow-cone",
     [ (64, [ (34, 1625); (0, 1626); (52022, 0) ]);
       (512, [ (98, 203); (0, 204); (52022, 0) ]) ]) ]

let test_skip_counts_golden () =
  List.iter
    (fun (name, expected) ->
      let prog =
        if name = "narrow-cone" then compile narrow_cone_src
        else
          let e = Option.get (Dr_workloads.Registry.find name) in
          e.Dr_workloads.Registry.compile ~threads:3 ~iters:6
      in
      let pb =
        match
          Dr_pinplay.Logger.log
            ~policy:(Dr_machine.Driver.Seeded { seed = 1; max_quantum = 8 })
            prog Dr_pinplay.Logger.Whole
        with
        | Ok (pb, _) -> pb
        | Error err ->
          Alcotest.failf "%s: %a" name Dr_pinplay.Logger.pp_error err
      in
      let gt =
        Dr_slicing.Global_trace.construct (Dr_slicing.Collector.collect prog pb)
      in
      let n = Dr_slicing.Global_trace.length gt in
      let last_load =
        Option.get
          (Dr_slicing.Global_trace.find_last gt ~p:(fun r ->
               match prog.Dr_isa.Program.code.(r.Dr_slicing.Trace.pc) with
               | Dr_isa.Instr.Load _ -> true
               | _ -> false))
      in
      let got =
        List.map
          (fun block_size ->
            let lp = Dr_slicing.Lp.prepare ~block_size gt in
            ( block_size,
              List.map
                (fun crit_pos ->
                  let st =
                    (Dr_slicing.Slicer.compute ~lp ~driver:`Scan_skip gt
                       { Dr_slicing.Slicer.crit_pos; crit_locs = None })
                      .Dr_slicing.Slicer.stats
                  in
                  ( st.Dr_slicing.Slicer.visited,
                    st.Dr_slicing.Slicer.skipped_blocks ))
                [ last_load; n - 1; n / 2 ] ))
          [ 64; 512 ]
      in
      Alcotest.(check (list (pair int (list (pair int int)))))
        (name ^ " scan+skip visited/skipped") expected got)
    golden_skip_counts

(* ---- dependence navigation ---- *)

let test_edge_navigation () =
  let src = {|fn main() {
  int a = 1;
  int b = a + 1;
  assert(b == 2, "b");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let crit = assert_criterion prog gt in
  let slice = Dr_slicing.Slicer.compute gt crit in
  (* the criterion must have at least one outgoing dependence edge, and
     following edges backwards must stay within the slice *)
  let deps = Dr_slicing.Slicer.deps_of slice crit.Dr_slicing.Slicer.crit_pos in
  Alcotest.(check bool) "criterion has deps" true (deps <> []);
  List.iter
    (fun (_, target) ->
      Alcotest.(check bool) "dep target in slice" true
        (Dr_slicing.Slicer.mem slice target))
    deps

(* ---- additional slicing coverage ---- *)

let test_crit_locs_narrow () =
  (* slicing for a specific location chases only that location *)
  let src = {|global int p;
global int q;
fn main() {
  p = 11;
  q = 22;
  int both = p + q;
  assert(both == 0, "x");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let crit_pos = (assert_criterion prog gt).Dr_slicing.Slicer.crit_pos in
  let p_addr =
    match
      List.find_opt (fun (n, _, _) -> n = "p")
        prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals
    with
    | Some (_, a, _) -> a
    | None -> Alcotest.fail "no p"
  in
  let slice =
    Dr_slicing.Slicer.compute gt
      { Dr_slicing.Slicer.crit_pos; crit_locs = Some [ Dr_isa.Loc.mem p_addr ] }
  in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "p=11 in slice" true (List.mem 4 lines);
  Alcotest.(check bool) "q=22 NOT in slice" false (List.mem 5 lines)

let test_deps_uses_symmetry () =
  let prog = compile {|fn main() {
  int a = 1;
  int b = a + 2;
  assert(b == 0, "b");
}|} in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  (* every recorded edge appears in both directions of navigation *)
  Array.iter
    (fun (e : Dr_slicing.Slicer.edge) ->
      let fwd = Dr_slicing.Slicer.deps_of slice e.Dr_slicing.Slicer.from_pos in
      let bwd = Dr_slicing.Slicer.uses_of slice e.Dr_slicing.Slicer.to_pos in
      Alcotest.(check bool) "forward direction" true
        (List.exists (fun (_, p) -> p = e.Dr_slicing.Slicer.to_pos) fwd);
      Alcotest.(check bool) "backward direction" true
        (List.exists (fun (_, p) -> p = e.Dr_slicing.Slicer.from_pos) bwd))
    slice.Dr_slicing.Slicer.edges

let test_recursion_control_deps () =
  (* the Xin–Zhang frame rule: statements in a recursive callee are
     control dependent on the guard of the recursive call *)
  let src = {|global int acc;
fn down(int n) {
  if (n > 0) {
    acc = acc + n;
    down(n - 1);
  }
  return 0;
}
fn main() {
  int r = read();
  down(r);
  assert(acc == 0, "acc");
}|} in
  let prog = compile src in
  let c = collect ~input:[| 3 |] prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "recursive accumulation in slice" true (List.mem 4 lines);
  Alcotest.(check bool) "guard in slice" true (List.mem 3 lines);
  Alcotest.(check bool) "read in slice" true (List.mem 10 lines)

let test_slice_of_nondet_value () =
  (* rand() results reach the criterion through the slice *)
  let src = {|fn main() {
  int r = rand();
  int masked = r & 7;
  assert(masked == 99, "masked");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let lines = slice_lines prog slice in
  Alcotest.(check bool) "rand in slice" true (List.mem 2 lines)

let prop_block_size_irrelevant =
  QCheck.Test.make ~name:"slice independent of LP block size" ~count:10
    QCheck.(int_range 0 6)
    (fun exp ->
      let prog = compile fig5_src in
      let c = collect prog in
      let gt = Dr_slicing.Global_trace.construct c in
      let crit = assert_criterion prog gt in
      let s1 =
        Dr_slicing.Slicer.compute
          ~lp:(Dr_slicing.Lp.prepare ~block_size:(1 lsl exp) gt)
          ~driver:`Scan_skip gt crit
      in
      let s2 = Dr_slicing.Slicer.compute gt crit in
      s1.Dr_slicing.Slicer.positions = s2.Dr_slicing.Slicer.positions)

let test_last_print_pos () =
  let pos_of src =
    let prog = compile src in
    let gt = Dr_slicing.Global_trace.construct (collect prog) in
    (prog, gt, Dr_slicing.Global_trace.last_print_pos prog gt)
  in
  let prog, gt, p =
    pos_of {|fn main() {
  int a = 1;
  print(a);
  print(a + 1);
  int b = a * 3;
  assert(b == 3, "b");
}|}
  in
  let instr pos =
    let r = Dr_slicing.Global_trace.record gt pos in
    prog.Dr_isa.Program.code.(r.Dr_slicing.Trace.pc)
  in
  Alcotest.(check bool) "lands on a print" true
    (instr p = Dr_isa.Instr.Sys Dr_isa.Instr.Print);
  for q = p + 1 to Dr_slicing.Global_trace.length gt - 1 do
    if instr q = Dr_isa.Instr.Sys Dr_isa.Instr.Print then
      Alcotest.failf "print at %d after position %d" q p
  done;
  let _, gt, p = pos_of {|fn main() {
  int a = 2;
  assert(a == 2, "a");
}|} in
  Alcotest.(check int) "no print: the last record"
    (Dr_slicing.Global_trace.length gt - 1) p

let test_slice_stats_sane () =
  let prog = compile fig5_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let st = slice.Dr_slicing.Slicer.stats in
  Alcotest.(check bool) "visited bounded by trace" true
    (st.Dr_slicing.Slicer.visited <= Dr_slicing.Global_trace.length gt);
  Alcotest.(check bool) "slice smaller than visited+1" true
    (Dr_slicing.Slicer.size slice <= st.Dr_slicing.Slicer.visited + 1);
  Alcotest.(check bool) "time nonneg" true (st.Dr_slicing.Slicer.slice_time >= 0.0)

(* a traced slice names the driver that ran in its [slicer.compute]
   span, so traces of the four drivers are told apart *)
let test_span_names_driver () =
  let prog = compile fig5_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let crit = assert_criterion prog gt in
  let was_enabled = Dr_obs.Obs.enabled () in
  List.iter
    (fun (driver, name) ->
      Dr_obs.Obs.reset ();
      Dr_obs.Obs.set_enabled true;
      ignore (Dr_slicing.Slicer.compute ~driver gt crit);
      Dr_obs.Obs.set_enabled was_enabled;
      let attrs =
        Array.to_list (Dr_obs.Obs.spans ())
        |> List.filter (fun s -> s.Dr_obs.Obs.sp_name = "slicer.compute")
        |> List.map (fun s -> List.assoc_opt "driver" s.Dr_obs.Obs.sp_attrs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "one slicer.compute span with driver = %S" name)
        true
        (attrs = [ Some (Dr_obs.Obs.Str name) ]))
    [ (`Indexed, "indexed"); (`Scan_skip, "scan+skip"); (`Scan, "scan") ];
  Dr_obs.Obs.reset ()

let test_no_clustering_same_slice () =
  (* the clustering heuristic must not change slice contents *)
  let prog = compile fig5_src in
  let c = collect prog in
  let gt1 = Dr_slicing.Global_trace.construct ~cluster:true c in
  let gt2 = Dr_slicing.Global_trace.construct ~cluster:false c in
  Alcotest.(check bool) "both topological" true
    (Dr_slicing.Global_trace.is_topological gt1 c
    && Dr_slicing.Global_trace.is_topological gt2 c);
  let stmts gt =
    let crit = assert_criterion prog gt in
    let s = Dr_slicing.Slicer.compute gt crit in
    List.sort compare (Array.to_list (Dr_slicing.Slicer.statements s))
  in
  Alcotest.(check bool) "same statements either way" true (stmts gt1 = stmts gt2)

(* ---- indexed fast path, def index, and fixed skip logic ---- *)

let check_drivers_agree ?pairs ~lp gt crit =
  let compute driver = Dr_slicing.Slicer.compute ~lp ?pairs ~driver gt crit in
  let fast = compute `Indexed in
  let skip = compute `Scan_skip in
  let noskip = compute `Scan in
  Alcotest.(check bool) "skip/noskip positions identical" true
    (skip.Dr_slicing.Slicer.positions = noskip.Dr_slicing.Slicer.positions);
  Alcotest.(check bool) "indexed positions identical" true
    (fast.Dr_slicing.Slicer.positions = skip.Dr_slicing.Slicer.positions);
  Alcotest.(check bool) "skip/noskip edges identical" true
    (Dr_slicing.Slicer.equal skip noskip);
  Alcotest.(check bool) "indexed edges identical" true
    (Dr_slicing.Slicer.equal fast skip);
  (fast, skip, noskip)

let test_final_partial_block_criterion () =
  (* criterion inside the trace's final, partial LP block: the clamped
     block top must still allow skipping the irrelevant prefix, and all
     drivers must agree *)
  let src = {|global int g;
fn main() {
  for (int i = 0; i < 800; i = i + 1) { g = g + 1; }
  int a = 5;
  int b = a + 1;
  assert(b == 6, "b");
}|} in
  let prog = compile src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let n = Dr_slicing.Global_trace.length gt in
  (* a block size that does NOT divide the trace length, so the last
     block is partial and its nominal range end exceeds n-1 *)
  let block_size = (n / 7) + 3 in
  let lp = Dr_slicing.Lp.prepare ~block_size gt in
  let crit = assert_criterion prog gt in
  Alcotest.(check bool) "criterion is in the final block" true
    (Dr_slicing.Lp.block_of lp crit.Dr_slicing.Slicer.crit_pos
    = lp.Dr_slicing.Lp.num_blocks - 1);
  Alcotest.(check bool) "final block is partial" true
    (snd (Dr_slicing.Lp.block_range lp (lp.Dr_slicing.Lp.num_blocks - 1)) > n - 1);
  let _, skip, _ = check_drivers_agree ~lp gt crit in
  Alcotest.(check bool) "irrelevant prefix blocks skipped" true
    (skip.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.skipped_blocks > 0)

let test_deferred_bypass_in_skippable_block () =
  (* fig8 variant with a long irrelevant pad loop between the real def
     of e and the save/restore pair: the deferred want's save sits past
     blocks that are skippable for every ordinary want, so the skip
     test's deferred clause and the indexed driver's deferral candidate
     are both exercised *)
  let src = {|global int sink;
fn q(int v) {
  int local = v * 3;
  sink = local;
}
fn main() {
  int c = read();
  int e = 2;
  int pad = 0;
  for (int i = 0; i < 300; i = i + 1) { pad = pad + 1; }
  if (c > 0) {
    q(c);
  }
  int w = e + 5;
  assert(w == 7, "w");
}|} in
  let prog = compile src in
  let pb = log_whole ~input:[| 1 |] prog in
  let c = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct c in
  Alcotest.(check bool) "save/restore pairs confirmed" true
    (Hashtbl.length c.Dr_slicing.Collector.pairs > 0);
  let lp = Dr_slicing.Lp.prepare ~block_size:64 gt in
  let crit = assert_criterion prog gt in
  let fast, _, _ =
    check_drivers_agree ~pairs:c.Dr_slicing.Collector.pairs ~lp gt crit
  in
  let lines = slice_lines prog fast in
  Alcotest.(check bool) "e=2 still in slice (past the bypass)" true
    (List.mem 8 lines);
  Alcotest.(check bool) "guard pruned" false (List.mem 11 lines);
  Alcotest.(check bool) "read pruned" false (List.mem 7 lines);
  Alcotest.(check bool) "pad loop not in slice" false (List.mem 10 lines)

let prop_drivers_agree_on_generated =
  QCheck.Test.make
    ~name:"indexed/scan-skip/scan-noskip identical on generated workloads"
    ~count:12
    QCheck.(pair (int_bound 1000) (int_range 3 8))
    (fun (seed, block_exp) ->
      let src = Dr_lang.Gen.program seed in
      let prog =
        match Dr_lang.Codegen.compile_result ~name:"gen" src with
        | Ok p -> p
        | Error e -> Alcotest.failf "gen program failed to compile: %s" e
      in
      let pb =
        match
          Dr_pinplay.Logger.log
            ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
            prog Dr_pinplay.Logger.Whole
        with
        | Ok (pb, _) -> pb
        | Error _ -> Alcotest.fail "log failed"
      in
      let c = Dr_slicing.Collector.collect prog pb in
      let gt = Dr_slicing.Global_trace.construct c in
      let lp = Dr_slicing.Lp.prepare ~block_size:(1 lsl block_exp) gt in
      let crit =
        { Dr_slicing.Slicer.crit_pos = Dr_slicing.Global_trace.length gt - 1;
          crit_locs = None }
      in
      let compute driver =
        Dr_slicing.Slicer.compute ~lp ~pairs:c.Dr_slicing.Collector.pairs
          ~driver gt crit
      in
      let fast = compute `Indexed in
      let skip = compute `Scan_skip in
      let noskip = compute `Scan in
      Dr_slicing.Slicer.equal fast skip && Dr_slicing.Slicer.equal skip noskip)

let test_def_index () =
  let prog = compile fig5_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let idx = Dr_slicing.Def_index.build gt in
  let n = Dr_slicing.Global_trace.length gt in
  Alcotest.(check int) "trace_len" n (Dr_slicing.Def_index.trace_len idx);
  Alcotest.(check bool) "has locations" true
    (Dr_slicing.Def_index.num_locations idx > 0);
  (* every per-location array is strictly ascending and its entries
     really define the location *)
  Dr_slicing.Def_index.iter idx (fun loc a ->
      Array.iteri
        (fun i p ->
          if i > 0 then
            Alcotest.(check bool) "ascending" true (a.(i - 1) < p);
          let r = Dr_slicing.Global_trace.record gt p in
          Alcotest.(check bool) "position defines loc" true
            (Array.mem loc r.Dr_slicing.Trace.defs))
        a);
  (* binary search agrees with a linear reference on every (loc, pos) *)
  let linear_latest loc pos =
    let best = ref (-1) in
    for p = 0 to pos do
      let r = Dr_slicing.Global_trace.record gt p in
      if Array.mem loc r.Dr_slicing.Trace.defs then best := p
    done;
    !best
  in
  let some_locs = ref [] in
  Dr_slicing.Def_index.iter idx (fun loc _ ->
      if List.length !some_locs < 8 then some_locs := loc :: !some_locs);
  List.iter
    (fun loc ->
      List.iter
        (fun pos ->
          Alcotest.(check int)
            (Printf.sprintf "latest_at_or_before loc=%d pos=%d" loc pos)
            (linear_latest loc pos)
            (Dr_slicing.Def_index.latest_at_or_before idx ~loc ~pos))
        [ 0; 1; n / 2; n - 1 ])
    !some_locs;
  Alcotest.(check int) "unknown loc" (-1)
    (Dr_slicing.Def_index.latest_at_or_before idx ~loc:max_int ~pos:(n - 1))

(* ---- prune.ml unit tests: static candidates and dynamic confirmation
   driven by hand, without the collector in the loop ---- *)

(* a program whose helper has real prologue pushes / epilogue pops *)
let prune_src = {|global int sink;
fn helper(int v) {
  int a = v + 1;
  sink = a;
}
fn main() {
  int keep = 5;
  helper(2);
  assert(keep == 5, "keep");
}|}

let test_prune_static_candidates () =
  let prog = compile prune_src in
  let cfg = Dr_cfg.Cfg.build prog in
  let cands =
    Dr_slicing.Prune.static_candidates prog
      ~functions:(Dr_cfg.Cfg.functions cfg)
  in
  Alcotest.(check bool) "found candidate saves" true
    (Hashtbl.length cands.Dr_slicing.Prune.saves > 0);
  Alcotest.(check bool) "found candidate restores" true
    (Hashtbl.length cands.Dr_slicing.Prune.restores > 0);
  (* every candidate save pc is a Push, every restore pc a Pop *)
  Hashtbl.iter
    (fun pc r ->
      match prog.Dr_isa.Program.code.(pc) with
      | Dr_isa.Instr.Push r' -> Alcotest.(check bool) "push reg" true (r = r')
      | i ->
        Alcotest.failf "candidate save pc %d is %s, not a push" pc
          (Format.asprintf "%a" Dr_isa.Instr.pp i))
    cands.Dr_slicing.Prune.saves;
  Hashtbl.iter
    (fun pc r ->
      match prog.Dr_isa.Program.code.(pc) with
      | Dr_isa.Instr.Pop r' -> Alcotest.(check bool) "pop reg" true (r = r')
      | i ->
        Alcotest.failf "candidate restore pc %d is %s, not a pop" pc
          (Format.asprintf "%a" Dr_isa.Instr.pp i))
    cands.Dr_slicing.Prune.restores;
  (* max_save 0 disables the scan entirely *)
  let none =
    Dr_slicing.Prune.static_candidates ~max_save:0 prog
      ~functions:(Dr_cfg.Cfg.functions cfg)
  in
  Alcotest.(check int) "max_save 0: no saves" 0
    (Hashtbl.length none.Dr_slicing.Prune.saves)

(* hand-driven dynamic confirmation: a push/pop of the same register,
   slot and value across one call confirms a pair *)
let hand_state () =
  let prog = compile prune_src in
  let cfg = Dr_cfg.Cfg.build prog in
  Dr_slicing.Prune.create_state
    (Dr_slicing.Prune.static_candidates prog
       ~functions:(Dr_cfg.Cfg.functions cfg))

let test_prune_confirms_matching_pair () =
  let st = hand_state () in
  let reg = 3 in
  Dr_slicing.Prune.on_call st 0;
  Dr_slicing.Prune.on_save st ~tid:0 ~pc:10 ~reg ~addr:100 ~value:42 ~gseq:5;
  Dr_slicing.Prune.on_restore st ~tid:0 ~pc:20 ~reg ~addr:100 ~value:42 ~gseq:9;
  Dr_slicing.Prune.on_ret st 0;
  Alcotest.(check (option int)) "restore at gseq 9 bypasses to save gseq 5"
    (Some 5)
    (Dr_slicing.Prune.bypass st.Dr_slicing.Prune.pairs ~gseq:9 ~reg)

let test_prune_partial_restore_not_confirmed () =
  let st = hand_state () in
  let reg = 3 in
  (* the pop reads a DIFFERENT value than the push wrote (the callee
     clobbered the slot): the pair must NOT be confirmed — bypassing it
     would skip a real definition *)
  Dr_slicing.Prune.on_call st 0;
  Dr_slicing.Prune.on_save st ~tid:0 ~pc:10 ~reg ~addr:100 ~value:42 ~gseq:5;
  Dr_slicing.Prune.on_restore st ~tid:0 ~pc:20 ~reg ~addr:100 ~value:41 ~gseq:9;
  Alcotest.(check (option int)) "value mismatch: unconfirmed" None
    (Dr_slicing.Prune.bypass st.Dr_slicing.Prune.pairs ~gseq:9 ~reg);
  (* different slot, same value: also unconfirmed *)
  Dr_slicing.Prune.on_restore st ~tid:0 ~pc:20 ~reg ~addr:101 ~value:42 ~gseq:11;
  Alcotest.(check (option int)) "slot mismatch: unconfirmed" None
    (Dr_slicing.Prune.bypass st.Dr_slicing.Prune.pairs ~gseq:11 ~reg);
  (* saves of an inner frame are invisible after its ret *)
  Dr_slicing.Prune.on_call st 0;
  Dr_slicing.Prune.on_save st ~tid:0 ~pc:10 ~reg ~addr:200 ~value:7 ~gseq:15;
  Dr_slicing.Prune.on_ret st 0;
  Dr_slicing.Prune.on_restore st ~tid:0 ~pc:20 ~reg ~addr:200 ~value:7 ~gseq:19;
  Alcotest.(check (option int)) "popped frame: unconfirmed" None
    (Dr_slicing.Prune.bypass st.Dr_slicing.Prune.pairs ~gseq:19 ~reg)

let test_prune_bypass_wrong_reg () =
  let st = hand_state () in
  Dr_slicing.Prune.on_call st 0;
  Dr_slicing.Prune.on_save st ~tid:0 ~pc:10 ~reg:3 ~addr:100 ~value:42 ~gseq:5;
  Dr_slicing.Prune.on_restore st ~tid:0 ~pc:20 ~reg:3 ~addr:100 ~value:42 ~gseq:9;
  (* a confirmed pair only bypasses lookups for its own register *)
  Alcotest.(check (option int)) "other register: no bypass" None
    (Dr_slicing.Prune.bypass st.Dr_slicing.Prune.pairs ~gseq:9 ~reg:4)

let test_prune_frame_glue () =
  Alcotest.(check bool) "mov fp, sp is glue" true
    (Dr_isa.Frame.is_frame_glue
       (Dr_isa.Instr.Mov (Dr_isa.Reg.fp, Dr_isa.Instr.Reg Dr_isa.Reg.sp)));
  Alcotest.(check bool) "sub sp, sp, 4 is glue" true
    (Dr_isa.Frame.is_frame_glue
       (Dr_isa.Instr.Bin
          (Dr_isa.Instr.Sub, Dr_isa.Reg.sp, Dr_isa.Reg.sp, Dr_isa.Instr.Imm 4)));
  Alcotest.(check bool) "ordinary add is not glue" false
    (Dr_isa.Frame.is_frame_glue
       (Dr_isa.Instr.Bin (Dr_isa.Instr.Add, 2, 3, Dr_isa.Instr.Imm 1)))

(* ---- resource governance: segments, budgets, degradation ---- *)

let spill_budget () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drdebug-test-spill-%d" (Unix.getpid ()))
  in
  Dr_util.Budget.create ~mem_bytes:0 ~spill_dir:dir ()

let loop_src = {|fn main() {
  int n = 40;
  int sum = 0;
  for (int i = 0; i < n; i = i + 1) {
    sum = sum + 2;
  }
  assert(sum == 80, "sum");
}|}

let test_segment_spill_roundtrip () =
  let prog = compile loop_src in
  let c = collect prog in
  let budget = spill_budget () in
  Fun.protect ~finally:(fun () -> Dr_util.Budget.cleanup_spill budget)
  @@ fun () ->
  let store =
    Dr_slicing.Segment_store.rebuild ~budget ~seg_records:32 ~cache_segments:2
      c.Dr_slicing.Collector.records
  in
  let n = Dr_slicing.Segment_store.length store in
  Alcotest.(check int) "same length" n
    (Dr_slicing.Segment_store.length c.Dr_slicing.Collector.records);
  Alcotest.(check bool) "actually spilled" true
    (Dr_slicing.Segment_store.spilled_segments store > 0);
  Alcotest.(check bool) "no longer resident" false
    (Dr_slicing.Segment_store.is_resident store);
  (* every record reads back byte-identical, in both scan orders (the
     LRU cache sees hits and misses) *)
  for i = 0 to n - 1 do
    let a = Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records i in
    let b = Dr_slicing.Segment_store.get store i in
    if a <> b then Alcotest.failf "record %d differs after spill" i
  done;
  for i = n - 1 downto 0 do
    let a = Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records i in
    let b = Dr_slicing.Segment_store.get store i in
    if a <> b then Alcotest.failf "record %d differs on reverse scan" i
  done;
  (* a miss inserts before it evicts, so the cache never holds more than
     cache_segments + 1 segments' record bytes *)
  let largest = ref 0 in
  for s = 0 to (n - 1) / 32 do
    let bytes = ref 0 in
    for i = s * 32 to min n ((s + 1) * 32) - 1 do
      bytes :=
        !bytes
        + Dr_slicing.Segment_store.record_bytes c.Dr_slicing.Collector.records i
    done;
    largest := max !largest !bytes
  done;
  let cs = Dr_slicing.Segment_store.cache_stats store in
  Alcotest.(check bool) "peak cached bytes within 3 segments" true
    (cs.Dr_slicing.Segment_store.cs_peak_bytes > 0
    && cs.Dr_slicing.Segment_store.cs_peak_bytes <= 3 * !largest);
  (* and the whole pipeline on the spilled store yields the same slice *)
  let gt = Dr_slicing.Global_trace.construct c in
  let clean = Dr_slicing.Slicer.compute gt (assert_criterion prog gt) in
  let gt' =
    Dr_slicing.Global_trace.construct
      { c with Dr_slicing.Collector.records = store }
  in
  let spilled = Dr_slicing.Slicer.compute gt' (assert_criterion prog gt') in
  Alcotest.(check bool) "identical slice positions" true
    (clean.Dr_slicing.Slicer.positions = spilled.Dr_slicing.Slicer.positions)

(* A sealed in-memory store is its chunks plus a constant: the
   builder's working buffers must not stay reachable. *)
let test_sealed_store_flat_only () =
  let c = collect (compile loop_src) in
  let store = c.Dr_slicing.Collector.records in
  let n = Dr_slicing.Segment_store.length store in
  match Dr_slicing.Segment_store.as_flat store with
  | None -> Alcotest.fail "collected store is not resident"
  | Some flat ->
    let extra =
      Obj.reachable_words (Obj.repr store) - Obj.reachable_words (Obj.repr flat)
    in
    if extra >= n / 2 then
      Alcotest.failf "store holds %d words beyond the chunks of its %d records"
        extra n

let test_segment_corrupt_detected () =
  let prog = compile loop_src in
  let c = collect prog in
  let budget = spill_budget () in
  Fun.protect ~finally:(fun () -> Dr_util.Budget.cleanup_spill budget)
  @@ fun () ->
  let store =
    Dr_slicing.Segment_store.rebuild ~budget ~seg_records:32 ~cache_segments:1
      c.Dr_slicing.Collector.records
  in
  let paths = Dr_slicing.Segment_store.spilled_paths store in
  Alcotest.(check bool) "have spilled paths" true (paths <> []);
  let _, victim = List.nth paths (List.length paths - 1) in
  (* flip one bit in the middle of the last segment *)
  let ic = open_in_bin victim in
  let len = in_channel_length ic in
  let buf = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string buf in
  Bytes.set b (len / 2) (Char.chr (Char.code (Bytes.get b (len / 2)) lxor 1));
  let oc = open_out_bin victim in
  output_bytes oc b;
  close_out oc;
  (* reading every record must surface Segment_corrupt, never garbage *)
  (match
     for i = 0 to Dr_slicing.Segment_store.length store - 1 do
       ignore (Dr_slicing.Segment_store.get store i)
     done
   with
  | () -> Alcotest.fail "bit flip went undetected"
  | exception Dr_util.Budget.Resource_error (Dr_util.Budget.Segment_corrupt _)
    -> ());
  (* the decoder is total: every truncation and 256 seeded bit flips of
     the intact segment raise Segment_corrupt and nothing else *)
  let index, _ = List.nth paths (List.length paths - 1) in
  let base = index * 32 in
  let count = Dr_slicing.Segment_store.length store - base in
  let decode raw =
    Dr_slicing.Segment_store.decode_segment ~path:victim ~base
      ~expected_count:count raw
  in
  let rejects what raw =
    match decode raw with
    | _ -> Alcotest.failf "%s decoded" what
    | exception Dr_util.Budget.Resource_error (Dr_util.Budget.Segment_corrupt _)
      -> ()
    | exception e ->
      Alcotest.failf "%s raised %s, not Segment_corrupt" what
        (Printexc.to_string e)
  in
  let rows = Dr_slicing.Segment_store.Chunk.records (decode buf) in
  Alcotest.(check bool) "intact segment decodes to the collected rows" true
    (rows
    = Array.init count (fun j ->
          Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records (base + j)));
  for k = 0 to len - 1 do
    rejects (Printf.sprintf "truncation to %d bytes" k) (String.sub buf 0 k)
  done;
  let rng = Random.State.make [| 0xd5e9 |] in
  for _ = 1 to 256 do
    let bit = Random.State.int rng (8 * len) in
    let b = Bytes.of_string buf in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    rejects (Printf.sprintf "flip of bit %d" bit) (Bytes.to_string b)
  done
  ;
  (* payloads that pass the CRC but not the structural checks *)
  let reseal payload =
    let t = Bytes.create 4 in
    Bytes.set_int32_le t 0 (Int32.of_int (Dr_util.Crc32.string payload));
    payload ^ Bytes.to_string t
  in
  let header ~m =
    let e = Dr_util.Codec.encoder () in
    Buffer.add_string e Dr_slicing.Segment_store.magic;
    Dr_util.Codec.put_uint e count;
    Dr_util.Codec.put_bits e m;
    Dr_util.Codec.to_string e
  in
  let m = (decode buf).Dr_slicing.Segment_store.Chunk.nlocs in
  let hlen = String.length (header ~m) in
  let body = String.sub buf hlen (len - 4 - hlen) in
  Alcotest.(check bool) "re-sealed intact payload decodes" true
    (Dr_slicing.Segment_store.Chunk.records (decode (reseal (header ~m ^ body)))
    = rows);
  rejects "negative pool length" (reseal (header ~m:(-4) ^ body));
  rejects "pool one location short" (reseal (header ~m:(m + 1) ^ body));
  (* offset cell 1 follows the five scalar columns and offset cell 0 *)
  let off1 = 4 * ((5 * count) + 1) in
  let forged = Bytes.of_string body in
  Bytes.set_int32_le forged off1 (Int32.of_int (m + 1));
  rejects "offset past the pool" (reseal (header ~m ^ Bytes.to_string forged))

(* The budget owns its spill files: cleanup removes every segment file
   its stores wrote and the directories it created, but never a
   directory that was there before, nor a file it did not write. *)
let test_cleanup_spill_ownership () =
  let prog = compile loop_src in
  let c = collect prog in
  let spill_into dir =
    let budget = Dr_util.Budget.create ~mem_bytes:0 ~spill_dir:dir () in
    let store =
      Dr_slicing.Segment_store.rebuild ~budget ~seg_records:32
        c.Dr_slicing.Collector.records
    in
    let paths = List.map snd (Dr_slicing.Segment_store.spilled_paths store) in
    Alcotest.(check bool) "spilled" true (paths <> []);
    Dr_util.Budget.cleanup_spill budget;
    paths
  in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drdebug-test-owner-%d" (Unix.getpid ()))
  in
  (* a fresh nested directory: created by the budget, so removed *)
  let fresh = Filename.concat base "spill" in
  let paths = spill_into fresh in
  Alcotest.(check bool) "segment files removed" false
    (List.exists Sys.file_exists paths);
  Alcotest.(check bool) "created directories removed" false
    (Sys.file_exists base);
  (* a directory that already exists, holding a file of its own *)
  Unix.mkdir base 0o755;
  let own = Filename.concat base "keep.txt" in
  Out_channel.with_open_bin own (fun oc -> output_string oc "mine");
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove own with Sys_error _ -> ());
      try Unix.rmdir base with Unix.Unix_error _ -> ())
  @@ fun () ->
  let paths = spill_into base in
  Alcotest.(check bool) "segment files removed" false
    (List.exists Sys.file_exists paths);
  Alcotest.(check bool) "existing directory kept" true (Sys.is_directory base);
  Alcotest.(check bool) "foreign file kept" true (Sys.file_exists own)

(* One trace in three store shapes — the collector's resident chunks, a
   rebuild spilled in 32-record segments, and Reexec's re-derived
   windows — reads back field-identical at every gseq, with the same
   budget bytes, which are the row's cells in the columns and the pool. *)
let test_store_shapes_agree () =
  List.iter
    (fun name ->
      let e = Option.get (Dr_workloads.Registry.find name) in
      let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
      let pb = log_whole prog in
      let c = Dr_slicing.Collector.collect prog pb in
      let flat = c.Dr_slicing.Collector.records in
      let budget = spill_budget () in
      Fun.protect ~finally:(fun () -> Dr_util.Budget.cleanup_spill budget)
      @@ fun () ->
      let spilled =
        Dr_slicing.Segment_store.rebuild ~budget ~seg_records:32
          ~cache_segments:2 flat
      in
      let rx =
        Dr_slicing.Reexec.create ~ckpt_interval:100 ~cache_windows:2
          ~cfg:c.Dr_slicing.Collector.cfg prog pb
      in
      let derived = Dr_slicing.Reexec.store rx in
      Alcotest.(check bool) (name ^ ": resident") true
        (Dr_slicing.Segment_store.is_resident flat);
      Alcotest.(check bool) (name ^ ": spilled") true
        (Dr_slicing.Segment_store.spilled_segments spilled > 0);
      let n = Dr_slicing.Segment_store.length flat in
      Alcotest.(check (list int)) (name ^ ": lengths") [ n; n ]
        (List.map Dr_slicing.Segment_store.length [ spilled; derived ]);
      for g = 0 to n - 1 do
        let r = Dr_slicing.Segment_store.get flat g in
        let bytes = Dr_slicing.Segment_store.record_bytes flat g in
        if bytes <> 4 * (7 + Array.length r.Dr_slicing.Trace.defs
                         + Array.length r.Dr_slicing.Trace.uses)
        then Alcotest.failf "%s: record %d: %d budget bytes" name g bytes;
        List.iter
          (fun (shape, store) ->
            if Dr_slicing.Segment_store.get store g <> r then
              Alcotest.failf "%s: record %d differs in the %s store" name g shape;
            if Dr_slicing.Segment_store.record_bytes store g <> bytes then
              Alcotest.failf "%s: record %d: budget bytes differ in the %s store"
                name g shape)
          [ ("spilled", spilled); ("derived", derived) ]
      done)
    [ "streamcluster"; "ammp"; "blackscholes"; "fluidanimate" ]

let test_watchdog_truncates_slice () =
  let prog = compile loop_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let crit = assert_criterion prog gt in
  let clean = Dr_slicing.Slicer.compute gt crit in
  Alcotest.(check bool) "clean run not truncated" false
    clean.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.truncated;
  (* an already-expired watchdog stops the traversal immediately *)
  let wd = Dr_util.Budget.watchdog ~what:"test" ~limit_s:0.0 in
  ignore (Dr_util.Budget.expired wd);
  let partial = Dr_slicing.Slicer.compute ~watchdog:wd gt crit in
  Alcotest.(check bool) "marked truncated" true
    partial.Dr_slicing.Slicer.stats.Dr_slicing.Slicer.truncated;
  (* sound subset: every position of the partial slice is in the full one *)
  Array.iter
    (fun p ->
      if not (Array.mem p clean.Dr_slicing.Slicer.positions) then
        Alcotest.failf "truncated slice has spurious position %d" p)
    partial.Dr_slicing.Slicer.positions;
  Alcotest.(check bool) "partial is smaller" true
    (Array.length partial.Dr_slicing.Slicer.positions
    < Array.length clean.Dr_slicing.Slicer.positions)

let test_governed_ladder_scan () =
  let prog = compile loop_src in
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let crit = assert_criterion prog gt in
  let clean = Dr_slicing.Slicer.compute gt crit in
  (* a 1-byte memory budget cannot fit the definition index: the ladder
     must step down to the scan driver and still produce the same slice *)
  let budget = Dr_util.Budget.create ~mem_bytes:1 () in
  let g = Dr_slicing.Slicer.compute_governed ~budget gt crit in
  Alcotest.(check string) "degraded to scan" "scan"
    (Dr_slicing.Slicer.rung_name g.Dr_slicing.Slicer.g_rung);
  Alcotest.(check bool) "same slice on the scan rung" true
    (clean.Dr_slicing.Slicer.positions
    = g.Dr_slicing.Slicer.g_slice.Dr_slicing.Slicer.positions);
  Alcotest.(check bool) "degradation recorded" true
    (Dr_util.Budget.degradations budget <> []);
  (* a roomy budget keeps the indexed rung *)
  let roomy = Dr_util.Budget.create ~mem_bytes:max_int ()  in
  let g' = Dr_slicing.Slicer.compute_governed ~budget:roomy gt crit in
  Alcotest.(check string) "roomy budget stays indexed" "indexed"
    (Dr_slicing.Slicer.rung_name g'.Dr_slicing.Slicer.g_rung)

(* satellite: a genuine order-edge cycle must raise the structured
   [Cycle] carrying the blocked record window, not stall or die on a
   bare failure *)
let test_cycle_structured_error () =
  let prog = compile loop_src in
  let cfg = Dr_cfg.Cfg.build prog in
  let mk gseq tid =
    { Dr_slicing.Trace.gseq; tid; pc = 0; instance = 1; defs = [||];
      uses = [||]; cd = -1; flags = 0 }
  in
  (* two threads, one record each, with contradictory access-order
     edges: 0 before 1 AND 1 before 0 *)
  let c =
    { Dr_slicing.Collector.records =
        Dr_slicing.Segment_store.of_records [| mk 0 0; mk 1 1 |];
      per_thread = [| [| 0 |]; [| 1 |] |];
      order_edges = [| (0, 1); (1, 0) |];
      indirect_targets = [];
      pairs = Hashtbl.create 1;
      cfg }
  in
  match Dr_slicing.Global_trace.construct c with
  | _ -> Alcotest.fail "cyclic edges must not merge"
  | exception Dr_slicing.Global_trace.Cycle info ->
    Alcotest.(check int) "nothing emitted" 0
      info.Dr_slicing.Global_trace.cy_emitted;
    Alcotest.(check int) "two records total" 2
      info.Dr_slicing.Global_trace.cy_total;
    let heads = info.Dr_slicing.Global_trace.cy_heads in
    Alcotest.(check int) "both heads blocked" 2 (List.length heads);
    List.iter
      (fun h ->
        Alcotest.(check bool) "head has unsatisfied in-edges" true
          (h.Dr_slicing.Global_trace.ch_indeg > 0))
      heads;
    let msg = Dr_slicing.Global_trace.cycle_message info in
    Alcotest.(check bool) "message names the stall" true
      (String.length msg > 0)

(* ---- collection: pass-1 skipping and dense derivation state ---- *)

let record_list (c : Dr_slicing.Collector.result) =
  let records = c.Dr_slicing.Collector.records in
  List.init (Dr_slicing.Segment_store.length records)
    (Dr_slicing.Segment_store.get records)

let pair_bindings (c : Dr_slicing.Collector.result) =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.Dr_slicing.Collector.pairs [])

(* the [indirect_pass] attr of the one collector.collect span *)
let traced_collect ~refine prog pb =
  let was_enabled = Dr_obs.Obs.enabled () in
  Dr_obs.Obs.reset ();
  Dr_obs.Obs.set_enabled true;
  let c = Dr_slicing.Collector.collect ~refine prog pb in
  Dr_obs.Obs.set_enabled was_enabled;
  let attrs =
    Array.to_list (Dr_obs.Obs.spans ())
    |> List.filter (fun s -> s.Dr_obs.Obs.sp_name = "collector.collect")
    |> List.map (fun s -> List.assoc_opt "indirect_pass" s.Dr_obs.Obs.sp_attrs)
  in
  Dr_obs.Obs.reset ();
  (c, attrs)

(* No registry program has an indirect jump or call, so refinement has
   nothing to refine: the pass-1 replay is skipped and the refined trace
   equals the unrefined one, field for field. *)
let test_pass1_skip_exact () =
  List.iter
    (fun (e : Dr_workloads.Registry.entry) ->
      let name = e.Dr_workloads.Registry.name in
      let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
      let pb = log_whole prog in
      let refined, attrs = traced_collect ~refine:true prog pb in
      let plain = Dr_slicing.Collector.collect ~refine:false prog pb in
      Alcotest.(check bool) (name ^ ": pass 1 skipped") true
        (attrs = [ Some (Dr_obs.Obs.Bool false) ]);
      Alcotest.(check bool) (name ^ ": no indirect targets") true
        (refined.Dr_slicing.Collector.indirect_targets = []);
      Alcotest.(check bool) (name ^ ": records") true
        (record_list refined = record_list plain);
      Alcotest.(check bool) (name ^ ": per_thread") true
        (refined.Dr_slicing.Collector.per_thread
        = plain.Dr_slicing.Collector.per_thread);
      Alcotest.(check bool) (name ^ ": order_edges") true
        (refined.Dr_slicing.Collector.order_edges
        = plain.Dr_slicing.Collector.order_edges);
      Alcotest.(check bool) (name ^ ": pairs") true
        (pair_bindings refined = pair_bindings plain))
    Dr_workloads.Registry.all

let test_fig7_runs_pass1 () =
  let prog = fig7_prog () in
  let pb = log_whole ~input:[| 0; 1 |] prog in
  let c, attrs = traced_collect ~refine:true prog pb in
  Alcotest.(check bool) "pass 1 ran" true
    (attrs = [ Some (Dr_obs.Obs.Bool true) ]);
  Alcotest.(check (list (pair int (list int)))) "both switch targets observed"
    [ (6, [ 7; 9 ]) ]
    (List.map
       (fun (pc, ts) -> (pc, List.sort compare ts))
       c.Dr_slicing.Collector.indirect_targets)

(* the retired events of a replay, copied out of the scratch event *)
let replay_events prog pb =
  let evs = ref [] in
  let on_event (ev : Dr_machine.Event.t) =
    evs := { ev with Dr_machine.Event.tid = ev.Dr_machine.Event.tid } :: !evs
  in
  let r = Dr_pinplay.Replayer.create prog pb in
  ignore (Dr_pinplay.Replayer.run ~hooks:{ Dr_machine.Driver.on_event } r);
  Array.of_list (List.rev !evs)

let test_derive_copy_deep () =
  let e = Option.get (Dr_workloads.Registry.find "streamcluster") in
  let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
  let pb = log_whole prog in
  let evs = replay_events prog pb in
  let total = Array.length evs in
  let k = total / 3 and n = total / 2 in
  let c = Dr_slicing.Collector.collect prog pb in
  let module Chunk = Dr_slicing.Segment_store.Chunk in
  let d = Dr_slicing.Collector.Derive.create ~cfg:c.Dr_slicing.Collector.cfg prog in
  let prefix = Chunk.create ~base:0 ~cap:k in
  for g = 0 to k - 1 do
    Dr_slicing.Collector.Derive.next d prefix evs.(g)
  done;
  let copy = Dr_slicing.Collector.Derive.copy d in
  let advance d =
    let rows = Chunk.create ~base:k ~cap:n in
    for i = 0 to n - 1 do
      Dr_slicing.Collector.Derive.next d rows evs.(k + i)
    done;
    Array.to_list (Chunk.records rows)
  in
  let from_original = advance d in
  let from_copy = advance copy in
  Alcotest.(check bool) "several threads" true
    (Array.length c.Dr_slicing.Collector.per_thread > 1);
  Alcotest.(check bool) "copy yields the original's records" true
    (from_copy = from_original);
  Alcotest.(check bool) "and the collected ones" true
    (from_copy
    = List.init n (fun i -> Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records (k + i)))

(* a thread that runs off the end of its code retires a fault event at
   pc = code length, outside the dense per-pc counters *)
let test_pc_past_code_end () =
  let prog =
    Dr_isa.Program.make ~name:"falls-off" ~entry:0
      Dr_isa.Instr.[ Mov (1, Imm 1); Mov (2, Imm 2) ]
  in
  let pb = log_whole prog in
  let c = Dr_slicing.Collector.collect prog pb in
  Alcotest.(check int) "three records" 3
    (Dr_slicing.Segment_store.length c.Dr_slicing.Collector.records);
  let r = Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records 2 in
  Alcotest.(check string) "fault record" "#2 t0 pc=2 i=1 line=-1"
    (Printf.sprintf "#%d t%d pc=%d i=%d line=%d" r.Dr_slicing.Trace.gseq
       r.Dr_slicing.Trace.tid r.Dr_slicing.Trace.pc r.Dr_slicing.Trace.instance
       (Dr_slicing.Trace.line_of_pc prog r.Dr_slicing.Trace.pc));
  (* keep gseqs 0 and 2: the fault event at pc 2 ends the excluded run *)
  let keep = Dr_util.Bitset.create 3 in
  Dr_util.Bitset.add keep 0;
  Dr_util.Bitset.add keep 2;
  Alcotest.(check bool) "the region [1:1, 2:1) keeps gseqs 0 and 2" true
    (match
       Dr_exeslice.Exclusion.kept_by ~collector:c
         [ { Dr_exeslice.Exclusion.x_tid = 0; x_start_pc = 1;
             x_start_instance = 1; x_end = Some (2, 1) } ]
     with
    | Ok kept -> Dr_util.Bitset.equal kept keep
    | Error _ -> false);
  let slice = Dr_pinplay.Relogger.relog prog pb ~keep in
  Alcotest.(check bool) "kept event at pc 2: inject, then step pc 2" true
    (match slice.Dr_pinplay.Pinball.slice_events with
    | [| Dr_pinplay.Pinball.Step { tid = 0; pc = 0 }; Dr_pinplay.Pinball.Inject 0;
         Dr_pinplay.Pinball.Step { tid = 0; pc = 2 } |] -> true
    | _ -> false)

let test_def_use_no_alloc () =
  let open Dr_isa.Instr in
  let mk instr ~mem_read ~mem_write =
    let ev = Dr_machine.Event.create () in
    Dr_machine.Event.reset ev ~tid:1 ~pc:0 ~instr;
    ev.Dr_machine.Event.mem_read <- mem_read;
    ev.Dr_machine.Event.mem_write <- mem_write;
    ev
  in
  let evs =
    [| mk Nop ~mem_read:(-1) ~mem_write:(-1);
       mk (Mov (1, Reg 2)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Mov (1, Imm 2)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Bin (Add, 1, 2, Reg 3)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Load (1, 2, 0)) ~mem_read:40 ~mem_write:(-1);
       mk (Store (2, 0, 1)) ~mem_read:(-1) ~mem_write:41;
       mk (Push 6) ~mem_read:(-1) ~mem_write:900;
       mk (Pop 6) ~mem_read:900 ~mem_write:(-1);
       mk (Cmp (1, Imm 0)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Setcc (Eq, 3)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Jmp 0) ~mem_read:(-1) ~mem_write:(-1);
       mk (Jcc (Eq, 0)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Jind 4) ~mem_read:(-1) ~mem_write:(-1);
       mk (Call 0) ~mem_read:(-1) ~mem_write:899;
       mk (Callind 4) ~mem_read:(-1) ~mem_write:899;
       mk Ret ~mem_read:899 ~mem_write:(-1);
       mk (Assert (1, 0)) ~mem_read:(-1) ~mem_write:(-1);
       mk (Sys Read) ~mem_read:(-1) ~mem_write:(-1);
       mk (Sys Join) ~mem_read:(-1) ~mem_write:(-1) |]
  in
  let defs = Dr_util.Vec.Int_vec.with_capacity 16 in
  let uses = Dr_util.Vec.Int_vec.with_capacity 16 in
  let iters = 10_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    for i = 1 to iters do
      f evs.(i mod Array.length evs)
    done;
    Gc.minor_words () -. w0
  in
  let empty = measure (fun _ -> ()) in
  let calls =
    measure (fun ev ->
        Dr_util.Vec.Int_vec.clear defs;
        Dr_util.Vec.Int_vec.clear uses;
        Dr_machine.Def_use.collect ev ~defs ~uses)
  in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation over %d calls (empty %.0f, collect %.0f words)"
       iters empty calls)
    true
    (calls -. empty < 16.)

(* Collection writes each record into the store's columns instead of
   boxing it: on fluidanimate (4 threads) Collector.collect allocates at
   most 8 minor words per record, and the global-trace merge at most
   one. *)
let test_collect_alloc () =
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:100 in
  let pb = log_whole prog in
  let w0 = Gc.minor_words () in
  let c = Dr_slicing.Collector.collect prog pb in
  let w1 = Gc.minor_words () in
  let gt = Dr_slicing.Global_trace.construct c in
  let w2 = Gc.minor_words () in
  let n = float_of_int (Dr_slicing.Global_trace.length gt) in
  Alcotest.(check bool) "region of at least 50k records" true (n >= 50_000.);
  let per_record what words bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f minor words per record over %.0f records" what
         (words /. n) n)
      true
      (words /. n <= bound)
  in
  per_record "Collector.collect" (w1 -. w0) 8.0;
  per_record "Global_trace.construct" (w2 -. w1) 1.0

(* The step loop under every layer allocates per run or per digest chunk,
   never per step: a whole-region replay and a bare round-robin run each
   stay under a quarter of a minor word per retired step (syscall effects
   and lock-table nodes are the rest). *)
let test_step_loop_alloc () =
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:200 in
  let per_step what steps f =
    let w0 = Gc.minor_words () in
    ignore (f ());
    let words = (Gc.minor_words () -. w0) /. float_of_int (steps ()) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f minor words per step over %d steps" what words
         (steps ()))
      true (words <= 0.25)
  in
  let pb =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok (pb, _) -> pb
    | Error err -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error err
  in
  Alcotest.(check bool) "region of at least 100k steps" true
    (Dr_pinplay.Pinball.schedule_instructions pb >= 100_000);
  let r = Dr_pinplay.Replayer.create prog pb in
  per_step "Replayer.run"
    (fun () -> Dr_pinplay.Replayer.steps r)
    (fun () -> Dr_pinplay.Replayer.run r);
  List.iter
    (fun quantum ->
      let m = Dr_machine.Machine.create prog in
      per_step
        (Printf.sprintf "Driver.run round-robin %d" quantum)
        (fun () -> Dr_machine.Machine.total_icount m)
        (fun () ->
          Dr_machine.Driver.run m (Dr_machine.Driver.Round_robin { quantum })))
    [ 1; 8 ]

let () =
  Alcotest.run "slicing"
    [ ( "data deps",
        [ Alcotest.test_case "straight line" `Quick test_straightline_data_deps;
          Alcotest.test_case "memory" `Quick test_memory_data_dep ] );
      ( "control deps",
        [ Alcotest.test_case "if" `Quick test_control_dep_if;
          Alcotest.test_case "loop" `Quick test_control_dep_loop ] );
      ( "multi-threaded (fig 5)",
        [ Alcotest.test_case "cross-thread slice" `Quick
            test_fig5_multithreaded_slice;
          QCheck_alcotest.to_alcotest prop_global_trace_topological;
          Alcotest.test_case "positions" `Quick test_global_trace_positions ] );
      ( "lp",
        [ QCheck_alcotest.to_alcotest prop_lp_equals_naive;
          Alcotest.test_case "skips blocks" `Quick test_lp_skips_blocks ] );
      ( "fig 7 (indirect jumps)",
        [ Alcotest.test_case "imprecise without refinement" `Quick
            test_fig7_imprecise_without_refinement;
          Alcotest.test_case "precise with refinement" `Quick
            test_fig7_precise_with_refinement ] );
      ( "collect",
        [ Alcotest.test_case "pass 1 skipped without indirect jumps" `Quick
            test_pass1_skip_exact;
          Alcotest.test_case "fig 7 runs pass 1" `Quick test_fig7_runs_pass1;
          Alcotest.test_case "derive copy is deep" `Quick test_derive_copy_deep;
          Alcotest.test_case "pc past the code end" `Quick test_pc_past_code_end;
          Alcotest.test_case "def/use allocation-free" `Quick
            test_def_use_no_alloc;
          Alcotest.test_case "step loop allocation" `Quick test_step_loop_alloc;
          Alcotest.test_case "collection allocation" `Quick test_collect_alloc ] );
      ( "fig 8 (save/restore)",
        [ Alcotest.test_case "unpruned spurious" `Quick
            test_fig8_unpruned_is_spurious;
          Alcotest.test_case "pruned precise" `Quick test_fig8_pruned_is_precise;
          Alcotest.test_case "pruned subset" `Quick test_fig8_pruned_subset ] );
      ( "slice objects",
        [ Alcotest.test_case "file round-trip" `Quick test_slice_file_roundtrip;
          Alcotest.test_case "rejects bad input" `Quick
            test_slice_file_rejects_bad_input;
          Alcotest.test_case "edge navigation" `Quick test_edge_navigation ] );
      ( "coverage",
        [ Alcotest.test_case "narrow criterion locs" `Quick test_crit_locs_narrow;
          Alcotest.test_case "deps/uses symmetry" `Quick test_deps_uses_symmetry;
          Alcotest.test_case "recursion control deps" `Quick
            test_recursion_control_deps;
          Alcotest.test_case "nondet in slice" `Quick test_slice_of_nondet_value;
          QCheck_alcotest.to_alcotest prop_block_size_irrelevant;
          Alcotest.test_case "stats sane" `Quick test_slice_stats_sane;
          Alcotest.test_case "last print criterion" `Quick test_last_print_pos;
          Alcotest.test_case "span names the driver" `Quick
            test_span_names_driver;
          Alcotest.test_case "clustering invariant" `Quick
            test_no_clustering_same_slice ] );
      ( "prune units",
        [ Alcotest.test_case "static candidates" `Quick
            test_prune_static_candidates;
          Alcotest.test_case "matching pair confirmed" `Quick
            test_prune_confirms_matching_pair;
          Alcotest.test_case "partial restore unconfirmed" `Quick
            test_prune_partial_restore_not_confirmed;
          Alcotest.test_case "wrong register no bypass" `Quick
            test_prune_bypass_wrong_reg;
          Alcotest.test_case "frame glue predicate" `Quick
            test_prune_frame_glue ] );
      ( "fast path",
        [ Alcotest.test_case "final partial block criterion" `Quick
            test_final_partial_block_criterion;
          Alcotest.test_case "deferred bypass in skippable block" `Quick
            test_deferred_bypass_in_skippable_block;
          QCheck_alcotest.to_alcotest prop_drivers_agree_on_generated;
          Alcotest.test_case "def index" `Quick test_def_index ] );
      ( "robustness",
        [ Alcotest.test_case "spill round-trip" `Quick
            test_segment_spill_roundtrip;
          Alcotest.test_case "sealed store keeps only flat" `Quick
            test_sealed_store_flat_only;
          Alcotest.test_case "corrupt segment detected" `Quick
            test_segment_corrupt_detected;
          Alcotest.test_case "store shapes agree" `Quick
            test_store_shapes_agree;
          Alcotest.test_case "spill cleanup ownership" `Quick
            test_cleanup_spill_ownership;
          Alcotest.test_case "watchdog truncates" `Quick
            test_watchdog_truncates_slice;
          Alcotest.test_case "governed ladder" `Quick test_governed_ladder_scan;
          Alcotest.test_case "cycle structured error" `Quick
            test_cycle_structured_error ] );
      ( "golden",
        [ Alcotest.test_case "slice file CRCs" `Quick test_slice_file_golden;
          Alcotest.test_case "scan+skip traversal counts" `Quick
            test_skip_counts_golden ] ) ]
