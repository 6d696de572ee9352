(* Tests for dr_static: the generic dataflow engine, the per-function
   analyses, the interprocedural call graph, the static PDG (whose
   backward slices must bound every dynamic slice — the property
   conformance oracle 6 enforces on fuzzed programs), the lint passes
   and the drdebug-analyze-v1 report round-trip. *)

module Bitset = Dr_util.Bitset
module Dataflow = Dr_static.Dataflow
module Analysis = Dr_static.Analysis
module Callgraph = Dr_static.Callgraph
module Defuse = Dr_static.Defuse
module Pdg = Dr_static.Pdg
module Supercfg = Dr_static.Supercfg
module Lint = Dr_static.Lint
module Report = Dr_static.Report
module Json = Dr_util.Json
open Dr_isa

let raw code = Program.make ~name:"raw" ~entry:0 (Array.to_list code)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let collect ?(seed = 3) prog =
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
      prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> Dr_slicing.Collector.collect ~refine:true prog pb
  | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e

(* ---- dataflow engine ---- *)

(* Forward may-problem on a diamond 0 -> {1,2} -> 3.  Node i generates
   fact i (node 3 nothing), node 1 kills fact 0, and the entry node is
   seeded with boundary fact 3. *)
let test_dataflow_forward_diamond () =
  let succs = [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let preds = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |] in
  let one f =
    let b = Bitset.create 4 in
    Bitset.add b f;
    b
  in
  let r =
    Dataflow.solve ~num_nodes:4 ~num_facts:4 ~direction:Dataflow.Forward
      ~succs:(fun i -> succs.(i))
      ~preds:(fun i -> preds.(i))
      ~gen:(fun i -> if i = 3 then Bitset.create 4 else one i)
      ~kill:(fun i -> if i = 1 then one 0 else Bitset.create 4)
      ~entry:(fun i -> if i = 0 then Some (one 3) else None)
      ()
  in
  Alcotest.(check bool) "entry fact at node 0" true (Bitset.mem r.Dataflow.in_.(0) 3);
  Alcotest.(check bool) "node 1 kills fact 0" false (Bitset.mem r.Dataflow.out_.(1) 0);
  Alcotest.(check bool) "fact 0 survives via node 2" true (Bitset.mem r.Dataflow.in_.(3) 0);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "fact %d meets at node 3" f)
        true
        (Bitset.mem r.Dataflow.in_.(3) f))
    [ 0; 1; 2; 3 ]

(* Backward problem on a line 0 -> 1 -> 2: node 2 generates fact 0,
   node 1 kills it, so it is live across edge 1->2 but not 0->1. *)
let test_dataflow_backward_line () =
  let succs = [| [ 1 ]; [ 2 ]; [] |] in
  let preds = [| []; [ 0 ]; [ 1 ] |] in
  let one () =
    let b = Bitset.create 1 in
    Bitset.add b 0;
    b
  in
  let r =
    Dataflow.solve ~num_nodes:3 ~num_facts:1 ~direction:Dataflow.Backward
      ~succs:(fun i -> succs.(i))
      ~preds:(fun i -> preds.(i))
      ~gen:(fun i -> if i = 2 then one () else Bitset.create 1)
      ~kill:(fun i -> if i = 1 then one () else Bitset.create 1)
      ()
  in
  Alcotest.(check bool) "generated at node 2" true (Bitset.mem r.Dataflow.in_.(2) 0);
  Alcotest.(check bool) "live across 1->2" true (Bitset.mem r.Dataflow.out_.(1) 0);
  Alcotest.(check bool) "killed at node 1" false (Bitset.mem r.Dataflow.in_.(1) 0);
  Alcotest.(check bool) "dead before node 1" false (Bitset.mem r.Dataflow.out_.(0) 0)

(* ---- per-function analyses ---- *)

let test_liveness () =
  let code =
    [| Instr.Mov (Reg.r1, Instr.Imm 5); Instr.Mov (Reg.r2, Instr.Imm 7);
       Instr.Bin (Instr.Add, Reg.r0, Reg.r1, Instr.Reg Reg.r2); Instr.Ret |]
  in
  let l = Analysis.liveness code ~fentry:0 ~fend:4 () in
  Alcotest.(check bool) "r1 live into use" true (Bitset.mem l.Analysis.live_in.(2) Reg.r1);
  Alcotest.(check bool) "r2 live into use" true (Bitset.mem l.Analysis.live_in.(2) Reg.r2);
  Alcotest.(check bool) "r1 dead before its def" false
    (Bitset.mem l.Analysis.live_in.(0) Reg.r1);
  Alcotest.(check bool) "r2 live between defs" true
    (Bitset.mem l.Analysis.live_in.(1) Reg.r2 = false
    && Bitset.mem l.Analysis.live_out.(1) Reg.r2)

let test_maybe_uninit_flagged () =
  let code = [| Instr.Bin (Instr.Add, Reg.r0, Reg.r6, Instr.Imm 1); Instr.Ret |] in
  match Analysis.maybe_uninit code ~fentry:0 ~fend:2 () with
  | [ u ] ->
    Alcotest.(check int) "pc" 0 u.Analysis.u_pc;
    Alcotest.(check int) "reg" Reg.r6 u.Analysis.u_reg
  | l -> Alcotest.failf "expected exactly one finding, got %d" (List.length l)

let test_maybe_uninit_clean () =
  (* argument registers arrive initialized *)
  let args = [| Instr.Bin (Instr.Add, Reg.r0, Reg.r1, Instr.Imm 1); Instr.Ret |] in
  Alcotest.(check int) "arg regs not flagged" 0
    (List.length (Analysis.maybe_uninit args ~fentry:0 ~fend:2 ()));
  (* prologue Push of a callee-saved register is the save idiom, not a use *)
  let save =
    [| Instr.Push Reg.r6; Instr.Mov (Reg.r6, Instr.Imm 1); Instr.Pop Reg.r6;
       Instr.Ret |]
  in
  Alcotest.(check int) "prologue save not flagged" 0
    (List.length (Analysis.maybe_uninit save ~fentry:0 ~fend:4 ()));
  (* a call conservatively initializes the caller-saved set *)
  let call =
    [| Instr.Call 3; Instr.Bin (Instr.Add, Reg.r0, Reg.r0, Instr.Imm 1);
       Instr.Ret; Instr.Ret |]
  in
  Alcotest.(check int) "post-call caller-saved not flagged" 0
    (List.length (Analysis.maybe_uninit call ~fentry:0 ~fend:3 ()))

(* ---- call graph ---- *)

let build_cg ?indirect_targets prog =
  (Supercfg.build ?indirect_targets prog).Supercfg.cg

let test_callgraph_direct_and_spawn () =
  (* main spawns a worker (address materialized at pc 0) and calls a
     helper directly; worker entries must look like prologues to be
     recognized as address-taken. *)
  let prog =
    raw
      [| Instr.Mov (Reg.r1, Instr.Imm 6); Instr.Sys Instr.Spawn; Instr.Call 4;
         Instr.Sys Instr.Exit; (* helper *) Instr.Ret; Instr.Nop;
         (* worker *) Instr.Push Reg.fp; Instr.Pop Reg.fp; Instr.Ret |]
  in
  let cg = build_cg prog in
  Alcotest.(check int) "three functions" 3 (Callgraph.num_functions cg);
  Alcotest.(check (list int)) "worker is address-taken" [ 6 ]
    (List.map (fun i -> cg.Callgraph.entries.(i)) cg.Callgraph.address_taken);
  let kinds =
    List.map (fun s -> s.Callgraph.kind) cg.Callgraph.sites
  in
  Alcotest.(check bool) "spawn site recorded" true
    (List.mem Callgraph.Spawn kinds);
  Alcotest.(check bool) "direct site recorded" true
    (List.mem Callgraph.Direct kinds);
  Alcotest.(check (list int)) "main calls helper and worker" [ 1; 2 ]
    cg.Callgraph.callees.(0);
  let reach = Callgraph.reachable_from_entry cg ~entry_pc:prog.Program.entry in
  Alcotest.(check (array bool)) "all reachable through spawn edge"
    [| true; true; true |] reach

let test_callgraph_unreachable_function () =
  (* the dead function is never called, and nothing spawns or calls
     indirectly, so no edge reaches it *)
  let prog =
    raw
      [| Instr.Call 3; Instr.Mov (Reg.r2, Instr.Imm 5); Instr.Sys Instr.Exit;
         (* helper *) Instr.Ret; Instr.Nop;
         (* dead *) Instr.Push Reg.fp; Instr.Pop Reg.fp; Instr.Ret |]
  in
  let cg = build_cg prog in
  Alcotest.(check int) "three functions" 3 (Callgraph.num_functions cg);
  let reach = Callgraph.reachable_from_entry cg ~entry_pc:prog.Program.entry in
  Alcotest.(check (array bool)) "dead function unreachable" [| true; true; false |]
    reach

let test_callgraph_callind_resolution () =
  let prog =
    raw
      [| Instr.Mov (Reg.r1, Instr.Imm 3); Instr.Callind Reg.r1;
         Instr.Sys Instr.Exit; (* target *) Instr.Push Reg.fp;
         Instr.Pop Reg.fp; Instr.Ret |]
  in
  let unresolved = build_cg prog in
  Alcotest.(check (list int)) "unresolved callind pc" [ 1 ]
    unresolved.Callgraph.unresolved_callind;
  (* conservatively: every address-taken function is a callee *)
  Alcotest.(check (list int)) "conservative callees" [ 1 ]
    unresolved.Callgraph.callees.(0);
  let resolved = build_cg ~indirect_targets:[ (1, [ 3 ]) ] prog in
  Alcotest.(check (list int)) "resolved: no unresolved callind" []
    resolved.Callgraph.unresolved_callind;
  Alcotest.(check (list int)) "resolved callees" [ 1 ]
    resolved.Callgraph.callees.(0)

(* ---- static PDG ---- *)

let test_pdg_resolution_flag () =
  let prog =
    raw
      [| Instr.Mov (Reg.r1, Instr.Imm 3); Instr.Jind Reg.r1; Instr.Sys Instr.Exit;
         Instr.Mov (Reg.r0, Instr.Imm 1); Instr.Sys Instr.Exit |]
  in
  Alcotest.(check bool) "unrefined jind leaves the pdg unresolved" false
    (Pdg.fully_resolved (Pdg.build (Supercfg.build prog)));
  Alcotest.(check bool) "refined jind resolves the pdg" true
    (Pdg.fully_resolved
       (Pdg.build (Supercfg.build ~indirect_targets:[ (1, [ 3 ]) ] prog)))

let test_pdg_straightline_slice () =
  (* the load depends on the store (one-global-cell memory), the store's
     operands, and the address def; the unrelated def stays out *)
  let prog =
    raw
      [| Instr.Mov (Reg.r1, Instr.Imm 100); Instr.Mov (Reg.r2, Instr.Imm 7);
         Instr.Store (Reg.r1, 0, Reg.r2); Instr.Mov (Reg.r3, Instr.Imm 9);
         Instr.Load (Reg.r4, Reg.r1, 0); Instr.Sys Instr.Exit |]
  in
  let pdg = Pdg.build (Supercfg.build prog) in
  let slice = Pdg.backward_slice pdg ~pc:4 in
  List.iter
    (fun pc ->
      Alcotest.(check bool) (Printf.sprintf "pc %d in slice" pc) true
        (Bitset.mem slice pc))
    [ 0; 1; 2; 4 ];
  Alcotest.(check bool) "unrelated def out of slice" false (Bitset.mem slice 3)

(* The soundness property behind conformance oracle 6: on a program
   whose refined CFG is fully resolved, the pc set of a dynamic slice is
   contained in the static backward slice of its criterion pc. *)
let check_static_bounds_dynamic prog =
  let c = collect prog in
  let gt = Dr_slicing.Global_trace.construct c in
  let pdg =
    Pdg.build
      (Supercfg.build
         ~indirect_targets:c.Dr_slicing.Collector.indirect_targets prog)
  in
  if Pdg.fully_resolved pdg then begin
    let len = Dr_slicing.Global_trace.length gt in
    let crit = { Dr_slicing.Slicer.crit_pos = len - 1; crit_locs = None } in
    let slice = Dr_slicing.Slicer.compute gt crit in
    let crit_pc = (Dr_slicing.Global_trace.record gt crit.Dr_slicing.Slicer.crit_pos).Dr_slicing.Trace.pc in
    let bound = Pdg.backward_slice pdg ~pc:crit_pc in
    Array.iter
      (fun pos ->
        let pc = (Dr_slicing.Global_trace.record gt pos).Dr_slicing.Trace.pc in
        if not (Bitset.mem bound pc) then
          Alcotest.failf
            "%s: dynamic slice pc %d escapes the static bound of pc %d"
            prog.Program.name pc crit_pc)
      slice.Dr_slicing.Slicer.positions;
    true
  end
  else false

let test_pdg_bounds_dynamic_switch () =
  (* every case body executes, so the dynamic run fully refines the jump
     table: the check must actually run, not pass vacuously *)
  let src =
    {|fn pick(int x) {
  int r = 0;
  switch (x) {
    case 0: r = 11; break;
    case 1: r = 22; break;
    default: r = 99; break;
  }
  return r;
}
fn main() {
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) {
    acc = acc + pick(i);
  }
  assert(acc == 231, "acc");
}|}
  in
  Alcotest.(check bool) "switch program is fully resolved and bounded" true
    (check_static_bounds_dynamic (compile src))

let test_pdg_bounds_dynamic_generated () =
  (* sweep a few generated programs; count how many were fully resolved
     so the property cannot silently become vacuous across all seeds *)
  let checked = ref 0 in
  for seed = 1 to 8 do
    let src = Dr_lang.Gen.program seed in
    let prog =
      match
        Dr_lang.Codegen.compile_result ~name:(Printf.sprintf "gen%d" seed) src
      with
      | Ok p -> p
      | Error e -> Alcotest.failf "seed %d does not compile: %s" seed e
    in
    if check_static_bounds_dynamic prog then incr checked
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least one generated program checked (%d/8)" !checked)
    true (!checked > 0)

(* ---- static / dynamic def-use lock-step ---- *)

(* Defuse's masks must cover every location Def_use.collect emits for the
   same instruction (the PDG bounds dynamic slices through them), and
   strong_def_mask must name only registers the executing thread really
   writes (reaching definitions kill through it).  Checked on every
   retired event; returns the instruction forms exercised. *)

let form = function
  | Instr.Mov _ -> "mov"
  | Instr.Bin _ -> "bin"
  | Instr.Load _ -> "load"
  | Instr.Store _ -> "store"
  | Instr.Push _ -> "push"
  | Instr.Pop _ -> "pop"
  | Instr.Cmp _ -> "cmp"
  | Instr.Setcc _ -> "setcc"
  | Instr.Jmp _ -> "jmp"
  | Instr.Jcc _ -> "jcc"
  | Instr.Jind _ -> "jind"
  | Instr.Call _ -> "call"
  | Instr.Callind _ -> "callind"
  | Instr.Ret -> "ret"
  | Instr.Sys s -> "sys " ^ Instr.syscall_name s
  | Instr.Assert _ -> "assert"
  | Instr.Halt -> "halt"
  | Instr.Nop -> "nop"

let all_forms =
  [ "mov"; "bin"; "load"; "store"; "push"; "pop"; "cmp"; "setcc"; "jmp";
    "jcc"; "jind"; "call"; "callind"; "ret"; "assert"; "halt"; "nop" ]
  @ List.map
      (fun s -> "sys " ^ Instr.syscall_name s)
      Instr.
        [ Exit; Print; Rand; Time; Read; Spawn; Join; Lock; Unlock; Yield;
          Alloc; Wait; Signal; Broadcast ]

let defuse_forms_of_run ?input prog =
  let module V = Dr_util.Vec.Int_vec in
  let defs = V.create () and uses = V.create () in
  let forms = Hashtbl.create 32 in
  let on_event (ev : Dr_machine.Event.t) =
    let i = ev.Dr_machine.Event.instr and tid = ev.Dr_machine.Event.tid in
    Hashtbl.replace forms (form i) ();
    let bad what =
      Alcotest.failf "%s: pc %d (%s): %s" prog.Program.name
        ev.Dr_machine.Event.pc (Instr.to_string i) what
    in
    V.clear defs;
    V.clear uses;
    Dr_machine.Def_use.collect ev ~defs ~uses;
    let own_defs = ref 0 in
    V.iter
      (fun l ->
        match Loc.view l with
        | Loc.Mem _ -> if not (Defuse.writes_mem i) then bad "memory def"
        | Loc.Reg { tid = t; reg } ->
          if Defuse.def_mask i land (1 lsl reg) = 0 then
            bad ("def of " ^ Reg.name reg ^ " outside def_mask");
          if t = tid then own_defs := !own_defs lor (1 lsl reg))
      defs;
    V.iter
      (fun l ->
        match Loc.view l with
        | Loc.Mem _ -> if not (Defuse.reads_mem i) then bad "memory use"
        | Loc.Reg { reg; _ } ->
          if Defuse.use_mask i land (1 lsl reg) = 0 then
            bad ("use of " ^ Reg.name reg ^ " outside use_mask"))
      uses;
    if Defuse.strong_def_mask i land lnot !own_defs <> 0 then
      bad "strong_def_mask names a register the thread did not write"
  in
  let m = Dr_machine.Machine.create ?input prog in
  ignore
    (Dr_machine.Driver.run ~max_steps:200_000
       ~hooks:{ Dr_machine.Driver.on_event }
       m
       (Dr_machine.Driver.Seeded { seed = 3; max_quantum = 4 }));
  Hashtbl.fold (fun f () acc -> f :: acc) forms []

(* The forms the workloads, examples and generated programs leave
   unexercised, hand-assembled; one program per way of stopping. *)
let rest_of_forms ending =
  {|
.entry main
callee:
  ret
main:
  nop
  sys time
  sys read
  mov r3, @callee
  call *r3
|}
  ^ ending

let test_defuse_lockstep () =
  let seen = Hashtbl.create 32 in
  let run ?input prog =
    List.iter (fun f -> Hashtbl.replace seen f ()) (defuse_forms_of_run ?input prog)
  in
  List.iter
    (fun (e : Dr_workloads.Registry.entry) ->
      run (e.Dr_workloads.Registry.compile ~threads:3 ~iters:6))
    Dr_workloads.Registry.all;
  List.iter
    (fun f ->
      let path = Filename.concat "../examples/analyze" f in
      run (compile (In_channel.with_open_text path In_channel.input_all)))
    [ "jump_table.mc"; "racy_pair.mc"; "spawn_clean.mc" ];
  for seed = 1 to 20 do
    run (compile (Dr_lang.Gen.program seed))
  done;
  List.iter
    (fun ending ->
      match Asm.parse (rest_of_forms ending) with
      | Ok p -> run ~input:[| 5 |] p
      | Error e -> Alcotest.failf "asm parse failed: %s" e)
    [ "  halt\n"; "  mov r1, $0\n  sys exit\n" ];
  Alcotest.(check (list string)) "every instruction form exercised" []
    (List.filter (fun f -> not (Hashtbl.mem seen f)) all_forms)

(* ---- lint passes ---- *)

let test_lint_unreachable_block () =
  let prog =
    raw
      [| Instr.Mov (Reg.r0, Instr.Imm 1); Instr.Jmp 4;
         Instr.Mov (Reg.r0, Instr.Imm 2); Instr.Jmp 4; Instr.Sys Instr.Exit |]
  in
  match (Lint.run (Supercfg.build prog)).Lint.unreachable with
  | [ u ] ->
    Alcotest.(check int) "dead block start" 2 u.Lint.ub_start;
    Alcotest.(check int) "dead block end" 4 u.Lint.ub_end
  | l -> Alcotest.failf "expected one unreachable block, got %d" (List.length l)

let test_lint_missing_restore () =
  let prog =
    raw [| Instr.Push Reg.r6; Instr.Mov (Reg.r0, Instr.Imm 1); Instr.Ret |]
  in
  match (Lint.run (Supercfg.build prog)).Lint.save_restore with
  | [ s ] ->
    Alcotest.(check string) "kind" "missing-restore" (Lint.sr_kind_name s.Lint.sr_kind);
    Alcotest.(check int) "save pc" 0 s.Lint.sr_pc;
    Alcotest.(check int) "reg" Reg.r6 s.Lint.sr_reg
  | l -> Alcotest.failf "expected one save/restore issue, got %d" (List.length l)

let test_lint_order_mismatch () =
  let prog =
    raw
      [| Instr.Push Reg.r6; Instr.Push 7; Instr.Mov (Reg.r0, Instr.Imm 1);
         Instr.Pop Reg.r6; Instr.Pop 7; Instr.Ret |]
  in
  match (Lint.run (Supercfg.build prog)).Lint.save_restore with
  | [ s ] ->
    Alcotest.(check string) "kind" "order-mismatch" (Lint.sr_kind_name s.Lint.sr_kind);
    Alcotest.(check int) "flagged at the ret" 5 s.Lint.sr_pc
  | l -> Alcotest.failf "expected one save/restore issue, got %d" (List.length l)

let switch_src =
  {|fn pick(int x) {
  int r = 0;
  switch (x) {
    case 0: r = 10; break;
    case 1: r = 20; break;
    case 2: r = 30; break;
    default: r = 90; break;
  }
  return r;
}
fn main() {
  print(pick(2));
}|}

let test_lint_indirect_audit () =
  let prog = compile switch_src in
  let g = Supercfg.build prog in
  let lint = Lint.run g in
  let jinds =
    List.filter (fun i -> i.Lint.ind_kind = `Jind) lint.Lint.indirect
  in
  match jinds with
  | [ i ] ->
    Alcotest.(check bool) "suggestions nonempty" true (i.Lint.ind_suggestions <> []);
    (match Dr_cfg.Cfg.func_at g.Supercfg.cfg i.Lint.ind_pc with
    | None -> Alcotest.fail "jind outside any function"
    | Some f ->
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Printf.sprintf "suggestion %d inside the function" t)
            true
            (t >= f.Dr_cfg.Cfg.fentry && t < f.Dr_cfg.Cfg.fend))
        i.Lint.ind_suggestions)
  | l -> Alcotest.failf "expected one jind finding, got %d" (List.length l)

(* ---- report round-trip ---- *)

let replace_field k v = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
  | j -> j

let drop_field k = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k', _) -> k' <> k) fields)
  | j -> j

let test_report_roundtrip () =
  let prog = compile switch_src in
  let _, doc = Report.analyze (Supercfg.build prog) in
  (match Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh report fails validation: %s" e);
  let expect_error what doc =
    match Report.validate doc with
    | Ok () -> Alcotest.failf "%s passed validation" what
    | Error _ -> ()
  in
  expect_error "wrong schema" (replace_field "schema" (Json.Str "bogus-v0") doc);
  expect_error "missing findings_total" (drop_field "findings_total" doc);
  expect_error "missing callgraph" (drop_field "callgraph" doc);
  let break_count doc =
    match Json.member "passes" doc with
    | Some passes ->
      let broken =
        replace_field "indirect-audit"
          (replace_field "count" (Json.int 99)
             (Option.get (Json.member "indirect-audit" passes)))
          passes
      in
      replace_field "passes" broken doc
    | None -> Alcotest.fail "report has no passes"
  in
  expect_error "count / findings mismatch" (break_count doc)

let () =
  Alcotest.run "static"
    [
      ( "dataflow",
        [
          Alcotest.test_case "forward diamond" `Quick test_dataflow_forward_diamond;
          Alcotest.test_case "backward line" `Quick test_dataflow_backward_line;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "maybe-uninit flagged" `Quick test_maybe_uninit_flagged;
          Alcotest.test_case "maybe-uninit clean" `Quick test_maybe_uninit_clean;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "direct + spawn" `Quick test_callgraph_direct_and_spawn;
          Alcotest.test_case "unreachable function" `Quick
            test_callgraph_unreachable_function;
          Alcotest.test_case "callind resolution" `Quick
            test_callgraph_callind_resolution;
        ] );
      ( "pdg",
        [
          Alcotest.test_case "resolution flag" `Quick test_pdg_resolution_flag;
          Alcotest.test_case "straightline slice" `Quick test_pdg_straightline_slice;
          Alcotest.test_case "static bounds dynamic (switch)" `Quick
            test_pdg_bounds_dynamic_switch;
          Alcotest.test_case "static bounds dynamic (generated)" `Slow
            test_pdg_bounds_dynamic_generated;
        ] );
      ( "defuse",
        [ Alcotest.test_case "static masks cover dynamic def/use" `Slow
            test_defuse_lockstep ] );
      ( "lint",
        [
          Alcotest.test_case "unreachable block" `Quick test_lint_unreachable_block;
          Alcotest.test_case "missing restore" `Quick test_lint_missing_restore;
          Alcotest.test_case "order mismatch" `Quick test_lint_order_mismatch;
          Alcotest.test_case "indirect audit" `Quick test_lint_indirect_audit;
        ] );
      ( "report",
        [ Alcotest.test_case "round-trip" `Quick test_report_roundtrip ];
      );
    ]
