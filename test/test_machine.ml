(* Tests for dr_machine: stepping semantics, syscalls, blocking,
   schedules, determinism, snapshots, def/use resolution. *)

open Dr_isa.Instr

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let run_rr ?input ?(quantum = 3) ?(max_steps = 1_000_000) prog =
  let m = Dr_machine.Machine.create ?input prog in
  let r = Dr_machine.Driver.run ~max_steps m (Dr_machine.Driver.Round_robin { quantum }) in
  (m, r)

let exited = function
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> true
  | _ -> false

(* ---- raw ISA semantics ---- *)

let raw_prog ?(strings = [||]) instrs =
  Dr_isa.Program.make ~name:"raw" ~strings ~entry:0 instrs

let test_basic_alu () =
  let p =
    raw_prog
      [ Mov (0, Imm 6); Mov (1, Imm 7); Bin (Mul, 2, 0, Reg 1);
        Mov (1, Reg 2); Sys Print; Halt ]
  in
  let m, r = run_rr p in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "42" [ 42 ] (Dr_machine.Machine.output_list m)

let test_push_pop () =
  let p =
    raw_prog
      [ Mov (0, Imm 11); Push 0; Mov (0, Imm 22); Pop 1; Mov (1, Reg 1);
        Sys Print; Halt ]
  in
  let m, _ = run_rr p in
  Alcotest.(check (list int)) "popped" [ 11 ] (Dr_machine.Machine.output_list m)

let test_cmp_jcc () =
  let p =
    raw_prog
      [ Mov (0, Imm 5); Cmp (0, Imm 5); Jcc (Eq, 5); Mov (1, Imm 0);
        Jmp 6; Mov (1, Imm 1); Sys Print; Halt ]
  in
  let m, _ = run_rr p in
  Alcotest.(check (list int)) "taken" [ 1 ] (Dr_machine.Machine.output_list m)

let test_fault_oob_load () =
  let p = raw_prog [ Mov (1, Imm (-5)); Load (0, 1, 0); Halt ] in
  let _, r = run_rr p in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { pc = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected fault at pc 1"

let test_fault_div_zero () =
  let p = raw_prog [ Mov (0, Imm 1); Mov (1, Imm 0); Bin (Div, 2, 0, Reg 1); Halt ] in
  let _, r = run_rr p in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check string) "msg" "division by zero" msg
  | _ -> Alcotest.fail "expected fault"

let test_fault_bad_jump () =
  let p = raw_prog [ Mov (0, Imm 123456); Jind 0; Halt ] in
  let _, r = run_rr p in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check bool) "mentions jump" true
      (String.length msg > 0 && msg.[0] = 'b')
  | _ -> Alcotest.fail "expected fault"

let test_unlock_not_held () =
  let p = raw_prog [ Mov (1, Imm 100); Sys Unlock; Halt ] in
  let _, r = run_rr p in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check bool) "unlock fault" true
      (String.sub msg 0 6 = "unlock")
  | _ -> Alcotest.fail "expected fault"

(* ---- threads and blocking ---- *)

let test_lock_blocks () =
  (* two threads increment a counter 1000 times each under a lock *)
  let src =
    {|
global int counter;
global int m;
fn worker(int n) {
  for (int i = 0; i < 1000; i = i + 1) {
    lock(&m);
    counter = counter + 1;
    unlock(&m);
  }
}
fn main() {
  int t1 = spawn(worker, 0);
  int t2 = spawn(worker, 0);
  join(t1);
  join(t2);
  print(counter);
}
|}
  in
  let m, r = run_rr ~quantum:7 (compile src) in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "atomic increments" [ 2000 ]
    (Dr_machine.Machine.output_list m)

let test_join_blocks () =
  let src =
    {|
global int done_flag;
fn worker(int n) {
  for (int i = 0; i < 500; i = i + 1) { }
  done_flag = 1;
}
fn main() {
  int t = spawn(worker, 0);
  join(t);
  print(done_flag);
}
|}
  in
  let m, _ = run_rr ~quantum:2 (compile src) in
  Alcotest.(check (list int)) "join waited" [ 1 ] (Dr_machine.Machine.output_list m)

let test_deadlock_detected () =
  let src =
    {|
global int a;
global int b;
fn worker(int n) {
  lock(&b);
  for (int i = 0; i < 100; i = i + 1) { }
  lock(&a);
  unlock(&a);
  unlock(&b);
}
fn main() {
  lock(&a);
  int t = spawn(worker, 0);
  for (int i = 0; i < 100; i = i + 1) { }
  lock(&b);
  unlock(&b);
  unlock(&a);
  join(t);
}
|}
  in
  let _, r = run_rr ~quantum:5 (compile src) in
  match r with
  | Dr_machine.Driver.Deadlock -> ()
  | r ->
    Alcotest.failf "expected deadlock, got %a"
      (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ()

let test_max_threads_fault () =
  let src =
    {|
fn worker(int n) { while (1 == 1) { yield(); } }
fn main() {
  for (int i = 0; i < 64; i = i + 1) { spawn(worker, i); }
}
|}
  in
  let _, r = run_rr (compile src) in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check bool) "spawn fault" true (String.sub msg 0 5 = "spawn")
  | _ -> Alcotest.fail "expected spawn fault"

(* ---- schedule sensitivity: the racy program the paper motivates ---- *)

let racy_src =
  {|
global int x;
fn t2(int n) {
  int k = x;
  k = k + 1;
  x = k;
}
fn main() {
  int t = spawn(t2, 0);
  int k = x;
  k = k + 1;
  x = k;
  join(t);
  print(x);
}
|}

let test_race_schedule_dependent () =
  (* with different seeded schedules, the lost-update race gives different
     results across seeds (we only check both outcomes are possible) *)
  let outcomes = Hashtbl.create 4 in
  for seed = 0 to 63 do
    let m = Dr_machine.Machine.create (compile racy_src) in
    let r =
      Dr_machine.Driver.run ~max_steps:100_000 m
        (Dr_machine.Driver.Seeded { seed; max_quantum = 5 })
    in
    if exited r then
      Hashtbl.replace outcomes (Dr_machine.Machine.output_list m) ()
  done;
  Alcotest.(check bool) "both interleavings observed" true
    (Hashtbl.mem outcomes [ 2 ] && Hashtbl.mem outcomes [ 1 ])

let prop_determinism =
  QCheck.Test.make ~name:"same seed => identical run" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let run1 () =
        let m = Dr_machine.Machine.create (compile racy_src) in
        let r =
          Dr_machine.Driver.run ~max_steps:100_000 m
            (Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
        in
        (r, Dr_machine.Machine.output_list m, Dr_machine.Machine.total_icount m)
      in
      run1 () = run1 ())

(* ---- scripted schedules ---- *)

let test_scripted_schedule () =
  (* interleave two threads writing to a global array; the scripted order
     must produce exactly the scripted interleaving *)
  let src =
    {|
global int log[100];
global int pos;
fn worker(int id) {
  log[pos] = id;
  pos = pos + 1;
  log[pos] = id;
  pos = pos + 1;
}
fn main() {
  int t = spawn(worker, 2);
  join(t);
  print(log[0] + log[1] + log[2] + log[3]);
}
|}
  in
  let m, r = run_rr (compile src) in
  Alcotest.(check bool) "exited" true (exited r);
  ignore m

let test_scripted_divergence () =
  (* scheduling a tid that doesn't exist raises Replay_divergence *)
  let p = raw_prog [ Mov (0, Imm 1); Mov (0, Imm 2); Halt ] in
  let m = Dr_machine.Machine.create p in
  Alcotest.check_raises "divergence"
    (Dr_machine.Driver.Replay_divergence "schedule names bad tid 3") (fun () ->
      ignore
        (Dr_machine.Driver.run m
           (Dr_machine.Driver.Scripted
              { schedule = Dr_machine.Schedule.of_runs [ (0, 1); (3, 1) ];
                start = 0 })))

let test_scripted_exact () =
  let p = raw_prog [ Mov (0, Imm 1); Mov (0, Imm 2); Mov (0, Imm 3); Halt ] in
  let m = Dr_machine.Machine.create p in
  let r =
    Dr_machine.Driver.run m
      (Dr_machine.Driver.Scripted
         { schedule = Dr_machine.Schedule.of_runs [ (0, 2) ]; start = 0 })
  in
  (match r with
  | Dr_machine.Driver.Schedule_end -> ()
  | _ -> Alcotest.fail "expected schedule end");
  Alcotest.(check int) "2 steps retired" 2 (Dr_machine.Machine.total_icount m)

(* ---- snapshots ---- *)

let test_snapshot_roundtrip () =
  let prog = compile racy_src in
  let m = Dr_machine.Machine.create prog in
  (* run a bit, snapshot, continue; vs restore and continue: same result *)
  let _ =
    Dr_machine.Driver.run ~max_steps:20 m
      (Dr_machine.Driver.Round_robin { quantum = 3 })
  in
  let snap = Dr_machine.Snapshot.capture m in
  (* serialize/deserialize the snapshot *)
  let e = Dr_util.Codec.encoder () in
  Dr_machine.Snapshot.encode e snap;
  let snap' = Dr_machine.Snapshot.decode (Dr_util.Codec.decoder (Dr_util.Codec.to_string e)) in
  let m2 = Dr_machine.Snapshot.restore prog snap' in
  let finish mm =
    let r =
      Dr_machine.Driver.run ~max_steps:100_000 mm
        (Dr_machine.Driver.Round_robin { quantum = 3 })
    in
    (r, Dr_machine.Machine.output_list mm)
  in
  let r1 = finish m in
  let r2 = finish m2 in
  Alcotest.(check bool) "same continuation" true (r1 = r2)

let test_snapshot_preserves_locks () =
  let src =
    {|
global int m;
fn main() {
  lock(&m);
  yield();
  unlock(&m);
}
|}
  in
  let prog = compile src in
  let m = Dr_machine.Machine.create prog in
  (* step until the lock is held *)
  let stop =
    Dr_machine.Driver.run m
      ~stop_when:(fun ev ->
        match ev.Dr_machine.Event.sys with
        | Dr_machine.Event.Sys_lock { acquired = true; _ } -> true
        | _ -> false)
      (Dr_machine.Driver.Round_robin { quantum = 1 })
  in
  (match stop with
  | Dr_machine.Driver.Stop_requested -> ()
  | _ -> Alcotest.fail "lock not observed");
  let snap = Dr_machine.Snapshot.capture m in
  Alcotest.(check bool) "lock captured" true (snap.Dr_machine.Snapshot.locks <> []);
  let m2 = Dr_machine.Snapshot.restore prog snap in
  let r = Dr_machine.Driver.run m2 (Dr_machine.Driver.Round_robin { quantum = 1 }) in
  Alcotest.(check bool) "restored run finishes" true (exited r)

let test_snapshot_divergence_after_restore () =
  let prog = compile racy_src in
  let m = Dr_machine.Machine.create prog in
  let _ =
    Dr_machine.Driver.run ~max_steps:20 m
      (Dr_machine.Driver.Round_robin { quantum = 3 })
  in
  let snap = Dr_machine.Snapshot.capture m in
  let m2 = Dr_machine.Snapshot.restore prog snap in
  (* the restored machine is fully independent: clobbering its memory
     must not leak into the original (capture/restore deep-copy) *)
  m2.Dr_machine.Machine.mem.(0) <- m2.Dr_machine.Machine.mem.(0) + 1;
  Alcotest.(check bool) "restore does not alias original memory" true
    (m.Dr_machine.Machine.mem.(0) <> m2.Dr_machine.Machine.mem.(0));
  (* and a restored machine detects replay divergence exactly like a
     fresh one: a schedule naming a bogus tid is a structured error *)
  let m3 = Dr_machine.Snapshot.restore prog snap in
  Alcotest.check_raises "divergence detected after restore"
    (Dr_machine.Driver.Replay_divergence "schedule names bad tid 7")
    (fun () ->
      ignore
        (Dr_machine.Driver.run m3
           (Dr_machine.Driver.Scripted
              { schedule = Dr_machine.Schedule.of_runs [ (7, 1) ]; start = 0 })))

(* a multi-thread workload long enough that a mid-run snapshot lands
   while several threads are live and holding state *)
let snapshot_mt_src =
  {|
global int x;
global int m;
fn worker(int n) {
  for (int i = 0; i < 20; i = i + 1) {
    lock(&m);
    x = x + n;
    unlock(&m);
  }
}
fn main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  worker(3);
  join(a);
  join(b);
  print(x);
}
|}

let log_pinball ?(seed = 5) prog =
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
      ~max_steps:200_000 prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> pb
  | Error e ->
    Alcotest.failf "log failed: %a" Dr_pinplay.Logger.pp_error e

(* replay [r] to the end, collecting the (step, tid, digest) of every
   retired instruction — the same per-step hash the pinball's recorded
   digests are spot checks of *)
let digests_from r =
  let acc = ref [] in
  let step = ref (Dr_pinplay.Replayer.steps r) in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev ->
          incr step;
          acc :=
            ( !step,
              ev.Dr_machine.Event.tid,
              Dr_pinplay.Exec_digest.hash
                (Dr_pinplay.Replayer.machine r)
                ev ~step:!step )
            :: !acc) }
  in
  ignore (Dr_pinplay.Replayer.resume ~hooks r);
  List.rev !acc

let test_snapshot_at_step_k_matches_straight_line () =
  (* replay K steps, checkpoint, resume from the checkpoint: every
     remaining step's digest must equal the straight-line replay's *)
  let prog = compile snapshot_mt_src in
  let pb = log_pinball prog in
  let full = digests_from (Dr_pinplay.Replayer.create prog pb) in
  let total = List.length full in
  Alcotest.(check bool) "run long enough to cut" true (total > 50);
  List.iter
    (fun k ->
      let r = Dr_pinplay.Replayer.create prog pb in
      ignore (Dr_pinplay.Replayer.resume ~max_steps:k r);
      let ck = Dr_pinplay.Replayer.checkpoint r in
      let r2 = Dr_pinplay.Replayer.create ~from:ck prog pb in
      let suffix = digests_from r2 in
      let expect = List.filteri (fun i _ -> i >= k) full in
      Alcotest.(check bool)
        (Printf.sprintf "digest suffix from step %d" k)
        true (suffix = expect))
    [ 1; 17; total / 2; total - 1 ]

let test_snapshot_multithread_schedule () =
  let prog = compile snapshot_mt_src in
  let pb = log_pinball ~seed:9 prog in
  let m_full, _ = Dr_pinplay.Replayer.replay prog pb in
  let full = digests_from (Dr_pinplay.Replayer.create prog pb) in
  let k = 40 in
  let r = Dr_pinplay.Replayer.create prog pb in
  ignore (Dr_pinplay.Replayer.resume ~max_steps:k r);
  Alcotest.(check bool) "several threads live at the cut" true
    (Dr_machine.Machine.num_threads (Dr_pinplay.Replayer.machine r) > 1);
  let ck = Dr_pinplay.Replayer.checkpoint r in
  Alcotest.(check bool) "snapshot carries every thread" true
    (List.length ck.Dr_pinplay.Replayer.c_snapshot.Dr_machine.Snapshot.threads
    > 1);
  let r2 = Dr_pinplay.Replayer.create ~from:ck prog pb in
  let suffix = digests_from r2 in
  Alcotest.(check bool) "mid-schedule resume matches straight-line" true
    (suffix = List.filteri (fun i _ -> i >= k) full);
  Alcotest.(check (list int))
    "resumed run reproduces the output"
    (Dr_machine.Machine.output_list m_full)
    (Dr_machine.Machine.output_list (Dr_pinplay.Replayer.machine r2))

let test_snapshot_under_budget_pressure () =
  let prog = compile racy_src in
  let m = Dr_machine.Machine.create prog in
  let _ =
    Dr_machine.Driver.run ~max_steps:20 m
      (Dr_machine.Driver.Round_robin { quantum = 3 })
  in
  let snap = Dr_machine.Snapshot.capture m in
  let e = Dr_util.Codec.encoder () in
  Dr_machine.Snapshot.encode e snap;
  let encoded = Dr_util.Codec.to_string e in
  (* the encoded snapshot restores to a machine that continues exactly
     as the original *)
  let snap' =
    Dr_machine.Snapshot.decode (Dr_util.Codec.decoder encoded)
  in
  let m2 = Dr_machine.Snapshot.restore prog snap' in
  let finish mm =
    let r =
      Dr_machine.Driver.run ~max_steps:100_000 mm
        (Dr_machine.Driver.Round_robin { quantum = 3 })
    in
    (r, Dr_machine.Machine.output_list mm)
  in
  Alcotest.(check bool) "same continuation after restore" true
    (finish m = finish m2)

(* ---- def/use resolution ---- *)

let collect_def_use prog ~at_pc =
  let m = Dr_machine.Machine.create prog in
  let result = ref None in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev ->
          if ev.Dr_machine.Event.pc = at_pc && !result = None then begin
            let defs = Dr_util.Vec.Int_vec.create () in
            let uses = Dr_util.Vec.Int_vec.create () in
            Dr_machine.Def_use.collect ev ~defs ~uses;
            result :=
              Some
                ( Dr_util.Vec.Int_vec.to_list defs,
                  Dr_util.Vec.Int_vec.to_list uses )
          end) }
  in
  ignore
    (Dr_machine.Driver.run ~hooks ~max_steps:10_000 m
       (Dr_machine.Driver.Round_robin { quantum = 1 }));
  !result

let test_def_use_load () =
  let p =
    raw_prog [ Mov (1, Imm 8); Store (1, 0, 0); Load (2, 1, 0); Halt ]
  in
  match collect_def_use p ~at_pc:2 with
  | Some (defs, uses) ->
    Alcotest.(check (list string)) "defs"
      [ "t0:r2" ]
      (List.map Dr_isa.Loc.to_string defs);
    Alcotest.(check (list string)) "uses"
      [ "t0:r1"; "mem[8]" ]
      (List.map Dr_isa.Loc.to_string uses)
  | None -> Alcotest.fail "no event at pc 2"

let test_def_use_push () =
  let p = raw_prog [ Mov (1, Imm 5); Push 1; Halt ] in
  match collect_def_use p ~at_pc:1 with
  | Some (defs, uses) ->
    let strs = List.map Dr_isa.Loc.to_string in
    (* sp/fp are excluded from dependence tracking; the memory write and
       the source register remain *)
    Alcotest.(check bool) "no sp def" false (List.mem "t0:sp" (strs defs));
    Alcotest.(check bool) "defs mem" true
      (List.exists Dr_isa.Loc.is_mem defs);
    Alcotest.(check bool) "uses r1" true (List.mem "t0:r1" (strs uses))
  | None -> Alcotest.fail "no event"

let test_def_use_cmp_flags () =
  let p = raw_prog [ Mov (1, Imm 5); Cmp (1, Imm 3); Jcc (Gt, 3); Halt ] in
  (match collect_def_use p ~at_pc:1 with
  | Some (defs, _) ->
    Alcotest.(check (list string)) "cmp defs flags" [ "t0:flags" ]
      (List.map Dr_isa.Loc.to_string defs)
  | None -> Alcotest.fail "no cmp event");
  match collect_def_use p ~at_pc:2 with
  | Some (_, uses) ->
    Alcotest.(check (list string)) "jcc uses flags" [ "t0:flags" ]
      (List.map Dr_isa.Loc.to_string uses)
  | None -> Alcotest.fail "no jcc event"

(* ---- additional ISA semantics coverage ---- *)

let run_collect_r1 instrs =
  (* run and return the final r1 of thread 0 *)
  let p = raw_prog instrs in
  let m = Dr_machine.Machine.create p in
  let r = Dr_machine.Driver.run ~max_steps:10_000 m (Dr_machine.Driver.Round_robin { quantum = 1 }) in
  (match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> ()
  | _ -> Alcotest.fail "did not exit");
  (Dr_machine.Machine.thread m 0).Dr_machine.Machine.regs.(1)

let test_setcc_all_conditions () =
  let check cond a b expect =
    let v =
      run_collect_r1
        [ Mov (0, Imm a); Cmp (0, Imm b); Setcc (cond, 1); Halt ]
    in
    Alcotest.(check int)
      (Printf.sprintf "%s %d %d" (Dr_isa.Instr.cond_name cond) a b)
      expect v
  in
  check Eq 3 3 1; check Eq 3 4 0;
  check Ne 3 4 1; check Ne 3 3 0;
  check Lt 2 3 1; check Lt 3 3 0; check Lt 4 3 0;
  check Le 3 3 1; check Le 2 3 1; check Le 4 3 0;
  check Gt 4 3 1; check Gt 3 3 0;
  check Ge 3 3 1; check Ge 2 3 0

let test_binops_semantics () =
  let check op a b expect =
    let v = run_collect_r1 [ Mov (0, Imm a); Bin (op, 1, 0, Imm b); Halt ] in
    Alcotest.(check int) (Dr_isa.Instr.binop_name op) expect v
  in
  check Add 7 5 12;
  check Sub 7 5 2;
  check Mul 7 5 35;
  check Div 17 5 3;
  check Div (-17) 5 (-3);
  check Mod 17 5 2;
  check Mod (-17) 5 (-2);
  check And 12 10 8;
  check Or 12 10 14;
  check Xor 12 10 6;
  check Shl 3 4 48;
  check Shr 48 4 3;
  check Shr (-16) 2 (-4)

let test_callind () =
  (* call through a register *)
  let p =
    raw_prog
      [ Mov (2, Imm 5); Callind 2; Mov (1, Reg 0); Sys Print; Halt;
        (* callee at 5 *) Mov (0, Imm 99); Ret ]
  in
  let m, r = run_rr p in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "returned through register" [ 99 ]
    (Dr_machine.Machine.output_list m)

let test_assert_pass_continues () =
  let p =
    raw_prog ~strings:[| "never" |]
      [ Mov (0, Imm 1); Assert (0, 0); Mov (1, Imm 7); Sys Print; Halt ]
  in
  let m, r = run_rr p in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "continued past assert" [ 7 ]
    (Dr_machine.Machine.output_list m)

let test_spawn_passes_argument () =
  let src = {|global int got;
fn child(int arg) { got = arg * 2; }
fn main() {
  int t = spawn(child, 21);
  join(t);
  print(got);
}|} in
  let m, r = run_rr (compile src) in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "arg delivered" [ 42 ]
    (Dr_machine.Machine.output_list m)

let test_alloc_oom_fault () =
  let src = {|fn main() {
  while (1 == 1) {
    int p = alloc(10000);
  }
}|} in
  let _, r = run_rr ~max_steps:10_000_000 (compile src) in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check string) "oom" "alloc: out of memory" msg
  | _ -> Alcotest.fail "expected oom fault"

let test_join_self_is_deadlock () =
  (* joining a never-finishing thread while holding nothing: main joining
     a spinning thread is NOT deadlock (spinner is runnable); but joining
     tid 0 from tid 0 blocks forever -> deadlock *)
  let p = raw_prog [ Mov (1, Imm 0); Sys Join; Halt ] in
  let m = Dr_machine.Machine.create p in
  let r = Dr_machine.Driver.run m (Dr_machine.Driver.Round_robin { quantum = 1 }) in
  ignore m;
  match r with
  | Dr_machine.Driver.Deadlock -> ()
  | _ ->
    Alcotest.failf "expected deadlock, got %a"
      (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r)
      ()

let test_time_syscall_is_logged_nondet () =
  (* time returns the nondet callback's value *)
  let p = raw_prog [ Sys Time; Mov (1, Reg 0); Sys Print; Halt ] in
  let m = Dr_machine.Machine.create p in
  let nondet = function Dr_machine.Event.Time -> 1234 | _ -> 0 in
  let r = Dr_machine.Driver.run ~nondet m (Dr_machine.Driver.Round_robin { quantum = 1 }) in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "time value" [ 1234 ] (Dr_machine.Machine.output_list m)

let test_read_exhausted_returns_minus_one () =
  let p = raw_prog [ Sys Read; Mov (1, Reg 0); Sys Print; Halt ] in
  let m, _ = run_rr ~input:[||] p in
  Alcotest.(check (list int)) "eof" [ -1 ] (Dr_machine.Machine.output_list m)

let test_round_robin_fairness () =
  (* under round-robin, two identical spinning threads retire similar
     instruction counts *)
  let src = {|global int a;
global int b;
fn w1(int n) { for (int i = 0; i < 3000; i = i + 1) { a = a + 1; } }
fn main() {
  int t = spawn(w1, 0);
  for (int i = 0; i < 3000; i = i + 1) { b = b + 1; }
  join(t);
}|} in
  let prog = compile src in
  let m = Dr_machine.Machine.create prog in
  let _ =
    Dr_machine.Driver.run ~max_steps:1_000_000 m
      (Dr_machine.Driver.Round_robin { quantum = 10 })
  in
  let i0 = (Dr_machine.Machine.thread m 0).Dr_machine.Machine.icount in
  let i1 = (Dr_machine.Machine.thread m 1).Dr_machine.Machine.icount in
  Alcotest.(check bool)
    (Printf.sprintf "fair split (%d vs %d)" i0 i1)
    true
    (abs (i0 - i1) < (i0 + i1) / 2)

let prop_seeded_policies_terminate =
  QCheck.Test.make ~name:"seeded schedules never wedge runnable programs"
    ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 10))
    (fun (seed, q) ->
      let prog = compile {|global int x;
fn w(int n) { for (int i = 0; i < 50; i = i + 1) { x = x + 1; } }
fn main() {
  int a = spawn(w, 0);
  int b = spawn(w, 0);
  join(a);
  join(b);
  print(x);
}|} in
      let m = Dr_machine.Machine.create prog in
      match
        Dr_machine.Driver.run ~max_steps:200_000 m
          (Dr_machine.Driver.Seeded { seed; max_quantum = q })
      with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> true
      | _ -> false)

let test_snapshot_of_finished_threads () =
  let src = {|fn w(int n) { }
fn main() {
  int t = spawn(w, 0);
  join(t);
  print(1);
}|} in
  let prog = compile src in
  let m = Dr_machine.Machine.create prog in
  (* run until the worker finished *)
  let _ =
    Dr_machine.Driver.run m
      ~stop_when:(fun _ ->
        Dr_machine.Machine.num_threads m > 1
        && (Dr_machine.Machine.thread m 1).Dr_machine.Machine.state
           = Dr_machine.Machine.Finished)
      (Dr_machine.Driver.Round_robin { quantum = 2 })
  in
  let snap = Dr_machine.Snapshot.capture m in
  let m2 = Dr_machine.Snapshot.restore prog snap in
  Alcotest.(check bool) "finished state preserved" true
    ((Dr_machine.Machine.thread m2 1).Dr_machine.Machine.state
    = Dr_machine.Machine.Finished);
  let r = Dr_machine.Driver.run m2 (Dr_machine.Driver.Round_robin { quantum = 2 }) in
  Alcotest.(check bool) "restored run completes" true (exited r)

(* ---- condition variables ---- *)

let condvar_src = {|global int m;
global int cv;
global int queue[16];
global int qlen;
global int consumed;
fn consumer(int n) {
  for (int i = 0; i < n; i = i + 1) {
    lock(&m);
    while (qlen == 0) {
      wait(&cv, &m);
    }
    qlen = qlen - 1;
    consumed = consumed + queue[qlen];
    unlock(&m);
  }
}
fn main() {
  int t = spawn(consumer, 8);
  for (int i = 0; i < 8; i = i + 1) {
    lock(&m);
    queue[qlen] = i + 1;
    qlen = qlen + 1;
    signal(&cv);
    unlock(&m);
  }
  join(t);
  print(consumed);
}|}

let test_condvar_producer_consumer () =
  let m, r = run_rr ~quantum:3 (compile condvar_src) in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "all items consumed" [ 36 ]
    (Dr_machine.Machine.output_list m)

let prop_condvar_all_schedules =
  QCheck.Test.make ~name:"condvar protocol correct under any schedule"
    ~count:40
    QCheck.(pair (int_bound 500) (int_range 1 8))
    (fun (seed, q) ->
      let m = Dr_machine.Machine.create (compile condvar_src) in
      match
        Dr_machine.Driver.run ~max_steps:1_000_000 m
          (Dr_machine.Driver.Seeded { seed; max_quantum = q })
      with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) ->
        Dr_machine.Machine.output_list m = [ 36 ]
      | _ -> false)

let test_broadcast_wakes_all () =
  let src = {|global int m;
global int cv;
global int ready;
global int woken;
fn waiter(int n) {
  lock(&m);
  while (ready == 0) {
    wait(&cv, &m);
  }
  woken = woken + 1;
  unlock(&m);
}
fn main() {
  int a = spawn(waiter, 0);
  int b = spawn(waiter, 0);
  int c = spawn(waiter, 0);
  for (int i = 0; i < 50; i = i + 1) { yield(); }
  lock(&m);
  ready = 1;
  broadcast(&cv);
  unlock(&m);
  join(a);
  join(b);
  join(c);
  print(woken);
}|} in
  let m, r = run_rr ~quantum:3 (compile src) in
  Alcotest.(check bool) "exited" true (exited r);
  Alcotest.(check (list int)) "all three woken" [ 3 ]
    (Dr_machine.Machine.output_list m)

let test_wait_without_mutex_faults () =
  let src = {|global int m;
global int cv;
fn main() {
  wait(&cv, &m);
}|} in
  let _, r = run_rr (compile src) in
  match r with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Fault { msg; _ }) ->
    Alcotest.(check string) "fault" "wait: mutex not held by this thread" msg
  | _ -> Alcotest.fail "expected fault"

let test_condvar_record_replay () =
  (* the condvar protocol is fully covered by schedule logging *)
  let prog = compile condvar_src in
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed = 17; max_quantum = 4 })
      prog Dr_pinplay.Logger.Whole
  with
  | Error _ -> Alcotest.fail "log failed"
  | Ok (pb, _) ->
    let m, _ = Dr_pinplay.Replayer.replay prog pb in
    Alcotest.(check (list int)) "replay reproduces" [ 36 ]
      (Dr_machine.Machine.output_list m)

let () =
  Alcotest.run "machine"
    [ ( "isa semantics",
        [ Alcotest.test_case "alu" `Quick test_basic_alu;
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "cmp/jcc" `Quick test_cmp_jcc;
          Alcotest.test_case "oob load faults" `Quick test_fault_oob_load;
          Alcotest.test_case "div by zero" `Quick test_fault_div_zero;
          Alcotest.test_case "bad jump" `Quick test_fault_bad_jump;
          Alcotest.test_case "unlock not held" `Quick test_unlock_not_held ] );
      ( "threads",
        [ Alcotest.test_case "lock blocks" `Quick test_lock_blocks;
          Alcotest.test_case "join blocks" `Quick test_join_blocks;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "thread limit" `Quick test_max_threads_fault ] );
      ( "schedules",
        [ Alcotest.test_case "race is schedule dependent" `Quick
            test_race_schedule_dependent;
          QCheck_alcotest.to_alcotest prop_determinism;
          Alcotest.test_case "scripted runs" `Quick test_scripted_schedule;
          Alcotest.test_case "scripted divergence" `Quick
            test_scripted_divergence;
          Alcotest.test_case "scripted exact count" `Quick test_scripted_exact ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "divergence after restore" `Quick
            test_snapshot_divergence_after_restore;
          Alcotest.test_case "budget pressure" `Quick
            test_snapshot_under_budget_pressure;
          Alcotest.test_case "locks preserved" `Quick
            test_snapshot_preserves_locks;
          Alcotest.test_case "snapshot at step K = straight line" `Quick
            test_snapshot_at_step_k_matches_straight_line;
          Alcotest.test_case "snapshot under multi-thread schedule" `Quick
            test_snapshot_multithread_schedule ] );
      ( "def/use",
        [ Alcotest.test_case "load" `Quick test_def_use_load;
          Alcotest.test_case "push" `Quick test_def_use_push;
          Alcotest.test_case "cmp/flags" `Quick test_def_use_cmp_flags ] );
      ( "isa coverage",
        [ Alcotest.test_case "setcc conditions" `Quick test_setcc_all_conditions;
          Alcotest.test_case "binop semantics" `Quick test_binops_semantics;
          Alcotest.test_case "indirect call" `Quick test_callind;
          Alcotest.test_case "assert passes" `Quick test_assert_pass_continues;
          Alcotest.test_case "spawn argument" `Quick test_spawn_passes_argument;
          Alcotest.test_case "alloc oom" `Quick test_alloc_oom_fault;
          Alcotest.test_case "self join deadlock" `Quick test_join_self_is_deadlock;
          Alcotest.test_case "time nondet" `Quick test_time_syscall_is_logged_nondet;
          Alcotest.test_case "read eof" `Quick test_read_exhausted_returns_minus_one;
          Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
          QCheck_alcotest.to_alcotest prop_seeded_policies_terminate;
          Alcotest.test_case "snapshot finished threads" `Quick
            test_snapshot_of_finished_threads ] );
      ( "condition variables",
        [ Alcotest.test_case "producer/consumer" `Quick
            test_condvar_producer_consumer;
          QCheck_alcotest.to_alcotest prop_condvar_all_schedules;
          Alcotest.test_case "broadcast" `Quick test_broadcast_wakes_all;
          Alcotest.test_case "wait without mutex" `Quick
            test_wait_without_mutex_faults;
          Alcotest.test_case "record/replay" `Quick test_condvar_record_replay ] ) ]
