(* Tests for the drdebug core: end-to-end cyclic-debugging sessions
   driven through the command language (the paper's Fig. 2 workflow). *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" ~file:"test.c" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let exec dbg cmd =
  match Drdebug.Debugger.exec dbg cmd with
  | Ok out -> out
  | Error e -> Alcotest.failf "command %S failed: %s" cmd e

let exec_err dbg cmd =
  match Drdebug.Debugger.exec dbg cmd with
  | Ok _ -> Alcotest.failf "command %S should have failed" cmd
  | Error e -> e

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  ln = 0 || at 0

let simple_src = {|global int g;
fn helper(int x) {
  int y = x * 2;
  return y;
}
fn main() {
  int a = helper(5);
  g = a + 1;
  int bad = g - 11;
  assert(bad == 99, "bad value");
}|}

let test_record_replay_print () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  let out = exec dbg "record whole" in
  Alcotest.(check bool) "recorded" true (contains out "recorded whole execution");
  ignore (exec dbg "replay");
  (* break on the line computing g and inspect *)
  ignore (exec dbg "break 8");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "stopped at breakpoint" true (contains out "breakpoint");
  (* a has been computed by now *)
  let out = exec dbg "print a" in
  Alcotest.(check bool) "a = 10" true (contains out "a = 10")

let test_breakpoints_by_function () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "break helper" in
  Alcotest.(check bool) "bp set" true (contains out "breakpoint 1");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "stopped in helper" true (contains out "breakpoint");
  let out = exec dbg "backtrace" in
  Alcotest.(check bool) "helper on stack" true (contains out "helper");
  Alcotest.(check bool) "main on stack" true (contains out "main")

let test_replay_is_cyclic () =
  (* the defining property: replaying twice stops at the same place with
     the same state (paper challenge 2) *)
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  let run_once () =
    ignore (exec dbg "replay");
    ignore (exec dbg "continue");
    exec dbg "print g"
  in
  ignore (exec dbg "break 9");
  let g1 = run_once () in
  let g2 = run_once () in
  Alcotest.(check string) "same g across replays" g1 g2

let test_stepi_and_where () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "stepi 5" in
  Alcotest.(check bool) "stepped" true (contains out "step limit");
  let out = exec dbg "where" in
  Alcotest.(check bool) "where works" true (contains out "tid 0")

let test_info_threads_and_pinball () =
  let src = {|global int x;
fn worker(int n) { x = n; }
fn main() {
  int t = spawn(worker, 7);
  join(t);
  print(x);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  let out = exec dbg "info threads" in
  Alcotest.(check bool) "two threads" true
    (contains out "tid 0" && contains out "tid 1");
  let out = exec dbg "info pinball" in
  Alcotest.(check bool) "pinball info" true (contains out "pinball:")

let test_slice_workflow () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  (* the replay ends at the assert; slice the failure *)
  let out = exec dbg "slice-failure" in
  Alcotest.(check bool) "slice computed" true (contains out "failure slice:");
  let out = exec dbg "slice-lines" in
  (* g = a + 1 (line 8) and a = helper(5) (line 7) feed the failing assert *)
  Alcotest.(check bool) "line 8 highlighted" true (contains out "g = a + 1");
  Alcotest.(check bool) "line 7 highlighted" true (contains out "helper(5)");
  let out = exec dbg "info slice" in
  Alcotest.(check bool) "stats shown" true (contains out "statements");
  let out = exec dbg "slice-stmts 5" in
  Alcotest.(check bool) "statements listed" true (contains out "tid 0");
  (* navigation: the last statement (the assert) has dependences *)
  let slice = Option.get dbg.Drdebug.Debugger.session.Drdebug.Session.slice in
  let out = exec dbg (Printf.sprintf "deps %d" (Dr_slicing.Slicer.size slice - 1)) in
  Alcotest.(check bool) "deps listed" true
    (contains out "data" || contains out "control")

let test_slice_var_at_stop () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 9");
  ignore (exec dbg "continue");
  let out = exec dbg "slice g" in
  Alcotest.(check bool) "slice for g" true (contains out "slice for g");
  let out = exec dbg "slice-lines" in
  Alcotest.(check bool) "g's def in slice" true (contains out "g = a + 1")

let test_execution_slice_stepping () =
  let src = {|global int g;
global int noise;
fn main() {
  int a = 2;
  for (int i = 0; i < 40; i = i + 1) {
    noise = noise + i;
  }
  g = a * 10;
  int w = g + 1;
  assert(w == 0, "w");
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-pinball" in
  Alcotest.(check bool) "exclusions happened" true (contains out "exclusion regions");
  ignore (exec dbg "slice-replay");
  (* step through every slice statement; the noisy loop must not appear *)
  let all_steps = Buffer.create 256 in
  let rec go n =
    if n > 200 then Alcotest.fail "slice stepping did not terminate"
    else begin
      let out = exec dbg "sstep" in
      Buffer.add_string all_steps out;
      if contains out "finished" || contains out "end of execution slice" then ()
      else go (n + 1)
    end
  in
  go 0;
  let steps = Buffer.contents all_steps in
  Alcotest.(check bool) "a=2 stepped" true (contains steps "int a = 2");
  Alcotest.(check bool) "g=a*10 stepped" true (contains steps "g = a * 10");
  Alcotest.(check bool) "noise never stepped" false (contains steps "noise + i");
  (* and variables are examinable during slice replay *)
  ()

let test_print_during_slice_replay () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  ignore (exec dbg "slice-pinball");
  ignore (exec dbg "slice-replay");
  (* step until g has been written, then print it *)
  let rec go n saw_g =
    if n > 100 then saw_g
    else begin
      match Drdebug.Debugger.exec dbg "sstep" with
      | Error _ -> saw_g
      | Ok out ->
        if contains out "g = a + 1" then true
        else if contains out "finished" || contains out "end of" then saw_g
        else go (n + 1) saw_g
    end
  in
  let reached = go 0 false in
  Alcotest.(check bool) "reached g's def while stepping" true reached;
  ignore (exec dbg "sstep");
  let out = exec dbg "print g" in
  Alcotest.(check bool) "g examinable in slice replay" true (contains out "g = 11")

(* ---- reverse debugging (paper section 8, implemented) ---- *)

let loop_src = {|global int g;
fn main() {
  for (int i = 0; i < 20; i = i + 1) {
    g = g + i;
  }
  print(g);
}|}

let test_breakpoint_hit_repeatedly () =
  (* continuing from a breakpoint must make progress (gdb step-off) *)
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 4");
  let hits = ref 0 in
  let rec go n =
    if n > 50 then Alcotest.fail "breakpoint loop did not terminate"
    else begin
      let out = exec dbg "continue" in
      if contains out "breakpoint" then begin
        incr hits;
        go (n + 1)
      end
    end
  in
  go 0;
  Alcotest.(check int) "hit once per iteration" 20 !hits

let test_reverse_stepi () =
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "stepi 100");
  let g_at_100 = exec dbg "print g" in
  ignore (exec dbg "stepi 30");
  let out = exec dbg "reverse-stepi 30" in
  Alcotest.(check bool) "rewound" true (contains out "rewound to step 100");
  let g_again = exec dbg "print g" in
  Alcotest.(check string) "state identical after rewind" g_at_100 g_again

let test_reverse_continue () =
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 4");
  (* run to the 3rd hit, then reverse to the 2nd *)
  ignore (exec dbg "continue");
  let g1 = exec dbg "print g" in
  ignore (exec dbg "continue");
  let g2 = exec dbg "print g" in
  ignore (exec dbg "continue");
  let out = exec dbg "reverse-continue" in
  Alcotest.(check bool) "reverse hit" true (contains out "reverse-continue");
  let g_back = exec dbg "print g" in
  Alcotest.(check string) "at 2nd hit state" g2 g_back;
  (* and once more, back to the 1st hit *)
  ignore (exec dbg "reverse-continue");
  let g_back1 = exec dbg "print g" in
  Alcotest.(check string) "at 1st hit state" g1 g_back1;
  (* forward again works *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "forward after reverse" true (contains out "breakpoint")

let test_goto_and_checkpoints () =
  let src = {|global int g;
fn main() {
  for (int i = 0; i < 3000; i = i + 1) {
    g = g + i;
  }
  print(g);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  (* long enough for auto-checkpoints *)
  let out = exec dbg "info checkpoints" in
  Alcotest.(check bool) "checkpoints captured" true (contains out "checkpoint at step");
  let out = exec dbg "goto 5000" in
  Alcotest.(check bool) "goto" true (contains out "rewound to step 5000");
  let g5000 = exec dbg "print g" in
  ignore (exec dbg "goto 9000");
  ignore (exec dbg "goto 5000");
  Alcotest.(check string) "goto deterministic" g5000 (exec dbg "print g")

(* ---- rewinding: the checkpoint ladder and resuming from stops ---- *)

module Session = Drdebug.Session

(* a 32K-word image: every checkpoint copies the whole address space,
   and these programs touch a few thousand words of it *)
let small_image (p : Dr_isa.Program.t) =
  { p with Dr_isa.Program.mem_size = 1 lsl 15; stack_words = 1 lsl 11;
    max_threads = 8 }

(* three threads printing as they go, ~40k steps *)
let ladder_src = {|global int x;
global int m;
fn worker(int n) {
  for (int i = 0; i < 300; i = i + 1) {
    lock(&m);
    x = x + n + rand() % 5;
    unlock(&m);
    print(x);
  }
}
fn main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  worker(3);
  join(a);
  join(b);
  print(x);
}|}

let replay_session prog pb =
  let s = Session.create prog in
  Session.load_pinball s pb;
  (match Session.start_replay s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start_replay: %s" e);
  s

let ok what = function
  | Ok (st : Session.stop) -> st
  | Error e -> Alcotest.failf "%s: %s" what e

let session_machine s =
  match Session.machine s with
  | Some m -> m
  | None -> Alcotest.fail "no machine"

let ladder_pinball () =
  let prog = small_image (compile ladder_src) in
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed = 2; max_quantum = 5 })
      prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> (prog, pb)
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e

(* steps the replayer ran during [f], from the replay spans *)
let replayed_steps f =
  Dr_obs.Obs.reset ();
  Dr_obs.Obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Dr_obs.Obs.set_enabled false) f in
  let steps =
    Array.fold_left
      (fun acc sp ->
        if sp.Dr_obs.Obs.sp_name <> "replayer.resume" then acc
        else
          match List.assoc_opt "steps" sp.Dr_obs.Obs.sp_attrs with
          | Some (Dr_obs.Obs.Int n) -> acc + n
          | _ -> acc)
      0 (Dr_obs.Obs.spans ())
  in
  Dr_obs.Obs.reset ();
  (r, steps)

let check_rewind_distance ~interval () =
  let prog, pb = ladder_pinball () in
  let n = Dr_pinplay.Pinball.schedule_instructions pb in
  let s = replay_session prog pb in
  Option.iter (fun i -> s.Session.checkpoint_interval <- i) interval;
  let spacing = max s.Session.checkpoint_interval (n / 16) in
  ignore (ok "continue" (Session.continue_replay s));
  Alcotest.(check int) "at the region end" n s.Session.replay_steps;
  let rewind back =
    let target = n - back in
    let from =
      match Session.checkpoint_before s target with
      | Some c -> c.Dr_pinplay.Replayer.c_steps
      | None -> 0
    in
    let _, ran = replayed_steps (fun () -> ok "rewind" (Session.reverse_stepi s back)) in
    Alcotest.(check int) "rewound" target s.Session.replay_steps;
    Alcotest.(check int) "ran from the chosen checkpoint" (target - from) ran;
    if ran > spacing then
      Alcotest.failf "rewind by %d replayed %d steps (spacing %d)" back ran spacing
  in
  rewind (n / 2);
  (* forward again over rungs the ladder already has, then far back *)
  ignore (ok "continue" (Session.continue_replay s));
  rewind (n - 1);
  let steps = List.map (fun c -> c.Dr_pinplay.Replayer.c_steps) s.Session.checkpoints in
  Alcotest.(check (list int)) "sorted, no duplicates" (List.sort_uniq compare steps) steps;
  (* the only stop checkpoint is the region end *)
  let periodic = List.filter (fun st -> st <> n) steps in
  List.iter
    (fun st -> if st mod spacing <> 0 then Alcotest.failf "checkpoint off the ladder at %d" st)
    periodic;
  if List.length periodic > 16 then
    Alcotest.failf "%d periodic checkpoints" (List.length periodic)

let test_goto_end_output () =
  (* checkpoints carry the output printed so far, so a replay resumed
     late prints what an uninterrupted replay does *)
  let prog, pb = ladder_pinball () in
  let n = Dr_pinplay.Pinball.schedule_instructions pb in
  let m_ref, _ = Dr_pinplay.Replayer.replay prog pb in
  let out_ref = Dr_machine.Machine.output_list m_ref in
  let s = replay_session prog pb in
  ignore (ok "continue" (Session.continue_replay s));
  ignore (ok "rewind" (Session.reverse_stepi s (n / 3)));
  ignore (ok "goto end" (Session.goto_step s ~target:n));
  Alcotest.(check (list int)) "output after goto to the end" out_ref
    (Dr_machine.Machine.output_list (session_machine s));
  ignore (ok "rewind" (Session.reverse_stepi s 10));
  let st = ok "continue" (Session.continue_replay s) in
  Alcotest.(check string) "same end" "exited(0)" st.Session.stop_reason;
  Alcotest.(check (list int)) "output after continuing to the end" out_ref
    (Dr_machine.Machine.output_list (session_machine s))

let test_resume_after_every_breakpoint () =
  (* a breakpoint stop must not spend a slot of the recorded schedule:
     stop at every pc that retires, then continue to the end *)
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = small_image (e.Dr_workloads.Registry.compile ~threads:4 ~iters:5) in
  let pb =
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed = 3; max_quantum = 6 })
        prog Dr_pinplay.Logger.Whole
    with
    | Ok (pb, _) -> pb
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let pcs = Hashtbl.create 64 in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev -> Hashtbl.replace pcs ev.Dr_machine.Event.pc ()) }
  in
  let m_ref, _ = Dr_pinplay.Replayer.replay ~hooks prog pb in
  Alcotest.(check bool) "multi-threaded" true
    (Dr_machine.Machine.num_threads m_ref > 1);
  let end_reason =
    (ok "reference" (Session.continue_replay (replay_session prog pb)))
      .Session.stop_reason
  in
  let failures = ref [] in
  Hashtbl.iter
    (fun pc () ->
      let s = replay_session prog pb in
      let bp = Session.add_breakpoint_pc s pc in
      let st = ok "to breakpoint" (Session.continue_replay s) in
      Alcotest.(check string) "stopped" "breakpoint" st.Session.stop_reason;
      ignore (Session.delete_breakpoint s bp.Session.bp_id);
      match Session.continue_replay s with
      | Ok st
        when st.Session.stop_reason = end_reason
             && Dr_machine.Machine.total_icount (session_machine s)
                = Dr_machine.Machine.total_icount m_ref -> ()
      | Ok st -> failures := Printf.sprintf "pc %d: %s" pc st.Session.stop_reason :: !failures
      | Error e -> failures := Printf.sprintf "pc %d: %s" pc e :: !failures)
    pcs;
  Alcotest.(check bool) "stopped at many pcs" true (Hashtbl.length pcs > 100);
  Alcotest.(check (list string)) "no failed resume" [] !failures

let test_error_paths () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec_err dbg "replay");
  ignore (exec_err dbg "continue");
  ignore (exec_err dbg "slice g");
  ignore (exec_err dbg "slice-pinball");
  ignore (exec_err dbg "nonsense");
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec_err dbg "print nosuchvar");
  ignore (exec_err dbg "break 9999");
  ignore (exec_err dbg "delete 42");
  let out = exec dbg "help" in
  Alcotest.(check bool) "help text" true (contains out "slice-pinball")

let test_watchpoints () =
  let src = {|global int counter;
fn main() {
  for (int i = 0; i < 5; i = i + 1) {
    counter = counter + 10;
  }
  print(counter);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "watch counter" in
  Alcotest.(check bool) "watch set" true (contains out "watchpoint");
  (* each continue stops at the next write, with the new value *)
  let out1 = exec dbg "continue" in
  Alcotest.(check bool) "first write" true (contains out1 "counter = 10");
  let out2 = exec dbg "continue" in
  Alcotest.(check bool) "second write" true (contains out2 "counter = 20");
  let out3 = exec dbg "continue" in
  Alcotest.(check bool) "third write" true (contains out3 "counter = 30");
  (* deleting the watchpoint lets the replay run to the end *)
  let id =
    match dbg.Drdebug.Debugger.session.Drdebug.Session.watchpoints with
    | w :: _ -> w.Drdebug.Session.wp_id
    | [] -> Alcotest.fail "no watchpoint"
  in
  ignore (exec dbg (Printf.sprintf "delete %d" id));
  let out = exec dbg "continue" in
  Alcotest.(check bool) "runs to end" true
    (contains out "exited" || contains out "end of region")

let test_watch_and_break_mix () =
  let src = {|global int g;
fn helper(int x) { g = x; return x; }
fn main() {
  int a = helper(1);
  int b = helper(2);
  print(a + b);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "watch g");
  ignore (exec dbg "break helper");
  (* first stop: breakpoint at helper entry, before any write *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "breakpoint first" true (contains out "breakpoint");
  (* then the watchpoint fires inside helper *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "watchpoint next" true (contains out "watchpoint: g = 1")

let test_slice_tree_and_save () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-tree" in
  Alcotest.(check bool) "tree has edges" true (contains out "data(");
  let out = exec dbg "slice-tree 0 1" in
  Alcotest.(check bool) "tree from idx 0" true (contains out "[0]");
  (* save and reload the slice file *)
  let path = Filename.temp_file "drdebug" ".slice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let out = exec dbg (Printf.sprintf "slice-save %s" path) in
      Alcotest.(check bool) "saved" true (contains out "saved");
      let stmts = Dr_slicing.Slicer.load_file_statements path in
      Alcotest.(check bool) "reloadable" true (stmts <> []))

let test_list_command () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  let out = exec dbg "list 8" in
  Alcotest.(check bool) "shows target line" true (contains out "g = a + 1");
  Alcotest.(check bool) "marks it" true (contains out ">")

let test_sstep_multi () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  ignore (exec dbg "slice-pinball");
  ignore (exec dbg "slice-replay");
  let out = exec dbg "sstep 3" in
  (* three slice statements reported in one command *)
  let count =
    List.length
      (List.filter
         (fun l -> String.length l > 0)
         (String.split_on_char '\n' out))
  in
  Alcotest.(check bool) "three lines of stepping" true (count >= 3)

let test_maple_command () =
  let src = {|global int x;
fn t1(int n) { x = 1; }
fn main() {
  int t = spawn(t1, 0);
  int k = x;
  join(t);
  assert(k == 0, "race");
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  let out = exec dbg "maple" in
  Alcotest.(check bool) "maple exposed" true (contains out "maple exposed");
  (* the loaded pinball replays to the failure *)
  ignore (exec dbg "replay");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "assert reproduced" true (contains out "assertion failed")

let test_precision_toggles () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  let out = exec dbg "set prune off" in
  Alcotest.(check bool) "prune off" true (contains out "off");
  let out = exec dbg "set refine on" in
  Alcotest.(check bool) "refine on" true (contains out "on")

let test_bug_case_study_workflow () =
  (* full paper workflow on the pbzip2 model: record the failing run,
     replay, slice the failure, confirm the root cause line is in the
     slice, generate and replay the execution slice *)
  let b = Option.get (Dr_workloads.Bugs.find "pbzip2") in
  let seed, _ = Option.get (Dr_workloads.Bugs.find_failing_seed b) in
  let session =
    Drdebug.Session.create
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
      (Dr_workloads.Bugs.compile b)
  in
  let dbg = Drdebug.Debugger.create session in
  let out = exec dbg "record until-fail" in
  Alcotest.(check bool) "captured failure" true (contains out "assertion failed");
  ignore (exec dbg "replay");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "failure reproduced" true (contains out "assertion failed");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-lines" in
  Alcotest.(check bool) "root cause in slice" true (contains out "fifo_freed = 1");
  let out = exec dbg "slice-pinball" in
  Alcotest.(check bool) "slice pinball built" true (contains out "instructions kept")

let () =
  Alcotest.run "drdebug"
    [ ( "record/replay",
        [ Alcotest.test_case "record+replay+print" `Quick test_record_replay_print;
          Alcotest.test_case "function breakpoints" `Quick
            test_breakpoints_by_function;
          Alcotest.test_case "cyclic replay" `Quick test_replay_is_cyclic;
          Alcotest.test_case "stepi/where" `Quick test_stepi_and_where;
          Alcotest.test_case "info" `Quick test_info_threads_and_pinball ] );
      ( "slicing",
        [ Alcotest.test_case "failure slice workflow" `Quick test_slice_workflow;
          Alcotest.test_case "slice var at stop" `Quick test_slice_var_at_stop;
          Alcotest.test_case "execution slice stepping" `Quick
            test_execution_slice_stepping;
          Alcotest.test_case "print during slice replay" `Quick
            test_print_during_slice_replay ] );
      ( "reverse debugging",
        [ Alcotest.test_case "repeated breakpoint hits" `Quick
            test_breakpoint_hit_repeatedly;
          Alcotest.test_case "reverse-stepi" `Quick test_reverse_stepi;
          Alcotest.test_case "reverse-continue" `Quick test_reverse_continue;
          Alcotest.test_case "goto + checkpoints" `Quick
            test_goto_and_checkpoints ] );
      ( "rewind",
        [ Alcotest.test_case "rewind distance" `Quick
            (check_rewind_distance ~interval:None);
          Alcotest.test_case "rewind distance, wide interval" `Quick
            (check_rewind_distance ~interval:(Some 5000));
          Alcotest.test_case "goto end output" `Quick test_goto_end_output;
          Alcotest.test_case "resume after every breakpoint" `Quick
            test_resume_after_every_breakpoint ] );
      ( "robustness",
        [ Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "precision toggles" `Quick test_precision_toggles;
          Alcotest.test_case "watchpoints" `Quick test_watchpoints;
          Alcotest.test_case "watch+break mix" `Quick test_watch_and_break_mix;
          Alcotest.test_case "slice tree + save" `Quick test_slice_tree_and_save;
          Alcotest.test_case "list" `Quick test_list_command;
          Alcotest.test_case "sstep n" `Quick test_sstep_multi ] );
      ( "integration",
        [ Alcotest.test_case "maple command" `Quick test_maple_command;
          Alcotest.test_case "pbzip2 case study" `Quick
            test_bug_case_study_workflow ] ) ]
