(* Tests for dr_pinplay: pinball serialization, logger region capture,
   deterministic replay (the paper's core guarantee), and relogging with
   keep-sets. *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let racy_src =
  {|
global int x;
global int trace[64];
global int tpos;
fn t2(int n) {
  int k = x;
  k = k + 1;
  x = k;
  trace[tpos] = 100 + k;
  tpos = tpos + 1;
}
fn main() {
  int t = spawn(t2, 0);
  int k = x;
  k = k + 1;
  x = k;
  trace[tpos] = 200 + k;
  tpos = tpos + 1;
  join(t);
  print(x);
  print(rand() % 100);
  print(read());
}
|}

let log_whole ?(seed = 3) ?(input = [| 55 |]) src =
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
      ~input (compile src) Dr_pinplay.Logger.Whole
  with
  | Ok (pb, stats) -> (pb, stats)
  | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e

(* ---- pinball serialization ---- *)

let test_pinball_roundtrip () =
  let pb, _ = log_whole racy_src in
  let bytes = Dr_pinplay.Pinball.to_bytes pb in
  let pb' = Dr_pinplay.Pinball.of_bytes bytes in
  Alcotest.(check bool) "schedule preserved" true
    (pb.Dr_pinplay.Pinball.schedule = pb'.Dr_pinplay.Pinball.schedule);
  Alcotest.(check bool) "syscalls preserved" true
    (pb.Dr_pinplay.Pinball.syscalls = pb'.Dr_pinplay.Pinball.syscalls);
  Alcotest.(check int) "size consistent"
    (String.length bytes)
    (Dr_pinplay.Pinball.size_bytes pb)

let test_pinball_file () =
  let pb, _ = log_whole racy_src in
  let path = Filename.temp_file "drdebug" ".pinball" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dr_pinplay.Pinball.save_file path pb;
      let pb' = Dr_pinplay.Pinball.load_file path in
      Alcotest.(check bool) "file round-trip" true
        (Dr_pinplay.Pinball.to_bytes pb = Dr_pinplay.Pinball.to_bytes pb'))

let test_pinball_corrupt () =
  let structured what s =
    match Dr_pinplay.Pinball.of_bytes s with
    | _ -> Alcotest.failf "%s: decoded a corrupt pinball" what
    | exception Dr_pinplay.Pinball.Pinball_error _ -> ()
  in
  structured "bad magic" "\x05WRONG";
  structured "empty" "";
  structured "trailing bytes" (Dr_pinplay.Pinball.to_bytes (fst (log_whole racy_src)) ^ "x")

(* ---- the flat schedule: bytes on disk and decode allocation ---- *)

(* the payload of section [id] in a serialized pinball, read straight
   from the container's section table *)
let section_bytes bytes id =
  let open Dr_util.Codec in
  let d = decoder bytes in
  ignore (get_string d : string);
  ignore (get_uint d : int);
  ignore (get_uint d : int);
  let table =
    List.init (get_uint d) (fun _ ->
        let id = get_uint d in
        let len = get_uint d in
        ignore (get_uint d : int);
        (id, len))
  in
  let off = ref d.pos in
  List.find_map
    (fun (id', len) ->
      let at = !off in
      off := at + len;
      if id' = id then Some (String.sub bytes at len) else None)
    table
  |> Option.get

(* LEB128, written out by hand: 7 bits a byte, low group first *)
let rec varint n =
  if n < 0x80 then String.make 1 (Char.chr n)
  else String.make 1 (Char.chr (0x80 lor (n land 0x7f))) ^ varint (n lsr 7)

let prop_schedule_roundtrip =
  let base = lazy (fst (log_whole racy_src)) in
  let run =
    QCheck.(
      pair (int_bound 300)
        (make
           QCheck.Gen.(frequency [ (1, return 0); (4, int_bound 20_000) ])))
  in
  QCheck.Test.make ~name:"schedule runs round-trip through the pinball bytes"
    ~count:200 (QCheck.small_list run)
    (fun runs ->
      let schedule = Dr_machine.Schedule.of_runs runs in
      let pb = { (Lazy.force base) with Dr_pinplay.Pinball.schedule } in
      let bytes = Dr_pinplay.Pinball.to_bytes pb in
      let pb' = Dr_pinplay.Pinball.of_bytes bytes in
      Dr_machine.Schedule.to_runs pb'.Dr_pinplay.Pinball.schedule = runs
      && Dr_machine.Schedule.steps schedule
         = List.fold_left (fun acc (_, n) -> acc + n) 0 runs
      && section_bytes bytes 3 (* the schedule section *)
         = String.concat ""
             (varint (List.length runs)
             :: List.concat_map (fun (tid, n) -> [ varint tid; varint n ]) runs))

let test_decode_allocation () =
  (* runs of 2-3 steps over 4 threads, so the recording has over 100k
     runs; decoding fills one int array instead of boxing each run *)
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:600 in
  let pb =
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed = 1; max_quantum = 2 })
        prog Dr_pinplay.Logger.Whole
    with
    | Ok (pb, _) -> pb
    | Error err -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error err
  in
  let runs = Dr_machine.Schedule.length pb.Dr_pinplay.Pinball.schedule in
  Alcotest.(check bool)
    (Printf.sprintf "at least 100k runs (%d)" runs)
    true (runs >= 100_000);
  let bytes = Dr_pinplay.Pinball.to_bytes pb in
  let minor () =
    let m, _, _ = Gc.counters () in
    m
  in
  let w0 = minor () in
  let pb' = Dr_pinplay.Pinball.of_bytes bytes in
  let words = (minor () -. w0) /. float_of_int runs in
  Alcotest.(check int) "runs decoded" runs
    (Dr_machine.Schedule.length pb'.Dr_pinplay.Pinball.schedule);
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per run" words)
    true (words < 0.5)

(* ---- logger + replayer: whole executions ---- *)

let run_native ~seed ~input src =
  let prog = compile src in
  let m = Dr_machine.Machine.create ~input prog in
  let r =
    Dr_machine.Driver.run ~max_steps:1_000_000 m
      (Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
  in
  (r, Dr_machine.Machine.output_list m)

let test_replay_reproduces_output () =
  (* the replayed run must produce exactly the output of the logged run,
     including rand() and read() results *)
  let seed = 7 and input = [| 99 |] in
  let _, native_out = run_native ~seed ~input racy_src in
  let pb, _ =
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
        ~input (compile racy_src) Dr_pinplay.Logger.Whole
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let m, reason = Dr_pinplay.Replayer.replay (compile racy_src) pb in
  (match reason with
  | Dr_machine.Driver.Terminated _ | Dr_machine.Driver.Schedule_end -> ()
  | r ->
    Alcotest.failf "unexpected replay stop: %a"
      (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ());
  Alcotest.(check (list int)) "replay output = native output" native_out
    (Dr_machine.Machine.output_list m)

let test_replay_is_repeatable () =
  let pb, _ = log_whole ~seed:11 racy_src in
  let prog = compile racy_src in
  let run () =
    let m, _ = Dr_pinplay.Replayer.replay prog pb in
    (Dr_machine.Machine.output_list m, Dr_machine.Machine.total_icount m)
  in
  let r1 = run () and r2 = run () and r3 = run () in
  Alcotest.(check bool) "three replays identical" true (r1 = r2 && r2 = r3)

let prop_replay_determinism =
  QCheck.Test.make ~name:"replay reproduces any seeded schedule" ~count:25
    QCheck.(pair (int_bound 500) (int_bound 1000))
    (fun (seed, input0) ->
      let input = [| input0 |] in
      let _, native_out = run_native ~seed ~input racy_src in
      match
        Dr_pinplay.Logger.log
          ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 4 })
          ~input (compile racy_src) Dr_pinplay.Logger.Whole
      with
      | Error _ -> false
      | Ok (pb, _) ->
        let m, _ = Dr_pinplay.Replayer.replay (compile racy_src) pb in
        Dr_machine.Machine.output_list m = native_out)

(* ---- region capture ---- *)

let loopy_src =
  {|
global int acc;
fn main() {
  for (int i = 0; i < 2000; i = i + 1) {
    acc = acc + i;
  }
  print(acc);
}
|}

let test_region_skip_length () =
  let prog = compile loopy_src in
  match
    Dr_pinplay.Logger.log prog
      (Dr_pinplay.Logger.Skip_length { skip = 500; length = 300 })
  with
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  | Ok (pb, stats) ->
    Alcotest.(check int) "main instructions" 300 stats.Dr_pinplay.Logger.main_instructions;
    Alcotest.(check int) "region length recorded" 300
      pb.Dr_pinplay.Pinball.region.Dr_pinplay.Pinball.length;
    Alcotest.(check int) "skip recorded" 500
      pb.Dr_pinplay.Pinball.region.Dr_pinplay.Pinball.skip;
    (* single-threaded: schedule instructions = main instructions *)
    Alcotest.(check int) "schedule totals" 300
      (Dr_pinplay.Pinball.schedule_instructions pb);
    (* replaying the region executes exactly those instructions *)
    let m, reason = Dr_pinplay.Replayer.replay prog pb in
    (match reason with
    | Dr_machine.Driver.Schedule_end -> ()
    | r ->
      Alcotest.failf "expected schedule end, got %a"
        (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ());
    Alcotest.(check int) "replayed instruction count" 300
      (Dr_machine.Machine.total_icount m
      - pb.Dr_pinplay.Pinball.snapshot.Dr_machine.Snapshot.total_icount)

let test_region_ends_early_at_termination () =
  let prog = compile loopy_src in
  match
    Dr_pinplay.Logger.log prog
      (Dr_pinplay.Logger.Skip_length { skip = 100; length = 10_000_000 })
  with
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  | Ok (_, stats) -> (
    match stats.Dr_pinplay.Logger.stop with
    | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> ()
    | r ->
      Alcotest.failf "expected termination, got %a"
        (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ())

let test_skip_past_end_is_error () =
  let prog = compile "fn main() { print(1); }" in
  match
    Dr_pinplay.Logger.log prog
      (Dr_pinplay.Logger.Skip_length { skip = 1_000_000; length = 10 })
  with
  | Error (Dr_pinplay.Logger.Terminated_before_region _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Dr_pinplay.Logger.pp_error e
  | Ok _ -> Alcotest.fail "expected an error"

let test_until_assert_failure () =
  let src =
    {|
global int x;
fn racer(int n) { x = 7; }
fn main() {
  int t = spawn(racer, 0);
  join(t);
  assert(x == 0, "x was modified");
}
|}
  in
  let prog = compile src in
  match
    Dr_pinplay.Logger.log prog
      (Dr_pinplay.Logger.Skip_until { skip = 0; until = (fun _ -> false) })
  with
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  | Ok (pb, stats) ->
    (match stats.Dr_pinplay.Logger.stop with
    | Dr_machine.Driver.Terminated (Dr_machine.Machine.Assert_failed { msg; _ }) ->
      Alcotest.(check string) "assert message" "x was modified" msg
    | r ->
      Alcotest.failf "expected assert, got %a"
        (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ());
    (* replaying reproduces the assertion failure *)
    let _, reason = Dr_pinplay.Replayer.replay prog pb in
    (match reason with
    | Dr_machine.Driver.Terminated (Dr_machine.Machine.Assert_failed _) -> ()
    | r ->
      Alcotest.failf "replay should fail the assert, got %a"
        (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ())

(* ---- replayer interaction: breakpoints and resume ---- *)

let test_replay_breakpoint_resume () =
  let prog = compile loopy_src in
  let pb, _ =
    match
      Dr_pinplay.Logger.log prog
        (Dr_pinplay.Logger.Skip_length { skip = 0; length = 1000 })
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let r = Dr_pinplay.Replayer.create prog pb in
  (* stop after 100 steps, then resume to the end; total must match *)
  let first = Dr_pinplay.Replayer.resume ~max_steps:100 r in
  (match first with
  | Dr_machine.Driver.Max_steps -> ()
  | _ -> Alcotest.fail "expected max-steps stop");
  let rest = Dr_pinplay.Replayer.resume r in
  (match rest with
  | Dr_machine.Driver.Schedule_end -> ()
  | r ->
    Alcotest.failf "expected schedule end, got %a"
      (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ());
  let m = Dr_pinplay.Replayer.machine r in
  Alcotest.(check int) "full region replayed" 1000
    (Dr_machine.Machine.total_icount m
    - pb.Dr_pinplay.Pinball.snapshot.Dr_machine.Snapshot.total_icount)

(* A breakpoint that stops a run in its middle leaves the run cursor
   alone: stepping once and then continuing retires exactly the
   uninterrupted run's (tid, pc) sequence.  [fresh hooks] starts the run
   afresh and returns [resume break_at max_steps]; [in_run i] tells
   whether step [i] continues the run of step [i - 1]. *)
let check_breakpoint_mid_run name prog ~fresh ~in_run =
  let module D = Dr_machine.Driver in
  let code = prog.Dr_isa.Program.code in
  let trace = ref [] in
  let hooks =
    { D.on_event =
        (fun ev ->
          trace := (ev.Dr_machine.Event.tid, ev.Dr_machine.Event.pc) :: !trace) }
  in
  let final = (fresh hooks) None max_int in
  let reference = List.rev !trace in
  (* candidates: the first execution of a pc that cannot block, right
     after a step of the same thread *)
  let seen = Hashtbl.create 64 and cands = ref [] and prev = ref (-1) in
  List.iteri
    (fun i (tid, pc) ->
      if not (Hashtbl.mem seen pc) then begin
        Hashtbl.add seen pc ();
        match code.(pc) with
        | Dr_isa.Instr.Sys _ -> ()
        | _ -> if tid = !prev then cands := (i, tid, pc) :: !cands
      end;
      prev := tid)
    reference;
  let cands = List.filter (fun (i, _, _) -> in_run i) (List.rev !cands) in
  Alcotest.(check bool) (name ^ ": a breakpoint lands mid-run") true
    (cands <> []);
  List.iter
    (fun (i, tid, pc) ->
      trace := [];
      let resume = fresh hooks in
      let bs = Dr_util.Bitset.create (Array.length code + 1) in
      Dr_util.Bitset.add bs pc;
      (match resume (Some bs) max_int with
      | D.Breakpoint b when b.tid = tid && b.pc = pc -> ()
      | r -> Alcotest.failf "%s: break at pc %d: %a" name pc D.pp_stop_reason r);
      Alcotest.(check int)
        (Printf.sprintf "%s: stopped before step %d" name i)
        i (List.length !trace);
      (match resume None 1 with
      | D.Max_steps -> ()
      | r ->
        Alcotest.failf "%s: one step off pc %d: %a" name pc D.pp_stop_reason r);
      Alcotest.(check bool) (name ^ ": same stop") true
        (resume None max_int = final);
      Alcotest.(check bool)
        (Printf.sprintf "%s: break at pc %d retires the uninterrupted sequence"
           name pc)
        true
        (List.rev !trace = reference))
    (* six spread over the run, not just its first steps *)
    (let n = List.length cands in
     List.filteri (fun k _ -> n <= 6 || k mod (n / 6) = 0) cands)

let test_breakpoint_mid_run () =
  let module D = Dr_machine.Driver in
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:4 in
  let driver policy hooks =
    let s = D.session (Dr_machine.Machine.create prog) (policy ()) in
    fun break_at max_steps -> D.resume ~hooks ~max_steps ?break_at s
  in
  (* seeded: step [i] continues a run iff a session stopped after [i]
     steps still has the run's thread runnable with steps left *)
  let seeded () = D.Seeded { seed = 5; max_quantum = 8 } in
  check_breakpoint_mid_run "seeded" prog ~fresh:(driver seeded)
    ~in_run:(fun i ->
      let m = Dr_machine.Machine.create prog in
      let s = D.session m (seeded ()) in
      ignore (D.resume ~max_steps:i s);
      s.D.run_left > 0
      && (Dr_machine.Machine.thread m s.D.run_tid).Dr_machine.Machine.state
         = Dr_machine.Machine.Runnable);
  (* custom: runs of one step, so the stop falls between a pick and its
     step; a stateful picker would skip a slot if it were asked twice *)
  let custom () =
    let calls = ref 0 in
    D.Custom
      (fun m ~last:_ ->
        incr calls;
        match D.next_runnable m (!calls / 3) with -1 -> None | t -> Some t)
  in
  check_breakpoint_mid_run "custom" prog ~fresh:(driver custom)
    ~in_run:(fun _ -> true);
  (* scripted replay: the recorded schedule's entries are the runs *)
  let pb, _ =
    match
      Dr_pinplay.Logger.log ~policy:(seeded ()) prog Dr_pinplay.Logger.Whole
    with
    | Ok r -> r
    | Error err -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error err
  in
  let run_starts = Hashtbl.create 256 in
  ignore
    (List.fold_left
       (fun at (_, n) ->
         Hashtbl.replace run_starts at ();
         at + n)
       0
       (Dr_machine.Schedule.to_runs pb.Dr_pinplay.Pinball.schedule));
  check_breakpoint_mid_run "scripted" prog
    ~fresh:(fun hooks ->
      let r = Dr_pinplay.Replayer.create prog pb in
      fun break_at max_steps ->
        Dr_pinplay.Replayer.resume ~hooks ~max_steps ?break_at r)
    ~in_run:(fun i -> not (Hashtbl.mem run_starts i))

(* ---- relogger: keep-sets over gseq ---- *)

let straightline_src =
  {|
global int a;
global int b;
global int c;
fn main() {
  a = 1;
  b = 2;
  b = b * 10;
  b = b + 3;
  c = a + b;
  print(c);
}
|}

(* Find the trace of (pc, tid, instance) for a region pinball. *)
let trace_of prog pb =
  let events = ref [] in
  let counts = Hashtbl.create 64 in
  let hooks =
    { Dr_machine.Driver.on_event =
        (fun ev ->
          let tid = ev.Dr_machine.Event.tid and pc = ev.Dr_machine.Event.pc in
          let k = (tid, pc) in
          let i = 1 + Option.value ~default:0 (Hashtbl.find_opt counts k) in
          Hashtbl.replace counts k i;
          events := (tid, pc, i, ev.Dr_machine.Event.instr) :: !events) }
  in
  let _ = Dr_pinplay.Replayer.replay ~hooks prog pb in
  List.rev !events

(* The keep-set over a region of [n] events that excludes the trace
   indices (= gseqs) in the half-open [lo, hi) ranges. *)
let keep_excluding n ranges =
  let keep = Dr_util.Bitset.create n in
  for k = 0 to n - 1 do
    if not (List.exists (fun (lo, hi) -> lo <= k && k < hi) ranges) then
      Dr_util.Bitset.add keep k
  done;
  keep

let test_relog_excludes_and_injects () =
  let prog = compile straightline_src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let trace = trace_of prog pb in
  (* exclude the three instructions that compute b (the mov/mul/add
     statements), i.e. every Store to b's address except a= and c= *)
  let b_addr =
    match
      List.assoc_opt "b"
        (List.map
           (fun (n, a, _) -> (n, a))
           prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals)
    with
    | Some a -> a
    | None -> Alcotest.fail "no global b"
  in
  (* find the span of trace events from the first store-to-b through the
     last store-to-b; exclude that span *)
  let stores_to_b =
    List.filter
      (fun (_, pc, _, _) ->
        match prog.Dr_isa.Program.code.(pc) with
        | Dr_isa.Instr.Store _ -> (
          (* check statically: preceding mov loads b's address *)
          match prog.Dr_isa.Program.code.(pc - 1) with
          | Dr_isa.Instr.Mov (_, Dr_isa.Instr.Imm a) -> a = b_addr
          | _ -> false)
        | _ -> false)
      trace
  in
  Alcotest.(check int) "three stores to b" 3 (List.length stores_to_b)

let test_relog_simple_exclusion () =
  (* exclude a contiguous chunk of a single-threaded region and check the
     slice pinball structure *)
  let prog = compile straightline_src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let trace = trace_of prog pb in
  let n = List.length trace in
  (* exclude events 5..9 (0-based) of thread 0 *)
  let spb =
    Dr_pinplay.Relogger.relog prog pb ~keep:(keep_excluding n [ (5, 10) ])
  in
  Alcotest.(check bool) "slice kind" true
    (spb.Dr_pinplay.Pinball.kind = Dr_pinplay.Pinball.Slice);
  Alcotest.(check int) "five instructions excluded" (n - 5)
    (Dr_pinplay.Pinball.step_count spb);
  (* there must be an injection restoring the excluded side effects *)
  Alcotest.(check bool) "has injection" true
    (Array.length spb.Dr_pinplay.Pinball.injections >= 1)

let test_relog_sync_exclusion_rejected () =
  let src =
    {|
global int m;
fn main() {
  lock(&m);
  unlock(&m);
  print(1);
}
|}
  in
  let prog = compile src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let trace = Array.of_list (trace_of prog pb) in
  let n = Array.length trace in
  (* find the lock syscall event and try to exclude it (and the rest) *)
  let lock_at =
    let rec find k =
      let _, pc, _, _ = trace.(k) in
      match prog.Dr_isa.Program.code.(pc) with
      | Dr_isa.Instr.Sys Dr_isa.Instr.Lock -> k
      | _ -> find (k + 1)
    in
    find 0
  in
  Alcotest.(check bool) "raises Relog_error" true
    (try
       ignore
         (Dr_pinplay.Relogger.relog prog pb
            ~keep:(keep_excluding n [ (lock_at, n) ]));
       false
     with Dr_pinplay.Relogger.Relog_error _ -> true)

(* the keep-set numbers the region's events: any other length is a
   caller error, not a short or padded slice *)
let test_relog_keep_length_checked () =
  let prog = compile straightline_src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let n = Dr_pinplay.Pinball.schedule_instructions pb in
  List.iter
    (fun len ->
      Alcotest.(check bool)
        (Printf.sprintf "keep of length %d (region %d)" len n)
        true
        (match
           Dr_pinplay.Relogger.relog prog pb ~keep:(Dr_util.Bitset.create len)
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ n - 1; n + 1; 0 ]

(* ---- checkpoints (reverse-debugging substrate) ---- *)

(* ---- seek: a replay started at any step of the recorded schedule ---- *)

(* two threads that stay runnable for far longer than any test schedule *)
let spin_src =
  {|
global int acc;
fn spin(int n) {
  for (int i = 0; i < 100000; i = i + 1) {
    acc = acc + n;
  }
}
fn main() {
  int t = spawn(spin, 1);
  spin(2);
  join(t);
}
|}

(* the tids a scripted session steps from [start] until the schedule is
   exhausted, on a machine where threads 0 and 1 are both runnable *)
let scripted_picks runs start =
  let schedule = Dr_machine.Schedule.of_runs runs in
  let m = Dr_machine.Machine.create (compile spin_src) in
  (match
     Dr_machine.Driver.run m
       (Dr_machine.Driver.Round_robin { quantum = 1 })
       ~stop_when:(fun _ -> Dr_machine.Machine.num_threads m = 2)
   with
  | Dr_machine.Driver.Stop_requested -> ()
  | r -> Alcotest.failf "spawn: %a" Dr_machine.Driver.pp_stop_reason r);
  let s =
    Dr_machine.Driver.session m (Dr_machine.Driver.Scripted { schedule; start })
  in
  let tids = ref [] in
  let on_event (ev : Dr_machine.Event.t) =
    tids := ev.Dr_machine.Event.tid :: !tids
  in
  (match Dr_machine.Driver.resume ~hooks:{ Dr_machine.Driver.on_event } s with
  | Dr_machine.Driver.Schedule_end -> ()
  | r -> Alcotest.failf "seek %d: %a" start Dr_machine.Driver.pp_stop_reason r);
  List.rev !tids

let expand_schedule runs =
  List.concat_map (fun (tid, n) -> List.init n (fun _ -> tid)) runs

let test_seek_positions () =
  (* seeking [k] steps in picks exactly the schedule's suffix: at 0, at
     an entry boundary, mid-entry, at the end and past it, with and
     without zero-count entries *)
  let check sched =
    List.iter
      (fun k ->
        Alcotest.(check (list int))
          (Printf.sprintf "seek %d" k)
          (List.filteri (fun i _ -> i >= k) (expand_schedule sched))
          (scripted_picks sched k))
      [ 0; 5; 6; 10; 2; 11 ]
  in
  check [ (0, 5); (1, 3); (0, 2) ];
  check [ (1, 0); (0, 5); (1, 0); (1, 3); (0, 0); (0, 2); (1, 0) ]

(* several threads that print and draw rand() while they run, so a
   checkpoint lands with output printed and syscall results consumed *)
let seek_src =
  {|
global int x;
global int m;
fn worker(int n) {
  for (int i = 0; i < 12; i = i + 1) {
    lock(&m);
    x = x + n + rand() % 7;
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
}
|}

let seek_case =
  lazy
    (let prog = compile seek_src in
     match
       Dr_pinplay.Logger.log
         ~policy:(Dr_machine.Driver.Seeded { seed = 4; max_quantum = 3 })
         ~digest_interval:16 prog Dr_pinplay.Logger.Whole
     with
     | Ok (pb, _) -> (prog, pb)
     | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e)

(* the same pinball with zero-count entries at the front, the back and
   after every third entry: it must replay identically *)
let with_zero_entries (pb : Dr_pinplay.Pinball.t) =
  let sched = Dr_machine.Schedule.to_runs pb.Dr_pinplay.Pinball.schedule in
  let out = ref [ (0, 0) ] in
  List.iteri
    (fun i (tid, n) ->
      out := (tid, n) :: !out;
      if i mod 3 = 0 then out := (tid, 0) :: !out)
    sched;
  { pb with
    Dr_pinplay.Pinball.schedule =
      Dr_machine.Schedule.of_runs (List.rev ((1, 0) :: !out)) }

(* the end of a replay, everything an uninterrupted replay pins down *)
let replay_end r =
  match Dr_pinplay.Replayer.run r with
  | exception Dr_pinplay.Replayer.Divergence d -> Error d
  | reason ->
    let m = Dr_pinplay.Replayer.machine r in
    let threads =
      Array.to_list (Dr_machine.Machine.threads m)
      |> List.map (fun th ->
             (th.Dr_machine.Machine.pc, Array.to_list th.Dr_machine.Machine.regs))
    in
    Ok
      ( Format.asprintf "%a" Dr_machine.Driver.pp_stop_reason reason,
        Dr_machine.Machine.total_icount m,
        threads,
        Dr_machine.Machine.output_list m )

(* a copy of [pb] whose first digest beyond step [k] is wrong *)
let corrupt_digest_after (pb : Dr_pinplay.Pinball.t) k =
  let digests = Array.copy pb.Dr_pinplay.Pinball.digests in
  Array.find_index (fun d -> d.Dr_pinplay.Pinball.dg_step > k) digests
  |> Option.map (fun i ->
         let d = digests.(i) in
         digests.(i) <-
           { d with Dr_pinplay.Pinball.dg_hash = d.Dr_pinplay.Pinball.dg_hash + 1 };
         { pb with Dr_pinplay.Pinball.digests })

let prop_seek_any_step =
  let gen rand =
    let _, pb = Lazy.force seek_case in
    let n = Dr_pinplay.Pinball.schedule_instructions pb in
    let boundaries =
      List.fold_left
        (fun acc (_, c) -> (List.hd acc + c) :: acc)
        [ 0 ]
        (Dr_machine.Schedule.to_runs pb.Dr_pinplay.Pinball.schedule)
    in
    let k =
      QCheck.Gen.(
        frequency
          [ (1, return 0); (1, return n); (3, oneofl boundaries);
            (3, int_bound n) ])
        rand
    in
    (k, QCheck.Gen.bool rand)
  in
  QCheck.Test.make ~name:"seek from any step matches an uninterrupted replay"
    ~count:40
    (QCheck.make ~print:QCheck.Print.(pair int bool) gen)
    (fun (k, zeros) ->
      let prog, pb = Lazy.force seek_case in
      let pb = if zeros then with_zero_entries pb else pb in
      let r = Dr_pinplay.Replayer.create prog pb in
      ignore (Dr_pinplay.Replayer.resume ~max_steps:k r);
      let ck = Dr_pinplay.Replayer.checkpoint r in
      let straight pb = replay_end (Dr_pinplay.Replayer.create prog pb) in
      let seeked pb = replay_end (Dr_pinplay.Replayer.create ~from:ck prog pb) in
      Result.is_ok (straight pb)
      && straight pb = seeked pb
      &&
      (* a wrong digest past the seek point is caught at the same step *)
      match corrupt_digest_after pb k with
      | None -> true
      | Some bad -> Result.is_error (straight bad) && straight bad = seeked bad)

let test_checkpoint_resume_equivalence () =
  (* resuming from a checkpoint produces the same continuation as the
     uninterrupted replay *)
  let prog = compile racy_src in
  let pb, _ = log_whole ~seed:13 racy_src in
  (* uninterrupted reference replay *)
  let m_ref, _ = Dr_pinplay.Replayer.replay prog pb in
  let ref_out = Dr_machine.Machine.output_list m_ref in
  (* checkpoint mid-way, then resume from it *)
  let r1 = Dr_pinplay.Replayer.create prog pb in
  let _ = Dr_pinplay.Replayer.resume ~max_steps:40 r1 in
  let cp = Dr_pinplay.Replayer.checkpoint r1 in
  Alcotest.(check int) "checkpoint position" 40
    cp.Dr_pinplay.Replayer.c_steps;
  let r2 = Dr_pinplay.Replayer.create ~from:cp prog pb in
  Alcotest.(check int) "resumed at checkpoint" 40 (Dr_pinplay.Replayer.steps r2);
  let _ = Dr_pinplay.Replayer.resume r2 in
  (* the checkpoint carries the output printed before it *)
  Alcotest.(check (list int)) "reference output" ref_out
    (Dr_machine.Machine.output_list (Dr_pinplay.Replayer.machine r2))

let prop_checkpoint_any_position =
  QCheck.Test.make ~name:"checkpoint/resume at any position" ~count:20
    QCheck.(int_bound 100)
    (fun steps ->
      let prog = compile racy_src in
      let pb, _ = log_whole ~seed:5 racy_src in
      let total = Dr_pinplay.Pinball.schedule_instructions pb in
      let steps = min steps (total - 1) in
      let r1 = Dr_pinplay.Replayer.create prog pb in
      let _ = Dr_pinplay.Replayer.resume ~max_steps:steps r1 in
      let cp = Dr_pinplay.Replayer.checkpoint r1 in
      (* finish both and compare final machine memories *)
      let _ = Dr_pinplay.Replayer.resume r1 in
      let r2 = Dr_pinplay.Replayer.create ~from:cp prog pb in
      let _ = Dr_pinplay.Replayer.resume r2 in
      let m1 = Dr_pinplay.Replayer.machine r1 in
      let m2 = Dr_pinplay.Replayer.machine r2 in
      m1.Dr_machine.Machine.mem = m2.Dr_machine.Machine.mem
      && Dr_machine.Machine.total_icount m1 = Dr_machine.Machine.total_icount m2)

let test_logger_skip_exact () =
  (* the region must start exactly after [skip] main-thread instructions *)
  let prog = compile loopy_src in
  match
    Dr_pinplay.Logger.log prog
      (Dr_pinplay.Logger.Skip_length { skip = 123; length = 10 })
  with
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  | Ok (pb, _) ->
    let snap_icount =
      List.find
        (fun ts -> ts.Dr_machine.Snapshot.s_tid = 0)
        pb.Dr_pinplay.Pinball.snapshot.Dr_machine.Snapshot.threads
    in
    Alcotest.(check int) "snapshot at skip boundary" 123
      snap_icount.Dr_machine.Snapshot.s_icount

let test_relog_multiple_regions_per_thread () =
  let src = {|global int a;
global int b;
global int c;
fn main() {
  a = 1;
  b = 100;
  a = a + 1;
  b = b + 100;
  a = a + 1;
  c = a;
  print(c);
}|} in
  let prog = compile src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let trace = Array.of_list (trace_of prog pb) in
  let line_of pc = Dr_isa.Debug_info.line_of_pc prog.Dr_isa.Program.debug pc in
  let is_b (_, pc, _, _) = match line_of pc with Some (6 | 8) -> true | _ -> false in
  (* exclude every b-statement event *)
  let n = Array.length trace in
  let keep = Dr_util.Bitset.create n in
  Array.iteri (fun k ev -> if not (is_b ev) then Dr_util.Bitset.add keep k) trace;
  let runs = ref 0 in
  Array.iteri
    (fun k ev -> if is_b ev && (k = 0 || not (is_b trace.(k - 1))) then incr runs)
    trace;
  Alcotest.(check int) "two disjoint excluded runs" 2 !runs;
  let spb = Dr_pinplay.Relogger.relog prog pb ~keep in
  Alcotest.(check int) "one injection per region" 2
    (Array.length spb.Dr_pinplay.Pinball.injections);
  Alcotest.(check bool) "fewer steps" true
    (Dr_pinplay.Pinball.step_count spb
    < Dr_pinplay.Pinball.schedule_instructions pb);
  (* the injected b value must be correct: replay the slice pinball and
     check memory afterwards *)
  let m = Dr_machine.Snapshot.restore prog spb.Dr_pinplay.Pinball.snapshot in
  Array.iter
    (fun ev ->
      match ev with
      | Dr_pinplay.Pinball.Inject i ->
        List.iter
          (fun (a, v) -> m.Dr_machine.Machine.mem.(a) <- v)
          spb.Dr_pinplay.Pinball.injections.(i).Dr_pinplay.Pinball.inj_mem
      | _ -> ())
    spb.Dr_pinplay.Pinball.slice_events;
  let b_addr =
    match
      List.find_opt
        (fun (n, _, _) -> n = "b")
        prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals
    with
    | Some (_, a, _) -> a
    | None -> Alcotest.fail "no b"
  in
  Alcotest.(check int) "injections restore b" 200 m.Dr_machine.Machine.mem.(b_addr)

(* ---- relogger injection edge cases ----

   Each test replays the slice pinball to the end and compares the
   machine's final globals (and output, when no print is excluded)
   against an uninterrupted reference replay: the injected side effects
   must leave exactly the state the excluded code would have computed. *)

let whole_pinball prog =
  match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
  | Ok (pb, _) -> pb
  | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e

let run_slice_replay prog spb =
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  let rec go () =
    match Dr_exeslice.Slice_replay.step sr with
    | Dr_exeslice.Slice_replay.Stepped _ | Dr_exeslice.Slice_replay.Injected _
      ->
      go ()
    | Dr_exeslice.Slice_replay.Finished _ | Dr_exeslice.Slice_replay.End_of_slice
      ->
      ()
  in
  go ();
  Dr_exeslice.Slice_replay.machine sr

let globals_of prog (m : Dr_machine.Machine.t) =
  List.map
    (fun (n, addr, _) -> (n, m.Dr_machine.Machine.mem.(addr)))
    prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals

let test_relog_region_at_trace_start () =
  let prog = compile straightline_src in
  let pb = whole_pinball prog in
  let trace = trace_of prog pb in
  let n = List.length trace in
  (* exclude events 0..3: the excluded run starts ON the first event *)
  let spb =
    Dr_pinplay.Relogger.relog prog pb ~keep:(keep_excluding n [ (0, 4) ])
  in
  (* the injection precedes the first included step *)
  (match spb.Dr_pinplay.Pinball.slice_events.(0) with
  | Dr_pinplay.Pinball.Inject _ -> ()
  | Dr_pinplay.Pinball.Step { pc; _ } ->
    Alcotest.failf "first slice event is Step pc=%d, expected Inject" pc);
  Alcotest.(check int) "four events excluded" (n - 4)
    (Dr_pinplay.Pinball.step_count spb);
  let rm, _ = Dr_pinplay.Replayer.replay prog pb in
  let sm = run_slice_replay prog spb in
  Alcotest.(check bool) "globals match reference" true
    (globals_of prog sm = globals_of prog rm);
  Alcotest.(check bool) "output matches reference" true
    (Dr_machine.Machine.output_list sm = Dr_machine.Machine.output_list rm)

let test_relog_region_at_trace_end () =
  let prog = compile straightline_src in
  (* a Skip_length region that stops before main's final ret, so a
     trailing excluded run never covers the thread-final ret *)
  let pb =
    match
      Dr_pinplay.Logger.log prog
        (Dr_pinplay.Logger.Skip_length { skip = 0; length = 12 })
    with
    | Ok (pb, _) -> pb
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  let trace = trace_of prog pb in
  let n = List.length trace in
  let spb =
    Dr_pinplay.Relogger.relog prog pb ~keep:(keep_excluding n [ (n - 3, n) ])
  in
  Alcotest.(check int) "three events excluded" (n - 3)
    (Dr_pinplay.Pinball.step_count spb);
  (* the trailing flush emits the final slice event *)
  (match
     spb.Dr_pinplay.Pinball.slice_events.(Array.length
                                            spb.Dr_pinplay.Pinball.slice_events
                                          - 1)
   with
  | Dr_pinplay.Pinball.Inject _ -> ()
  | Dr_pinplay.Pinball.Step { pc; _ } ->
    Alcotest.failf "last slice event is Step pc=%d, expected trailing Inject"
      pc);
  let rm, _ = Dr_pinplay.Replayer.replay prog pb in
  let sm = run_slice_replay prog spb in
  Alcotest.(check bool) "globals match reference at region end" true
    (globals_of prog sm = globals_of prog rm);
  (* the thread's injected registers equal the reference register file *)
  let rt = Dr_machine.Machine.thread rm 0
  and st = Dr_machine.Machine.thread sm 0 in
  Alcotest.(check bool) "registers match reference" true
    (rt.Dr_machine.Machine.regs = st.Dr_machine.Machine.regs)

let test_relog_two_adjacent_regions () =
  let prog = compile straightline_src in
  let pb = whole_pinball prog in
  let trace = trace_of prog pb in
  let n = List.length trace in
  (* [3,5) and [6,8): separated by the single included event 5 *)
  let spb =
    Dr_pinplay.Relogger.relog prog pb
      ~keep:(keep_excluding n [ (3, 5); (6, 8) ])
  in
  Alcotest.(check int) "four events excluded" (n - 4)
    (Dr_pinplay.Pinball.step_count spb);
  Alcotest.(check int) "one injection per region" 2
    (Array.length spb.Dr_pinplay.Pinball.injections);
  let rm, _ = Dr_pinplay.Replayer.replay prog pb in
  let sm = run_slice_replay prog spb in
  Alcotest.(check bool) "globals match reference" true
    (globals_of prog sm = globals_of prog rm);
  Alcotest.(check bool) "output matches reference" true
    (Dr_machine.Machine.output_list sm = Dr_machine.Machine.output_list rm)

(* ---- schedule identity: recorded pinballs pinned bit for bit ----

   CRC32 of [Pinball.to_bytes] for whole-program recordings of registry
   workloads under Seeded and Round_robin schedules.  The schedule, the
   syscall log and the digests are all in the bytes, so any change to how
   a driver picks threads (or to what a step computes) changes a CRC. *)

let golden_policies =
  [ ("seeded 1", Dr_machine.Driver.Seeded { seed = 1; max_quantum = 8 });
    ("seeded 2", Dr_machine.Driver.Seeded { seed = 2; max_quantum = 8 });
    ("seeded 3", Dr_machine.Driver.Seeded { seed = 3; max_quantum = 8 });
    ("rr 1", Dr_machine.Driver.Round_robin { quantum = 1 });
    ("rr 7", Dr_machine.Driver.Round_robin { quantum = 7 }) ]

let golden_crcs =
  [ ("condvar", [ 0xab0ca908; 0xbbbb841f; 0x3a7fdde5; 0xf58a8111; 0x1bb3d1f8 ]);
    ("pbzip2", [ 0x39e90b42; 0x82c495d7; 0x1fa18d42; 0xf7f6167d; 0xad98e545 ]);
    ("fluidanimate",
     [ 0x081a8adb; 0xccf338f9; 0x23baaf9a; 0x3cfe2943; 0xdfcb94fb ]);
    ("swaptions", [ 0xb5cc65ab; 0xfaf61475; 0x7d837a7f; 0x68142806; 0x3b67b9fe ]) ]

let test_schedule_golden () =
  List.iter
    (fun (name, expected) ->
      let e = Option.get (Dr_workloads.Registry.find name) in
      let prog = e.Dr_workloads.Registry.compile ~threads:3 ~iters:6 in
      let got =
        List.map
          (fun (pname, policy) ->
            match Dr_pinplay.Logger.log ~policy prog Dr_pinplay.Logger.Whole with
            | Error err ->
              Alcotest.failf "%s %s: %a" name pname Dr_pinplay.Logger.pp_error err
            | Ok (pb, _) ->
              Dr_util.Crc32.string (Dr_pinplay.Pinball.to_bytes pb))
          golden_policies
      in
      Alcotest.(check (list int)) (name ^ " pinball CRCs") expected got)
    golden_crcs

let () =
  Alcotest.run "pinplay"
    [ ( "pinball",
        [ Alcotest.test_case "round-trip" `Quick test_pinball_roundtrip;
          Alcotest.test_case "file io" `Quick test_pinball_file;
          Alcotest.test_case "corrupt" `Quick test_pinball_corrupt;
          QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
          Alcotest.test_case "decode allocation" `Quick test_decode_allocation ] );
      ( "log+replay",
        [ Alcotest.test_case "replay reproduces output" `Quick
            test_replay_reproduces_output;
          Alcotest.test_case "replay repeatable" `Quick test_replay_is_repeatable;
          QCheck_alcotest.to_alcotest prop_replay_determinism ] );
      ( "regions",
        [ Alcotest.test_case "skip/length" `Quick test_region_skip_length;
          Alcotest.test_case "region hits termination" `Quick
            test_region_ends_early_at_termination;
          Alcotest.test_case "skip past end" `Quick test_skip_past_end_is_error;
          Alcotest.test_case "until assert" `Quick test_until_assert_failure;
          Alcotest.test_case "breakpoint+resume" `Quick
            test_replay_breakpoint_resume;
          Alcotest.test_case "breakpoint mid-run" `Quick test_breakpoint_mid_run ] );
      ( "relogger",
        [ Alcotest.test_case "store discovery" `Quick test_relog_excludes_and_injects;
          Alcotest.test_case "simple exclusion" `Quick test_relog_simple_exclusion;
          Alcotest.test_case "sync exclusion rejected" `Quick
            test_relog_sync_exclusion_rejected;
          Alcotest.test_case "multiple regions" `Quick
            test_relog_multiple_regions_per_thread;
          Alcotest.test_case "region at trace start" `Quick
            test_relog_region_at_trace_start;
          Alcotest.test_case "region at trace end" `Quick
            test_relog_region_at_trace_end;
          Alcotest.test_case "two adjacent regions" `Quick
            test_relog_two_adjacent_regions;
          Alcotest.test_case "keep length checked" `Quick
            test_relog_keep_length_checked ] );
      ( "seek",
        [ Alcotest.test_case "schedule positions" `Quick test_seek_positions;
          Alcotest.test_case "golden schedules" `Quick test_schedule_golden;
          QCheck_alcotest.to_alcotest prop_seek_any_step ] );
      ( "checkpoints",
        [ Alcotest.test_case "resume equivalence" `Quick
            test_checkpoint_resume_equivalence;
          QCheck_alcotest.to_alcotest prop_checkpoint_any_position;
          Alcotest.test_case "skip boundary exact" `Quick test_logger_skip_exact ] ) ]
