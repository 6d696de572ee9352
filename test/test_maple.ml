(* Tests for dr_maple: iRoot profiling/prediction, active scheduling, and
   the paper's Maple integration (exposed bug -> pinball -> DrDebug). *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

(* A bug that plain schedules rarely hit: main usually reads x before the
   worker writes it; the assert fails only when the write wins the race. *)
let order_bug_src = {|global int x;
fn t1(int n) {
  x = 1;
}
fn main() {
  int t = spawn(t1, 0);
  int k = x;
  join(t);
  assert(k == 0, "read saw remote write");
}|}

let test_iroot_flip () =
  let ir = { Dr_maple.Iroot.pre = 10; post = 20; idiom = Dr_maple.Iroot.RW } in
  let f = Dr_maple.Iroot.flip ir in
  Alcotest.(check int) "pre" 20 f.Dr_maple.Iroot.pre;
  Alcotest.(check int) "post" 10 f.Dr_maple.Iroot.post;
  Alcotest.(check bool) "idiom flipped" true (f.Dr_maple.Iroot.idiom = Dr_maple.Iroot.WR);
  Alcotest.(check bool) "double flip = id" true
    (Dr_maple.Iroot.equal ir (Dr_maple.Iroot.flip f))

let test_profiler_observes () =
  let prog = compile order_bug_src in
  let obs = Dr_maple.Profiler.profile prog in
  Alcotest.(check bool) "observed some iroots" true
    (obs.Dr_maple.Profiler.observed <> []);
  (* every candidate must be unobserved *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "candidate not observed" false
        (List.exists (Dr_maple.Iroot.equal c) obs.Dr_maple.Profiler.observed))
    obs.Dr_maple.Profiler.candidates

let test_plain_schedules_pass () =
  (* confirm the bug is actually hard to hit with the profiling seeds *)
  let prog = compile order_bug_src in
  let ok = ref 0 in
  List.iter
    (fun seed ->
      let m = Dr_machine.Machine.create prog in
      match
        Dr_machine.Driver.run ~max_steps:100_000 m
          (Dr_machine.Driver.Seeded { seed; max_quantum = 6 })
      with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> incr ok
      | _ -> ())
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "most plain runs pass" true (!ok >= 3)

let test_active_exposes_bug () =
  let prog = compile order_bug_src in
  match Dr_maple.Active.expose prog with
  | None -> Alcotest.fail "Maple failed to expose the order violation"
  | Some exposed -> (
    match exposed.Dr_maple.Active.outcome with
    | Dr_machine.Machine.Assert_failed { msg; _ } ->
      Alcotest.(check string) "the seeded assert" "read saw remote write" msg
    | o ->
      Alcotest.failf "unexpected outcome %a"
        (fun fmt () -> Dr_machine.Machine.pp_outcome fmt o) ())

let test_exposed_pinball_replays () =
  (* the paper's integration: the pinball recorded during the exposing run
     deterministically reproduces the failure under DrDebug *)
  let prog = compile order_bug_src in
  match Dr_maple.Active.expose prog with
  | None -> Alcotest.fail "expose failed"
  | Some exposed ->
    for _ = 1 to 3 do
      let _, reason =
        Dr_pinplay.Replayer.replay prog exposed.Dr_maple.Active.pinball
      in
      match reason with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Assert_failed _) -> ()
      | r ->
        Alcotest.failf "replay did not reproduce: %a"
          (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r) ()
    done

(* a two-update atomicity bug, as in the paper's Fig. 5 *)
let atomicity_bug_src = {|global int x;
fn t1(int n) {
  x = x + 1;
}
fn main() {
  int t = spawn(t1, 0);
  int k = x;
  k = k + 1;
  x = k;
  join(t);
  assert(x == 2, "lost update");
}|}

let test_active_exposes_lost_update () =
  let prog = compile atomicity_bug_src in
  match Dr_maple.Active.expose prog with
  | None -> Alcotest.fail "Maple failed to expose the lost update"
  | Some exposed -> (
    match exposed.Dr_maple.Active.outcome with
    | Dr_machine.Machine.Assert_failed { msg; _ } ->
      Alcotest.(check string) "lost update" "lost update" msg
    | _ -> Alcotest.fail "unexpected outcome")

let test_exposed_bug_slices () =
  (* end-to-end: Maple pinball -> slicing finds the remote write *)
  let prog = compile order_bug_src in
  match Dr_maple.Active.expose prog with
  | None -> Alcotest.fail "expose failed"
  | Some exposed ->
    let c = Dr_slicing.Collector.collect prog exposed.Dr_maple.Active.pinball in
    let gt = Dr_slicing.Global_trace.construct c in
    let crit =
      match
        Dr_slicing.Global_trace.find_last gt ~p:(fun r ->
            match prog.Dr_isa.Program.code.(r.Dr_slicing.Trace.pc) with
            | Dr_isa.Instr.Assert _ -> true
            | _ -> false)
      with
      | Some pos -> { Dr_slicing.Slicer.crit_pos = pos; crit_locs = None }
      | None -> Alcotest.fail "no assert in exposed trace"
    in
    let slice = Dr_slicing.Slicer.compute gt crit in
    let lines = Dr_slicing.Slicer.source_lines prog slice in
    (* x = 1 in t1 (line 3) is the root cause and must be in the slice *)
    Alcotest.(check bool) "root cause in slice" true (List.mem 3 lines)

(* ---- additional maple coverage ---- *)

let test_profiler_idioms () =
  (* a WW conflict must be observed as a WW iroot *)
  let src = {|global int x;
fn t1(int n) { x = 1; }
fn main() {
  int t = spawn(t1, 0);
  x = 2;
  join(t);
  print(x);
}|} in
  let prog = compile src in
  let obs = Dr_maple.Profiler.profile ~seeds:(List.init 16 (fun i -> i)) prog in
  Alcotest.(check bool) "some WW iroot observed" true
    (List.exists
       (fun ir -> ir.Dr_maple.Iroot.idiom = Dr_maple.Iroot.WW)
       obs.Dr_maple.Profiler.observed)

let test_active_policy_realizes_ordering () =
  (* the custom policy must actually realize the forced iRoot ordering *)
  let prog = compile order_bug_src in
  let obs = Dr_maple.Profiler.profile prog in
  Alcotest.(check bool) "has candidates" true
    (obs.Dr_maple.Profiler.candidates <> []);
  let success =
    List.exists
      (fun cand ->
        let _, attempt = Dr_maple.Active.try_iroot prog cand in
        attempt.Dr_maple.Active.realized)
      obs.Dr_maple.Profiler.candidates
  in
  Alcotest.(check bool) "some candidate ordering realized" true success

let test_exposed_attempt_log () =
  let prog = compile order_bug_src in
  match Dr_maple.Active.expose prog with
  | None -> Alcotest.fail "expose failed"
  | Some exposed ->
    Alcotest.(check bool) "attempts recorded" true
      (exposed.Dr_maple.Active.attempts <> []);
    (* the last attempt is the failing one *)
    let last = List.nth exposed.Dr_maple.Active.attempts
        (List.length exposed.Dr_maple.Active.attempts - 1) in
    Alcotest.(check bool) "last attempt matches failing iroot" true
      (Dr_maple.Iroot.equal last.Dr_maple.Active.iroot
         exposed.Dr_maple.Active.failing_iroot)

let test_expose_clean_program_finds_nothing () =
  (* a properly locked program yields no bug *)
  let src = {|global int x;
global int m;
fn t1(int n) { lock(&m); x = x + 1; unlock(&m); }
fn main() {
  int t = spawn(t1, 0);
  lock(&m);
  x = x + 1;
  unlock(&m);
  join(t);
  assert(x == 2, "never fails");
}|} in
  let prog = compile src in
  match Dr_maple.Active.expose ~max_candidates:16 prog with
  | None -> ()
  | Some exposed ->
    Alcotest.failf "clean program 'exposed' %s"
      (Format.asprintf "%a" Dr_machine.Machine.pp_outcome
         exposed.Dr_maple.Active.outcome)

let () =
  Alcotest.run "maple"
    [ ( "iroots",
        [ Alcotest.test_case "flip" `Quick test_iroot_flip;
          Alcotest.test_case "profiler" `Quick test_profiler_observes ] );
      ( "active scheduling",
        [ Alcotest.test_case "plain schedules pass" `Quick
            test_plain_schedules_pass;
          Alcotest.test_case "exposes order violation" `Quick
            test_active_exposes_bug;
          Alcotest.test_case "exposes lost update" `Quick
            test_active_exposes_lost_update ] );
      ( "integration",
        [ Alcotest.test_case "pinball replays" `Quick test_exposed_pinball_replays;
          Alcotest.test_case "exposed bug slices" `Quick test_exposed_bug_slices ] );
      ( "coverage",
        [ Alcotest.test_case "WW idiom" `Quick test_profiler_idioms;
          Alcotest.test_case "policy realizes ordering" `Quick
            test_active_policy_realizes_ordering;
          Alcotest.test_case "attempt log" `Quick test_exposed_attempt_log;
          Alcotest.test_case "clean program" `Quick
            test_expose_clean_program_finds_nothing ] ) ]
