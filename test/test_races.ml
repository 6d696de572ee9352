(* Tests for the race-detection stack: the static lockset +
   happens-before detector (Dr_static.Race), the dynamic lockset checker
   (Dr_conformance.Racecheck), the spawn-target Mov-chain chase in the
   callgraph, and the statically seeded Maple campaign over the seeded
   racy workloads. *)

module Race = Dr_static.Race
module Supercfg = Dr_static.Supercfg
module Racecheck = Dr_conformance.Racecheck

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"races-test" src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile failed: %s" e

let asm src =
  match Dr_isa.Asm.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "asm parse failed: %s" e

(* ---- static detector ---- *)

let racy_pair_src =
  {|
global int m;
global int hits;
global int misses;

fn worker(int id) {
  for (int i = 0; i < 4; i = i + 1) {
    lock(&m);
    hits = hits + 1;
    unlock(&m);
    misses = misses + id;
  }
}

fn main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  join(a);
  join(b);
  print(hits);
  print(misses);
}
|}

let test_lockset_clears_protected () =
  let prog = compile racy_pair_src in
  let r = Race.analyze (Supercfg.build prog) in
  Alcotest.(check bool) "fully resolved" true (Race.fully_resolved r);
  Alcotest.(check bool) "has candidates" true (r.Race.candidates <> []);
  (* the mutex-protected counter never pairs with itself: no candidate
     has overlapping locksets, and some candidate is bare-vs-bare *)
  List.iter
    (fun (p : Race.pair) ->
      Alcotest.(check bool) "locksets disjoint" true
        (not
           (List.exists
              (fun l -> List.mem l p.Race.p_lockset_b)
              p.Race.p_lockset_a)))
    r.Race.candidates;
  Alcotest.(check bool) "a bare-vs-bare pair exists" true
    (List.exists
       (fun (p : Race.pair) ->
         p.Race.p_lockset_a = [] && p.Race.p_lockset_b = [])
       r.Race.candidates)

let test_no_spawn_no_candidates () =
  let prog =
    compile
      {|
global int x;
fn main() {
  for (int i = 0; i < 8; i = i + 1) {
    x = x + 1;
  }
  print(x);
}
|}
  in
  let r = Race.analyze (Supercfg.build prog) in
  Alcotest.(check int) "no threads, no races" 0 (List.length r.Race.candidates)

let test_spawn_join_clean () =
  (* one worker, spawned once and joined: the spawn-before / join-after
     prunes plus the single-root rule clear every pair *)
  let prog =
    compile
      {|
global int buf[16];
global int done;

fn worker(int id) {
  int sum = 0;
  for (int i = 0; i < 16; i = i + 1) {
    buf[i] = buf[i] + id;
    sum = sum + buf[i];
  }
  done = sum;
}

fn main() {
  for (int i = 0; i < 16; i = i + 1) {
    buf[i] = i * 3;
  }
  int t = spawn(worker, 7);
  join(t);
  print(done);
}
|}
  in
  let r = Race.analyze (Supercfg.build prog) in
  Alcotest.(check int) "spawn/join ordered" 0 (List.length r.Race.candidates)

(* ---- callgraph spawn-target Mov-chain chase (satellite 2) ---- *)

let spawn_sites (cg : Dr_static.Callgraph.t) =
  List.filter
    (fun (s : Dr_static.Callgraph.site) ->
      s.Dr_static.Callgraph.kind = Dr_static.Callgraph.Spawn)
    cg.Dr_static.Callgraph.sites

let test_movchain_spawn_singleton () =
  (* two address-taken workers; the spawn target flows through a
     register-copy chain — the chase must pin the single real target *)
  let prog =
    asm
      {|
.entry main
worker1:
  push fp
  mov r1, $1
  sys print
  halt
worker2:
  push fp
  mov r1, $2
  sys print
  halt
main:
  mov r3, @worker1
  mov r4, @worker2
  mov r1, r3
  mov r2, $0
  sys spawn
  halt
|}
  in
  let cg = (Supercfg.build prog).Supercfg.cg in
  Alcotest.(check int) "both workers address-taken" 2
    (List.length cg.Dr_static.Callgraph.address_taken);
  match spawn_sites cg with
  | [ s ] ->
    Alcotest.(check int) "chased to one target" 1
      (List.length s.Dr_static.Callgraph.callees)
  | sites -> Alcotest.failf "expected 1 spawn site, got %d" (List.length sites)

let test_movchain_clobber_widens () =
  (* same shape, but the chain passes through arithmetic: the chase must
     give up and fall back to all address-taken functions *)
  let prog =
    asm
      {|
.entry main
worker1:
  push fp
  mov r1, $1
  sys print
  halt
worker2:
  push fp
  mov r1, $2
  sys print
  halt
main:
  mov r3, @worker1
  mov r4, @worker2
  add r1, r3, $0
  mov r2, $0
  sys spawn
  halt
|}
  in
  let cg = (Supercfg.build prog).Supercfg.cg in
  match spawn_sites cg with
  | [ s ] ->
    Alcotest.(check int) "widened to all address-taken" 2
      (List.length s.Dr_static.Callgraph.callees)
  | sites -> Alcotest.failf "expected 1 spawn site, got %d" (List.length sites)

(* ---- dynamic checker ---- *)

let test_racecheck_flags_bare_counter () =
  let prog = compile racy_pair_src in
  let r = Race.analyze (Supercfg.build prog) in
  let result, stop =
    Racecheck.observe_run prog
      ~policy:(Dr_machine.Driver.Round_robin { quantum = 1 })
  in
  (match stop with
  | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> ()
  | _ -> Alcotest.fail "run did not exit");
  Alcotest.(check bool) "dynamic races observed" true
    (result.Racecheck.races <> []);
  (* the oracle-8 relation: every dynamic pair is a static candidate *)
  List.iter
    (fun (p, q) ->
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) in static set" p q)
        true (Race.is_candidate r p q))
    result.Racecheck.pairs

let test_racecheck_signal_orders () =
  (* a correct condvar handshake: the signal's vector-clock merge orders
     the pre-signal write against the post-wake read, so the checker
     must stay silent on every schedule *)
  let prog =
    compile
      {|
global int m;
global int cv;
global int ready;
global int data;

fn waiter(int id) {
  lock(&m);
  if (ready == 0) {
    wait(&cv, &m);
  }
  unlock(&m);
  int v = data;
  print(v);
}

fn main() {
  int t = spawn(waiter, 1);
  data = 42;
  int spin = 0;
  for (int i = 0; i < 60; i = i + 1) {
    spin = spin + 1;
  }
  lock(&m);
  ready = 1;
  signal(&cv);
  unlock(&m);
  join(t);
  print(spin);
}
|}
  in
  List.iter
    (fun q ->
      let result, stop =
        Racecheck.observe_run prog
          ~policy:(Dr_machine.Driver.Round_robin { quantum = q })
      in
      (match stop with
      | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> ()
      | _ -> Alcotest.fail "handshake did not exit");
      Alcotest.(check int)
        (Printf.sprintf "no races at quantum %d" q)
        0
        (List.length result.Racecheck.races))
    [ 1; 2; 5 ]

(* ---- campaign seeding ---- *)

let test_seed_candidates_orderings () =
  let prog = compile racy_pair_src in
  let covered =
    [ { Dr_maple.Iroot.pre = 3; post = 7; idiom = Dr_maple.Iroot.RW } ]
  in
  let out =
    Dr_maple.Active.seed_candidates ~prog ~static_pairs:[ (3, 7); (9, 9) ]
      covered
  in
  (* (3,7) already covered in that order: only the reverse plus the
     self-pair are synthesized *)
  Alcotest.(check int) "two synthesized" 2 (List.length out);
  Alcotest.(check bool) "reverse ordering present" true
    (List.exists
       (fun (ir : Dr_maple.Iroot.t) ->
         ir.Dr_maple.Iroot.pre = 7 && ir.Dr_maple.Iroot.post = 3)
       out);
  Alcotest.(check bool) "self pair present" true
    (List.exists
       (fun (ir : Dr_maple.Iroot.t) ->
         ir.Dr_maple.Iroot.pre = 9 && ir.Dr_maple.Iroot.post = 9)
       out)

(* ---- the seeded racy workloads, end to end (satellite 3) ----

   For every bug in the registry: the static detector ranks a candidate
   pair on the root-cause line; a statically seeded Maple campaign
   exposes the failure; and the dynamic races observed (on the exposed
   pinball, or on a plain round-robin run for bugs whose exposing
   schedule suppresses the racy access) are all static candidates. *)

let test_bugs_statically_ranked () =
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      let prog = Dr_workloads.Bugs.compile b in
      let r = Race.analyze (Supercfg.build prog) in
      Alcotest.(check bool)
        (b.Dr_workloads.Bugs.name ^ " fully resolved")
        true (Race.fully_resolved r);
      Alcotest.(check bool)
        (b.Dr_workloads.Bugs.name ^ " has candidates")
        true
        (r.Race.candidates <> []);
      let line pc =
        Option.value ~default:(-1)
          (Dr_isa.Debug_info.line_of_pc prog.Dr_isa.Program.debug pc)
      in
      let pair_lines =
        List.concat_map
          (fun (p, q) -> [ line p; line q ])
          (Race.candidate_pairs r)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s root cause (line %d) ranked"
           b.Dr_workloads.Bugs.name b.Dr_workloads.Bugs.root_cause_line)
        true
        (List.mem b.Dr_workloads.Bugs.root_cause_line pair_lines))
    Dr_workloads.Bugs.all

let test_bugs_dynamically_confirmed () =
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      let name = b.Dr_workloads.Bugs.name in
      let prog = Dr_workloads.Bugs.compile b in
      let r = Race.analyze (Supercfg.build prog) in
      let static_pairs = Race.candidate_pairs r in
      match Dr_maple.Active.expose ~static_pairs prog with
      | None -> Alcotest.failf "%s: seeded campaign did not expose" name
      | Some e ->
        let on_pinball =
          Racecheck.observe_pinball prog e.Dr_maple.Active.pinball
        in
        let on_rr, _ =
          Racecheck.observe_run prog
            ~policy:(Dr_machine.Driver.Round_robin { quantum = 1 })
        in
        let dyn =
          List.sort_uniq compare
            (on_pinball.Racecheck.pairs @ on_rr.Racecheck.pairs)
        in
        Alcotest.(check bool) (name ^ " race observed dynamically") true
          (dyn <> []);
        List.iter
          (fun (p, q) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: dynamic (%d,%d) in static set" name p q)
              true (Race.is_candidate r p q))
          dyn)
    Dr_workloads.Bugs.all

(* ---- lint pass selection (satellite 1) ---- *)

let test_lint_pass_subset () =
  let prog = compile racy_pair_src in
  let l = Dr_static.Lint.run ~passes:[ "races" ] (Supercfg.build prog) in
  Alcotest.(check (list string)) "only races ran" [ "races" ]
    l.Dr_static.Lint.passes_run;
  Alcotest.(check int) "total counts races only"
    (List.length l.Dr_static.Lint.races)
    (Dr_static.Lint.findings_total l);
  Alcotest.check_raises "unknown pass rejected"
    (Invalid_argument "Lint.run: unknown pass \"nope\"") (fun () ->
      ignore (Dr_static.Lint.run ~passes:[ "nope" ] (Supercfg.build prog)))

let () =
  Alcotest.run "races"
    [ ( "static",
        [ Alcotest.test_case "lockset clears protected" `Quick
            test_lockset_clears_protected;
          Alcotest.test_case "no spawn, no candidates" `Quick
            test_no_spawn_no_candidates;
          Alcotest.test_case "spawn/join ordered" `Quick test_spawn_join_clean
        ] );
      ( "callgraph",
        [ Alcotest.test_case "mov-chain spawn singleton" `Quick
            test_movchain_spawn_singleton;
          Alcotest.test_case "clobbered chain widens" `Quick
            test_movchain_clobber_widens ] );
      ( "dynamic",
        [ Alcotest.test_case "bare counter flagged" `Quick
            test_racecheck_flags_bare_counter;
          Alcotest.test_case "signal orders handshake" `Quick
            test_racecheck_signal_orders ] );
      ( "campaign",
        [ Alcotest.test_case "seed candidate orderings" `Quick
            test_seed_candidates_orderings;
          Alcotest.test_case "bugs statically ranked" `Quick
            test_bugs_statically_ranked;
          Alcotest.test_case "bugs dynamically confirmed" `Quick
            test_bugs_dynamically_confirmed ] );
      ( "lint",
        [ Alcotest.test_case "pass subset" `Quick test_lint_pass_subset ] ) ]
