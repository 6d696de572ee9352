(* Tests for the per-task span recorders: pool tasks recording on
   several domains with correct nesting, batches spliced in task order
   between the caller's spans, one merged sequence across domain counts
   and consecutive runs, stray worker-domain spans dropped and counted,
   and the disabled-mode guarantee that worker-domain span calls record
   nothing and allocate nothing. *)

module Obs = Dr_obs.Obs
module Slicer = Dr_slicing.Slicer
module Pool = Dr_util.Pool

let fresh ?(enabled = true) () =
  Obs.reset ();
  Obs.set_enabled enabled

(* ---- pool tasks record on their claiming domain ---- *)

(* Tasks that refuse to finish until [n] distinct claims are in flight:
   with a pool of [n] and [n] tasks, every worker must claim exactly one,
   so spans land on [n] distinct recording slots whatever the machine's
   scheduler would otherwise do. *)
let barrier_tasks n =
  let arrived = Atomic.make 0 in
  Array.init n (fun i ->
      fun () ->
        Obs.with_span ~cat:"test" "task.body" (fun sp ->
            Obs.add_attr sp "i" (Obs.Int i);
            Atomic.incr arrived;
            while Atomic.get arrived < n do
              Domain.cpu_relax ()
            done))

let test_pool_spans_multi_domain () =
  fresh ();
  Pool.run ~domains:2 (barrier_tasks 2);
  Obs.set_enabled false;
  let spans = Obs.spans () in
  let by_name n =
    Array.to_list spans |> List.filter (fun s -> s.Obs.sp_name = n)
  in
  let claims = by_name "pool.claim"
  and execs = by_name "pool.exec"
  and bodies = by_name "task.body" in
  Alcotest.(check int) "two claims" 2 (List.length claims);
  Alcotest.(check int) "two execs" 2 (List.length execs);
  Alcotest.(check int) "two bodies" 2 (List.length bodies);
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ());
  (* the barrier forced both workers to record *)
  let doms =
    List.sort_uniq Int.compare (List.map (fun s -> s.Obs.sp_dom) claims)
  in
  Alcotest.(check int) "claims on two distinct domains" 2 (List.length doms);
  (* nesting within the task's recorder: claim at 0, exec at 1, the
     user span at 2 — identical whichever domain claimed the task *)
  List.iter
    (fun (s : Obs.span) -> Alcotest.(check int) "claim depth" 0 s.Obs.sp_depth)
    claims;
  List.iter
    (fun (s : Obs.span) -> Alcotest.(check int) "exec depth" 1 s.Obs.sp_depth)
    execs;
  List.iter
    (fun (s : Obs.span) -> Alcotest.(check int) "body depth" 2 s.Obs.sp_depth)
    bodies;
  (* task recorders are spliced in task order, so the body spans come
     back in task order even though the two domains raced *)
  let body_order =
    List.map
      (fun (s : Obs.span) ->
        match List.assoc_opt "i" s.Obs.sp_attrs with
        | Some (Obs.Int i) -> i
        | _ -> Alcotest.fail "task.body lost its index attr")
      bodies
  in
  Alcotest.(check (list int)) "bodies merged in task order" [ 0; 1 ]
    body_order

(* ---- a batch sits where it ran in program order ---- *)

let test_batch_between_main_spans () =
  fresh ();
  Obs.with_span ~cat:"test" "main.before" (fun _ -> ());
  Pool.run ~domains:2 (barrier_tasks 2);
  Obs.with_span ~cat:"test" "main.after" (fun _ -> ());
  Obs.set_enabled false;
  let names = Array.to_list (Obs.spans ()) |> List.map (fun s -> s.Obs.sp_name) in
  let task = [ "task.body"; "pool.exec"; "pool.claim" ] in
  Alcotest.(check (list string)) "batch spans between the main spans"
    ([ "main.before" ] @ task @ task @ [ "main.after" ])
    names;
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ())

(* ---- worker-domain spans outside any pool task ---- *)

let test_stray_worker_span_dropped () =
  fresh ();
  Obs.with_span ~cat:"test" "main.before" (fun _ -> ());
  let d =
    Domain.spawn (fun () -> Obs.with_span ~cat:"test" "stray" (fun _ -> ()))
  in
  Domain.join d;
  Obs.with_span ~cat:"test" "main.after" (fun _ -> ());
  Obs.set_enabled false;
  let names = Array.to_list (Obs.spans ()) |> List.map (fun s -> s.Obs.sp_name) in
  Alcotest.(check (list string)) "stray span not recorded"
    [ "main.before"; "main.after" ] names;
  Alcotest.(check int) "counted as one mismatch" 1 (Obs.mismatch_count ());
  Alcotest.(check int) "one mismatch message" 1
    (List.length (Obs.mismatch_messages ()))

(* ---- deterministic merge across domain counts and runs ---- *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let par_src = {|global int x;
global int y;
fn t1(int n) {
  y = 10;
  x = y + 1;
}
fn main() {
  int t = spawn(t1, 0);
  int sum = 0;
  for (int i = 0; i < 10; i = i + 1) {
    sum = sum + 2;
  }
  sum = sum + x;
  join(t);
  assert(sum > 0, "sum");
}|}

let criteria_of gt ~n =
  let len = Dr_slicing.Global_trace.length gt in
  let step = max 1 (len / n) in
  List.init n (fun i ->
      { Slicer.crit_pos = len - 1 - (i * step); crit_locs = None })

(* trace + criteria + an LP prepared once up front, so the traced
   sequence covers only the slices fanned out below *)
let fixture =
  lazy
    (let prog = compile par_src in
     let pb =
       match
         Dr_pinplay.Logger.log
           ~policy:(Dr_machine.Driver.Seeded { seed = 3; max_quantum = 4 })
           ~input:[||] prog Dr_pinplay.Logger.Whole
       with
       | Ok (pb, _) -> pb
       | Error e ->
         Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e
     in
     let c = Dr_slicing.Collector.collect ~refine:true prog pb in
     let gt = Dr_slicing.Global_trace.construct c in
     let lp = Dr_slicing.Lp.prepare gt in
     (gt, lp, criteria_of gt ~n:4))

(* names + depths, timestamps and physical domains excluded — the
   sequence the determinism contract promises *)
let merged_shape () =
  Array.to_list (Obs.spans ())
  |> List.map (fun s -> (s.Obs.sp_name, s.Obs.sp_depth))

(* one pool task per criterion, each slicing with [Slicer.compute] *)
let traced_slicing ~domains () =
  let gt, lp, crits = Lazy.force fixture in
  fresh ();
  Pool.run ~domains
    (Array.of_list
       (List.map (fun crit () -> ignore (Slicer.compute ~lp gt crit)) crits));
  Obs.set_enabled false;
  merged_shape ()

let prop_merge_independent_of_domains =
  QCheck.Test.make
    ~name:"traced slicing fan-out: 1/2/4 domains export one merged sequence"
    ~count:6
    QCheck.(int_bound 1000)
    (fun _ ->
      let one = traced_slicing ~domains:1 () in
      one <> []
      && List.for_all
           (fun domains -> traced_slicing ~domains () = one)
           [ 2; 4 ])

let test_consecutive_runs_identical () =
  let a = traced_slicing ~domains:4 () in
  let b = traced_slicing ~domains:4 () in
  Alcotest.(check bool) "some spans recorded" true (a <> []);
  Alcotest.(check bool) "consecutive traced runs identical" true (a = b)

(* The fuzz farm runs one pool task per case, so a traced farm's spans
   splice in case order whichever domain ran each case. *)
let traced_fuzz ~domains () =
  fresh ();
  let s = Dr_conformance.Fuzz.run ~domains ~seed:7 ~runs:4 () in
  Obs.set_enabled false;
  Alcotest.(check bool)
    (Printf.sprintf "%d domains: farm green" domains)
    true
    (Dr_conformance.Fuzz.all_green s);
  merged_shape ()

let test_fuzz_farm_merge () =
  let one = traced_fuzz ~domains:1 () in
  let two = traced_fuzz ~domains:2 () in
  Alcotest.(check bool) "some spans recorded" true (one <> []);
  Alcotest.(check int) "same span count" (List.length one) (List.length two);
  Alcotest.(check bool) "same merged sequence" true (one = two)

(* ---- disabled mode on worker domains ---- *)

let test_disabled_worker_records_nothing () =
  fresh ~enabled:false ();
  let baseline = Obs.span_count () in
  Pool.run ~domains:2
    (Array.init 4 (fun i ->
         fun () ->
           let tok = Obs.start "ghost" in
           Obs.add_attr tok "i" (Obs.Int i);
           Obs.stop tok;
           Obs.with_span "ghost2" (fun _ -> ())));
  Alcotest.(check int) "nothing recorded" baseline (Obs.span_count ());
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ())

(* With the gate off a span call site must not allocate: compare the
   minor-allocation delta of an empty loop against an Obs-call loop,
   measured identically (both in this domain, both with the closure and
   the attr value hoisted so only the calls themselves differ). *)
let test_disabled_no_alloc () =
  fresh ~enabled:false ();
  let iters = 10_000 in
  let attr = Obs.Int 1 in
  let payload _sp = () in
  let measure f =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let empty = measure (fun () -> ()) in
  let obs =
    measure (fun () ->
        let tok = Obs.start "ghost" in
        Obs.add_attr tok "k" attr;
        Obs.stop tok;
        Obs.with_span "ghost2" payload)
  in
  (* identical loops, so any systematic difference is per-call
     allocation in the disabled path; allow a small constant of noise *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocation-free (empty %.0f, obs %.0f)"
       empty obs)
    true
    (obs -. empty < 100.0)

let () =
  let finally () = Obs.set_enabled false in
  Fun.protect ~finally (fun () ->
      Alcotest.run "obs-sharded"
        [ ( "pool recording",
            [ Alcotest.test_case "spans on two domains, correct nesting"
                `Quick test_pool_spans_multi_domain;
              Alcotest.test_case "batch spans sit between main spans"
                `Quick test_batch_between_main_spans;
              Alcotest.test_case "stray worker span is dropped and counted as one mismatch"
                `Quick test_stray_worker_span_dropped ] );
          ( "deterministic merge",
            [ QCheck_alcotest.to_alcotest prop_merge_independent_of_domains;
              Alcotest.test_case "consecutive traced runs identical" `Quick
                test_consecutive_runs_identical;
              Alcotest.test_case "traced fuzz farm: 1 and 2 domains merge the same"
                `Quick test_fuzz_farm_merge ] );
          ( "disabled mode",
            [ Alcotest.test_case "worker span calls record nothing" `Quick
                test_disabled_worker_records_nothing;
              Alcotest.test_case "disabled path allocates nothing" `Quick
                test_disabled_no_alloc ] ) ])
