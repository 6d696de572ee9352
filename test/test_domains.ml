(* Domain-parallelism tests: spilled segment-store reads under
   concurrent readers, and the sharded fuzz farm (parallel summary
   identical to sequential; every failure reproduces from its
   (seed, case-id) coordinates alone). *)

module Slicer = Dr_slicing.Slicer
module Pool = Dr_util.Pool

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

let collect ?input ?seed prog =
  let pb = log_whole ?seed ?input prog in
  Dr_slicing.Collector.collect ~refine:true prog pb

(* Multithreaded program with a loop: enough records to spill many
   tiny segments. *)
let par_src = {|global int x;
global int y;
global int z;
fn t1(int n) {
  y = 10;
  x = y + 1;
}
fn main() {
  int t = spawn(t1, 0);
  int sum = 0;
  for (int i = 0; i < 12; i = i + 1) {
    sum = sum + 2;
  }
  int k = z;
  k = k + sum;
  k = k + x;
  join(t);
  assert(k > 0, "k");
}|}

(* shared fixture: the collected trace *)
let fixture = lazy (collect (compile par_src))

(* ---- spilled segment store under concurrent readers ---- *)

let spill_budget () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drdebug-test-domains-spill-%d" (Unix.getpid ()))
  in
  Dr_util.Budget.create ~mem_bytes:0 ~spill_dir:dir ()

let test_segment_store_concurrent_readers () =
  let c = Lazy.force fixture in
  let budget = spill_budget () in
  Fun.protect ~finally:(fun () -> Dr_util.Budget.cleanup_spill budget)
  @@ fun () ->
  let store =
    Dr_slicing.Segment_store.rebuild ~budget ~seg_records:16 ~cache_segments:2
      c.Dr_slicing.Collector.records
  in
  let n = Dr_slicing.Segment_store.length store in
  Alcotest.(check bool) "actually spilled" true
    (Dr_slicing.Segment_store.spilled_segments store > 0);
  let expect =
    Array.init n (fun i ->
        Dr_slicing.Segment_store.get c.Dr_slicing.Collector.records i)
  in
  (* four readers scanning in opposite directions churn the tiny LRU
     cache with concurrent hits, misses, and evictions *)
  let oks = Array.make 4 false in
  Pool.run ~domains:4
    (Array.init 4 (fun d () ->
         let ok = ref true in
         for k = 0 to n - 1 do
           let i = if d mod 2 = 0 then k else n - 1 - k in
           if Dr_slicing.Segment_store.get store i <> expect.(i) then
             ok := false
         done;
         oks.(d) <- !ok));
  Array.iteri
    (fun d ok ->
      Alcotest.(check bool)
        (Printf.sprintf "reader %d saw every record intact" d)
        true ok)
    oks

(* ---- sharded fuzz farm ---- *)

(* same mutation as the conformance self-test: drop one record the
   criterion data-depends on, which only the soundness oracle catches *)
let drop_crit_data_dep (s : Slicer.t) : Slicer.t =
  let crit = s.Slicer.criterion.Slicer.crit_pos in
  let victim =
    Array.fold_left
      (fun acc (e : Slicer.edge) ->
        match acc with
        | Some _ -> acc
        | None ->
          if e.Slicer.from_pos = crit then
            match e.Slicer.kind with
            | Slicer.Data _ | Slicer.Data_bypassed _ -> Some e.Slicer.to_pos
            | Slicer.Control -> None
          else None)
      None s.Slicer.edges
  in
  match victim with
  | None -> s
  | Some v ->
    { s with
      Slicer.positions =
        Array.of_list
          (List.filter (fun p -> p <> v) (Array.to_list s.Slicer.positions));
      adj = None }

let summary_eq (a : Dr_conformance.Fuzz.summary)
    (b : Dr_conformance.Fuzz.summary) =
  (* everything but s_elapsed, which is wall-clock *)
  a.Dr_conformance.Fuzz.s_master_seed = b.Dr_conformance.Fuzz.s_master_seed
  && a.Dr_conformance.Fuzz.s_cases = b.Dr_conformance.Fuzz.s_cases
  && a.Dr_conformance.Fuzz.s_passes = b.Dr_conformance.Fuzz.s_passes
  && a.Dr_conformance.Fuzz.s_skips = b.Dr_conformance.Fuzz.s_skips
  && a.Dr_conformance.Fuzz.s_failures = b.Dr_conformance.Fuzz.s_failures

let test_fuzz_parallel_green_deterministic () =
  let seq = Dr_conformance.Fuzz.run ~seed:7 ~runs:6 () in
  Alcotest.(check int) "green run" 0
    (List.length seq.Dr_conformance.Fuzz.s_failures);
  List.iter
    (fun domains ->
      let par = Dr_conformance.Fuzz.run ~domains ~seed:7 ~runs:6 () in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: summary identical" domains)
        true (summary_eq seq par))
    [ 2; 4 ]

let test_fuzz_sharded_failures_reproduce () =
  let seq =
    Dr_conformance.Fuzz.run ~mutate_slice:drop_crit_data_dep ~seed:42 ~runs:4
      ()
  in
  let par =
    Dr_conformance.Fuzz.run ~mutate_slice:drop_crit_data_dep ~domains:2
      ~seed:42 ~runs:4 ()
  in
  Alcotest.(check bool) "failures found" true
    (par.Dr_conformance.Fuzz.s_failures <> []);
  (* the sharded farm reports the exact sequential failure list: same
     case ids, same shrunk repros, in case-id order *)
  Alcotest.(check bool) "sharded summary identical to sequential" true
    (summary_eq seq par);
  (* every failure reproduces from (seed, case-id) alone — one domain,
     no farm state *)
  List.iter
    (fun (f : Dr_conformance.Fuzz.failure) ->
      match
        Dr_conformance.Fuzz.replay_case ~mutate_slice:drop_crit_data_dep
          ~seed:42 ~case_id:f.Dr_conformance.Fuzz.fr_case_id ()
      with
      | Dr_conformance.Oracles.Fail _ -> ()
      | Dr_conformance.Oracles.Pass ->
        Alcotest.failf "case %d did not reproduce from its coordinates"
          f.Dr_conformance.Fuzz.fr_case_id
      | Dr_conformance.Oracles.Skip r ->
        Alcotest.failf "case %d skipped on replay: %s"
          f.Dr_conformance.Fuzz.fr_case_id r)
    par.Dr_conformance.Fuzz.s_failures

let () =
  Alcotest.run "domains"
    [ ( "core safety",
        [ Alcotest.test_case "segment store concurrent readers" `Quick
            test_segment_store_concurrent_readers ] );
      ( "fuzz farm",
        [ Alcotest.test_case "green run deterministic across domains" `Quick
            test_fuzz_parallel_green_deterministic;
          Alcotest.test_case "sharded failures reproduce from seed" `Quick
            test_fuzz_sharded_failures_reproduce ] ) ]
