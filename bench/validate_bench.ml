(* Schema validator for the repo's benchmark and observability JSON
   artifacts.  Dispatches on the document's "schema" field:

   - drdebug-bench-slicing-v3: the slicing bench output, including its
     embedded drdebug-report-v1 run report;
   - drdebug-bench-races-v1: the race-detection bench output (static
     candidates vs seeded Maple campaigns);
   - drdebug-report-v1: a standalone run report (drdebug_cli
     --report-out), checked via Dr_obs.Report.validate;
   - drdebug-analyze-v1: a static-lint report (drdebug_cli analyze
     --out), checked via Dr_static.Report.validate.

   Run by the dune runtest smoke right after the bench's --quick mode so
   the metrics layer and the emitted JSON cannot silently rot.  Exits
   non-zero with a message naming the first violated field.  An empty
   file or an unknown schema string is a failure, never a silent pass:
   a truncated artifact must not look green in CI. *)

module J = Dr_util.Json

(* Every failure names the JSON file being validated: under dune runtest
   the validator runs from a sandbox and a bare field name would leave
   the reader guessing which artifact to open. *)
let src = ref "<no file>"

let fail fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "FAIL %s: %s\n" !src m; exit 1) fmt

let get obj k =
  match J.member k obj with
  | Some v -> v
  | None -> fail "missing field %S" k

let want_num ctx v =
  match J.to_float v with Some f -> f | None -> fail "%s: expected number" ctx

let want_str ctx v =
  match J.to_str v with Some s -> s | None -> fail "%s: expected string" ctx

let want_bool ctx v =
  match J.to_bool v with Some b -> b | None -> fail "%s: expected bool" ctx

let want_list ctx v =
  match J.to_list v with Some l -> l | None -> fail "%s: expected list" ctx

let check_workload i w =
  let ctx k = Printf.sprintf "workloads[%d].%s" i k in
  let num k = want_num (ctx k) (get w k) in
  let str k = want_str (ctx k) (get w k) in
  ignore (str "name");
  (match str "kind" with
  | "registry" | "generated" -> ()
  | other -> fail "%s: unknown kind %S" (ctx "kind") other);
  List.iter
    (fun k ->
      let v = num k in
      if v < 0.0 then fail "%s: negative" (ctx k))
    [ "records"; "criteria"; "reps"; "collect_s"; "construct_s";
      "lp_prepare_s"; "indexed_s"; "indexed_s_min"; "indexed_s_max";
      "scan_skip_s"; "scan_skip_s_min"; "scan_skip_s_max"; "scan_noskip_s";
      "scan_noskip_s_min"; "scan_noskip_s_max"; "speedup_vs_scan_skip";
      "speedup_vs_scan_noskip"; "records_per_s_indexed"; "blocks_skipped";
      "total_blocks"; "visited_ratio_indexed"; "visited_ratio_scan";
      "slice_size_avg"; "spilled_segments"; "spill_read_s"; "degradations";
      "slice_size_total"; "record_bytes_total"; "segstore_hit_rate" ];
  (* each timing is a median over the reps, with its spread beside it *)
  List.iter
    (fun k ->
      if not (num (k ^ "_min") <= num k && num k <= num (k ^ "_max")) then
        fail "%s: median %g outside [%g, %g]" (ctx k) (num k)
          (num (k ^ "_min")) (num (k ^ "_max")))
    [ "indexed_s"; "scan_skip_s"; "scan_noskip_s" ];
  if num "segstore_hit_rate" > 1.0 then
    fail "%s: hit rate above 1.0" (ctx "segstore_hit_rate");
  if num "records" < 1.0 then fail "%s: empty trace" (ctx "records");
  if num "spilled_segments" < 1.0 then
    fail "%s: out-of-core rerun never spilled" (ctx "spilled_segments");
  if num "degradations" < 1.0 then
    fail "%s: governed rerun recorded no ladder step" (ctx "degradations");
  if not (want_bool (ctx "results_identical") (get w "results_identical"))
  then fail "%s: drivers disagree" (ctx "results_identical");
  if not (want_bool (ctx "spill_identical") (get w "spill_identical")) then
    fail "%s: spilled rerun disagrees with in-memory run" (ctx "spill_identical");
  (* the byte counts were measured with the row size recorded here; an
     artifact from before a row-layout change no longer describes the
     code and must be regenerated *)
  let row_cells = Dr_slicing.Segment_store.Chunk.row_cells in
  if num "row_cells" <> float_of_int row_cells then
    fail "%s: measured with %g-cell rows, the store now has %d: regenerate \
          the artifact"
      (ctx "row_cells") (num "row_cells") row_cells

let check_report ctx r =
  match Dr_obs.Report.validate r with
  | Ok () -> ()
  | Error e -> fail "%s: %s" ctx e

(* drdebug-bench-races-v1: every registry bug must be statically ranked
   (non-empty candidate set, fully resolved, root cause in a pair),
   exposed by the statically seeded campaign, and dynamically
   cross-checked (every observed racy pair a static candidate) — the
   acceptance gates of the race-detection tier, enforced on the
   checked-in artifact. *)
let check_races doc =
  ignore (want_bool "quick" (get doc "quick"));
  let bugs = want_list "bugs" (get doc "bugs") in
  if bugs = [] then fail "bugs: empty";
  List.iteri
    (fun i b ->
      let ctx k = Printf.sprintf "bugs[%d].%s" i k in
      let num k = want_num (ctx k) (get b k) in
      let boolean k = want_bool (ctx k) (get b k) in
      ignore (want_str (ctx "name") (get b "name"));
      List.iter
        (fun k -> if num k < 0.0 then fail "%s: negative" (ctx k))
        [ "static_candidates"; "static_s"; "iroot_predicted"; "iroot_seeded";
          "plain_attempts"; "seeded_attempts"; "maple_steps_saved";
          "campaign_s"; "dynamic_races" ];
      if num "static_candidates" < 1.0 then
        fail "%s: bug not statically ranked" (ctx "static_candidates");
      if not (boolean "static_resolved") then
        fail "%s: static detector degraded" (ctx "static_resolved");
      if not (boolean "root_cause_ranked") then
        fail "%s: root cause missing from candidates" (ctx "root_cause_ranked");
      if num "seeded_attempts" < 1.0 then
        fail "%s: seeded campaign recorded no attempts" (ctx "seeded_attempts");
      if num "iroot_seeded" < num "iroot_predicted" then
        fail "%s: seeding shrank the queue" (ctx "iroot_seeded");
      if num "dynamic_races" < 1.0 then
        fail "%s: race never observed dynamically" (ctx "dynamic_races");
      if not (boolean "dynamic_in_static") then
        fail "%s: dynamic race outside the static candidate set"
          (ctx "dynamic_in_static");
      ignore (boolean "plain_exposed"))
    bugs;
  if want_num "total_steps_saved" (get doc "total_steps_saved") < 0.0 then
    fail "total_steps_saved: negative";
  List.length bugs

let check_slicing doc =
  ignore (want_bool "quick" (get doc "quick"));
  let workloads = want_list "workloads" (get doc "workloads") in
  if workloads = [] then fail "workloads: empty";
  List.iteri check_workload workloads;
  (match get doc "largest_generated" with
  | J.Null -> ()
  | lg ->
    ignore (want_str "largest_generated.name" (get lg "name"));
    if
      not
        (want_bool "largest_generated.results_identical"
           (get lg "results_identical"))
    then fail "largest_generated: drivers disagree");
  check_report "report" (get doc "report");
  List.length workloads

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
      prerr_endline
        "usage: validate_bench <BENCH_slicing.json | report.json>";
      exit 2
  in
  src := path;
  let raw =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "unreadable: %s" e
  in
  if String.trim raw = "" then fail "empty file";
  let doc =
    match J.parse raw with
    | Ok v -> v
    | Error e -> fail "does not parse: %s" e
  in
  match want_str "schema" (get doc "schema") with
  | "drdebug-bench-slicing-v3" as schema ->
    let n = check_slicing doc in
    Printf.printf "ok: %s matches %s (%d workloads)\n" path schema n
  | "drdebug-bench-races-v1" as schema ->
    let n = check_races doc in
    Printf.printf "ok: %s matches %s (%d bugs)\n" path schema n
  | "drdebug-report-v1" as schema ->
    check_report "report" doc;
    Printf.printf "ok: %s matches %s\n" path schema
  | "drdebug-analyze-v1" as schema ->
    (match Dr_static.Report.validate doc with
    | Ok () -> Printf.printf "ok: %s matches %s\n" path schema
    | Error e -> fail "%s" e)
  | other -> fail "unknown schema %S" other
