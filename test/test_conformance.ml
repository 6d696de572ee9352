(* Conformance subsystem tests: corpus replay, the broken-slicer
   self-test (the soundness oracle must catch a slicer that drops a
   dependence), shrinking, and fuzz-case JSON round-trips. *)

let corpus_dir = "corpus"

(* ---- corpus replay: every stored minimal repro must stay fixed ---- *)

let test_corpus_replay () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
    else []
  in
  if files = [] then Alcotest.fail "no corpus cases found under test/corpus";
  List.iter
    (fun f ->
      let path = Filename.concat corpus_dir f in
      match Dr_conformance.Fuzz.load_corpus_case path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok c -> (
        match Dr_conformance.Fuzz.replay_corpus_case c with
        | Dr_conformance.Oracles.Pass -> ()
        | Dr_conformance.Oracles.Skip reason ->
          Alcotest.failf "%s: skipped (%s) — corpus cases must run" path reason
        | Dr_conformance.Oracles.Fail { f_kind; f_detail } ->
          Alcotest.failf "%s: regressed: %s: %s" path
            (Dr_conformance.Oracles.kind_name f_kind)
            f_detail))
    files

(* ---- broken slicer: drop a data dependence of the criterion ---- *)

(* The mutation a buggy slicer would produce: one record the criterion
   data-depends on is missing from the slice.  Slice replay with
   injections CANNOT catch this (the relogger faithfully injects the
   dropped record's side effects); the re-execution soundness oracle
   must. *)
let drop_crit_data_dep (s : Dr_slicing.Slicer.t) : Dr_slicing.Slicer.t =
  let crit = s.Dr_slicing.Slicer.criterion.Dr_slicing.Slicer.crit_pos in
  let victim =
    Array.fold_left
      (fun acc (e : Dr_slicing.Slicer.edge) ->
        match acc with
        | Some _ -> acc
        | None ->
          if e.Dr_slicing.Slicer.from_pos = crit then
            match e.Dr_slicing.Slicer.kind with
            | Dr_slicing.Slicer.Data _ | Dr_slicing.Slicer.Data_bypassed _ ->
              Some e.Dr_slicing.Slicer.to_pos
            | Dr_slicing.Slicer.Control -> None
          else None)
      None s.Dr_slicing.Slicer.edges
  in
  match victim with
  | None -> s
  | Some v ->
    { s with
      Dr_slicing.Slicer.positions =
        Array.of_list
          (List.filter (fun p -> p <> v)
             (Array.to_list s.Dr_slicing.Slicer.positions));
      adj = None }

let test_broken_slicer_caught () =
  let out_dir = "corpus-out" in
  let s =
    Dr_conformance.Fuzz.run ~mutate_slice:drop_crit_data_dep ~out_dir
      ~seed:42 ~runs:3 ()
  in
  let soundness =
    List.filter
      (fun (f : Dr_conformance.Fuzz.failure) ->
        f.Dr_conformance.Fuzz.fr_kind = Dr_conformance.Oracles.Slice_soundness)
      s.Dr_conformance.Fuzz.s_failures
  in
  if soundness = [] then
    Alcotest.fail
      "a slicer that drops a criterion data dependence was not caught by the \
       soundness oracle";
  (* the shrunk repro is small and was persisted *)
  let f = List.hd soundness in
  let lines = Array.length f.Dr_conformance.Fuzz.fr_lines in
  if lines > 15 then
    Alcotest.failf "shrunk repro has %d lines, expected <= 15:\n%s" lines
      (String.concat "\n" (Array.to_list f.Dr_conformance.Fuzz.fr_lines));
  let path =
    Filename.concat out_dir
      (Printf.sprintf "case-%d.json" f.Dr_conformance.Fuzz.fr_case_id)
  in
  Alcotest.(check bool) "shrunk case persisted" true (Sys.file_exists path);
  (* and the persisted artifact round-trips as a corpus case *)
  match Dr_conformance.Fuzz.load_corpus_case path with
  | Error e -> Alcotest.failf "persisted case unreadable: %s" e
  | Ok c -> (
    (* replaying it against the HONEST slicer passes: the pipeline is
       fine, only the mutated slicer was broken *)
    match Dr_conformance.Fuzz.replay_corpus_case c with
    | Dr_conformance.Oracles.Pass -> ()
    | Dr_conformance.Oracles.Skip r ->
      Alcotest.failf "persisted case skipped on honest replay: %s" r
    | Dr_conformance.Oracles.Fail { f_kind; f_detail } ->
      Alcotest.failf "honest slicer fails the persisted case: %s: %s"
        (Dr_conformance.Oracles.kind_name f_kind)
        f_detail)

(* ---- quick green run: a handful of cases, all five oracles ---- *)

let test_fuzz_quick_green () =
  let s = Dr_conformance.Fuzz.run ~seed:7 ~runs:5 () in
  Alcotest.(check int) "5 cases" 5 s.Dr_conformance.Fuzz.s_cases;
  (match s.Dr_conformance.Fuzz.s_failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "case %d failed %s: %s" f.Dr_conformance.Fuzz.fr_case_id
      (Dr_conformance.Oracles.kind_name f.Dr_conformance.Fuzz.fr_kind)
      f.Dr_conformance.Fuzz.fr_detail);
  Alcotest.(check int) "no skips" 0 s.Dr_conformance.Fuzz.s_skips

(* ---- schedule JSON round-trip ---- *)

let test_sched_json_roundtrip () =
  let sched = [| (0, 3); (2, 1); (1, 6); (0, 2) |] in
  match Dr_conformance.Sched.of_json (Dr_conformance.Sched.to_json sched) with
  | Ok s -> Alcotest.(check bool) "round-trip" true (s = sched)
  | Error e -> Alcotest.fail e

(* ---- case derivation is deterministic and seed-sensitive ---- *)

let test_case_derivation () =
  Alcotest.(check int) "prog_seed deterministic"
    (Dr_conformance.Fuzz.prog_seed ~master:42 7)
    (Dr_conformance.Fuzz.prog_seed ~master:42 7);
  Alcotest.(check bool) "cases differ" true
    (Dr_conformance.Fuzz.prog_seed ~master:42 7
    <> Dr_conformance.Fuzz.prog_seed ~master:42 8);
  Alcotest.(check bool) "masters differ" true
    (Dr_conformance.Fuzz.prog_seed ~master:42 7
    <> Dr_conformance.Fuzz.prog_seed ~master:43 7);
  (* derived seeds survive a JSON float round-trip *)
  let s = Dr_conformance.Fuzz.nondet_seed ~master:42 7 in
  Alcotest.(check int) "json-exact" s
    (int_of_float (float_of_int s))

let () =
  Alcotest.run "conformance"
    [ ( "corpus",
        [ Alcotest.test_case "replay stored repros" `Quick test_corpus_replay ]
      );
      ( "oracles",
        [ Alcotest.test_case "broken slicer caught" `Quick
            test_broken_slicer_caught;
          Alcotest.test_case "quick fuzz green" `Quick test_fuzz_quick_green ]
      );
      ( "plumbing",
        [ Alcotest.test_case "schedule json round-trip" `Quick
            test_sched_json_roundtrip;
          Alcotest.test_case "case derivation" `Quick test_case_derivation ] )
    ]
