(* Tests for dr_workloads: every workload compiles and runs; the three
   bug case studies (Table 1) reproduce, replay, and slice to their root
   causes; Maple exposes them. *)

let test_registry_complete () =
  let names = Dr_workloads.Registry.names () in
  Alcotest.(check int) "6 bugs + 8 parsec + 5 specomp" 19 (List.length names);
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "pbzip2"; "Aget"; "mozilla"; "dcl"; "counter"; "condvar"; "blackscholes";
      "swaptions"; "fluidanimate"; "ferret"; "x264"; "canneal"; "dedup";
      "streamcluster"; "ammp"; "apsi"; "galgel"; "mgrid"; "wupwise" ]

let test_all_compile_and_run () =
  List.iter
    (fun (e : Dr_workloads.Registry.entry) ->
      if e.Dr_workloads.Registry.kind <> Dr_workloads.Registry.Bug then begin
        let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:100 in
        let m = Dr_machine.Machine.create prog in
        let r =
          Dr_machine.Driver.run ~max_steps:20_000_000 m
            (Dr_machine.Driver.Round_robin { quantum = 20 })
        in
        match r with
        | Dr_machine.Driver.Terminated (Dr_machine.Machine.Exited _) -> ()
        | r ->
          Alcotest.failf "%s did not exit cleanly: %a" e.Dr_workloads.Registry.name
            (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r)
            ()
      end)
    Dr_workloads.Registry.all

let test_workloads_deterministic () =
  (* same seed, same result — required for region logging to make sense *)
  List.iter
    (fun name ->
      let e = Option.get (Dr_workloads.Registry.find name) in
      let run () =
        let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:80 in
        let m = Dr_machine.Machine.create prog in
        let _ =
          Dr_machine.Driver.run ~max_steps:20_000_000 m
            (Dr_machine.Driver.Seeded { seed = 11; max_quantum = 5 })
        in
        (Dr_machine.Machine.output_list m, Dr_machine.Machine.total_icount m)
      in
      Alcotest.(check bool) (name ^ " deterministic") true (run () = run ()))
    [ "blackscholes"; "canneal"; "ferret" ]

let test_threads_actually_run () =
  (* all four threads retire instructions in a 4-threaded run *)
  let e = Option.get (Dr_workloads.Registry.find "fluidanimate") in
  let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters:200 in
  let m = Dr_machine.Machine.create prog in
  let _ =
    Dr_machine.Driver.run ~max_steps:20_000_000 m
      (Dr_machine.Driver.Round_robin { quantum = 10 })
  in
  Alcotest.(check int) "4 threads" 4 (Dr_machine.Machine.num_threads m);
  for tid = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "thread %d worked" tid)
      true
      ((Dr_machine.Machine.thread m tid).Dr_machine.Machine.icount > 100)
  done

let test_calibration () =
  let e = Option.get (Dr_workloads.Registry.find "blackscholes") in
  let target = 50_000 in
  let iters = Dr_workloads.Registry.iters_for e ~main_instrs:target () in
  let got = Dr_workloads.Registry.probe_main_icount e ~threads:4 ~iters in
  Alcotest.(check bool)
    (Printf.sprintf "calibrated %d iters gives >= %d main instrs (got %d)" iters
       target got)
    true (got >= target)

(* ---- the bug case studies ---- *)

let test_bugs_reproduce_and_replay () =
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      match Dr_workloads.Bugs.find_failing_seed b with
      | None -> Alcotest.failf "%s: no failing schedule found" b.Dr_workloads.Bugs.name
      | Some (seed, _) ->
        let prog = Dr_workloads.Bugs.compile b in
        (* capture the whole failing execution *)
        let pb, stats =
          match
            Dr_pinplay.Logger.log
              ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
              prog Dr_pinplay.Logger.Whole
          with
          | Ok r -> r
          | Error e ->
            Alcotest.failf "%s: log failed: %a" b.Dr_workloads.Bugs.name
              Dr_pinplay.Logger.pp_error e
        in
        (match stats.Dr_pinplay.Logger.stop with
        | Dr_machine.Driver.Terminated
            (Dr_machine.Machine.Assert_failed _ | Dr_machine.Machine.Fault _) ->
          ()
        | _ -> Alcotest.failf "%s: captured run did not fail" b.Dr_workloads.Bugs.name);
        (* deterministic replay reproduces the failure twice *)
        for _ = 1 to 2 do
          let _, reason = Dr_pinplay.Replayer.replay prog pb in
          match reason with
          | Dr_machine.Driver.Terminated
              (Dr_machine.Machine.Assert_failed _ | Dr_machine.Machine.Fault _) ->
            ()
          | r ->
            Alcotest.failf "%s: replay did not reproduce: %a"
              b.Dr_workloads.Bugs.name
              (fun fmt () -> Dr_machine.Driver.pp_stop_reason fmt r)
              ()
        done)
    Dr_workloads.Bugs.all

let test_bug_slices_reach_root_cause () =
  List.iter
    (fun (b : Dr_workloads.Bugs.t) ->
      match Dr_workloads.Bugs.find_failing_seed b with
      | None -> Alcotest.failf "%s: no failing schedule" b.Dr_workloads.Bugs.name
      | Some (seed, _) ->
        let prog = Dr_workloads.Bugs.compile b in
        let pb, _ =
          match
            Dr_pinplay.Logger.log
              ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
              prog Dr_pinplay.Logger.Whole
          with
          | Ok r -> r
          | Error _ -> Alcotest.fail "log failed"
        in
        let c = Dr_slicing.Collector.collect prog pb in
        let gt = Dr_slicing.Global_trace.construct c in
        (* criterion: the failing instruction (last record of the trace) *)
        let crit =
          { Dr_slicing.Slicer.crit_pos = Dr_slicing.Global_trace.length gt - 1;
            crit_locs = None }
        in
        let slice =
          Dr_slicing.Slicer.compute ~pairs:c.Dr_slicing.Collector.pairs gt crit
        in
        let lines = Dr_slicing.Slicer.source_lines prog slice in
        Alcotest.(check bool)
          (Printf.sprintf "%s: root cause (line %d) in slice"
             b.Dr_workloads.Bugs.name b.Dr_workloads.Bugs.root_cause_line)
          true
          (List.mem b.Dr_workloads.Bugs.root_cause_line lines))
    Dr_workloads.Bugs.all

let test_maple_exposes_aget () =
  (* Maple's active scheduler finds the Aget lost update without a seed
     search *)
  let b = Option.get (Dr_workloads.Bugs.find "Aget") in
  let prog = Dr_workloads.Bugs.compile b in
  match Dr_maple.Active.expose ~max_candidates:32 prog with
  | Some exposed -> (
    match exposed.Dr_maple.Active.outcome with
    | Dr_machine.Machine.Assert_failed _ -> ()
    | _ -> Alcotest.fail "unexpected outcome")
  | None ->
    (* Aget also fails under many plain schedules; Maple not finding it
       via candidates would be odd *)
    Alcotest.fail "Maple did not expose the Aget race"

let () =
  Alcotest.run "workloads"
    [ ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "all compile and run" `Quick test_all_compile_and_run;
          Alcotest.test_case "deterministic" `Quick test_workloads_deterministic;
          Alcotest.test_case "threads run" `Quick test_threads_actually_run;
          Alcotest.test_case "calibration" `Quick test_calibration ] );
      ( "bug case studies",
        [ Alcotest.test_case "reproduce and replay" `Quick
            test_bugs_reproduce_and_replay;
          Alcotest.test_case "slices reach root cause" `Quick
            test_bug_slices_reach_root_cause;
          Alcotest.test_case "maple exposes aget" `Quick test_maple_exposes_aget ] ) ]
