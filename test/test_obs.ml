(* Tests for the observability library (dr_obs): span nesting and
   mismatched-stop detection, per-span allocation, histogram bucket
   boundaries and quantiles, Chrome trace JSON round-trip, run-report
   schema validation, the OpenMetrics export derived from the report,
   the metrics registry, and the disabled-mode guarantee that no span is
   recorded when tracing is off. *)

module Obs = Dr_obs.Obs
module Metrics = Dr_obs.Metrics
module Report = Dr_obs.Report
module Chrome_trace = Dr_obs.Chrome_trace
module J = Dr_util.Json

(* each test starts from a clean recorder, gate on unless stated *)
let fresh ?(enabled = true) () =
  Obs.reset ();
  Obs.set_enabled enabled

let span_by_name name =
  let found =
    Array.to_list (Obs.spans ())
    |> List.filter (fun s -> s.Obs.sp_name = name)
  in
  match found with
  | [ s ] -> s
  | [] -> Alcotest.failf "span %S not recorded" name
  | _ -> Alcotest.failf "span %S recorded more than once" name

(* ---- spans ---- *)

let test_span_nesting () =
  fresh ();
  let outer = Obs.start ~cat:"test" "outer" in
  let inner = Obs.start ~cat:"test" ~tid:3 "inner" in
  Obs.add_attr inner "k" (Obs.Int 42);
  Obs.stop inner;
  Obs.stop outer ~attrs:[ ("done", Obs.Bool true) ];
  Alcotest.(check int) "two spans" 2 (Obs.span_count ());
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ());
  let i = span_by_name "inner" and o = span_by_name "outer" in
  Alcotest.(check int) "inner depth" 1 i.Obs.sp_depth;
  Alcotest.(check int) "outer depth" 0 o.Obs.sp_depth;
  Alcotest.(check int) "inner tid" 3 i.Obs.sp_tid;
  Alcotest.(check string) "inner cat" "test" i.Obs.sp_cat;
  Alcotest.(check bool) "inner attr kept"
    true (List.mem_assoc "k" i.Obs.sp_attrs);
  Alcotest.(check bool) "stop attrs kept"
    true (List.mem_assoc "done" o.Obs.sp_attrs);
  (* the child's interval is contained in the parent's *)
  Alcotest.(check bool) "child starts after parent" true
    (i.Obs.sp_start_s >= o.Obs.sp_start_s);
  Alcotest.(check bool) "child ends before parent" true
    (i.Obs.sp_start_s +. i.Obs.sp_dur_s
    <= o.Obs.sp_start_s +. o.Obs.sp_dur_s +. 1e-9)

let test_with_span () =
  fresh ();
  let r =
    Obs.with_span ~cat:"test" "ws" (fun sp ->
        Obs.add_attr sp "n" (Obs.Int 7);
        "result")
  in
  Alcotest.(check string) "returns f's value" "result" r;
  let s = span_by_name "ws" in
  Alcotest.(check bool) "attr attached" true (List.mem_assoc "n" s.Obs.sp_attrs);
  (* the span is recorded even when f raises *)
  (try
     Obs.with_span ~cat:"test" "raises" (fun _ -> failwith "boom")
   with Failure _ -> ());
  let _ = span_by_name "raises" in
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ())

let test_mismatched_stop () =
  fresh ();
  let outer = Obs.start "outer" in
  let _inner = Obs.start "inner" in
  (* stopping the outer span closes the still-open inner one and records
     a diagnostic *)
  Obs.stop outer;
  Alcotest.(check int) "both spans recorded" 2 (Obs.span_count ());
  Alcotest.(check int) "one mismatch" 1 (Obs.mismatch_count ());
  (* stopping an already-closed token records a diagnostic only *)
  Obs.stop outer;
  Alcotest.(check int) "still two spans" 2 (Obs.span_count ());
  Alcotest.(check int) "two mismatches" 2 (Obs.mismatch_count ());
  Alcotest.(check int) "messages match count" 2
    (List.length (Obs.mismatch_messages ()))

(* Regression: reset used to leave next_id where it was, so token
   values depended on how many spans every earlier test recorded. *)
let test_reset_token_ids () =
  fresh ();
  let a = Obs.start "a" in
  let b = Obs.start "b" in
  Obs.stop b;
  Obs.stop a;
  Alcotest.(check bool) "tokens distinct" true (a <> b);
  fresh ();
  let a' = Obs.start "a-again" in
  Obs.stop a';
  Alcotest.(check int) "token ids restart after reset" a a';
  Alcotest.(check int) "old spans dropped" 1 (Obs.span_count ())

let test_disabled_mode () =
  fresh ~enabled:false ();
  let tok = Obs.start "ghost" in
  Alcotest.(check int) "start returns none" Obs.none tok;
  Obs.add_attr tok "k" (Obs.Int 1);
  Obs.stop tok;
  let r = Obs.with_span "ghost2" (fun sp -> sp) in
  Alcotest.(check int) "with_span passes none" Obs.none r;
  Alcotest.(check int) "no spans recorded" 0 (Obs.span_count ());
  Alcotest.(check int) "no mismatches" 0 (Obs.mismatch_count ())

(* A span carries the minor-heap words its domain allocated while it
   was open: 1,000 two-word refs read as at least 2,000 words and at
   most a little recorder overhead more; an empty sibling reads as
   that overhead alone. *)
let test_span_minor_words () =
  fresh ();
  let slack = 200.0 in
  Obs.with_span "alloc" (fun _ ->
      for i = 1 to 1_000 do
        ignore (Sys.opaque_identity (ref i))
      done);
  Obs.with_span "empty" (fun _ -> ());
  let alloc = (span_by_name "alloc").Obs.sp_minor_words
  and empty = (span_by_name "empty").Obs.sp_minor_words in
  Alcotest.(check bool)
    (Printf.sprintf "alloc span %.0f words in [2000, 2000 + slack)" alloc)
    true
    (alloc >= 2_000.0 && alloc < 2_000.0 +. slack);
  Alcotest.(check bool)
    (Printf.sprintf "empty span %.0f words < slack" empty)
    true (empty < slack);
  (* the report sums it per phase *)
  let phase =
    match J.member "phases" (Report.document ()) with
    | Some ph -> Option.bind (J.member "alloc" ph) (J.member "minor_words")
    | None -> None
  in
  Alcotest.(check (option (float 0.0))) "phases.alloc.minor_words"
    (Some alloc) (Option.bind phase J.to_float)

(* ---- histograms ---- *)

let test_histogram_buckets () =
  (* bucket_of and bucket_bounds agree: every sample lands in the bucket
     whose bounds contain it; bucket 0 is closed, holding exactly v <= 0 *)
  let check v =
    let b = Metrics.bucket_of v in
    let lo, hi = Metrics.bucket_bounds b in
    Alcotest.(check bool)
      (Printf.sprintf "%g in bucket %d [%g, %g)" v b lo hi)
      true
      (if b = 0 then v <= hi
       else v >= lo && (v < hi || hi = Float.infinity))
  in
  List.iter check
    [ -7.0; 0.0; 1e-300; 1e-9; 0.5; 0.999; 1.0; 1.5; 2.0; 3.0; 4.0; 1024.0;
      1e6; 1e12 ];
  (* power-of-two boundaries open a new bucket *)
  Alcotest.(check int) "2.0 above 1.99" (Metrics.bucket_of 1.99 + 1)
    (Metrics.bucket_of 2.0);
  Alcotest.(check int) "same bucket within [2,4)" (Metrics.bucket_of 2.0)
    (Metrics.bucket_of 3.999);
  (* absorb-below and absorb-above *)
  Alcotest.(check int) "zero in bucket 0" 0 (Metrics.bucket_of 0.0);
  Alcotest.(check int) "negative in bucket 0" 0 (Metrics.bucket_of (-7.0));
  Alcotest.(check int) "tiny positive in bucket 1" 1
    (Metrics.bucket_of 1e-300);
  Alcotest.(check int) "huge in last bucket" (Metrics.num_buckets - 1)
    (Metrics.bucket_of 1e300);
  let lo0, _ = Metrics.bucket_bounds 0 in
  let _, hi_last = Metrics.bucket_bounds (Metrics.num_buckets - 1) in
  Alcotest.(check (float 0.0)) "bucket 0 lo" 0.0 lo0;
  Alcotest.(check bool) "last bucket open" true (hi_last = Float.infinity)

let test_histogram_quantiles () =
  let h = Metrics.histogram "test.q" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 h.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sum" 5050.0 h.Metrics.h_sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Metrics.mean h);
  (* bucket-resolution upper bounds: rank 50 is 50, in [32,64) -> 64;
     ranks 90 and 99 land in [64,128) whose bound clamps to max=100 *)
  Alcotest.(check (float 1e-9)) "p50" 64.0 (Metrics.quantile h 0.50);
  Alcotest.(check (float 1e-9)) "p90" 100.0 (Metrics.quantile h 0.90);
  Alcotest.(check (float 1e-9)) "p99" 100.0 (Metrics.quantile h 0.99);
  (* quantiles never under-report: bound >= exact rank value *)
  List.iter
    (fun q ->
      let exact = Float.ceil (q *. 100.0) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g conservative" q)
        true
        (Metrics.quantile h q >= exact))
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  (* an unregistered histogram of samples behaves the same *)
  let adhoc = Metrics.histogram_of_samples (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "adhoc p50" 64.0 (Metrics.quantile adhoc 0.50);
  let empty = Metrics.histogram_of_samples [] in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Metrics.quantile empty 0.5);
  (* a single sample pins every quantile to itself *)
  let one = Metrics.histogram_of_samples [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "singleton p50" 42.0 (Metrics.quantile one 0.5);
  Alcotest.(check (float 1e-9)) "singleton p99" 42.0 (Metrics.quantile one 0.99);
  (* zero samples are real samples: a quantile whose rank falls on them
     is 0, not the bottom bucket's edge *)
  let zeros = Metrics.histogram_of_samples [ 0.0; 0.0; 0.0; 5.0 ] in
  Alcotest.(check (float 0.0)) "zero-heavy p50" 0.0 (Metrics.quantile zeros 0.5);
  Alcotest.(check (float 0.0)) "zero-heavy p99" 5.0 (Metrics.quantile zeros 0.99)

(* ---- Chrome trace export ---- *)

let test_chrome_trace_roundtrip () =
  fresh ();
  Obs.with_span ~cat:"phase1" ~tid:2 "alpha" (fun sp ->
      Obs.add_attr sp "items" (Obs.Int 5);
      Obs.with_span ~cat:"phase1" "beta" (fun _ -> ()));
  let doc = Chrome_trace.to_json () in
  (* round-trip through the JSON printer/parser *)
  let doc =
    match J.parse (J.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace does not re-parse: %s" e
  in
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  (* process_name + thread_name for tracks 0 and 2 + two spans *)
  Alcotest.(check int) "event count" 5 (List.length events);
  let str k e = Option.bind (J.member k e) J.to_str in
  let num k e = Option.bind (J.member k e) J.to_float in
  let metas, xs = List.partition (fun e -> str "ph" e = Some "M") events in
  Alcotest.(check int) "three metadata events" 3 (List.length metas);
  (* every distinct track is labelled *)
  let thread_names =
    List.filter (fun e -> str "name" e = Some "thread_name") metas
  in
  Alcotest.(check int) "two thread_name events" 2 (List.length thread_names);
  let label_of_track t =
    List.find_opt (fun e -> num "tid" e = Some t) thread_names
    |> Fun.flip Option.bind (fun e ->
           Option.bind (J.member "args" e) (fun a ->
               Option.bind (J.member "name" a) J.to_str))
  in
  Alcotest.(check (option string)) "main track labelled" (Some "tid 0 (main)")
    (label_of_track 0.0);
  Alcotest.(check (option string)) "tid-2 track labelled"
    (Some "tid 2 (main)") (label_of_track 2.0);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "ph" (Some "X") (str "ph" e);
      Alcotest.(check bool) "has name" true (str "name" e <> None);
      Alcotest.(check bool) "has tid" true (num "tid" e <> None);
      Alcotest.(check bool) "ts >= 0" true (num "ts" e >= Some 0.0);
      Alcotest.(check bool) "dur >= 0" true (num "dur" e >= Some 0.0))
    xs;
  let alpha = List.find (fun e -> str "name" e = Some "alpha") xs in
  Alcotest.(check (option (float 0.0))) "alpha tid" (Some 2.0)
    (num "tid" alpha);
  let args =
    match J.member "args" alpha with Some a -> a | None -> J.Obj []
  in
  Alcotest.(check (option (float 0.0))) "alpha args.items" (Some 5.0)
    (Option.bind (J.member "items" args) J.to_float)

(* ---- run report ---- *)

let test_report_validate () =
  fresh ();
  let c = Metrics.counter "test.report.counter" in
  Metrics.bump c;
  let h = Metrics.histogram "test.report.hist" in
  Metrics.observe h 3.0;
  Metrics.observe h 300.0;
  Obs.with_span ~cat:"test" "report-span" (fun _ -> ());
  let doc = Report.document ~label:"unit-test" () in
  (match Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" e);
  (* survives a print/parse round-trip *)
  (match J.parse (J.to_string doc) with
  | Ok d -> (
    match Report.validate d with
    | Ok () -> ()
    | Error e -> Alcotest.failf "re-parsed report invalid: %s" e)
  | Error e -> Alcotest.failf "report does not re-parse: %s" e);
  (* a wrong schema string is rejected *)
  let mutated =
    match doc with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "schema", _ -> ("schema", J.Str "drdebug-report-v0")
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "report not an object"
  in
  (match Report.validate mutated with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong schema version accepted");
  (* a missing field is rejected *)
  let missing =
    match doc with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "phases") fields)
    | _ -> assert false
  in
  (match Report.validate missing with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing phases accepted");
  (* the recorded span shows up as a phase with sane stats *)
  let phases =
    match J.member "phases" doc with Some (J.Obj l) -> l | _ -> []
  in
  Alcotest.(check bool) "span aggregated into a phase" true
    (List.mem_assoc "report-span" phases)

(* ---- OpenMetrics-style export ---- *)

let test_openmetrics_render () =
  fresh ();
  (* touch the cache counters the export derives hit rates from *)
  Metrics.add (Metrics.counter "segstore.hits") 3;
  Metrics.bump (Metrics.counter "segstore.misses");
  Metrics.add (Metrics.counter "reexec.window_hits") 2;
  Metrics.bump (Metrics.counter "reexec.window_misses");
  Metrics.time (Metrics.timer "test.om.timer") (fun () -> ());
  Metrics.observe (Metrics.histogram "test.om.hist") 5.0;
  Obs.set_enabled false;
  let doc = Report.document ~label:"om-test" () in
  let text =
    match Dr_obs.Openmetrics.of_report doc with
    | Ok text -> text
    | Error e -> Alcotest.failf "of_report failed: %s" e
  in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i =
      i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render has %S" needle) true
        (contains needle))
    [ "# TYPE segstore.hits counter"; "segstore.hits 3";
      "segstore.misses 1"; "reexec.window_hits 2"; "reexec.window_misses 1";
      "segstore.hit_rate 0.75"; "reexec.window_hit_rate";
      "test.om.timer_count 1"; "test.om.hist_count 1"; "# EOF\n" ];
  (* a stored report renders the same bytes as the live one *)
  match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "report does not re-parse: %s" e
  | Ok stored ->
    Alcotest.(check (result string string)) "stored = live" (Ok text)
      (Dr_obs.Openmetrics.of_report stored)

(* ---- one timing per interval ---- *)

(* A traced run of the whole chain (log, collect, merge, LP, slice,
   slice pinball, slice replay) reports no name both as an always-on
   timer and as a span phase, which [report diff] would count twice. *)
let test_no_double_counted_timings () =
  fresh ();
  let entry = Option.get (Dr_workloads.Registry.find "pbzip2") in
  let prog = entry.Dr_workloads.Registry.compile ~threads:4 ~iters:30 in
  let pb =
    match
      Dr_pinplay.Logger.log
        ~policy:(Dr_machine.Driver.Seeded { seed = 1; max_quantum = 8 })
        prog Dr_pinplay.Logger.Whole
    with
    | Ok (pb, _) -> pb
    | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e
  in
  let c = Dr_slicing.Collector.collect prog pb in
  let gt = Dr_slicing.Global_trace.construct c in
  let slice =
    Dr_slicing.Slicer.compute gt
      { Dr_slicing.Slicer.crit_pos = Dr_slicing.Global_trace.length gt - 1;
        crit_locs = None }
  in
  let spb, _ = Dr_exeslice.Exclusion.slice_pinball prog pb ~slice ~collector:c in
  ignore (Dr_exeslice.Slice_replay.run (Dr_exeslice.Slice_replay.create prog spb));
  Obs.set_enabled false;
  let doc = Report.document () in
  let names section =
    match J.member section doc with
    | Some (J.Obj l) -> List.map fst l
    | _ -> Alcotest.failf "report has no %s section" section
  in
  let timers = names "timers" and phases = names "phases" in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "phase %s recorded" p) true
        (List.mem p phases))
    [ "global_trace.construct"; "def_index.build"; "lp.prepare";
      "slicer.compute"; "slice_replay.run" ];
  Alcotest.(check (list string)) "names in both timers and phases" []
    (List.filter (fun t -> List.mem t phases) timers)

(* ---- report diffing ---- *)

let diff_doc ~slice_s ~prep_s =
  J.Obj
    [ ("schema", J.Str "drdebug-report-v1");
      ("label", J.Str "diff-test");
      ("counters", J.Obj []);
      ( "timers",
        J.Obj
          [ ( "slicer.slice",
              J.Obj [ ("seconds", J.Num slice_s); ("events", J.int 4) ] );
            ( "lp.prepare",
              J.Obj [ ("seconds", J.Num prep_s); ("events", J.int 1) ] ) ] );
      ("histograms", J.Obj []);
      ("phases", J.Obj []);
      ("span_total", J.int 0);
      ("span_mismatches", J.int 0) ]

let test_report_diff () =
  let base = diff_doc ~slice_s:0.1 ~prep_s:0.02 in
  (* identical documents: nothing past any threshold *)
  (match Report.diff ~threshold_pct:10.0 base base with
  | Error e -> Alcotest.failf "identical diff failed: %s" e
  | Ok r ->
    Alcotest.(check int) "identical: no regressions" 0
      (List.length r.Report.regressions);
    Alcotest.(check int) "identical: no improvements" 0
      (List.length r.Report.improvements);
    Alcotest.(check int) "identical: both timers compared" 2
      r.Report.compared);
  (* +50% on one timer, -50% on the other *)
  let cur = diff_doc ~slice_s:0.15 ~prep_s:0.01 in
  (match Report.diff ~threshold_pct:10.0 base cur with
  | Error e -> Alcotest.failf "regressed diff failed: %s" e
  | Ok r -> (
    Alcotest.(check int) "one regression" 1 (List.length r.Report.regressions);
    Alcotest.(check int) "one improvement" 1
      (List.length r.Report.improvements);
    match r.Report.regressions with
    | [ d ] ->
      Alcotest.(check string) "regression names the timer"
        "timers.slicer.slice.seconds" d.Report.d_name;
      Alcotest.(check bool) "pct is ~+50" true
        (Float.abs (d.Report.d_pct -. 50.0) < 1e-6)
    | _ -> assert false));
  (* the same +50% under a 60% threshold is quiet *)
  (match Report.diff ~threshold_pct:60.0 base cur with
  | Error e -> Alcotest.failf "lenient diff failed: %s" e
  | Ok r ->
    Alcotest.(check int) "under threshold: no regressions" 0
      (List.length r.Report.regressions));
  (* a document that is not a report is rejected *)
  match Report.diff ~threshold_pct:10.0 base (J.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-report accepted by diff"

let test_metrics_registry () =
  (* registration is idempotent: same name -> same handle *)
  let a = Metrics.counter "test.reg.a" in
  let a' = Metrics.counter "test.reg.a" in
  Alcotest.(check bool) "counter handle shared" true (a == a');
  let t = Metrics.timer "test.reg.t" in
  let t' = Metrics.timer "test.reg.t" in
  Alcotest.(check bool) "timer handle shared" true (t == t');
  Metrics.bump a;
  Metrics.add a 9;
  Alcotest.(check int) "count" 10 (Metrics.count a);
  Metrics.time t (fun () -> ());
  Alcotest.(check int) "timed events" 1 (Metrics.events t);
  Alcotest.(check bool) "seconds non-negative" true (Metrics.seconds t >= 0.0);
  (* report lists metrics sorted by name, independent of registration
     order ("b" registered last still sorts before "t") *)
  let b = Metrics.counter "test.reg.b" in
  Metrics.bump b;
  let names = List.map fst (Metrics.list ()) in
  let rec index i = function
    | [] -> -1
    | n :: rest -> if n = i then 0 else 1 + index i rest
  in
  let ia = index "test.reg.a" names
  and it = index "test.reg.t" names
  and ib = index "test.reg.b" names in
  Alcotest.(check bool) "all registered" true (ia >= 0 && it >= 0 && ib >= 0);
  Alcotest.(check bool) "name-sorted order" true (ia < ib && ib < it);
  (* one name table: a name belongs to one kind *)
  Alcotest.check_raises "timer name reused as counter"
    (Invalid_argument "Metrics: test.reg.t is registered as another kind")
    (fun () -> ignore (Metrics.counter "test.reg.t"))

(* Two domains registering handles concurrently: every name lands in the
   registry exactly once, racing registrations of the same name share
   one handle, and the report is name-sorted — byte-identical whatever
   the arrival interleaving (the multi-domain registration fix). *)
let test_metrics_parallel_registration () =
  let names d = List.init 16 (fun i -> Printf.sprintf "test.par.%d.%02d" d i) in
  let register d () =
    List.iter
      (fun n -> Metrics.bump (Metrics.counter n))
      (names d)
  in
  let other = Domain.spawn (register 1) in
  register 0 ();
  Domain.join other;
  let report = Metrics.list () in
  List.iter
    (fun n ->
      match List.assoc_opt n report with
      | Some (Metrics.Counter 1) -> ()
      | Some _ -> Alcotest.failf "%s: wrong count" n
      | None -> Alcotest.failf "%s: missing from report" n)
    (names 0 @ names 1);
  let ns = List.map fst report in
  Alcotest.(check bool) "report name-sorted" true
    (List.sort String.compare ns = ns);
  (* racing registration of the SAME name yields one shared handle *)
  let racer = Domain.spawn (fun () -> Metrics.counter "test.par.shared") in
  let c = Metrics.counter "test.par.shared" in
  let c' = Domain.join racer in
  Alcotest.(check bool) "same handle across domains" true (c == c')

(* Regression for the wall-clock vs monotonic mismatch: a backwards
   clock step between a timer's start and stop must never accumulate a
   negative duration.  [Timer.advance_to] pushes the shared ratchet
   ahead of real time, which is exactly the state after a backwards NTP
   step — subsequent reads stand still instead of going backwards. *)
let test_metrics_time_never_negative () =
  let t = Metrics.timer "test.mono.t" in
  Dr_util.Timer.advance_to (Dr_util.Timer.now () +. 60.0);
  let before = Metrics.seconds t in
  Metrics.time t (fun () -> ());
  let dt = Metrics.seconds t -. before in
  Alcotest.(check bool) "never negative" true (dt >= 0.0);
  Alcotest.(check (float 0.0)) "frozen clock reads as zero-length" 0.0 dt;
  Alcotest.(check int) "event still counted" 1 (Metrics.events t);
  (* the raw clock itself never decreases across reads *)
  let prev = ref (Dr_util.Timer.now ()) in
  for _ = 1 to 1000 do
    let n = Dr_util.Timer.now () in
    if n < !prev then
      Alcotest.failf "clock went backwards: %.9f after %.9f" n !prev;
    prev := n
  done;
  (* Timer.time reports the same non-negative elapsed figure *)
  let (), d = Dr_util.Timer.time (fun () -> ()) in
  Alcotest.(check bool) "Timer.time non-negative" true (d >= 0.0)

let () =
  let finally () = Obs.set_enabled false in
  Fun.protect ~finally (fun () ->
      Alcotest.run "obs"
        [ ( "span",
            [ Alcotest.test_case "nesting" `Quick test_span_nesting;
              Alcotest.test_case "with_span" `Quick test_with_span;
              Alcotest.test_case "mismatched stop" `Quick test_mismatched_stop;
              Alcotest.test_case "reset restarts token ids" `Quick
                test_reset_token_ids;
              Alcotest.test_case "disabled mode" `Quick test_disabled_mode;
              Alcotest.test_case "minor words per span" `Quick
                test_span_minor_words ] );
          ( "histogram",
            [ Alcotest.test_case "buckets" `Quick test_histogram_buckets;
              Alcotest.test_case "quantiles" `Quick test_histogram_quantiles ]
          );
          ( "sinks",
            [ Alcotest.test_case "chrome trace round-trip" `Quick
                test_chrome_trace_roundtrip;
              Alcotest.test_case "report validate" `Quick test_report_validate;
              Alcotest.test_case "openmetrics render" `Quick
                test_openmetrics_render;
              Alcotest.test_case "report diff" `Quick test_report_diff;
              Alcotest.test_case "no double-counted timings" `Quick
                test_no_double_counted_timings ] );
          ( "metrics",
            [ Alcotest.test_case "registry" `Quick test_metrics_registry;
              Alcotest.test_case "parallel registration determinism" `Quick
                test_metrics_parallel_registration;
              (* last: it steps the shared clock ratchet ahead of real
                 time, freezing durations for the rest of the process *)
              Alcotest.test_case "timer never negative" `Quick
                test_metrics_time_never_negative ] ) ])
