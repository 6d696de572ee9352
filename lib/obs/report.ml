(** Machine-readable run reports ([drdebug-report-v1]).

    A report is one JSON document summarising the whole observability
    state: the {!Metrics} registry (counters, timers, and histograms
    with bucket counts plus p50/p90/p99, each section in name order) and
    the recorded {!Obs} spans aggregated into {e phases} — per span
    name: invocation count, total wall time, duration quantiles
    (computed through a log-bucketed histogram, so a report never needs
    the raw span list) and the minor-heap words allocated.

    [document] is the only reader of the live registry: the run report,
    the OpenMetrics export ({!Openmetrics.of_report}) and the [--stats]
    table ({!pp_document}) are all derived from it.

    The schema is validated like the BENCH files: [validate] walks the
    parsed document and names the first violated field; the bench
    validator and the [drdebug_cli report] pretty-printer both run it
    before trusting a file. *)

module J = Dr_util.Json

let schema_version = "drdebug-report-v1"

(* ---- document construction ---- *)

let finite f = if Float.abs f = Float.infinity || Float.is_nan f then 0.0 else f

let histogram_json (h : Metrics.histogram) : J.t =
  let buckets = ref [] in
  for i = Metrics.num_buckets - 1 downto 0 do
    let n = h.Metrics.buckets.(i) in
    if n > 0 then begin
      let lo, hi = Metrics.bucket_bounds i in
      (* the last bucket's bound is infinite; clamp to the observed max
         so the document stays valid JSON *)
      let hi = if hi = Float.infinity then Metrics.max_value h else hi in
      buckets :=
        J.Obj [ ("lo", J.Num lo); ("hi", J.Num hi); ("count", J.int n) ]
        :: !buckets
    end
  done;
  J.Obj
    [ ("count", J.int h.Metrics.h_count);
      ("sum", J.Num (finite h.Metrics.h_sum));
      ("min", J.Num (finite (Metrics.min_value h)));
      ("max", J.Num (finite (Metrics.max_value h)));
      ("mean", J.Num (finite (Metrics.mean h)));
      ("p50", J.Num (finite (Metrics.quantile h 0.50)));
      ("p90", J.Num (finite (Metrics.quantile h 0.90)));
      ("p99", J.Num (finite (Metrics.quantile h 0.99)));
      ("buckets", J.List !buckets) ]

(* per-name span aggregate *)
type phase = {
  ph_cat : string;
  mutable ph_total : float;
  mutable ph_minor_words : float;
  mutable ph_durations : float list;
}

(* phases in first-span order *)
let phases_of_spans (spans : Obs.span array) : (string * phase) list =
  let tbl : (string, phase) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  Array.iter
    (fun (s : Obs.span) ->
      let p =
        match Hashtbl.find_opt tbl s.Obs.sp_name with
        | Some p -> p
        | None ->
          let p =
            { ph_cat = s.Obs.sp_cat; ph_total = 0.0; ph_minor_words = 0.0;
              ph_durations = [] }
          in
          Hashtbl.replace tbl s.Obs.sp_name p;
          order := (s.Obs.sp_name, p) :: !order;
          p
      in
      p.ph_total <- p.ph_total +. s.Obs.sp_dur_s;
      p.ph_minor_words <- p.ph_minor_words +. s.Obs.sp_minor_words;
      p.ph_durations <- s.Obs.sp_dur_s :: p.ph_durations)
    spans;
  List.rev !order

let phase_json (p : phase) : J.t =
  let h = Metrics.histogram_of_samples p.ph_durations in
  J.Obj
    [ ("cat", J.Str p.ph_cat);
      ("count", J.int h.Metrics.h_count);
      ("total_s", J.Num (finite p.ph_total));
      ("mean_s", J.Num (finite (Metrics.mean h)));
      ("p50_s", J.Num (finite (Metrics.quantile h 0.50)));
      ("p90_s", J.Num (finite (Metrics.quantile h 0.90)));
      ("p99_s", J.Num (finite (Metrics.quantile h 0.99)));
      ("max_s", J.Num (finite (Metrics.max_value h)));
      ("minor_words", J.Num (finite p.ph_minor_words)) ]

(** Build the [drdebug-report-v1] document from the current registry
    and span state. *)
let document ?(label = "drdebug") () : J.t =
  let entries = Metrics.list () in
  (* one section per metric kind, in the listing's name order *)
  let section f =
    J.Obj
      (List.filter_map
         (fun (name, v) -> Option.map (fun j -> (name, j)) (f v))
         entries)
  in
  let counter = function Metrics.Counter n -> Some (J.int n) | _ -> None in
  let timer = function
    | Metrics.Timer { seconds; events } ->
      Some (J.Obj [ ("seconds", J.Num (finite seconds)); ("events", J.int events) ])
    | _ -> None
  in
  let histogram = function
    | Metrics.Histogram h when h.Metrics.h_count > 0 -> Some (histogram_json h)
    | _ -> None
  in
  let phases =
    List.map (fun (name, p) -> (name, phase_json p)) (phases_of_spans (Obs.spans ()))
  in
  J.Obj
    [ ("schema", J.Str schema_version);
      ("label", J.Str label);
      ("counters", section counter);
      ("timers", section timer);
      ("histograms", section histogram);
      ("phases", J.Obj phases);
      ("span_total", J.int (Obs.span_count ()));
      ("span_mismatches", J.int (Obs.mismatch_count ())) ]

(** Write [doc] to [path] (atomic). *)
let write path doc =
  Dr_util.Atomic_file.with_out path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')

(* ---- validation ---- *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let get ctx doc k =
  match J.member k doc with
  | Some v -> v
  | None -> invalid "%s: missing field %S" ctx k

let want_num ctx v =
  match J.to_float v with Some f -> f | None -> invalid "%s: expected number" ctx

let want_str ctx v =
  match J.to_str v with Some s -> s | None -> invalid "%s: expected string" ctx

let want_obj ctx v =
  match v with J.Obj fields -> fields | _ -> invalid "%s: expected object" ctx

let want_nonneg ctx v =
  let f = want_num ctx v in
  if f < 0.0 then invalid "%s: negative" ctx;
  f

let check_histogram name h =
  let ctx k = Printf.sprintf "histograms.%s.%s" name k in
  List.iter
    (fun k -> ignore (want_num (ctx k) (get (ctx k) h k)))
    [ "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99" ];
  ignore (want_nonneg (ctx "count") (get (ctx "count") h "count"));
  match get (ctx "buckets") h "buckets" with
  | J.List buckets ->
    List.iteri
      (fun i b ->
        let bctx k = Printf.sprintf "histograms.%s.buckets[%d].%s" name i k in
        let lo = want_num (bctx "lo") (get (bctx "lo") b "lo") in
        let hi = want_num (bctx "hi") (get (bctx "hi") b "hi") in
        if hi < lo then invalid "%s: hi < lo" (bctx "hi");
        if want_nonneg (bctx "count") (get (bctx "count") b "count") < 1.0 then
          invalid "%s: empty bucket emitted" (bctx "count"))
      buckets
  | _ -> invalid "%s: expected list" (ctx "buckets")

let check_phase name p =
  let ctx k = Printf.sprintf "phases.%s.%s" name k in
  ignore (want_str (ctx "cat") (get (ctx "cat") p "cat"));
  if want_nonneg (ctx "count") (get (ctx "count") p "count") < 1.0 then
    invalid "%s: phase with no spans" (ctx "count");
  List.iter
    (fun k -> ignore (want_nonneg (ctx k) (get (ctx k) p k)))
    [ "total_s"; "mean_s"; "p50_s"; "p90_s"; "p99_s"; "max_s" ];
  (* [minor_words] arrived after the first reports were written; older
     documents without it stay valid *)
  Option.iter
    (fun v -> ignore (want_nonneg (ctx "minor_words") v))
    (J.member "minor_words" p)

(** Validate a parsed [drdebug-report-v1] document; the error names the
    first violated field. *)
let validate (doc : J.t) : (unit, string) result =
  try
    let schema = want_str "schema" (get "schema" doc "schema") in
    if schema <> schema_version then
      invalid "schema: expected %S, found %S" schema_version schema;
    ignore (want_str "label" (get "label" doc "label"));
    List.iter
      (fun (name, v) -> ignore (want_nonneg ("counters." ^ name) v))
      (want_obj "counters" (get "counters" doc "counters"));
    List.iter
      (fun (name, v) ->
        let ctx k = Printf.sprintf "timers.%s.%s" name k in
        ignore (want_nonneg (ctx "seconds") (get (ctx "seconds") v "seconds"));
        ignore (want_nonneg (ctx "events") (get (ctx "events") v "events")))
      (want_obj "timers" (get "timers" doc "timers"));
    List.iter
      (fun (name, h) -> check_histogram name h)
      (want_obj "histograms" (get "histograms" doc "histograms"));
    List.iter
      (fun (name, p) -> check_phase name p)
      (want_obj "phases" (get "phases" doc "phases"));
    ignore (want_nonneg "span_total" (get "span_total" doc "span_total"));
    ignore
      (want_nonneg "span_mismatches"
         (get "span_mismatches" doc "span_mismatches"));
    Ok ()
  with Invalid m -> Error m

(* ---- pretty-printing (drdebug_cli report, --stats) ---- *)

let num_of ctx doc k = want_num ctx (get ctx doc k)

(** A report document as tables: phases (heaviest first), histograms,
    counters and timers.  [drdebug_cli report FILE] prints a stored
    document with it, [--stats] the live one. *)
let pp_document fmt (doc : J.t) =
  let label =
    match Option.bind (J.member "label" doc) J.to_str with
    | Some l -> l
    | None -> "?"
  in
  Format.fprintf fmt "run report: %s@." label;
  let phases = want_obj "phases" (get "phases" doc "phases") in
  let rows =
    List.map
      (fun (name, p) ->
        let n k = num_of (name ^ "." ^ k) p k in
        ( name,
          (match Option.bind (J.member "cat" p) J.to_str with
          | Some c -> c
          | None -> ""),
          int_of_float (n "count"), n "total_s", n "p50_s", n "p99_s",
          n "max_s" ))
      phases
    |> List.sort (fun (_, _, _, a, _, _, _) (_, _, _, b, _, _, _) ->
           Float.compare b a)
  in
  if rows = [] then
    Format.fprintf fmt "  (no spans recorded — was tracing enabled?)@."
  else begin
    Format.fprintf fmt "  %-34s %-9s %7s %11s %11s %11s %11s@." "phase" "cat"
      "count" "total(s)" "p50(s)" "p99(s)" "max(s)";
    List.iter
      (fun (name, cat, count, total, p50, p99, mx) ->
        Format.fprintf fmt "  %-34s %-9s %7d %11.6f %11.6f %11.6f %11.6f@."
          name cat count total p50 p99 mx)
      rows
  end;
  let histograms = want_obj "histograms" (get "histograms" doc "histograms") in
  if histograms <> [] then begin
    Format.fprintf fmt "  %-34s %9s %14s %11s %11s@." "histogram" "count"
      "mean" "p50" "p99";
    List.iter
      (fun (name, h) ->
        let n k = num_of (name ^ "." ^ k) h k in
        Format.fprintf fmt "  %-34s %9d %14.6g %11.6g %11.6g@." name
          (int_of_float (n "count"))
          (n "mean") (n "p50") (n "p99"))
      histograms
  end;
  let counters = want_obj "counters" (get "counters" doc "counters") in
  if counters <> [] then begin
    Format.fprintf fmt "  %-44s %14s@." "counter" "value";
    List.iter
      (fun (name, v) ->
        Format.fprintf fmt "  %-44s %14.0f@." name (want_num name v))
      counters
  end;
  let timers = want_obj "timers" (get "timers" doc "timers") in
  if timers <> [] then begin
    Format.fprintf fmt "  %-44s %14s %9s@." "timer" "seconds" "events";
    List.iter
      (fun (name, t) ->
        let n k = num_of (name ^ "." ^ k) t k in
        Format.fprintf fmt "  %-44s %14.6f %9.0f@." name (n "seconds")
          (n "events"))
      timers
  end;
  let mm = num_of "span_mismatches" doc "span_mismatches" in
  if mm > 0.0 then
    Format.fprintf fmt "  WARNING: %d span mismatch(es) recorded@."
      (int_of_float mm)

(* ---- report diffing (drdebug_cli report diff) ---- *)

(** One compared timing: a timer's [seconds] or a phase's [total_s],
    present in both documents.  [d_pct] is the relative change from
    [d_base] ([+] = slower). *)
type delta = {
  d_name : string;  (** "timers.<n>.seconds" or "phases.<n>.total_s" *)
  d_base : float;
  d_cur : float;
  d_pct : float;
}

type diff_result = {
  regressions : delta list;  (** deltas past the threshold, worst first *)
  improvements : delta list;  (** deltas past the threshold the other way *)
  compared : int;  (** timings present in both documents *)
}

(* timings too small for a stable relative comparison are skipped:
   sub-10ns totals are clock-resolution noise *)
let diff_floor_s = 1e-8

let timings ctx (doc : J.t) : (string * float) list =
  let section name field =
    match J.member name doc with
    | Some (J.Obj entries) ->
      List.filter_map
        (fun (n, v) ->
          Option.bind (J.member field v) J.to_float
          |> Option.map (fun f ->
                 (Printf.sprintf "%s.%s.%s" name n field, f)))
        entries
    | _ -> invalid "%s: missing or malformed %S section" ctx name
  in
  section "timers" "seconds" @ section "phases" "total_s"

(** Compare the wall-time trajectories of two parsed report documents:
    every timer and phase total present in both is compared, and a
    relative change beyond [threshold_pct] percent is a regression
    (slower) or an improvement (faster).  Timings absent from either
    document, or below the noise floor in the base, are skipped. *)
let diff ~threshold_pct (base : J.t) (cur : J.t) : (diff_result, string) result
    =
  try
    let b = timings "base" base and c = timings "current" cur in
    let regressions = ref [] and improvements = ref [] and compared = ref 0 in
    List.iter
      (fun (name, bv) ->
        match List.assoc_opt name c with
        | None -> ()
        | Some cv ->
          if bv > diff_floor_s then begin
            incr compared;
            let pct = (cv -. bv) /. bv *. 100.0 in
            let d = { d_name = name; d_base = bv; d_cur = cv; d_pct = pct } in
            if pct > threshold_pct then regressions := d :: !regressions
            else if pct < -.threshold_pct then improvements := d :: !improvements
          end)
      b;
    let by_severity a b = Float.compare (Float.abs b.d_pct) (Float.abs a.d_pct) in
    Ok
      { regressions = List.sort by_severity !regressions;
        improvements = List.sort by_severity !improvements;
        compared = !compared }
  with Invalid m -> Error m

let pp_delta fmt d =
  Format.fprintf fmt "  %-44s %11.6f -> %11.6f  %+7.1f%%@." d.d_name d.d_base
    d.d_cur d.d_pct

(** Human-readable diff table; returns [true] when there is at least
    one regression (the CLI's exit-code signal). *)
let pp_diff fmt (r : diff_result) : bool =
  Format.fprintf fmt "compared %d timing(s)@." r.compared;
  if r.regressions <> [] then begin
    Format.fprintf fmt "regressions:@.";
    List.iter (pp_delta fmt) r.regressions
  end;
  if r.improvements <> [] then begin
    Format.fprintf fmt "improvements:@.";
    List.iter (pp_delta fmt) r.improvements
  end;
  if r.regressions = [] && r.improvements = [] then
    Format.fprintf fmt "no change beyond threshold@.";
  r.regressions <> []
