(** OpenMetrics-{e style} text exporter.

    Renders a [drdebug-report-v1] document — the live one from
    {!Report.document} or a stored one — as the line-oriented text
    format Prometheus-family scrapers ingest: [# TYPE] comments, one
    [name value] sample per line, summary quantiles as
    [name{quantile="0.5"}] and a terminating [# EOF].  Rendering only
    from the document means [--metrics-out] and [drdebug_cli metrics
    REPORT] of the same run print the same bytes.

    It is "-style" rather than strictly conformant on one point: metric
    names keep their registry spelling verbatim ([segstore.hits],
    [pool.slot0.busy.seconds]) instead of being mangled into
    [[a-zA-Z_:]] — the dots are the registry's namespace structure and
    the intended consumer is the repo's own tooling ([report diff], the
    bench validator, grep).  A strict scraper only needs a
    [s/\./_/g].

    Rendering is deterministic: counters, timers and histograms in
    document order (name order for a live document), derived gauges
    last. *)

module J = Dr_util.Json

let counter_lines b name v =
  Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
  Buffer.add_string b (Printf.sprintf "%s %s\n" name (J.number_to_string v))

let gauge_lines b name v =
  Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
  Buffer.add_string b (Printf.sprintf "%s %s\n" name (J.number_to_string v))

(* a timer is a summary with only count and sum *)
let timer_lines b name ~seconds ~events =
  Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" name);
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" name events);
  Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (J.number_to_string seconds))

let summary_lines b name ~count ~sum ~quantiles =
  Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" name);
  List.iter
    (fun (q, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name q (J.number_to_string v)))
    quantiles;
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" name count);
  Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (J.number_to_string sum))

(* cache hit rates derived from hit/miss counter pairs; 0 when the
   cache saw no traffic *)
let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let derived_gauges b find =
  let c name = match find name with Some v -> v | None -> 0 in
  gauge_lines b "segstore.hit_rate"
    (hit_rate (c "segstore.hits") (c "segstore.misses"));
  gauge_lines b "reexec.window_hit_rate"
    (hit_rate (c "reexec.window_hits") (c "reexec.window_misses"))

(** A [drdebug-report-v1] document as OpenMetrics-style text. *)
let of_report (doc : J.t) : (string, string) result =
  let b = Buffer.create 4096 in
  let obj name =
    match J.member name doc with
    | Some (J.Obj entries) -> Ok entries
    | _ -> Error (Printf.sprintf "missing or malformed %S section" name)
  in
  let ( let* ) = Result.bind in
  let* counters = obj "counters" in
  let* timers = obj "timers" in
  let* histograms = obj "histograms" in
  let fnum ctx v =
    match J.to_float v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: expected number" ctx)
  in
  let field ctx o k =
    match J.member k o with
    | Some v -> fnum (ctx ^ "." ^ k) v
    | None -> Error (Printf.sprintf "%s: missing field %S" ctx k)
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        let* f = fnum ("counters." ^ name) v in
        counter_lines b name f;
        Ok ())
      (Ok ()) counters
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        let* seconds = field ("timers." ^ name) v "seconds" in
        let* events = field ("timers." ^ name) v "events" in
        timer_lines b name ~seconds ~events:(int_of_float events);
        Ok ())
      (Ok ()) timers
  in
  let* () =
    List.fold_left
      (fun acc (name, h) ->
        let* () = acc in
        let ctx = "histograms." ^ name in
        let* count = field ctx h "count" in
        let* sum = field ctx h "sum" in
        let* p50 = field ctx h "p50" in
        let* p90 = field ctx h "p90" in
        let* p99 = field ctx h "p99" in
        summary_lines b name ~count:(int_of_float count) ~sum
          ~quantiles:[ ("0.5", p50); ("0.9", p90); ("0.99", p99) ];
        Ok ())
      (Ok ()) histograms
  in
  derived_gauges b (fun name ->
      match List.assoc_opt name counters with
      | Some v -> Option.map int_of_float (J.to_float v)
      | None -> None);
  Buffer.add_string b "# EOF\n";
  Ok (Buffer.contents b)
