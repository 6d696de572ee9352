(** The differential fuzz loop: generate -> log -> replay -> relog ->
    slice -> slice-replay, with the five {!Oracles} checked on every
    case and failing cases shrunk to minimal repros.

    Case derivation is pure: a master seed plus a case id yields the
    program seed, schedule seed and nondet seed through splitmix-style
    mixing, so any failing case replays from [(master_seed, case_id)]
    alone.  Failure artifacts additionally embed the exact (shrunk)
    source lines and schedule, so a corpus file stays a repro even if the
    generator changes. *)

let cases_counter = Dr_obs.Metrics.counter "conformance.cases"

let skips_counter = Dr_obs.Metrics.counter "conformance.skips"

let fail_counter kind =
  Dr_obs.Metrics.counter ("conformance.fail." ^ Oracles.kind_name kind)

(* ---- deterministic case derivation ---- *)

(* 30 bits: derived seeds survive a JSON float round-trip exactly *)
let mix64 h x = Dr_pinplay.Exec_digest.mix h x land 0x3fffffff

let prog_seed ~master id = mix64 (mix64 master 1) id

let sched_seed ~master id = mix64 (mix64 master 2) id

let nondet_seed ~master id = mix64 (mix64 master 3) id

let fault_seed ~master id = mix64 (mix64 master 4) id

(** Deterministic disk-fault plan for a case: roughly one case in three
    runs fault-free (exercising the spill-identity phase alone), the
    rest get one of the five injected faults; the salt picks the victim
    write/segment/bit. *)
let fault_plan ~master id : Oracles.disk_fault option * int =
  let s = fault_seed ~master id in
  let nfaults = List.length Oracles.all_disk_faults in
  let pick = s mod (nfaults + 2) in
  let fault =
    if pick >= nfaults then None
    else Some (List.nth Oracles.all_disk_faults pick)
  in
  (fault, mix64 s 5)

(* ---- running one case ---- *)

let schedule_steps = 128

let gen_cfg =
  { Dr_lang.Gen.default_cfg with Dr_lang.Gen.max_workers = 2 }

(** Compile [lines] and run all oracles under [sched].  Compile errors
    are [Skip] — the fuzz loop treats the generator producing
    uncompilable source as its own (generator) bug surfaced by the
    skip count, not as a pipeline failure. *)
let check_case ?mutate_slice ?resource ~(lines : string array)
    ~(sched : Sched.t) ~(nondet_seed : int) () : Oracles.verdict =
  let src = String.concat "\n" (Array.to_list lines) ^ "\n" in
  match Dr_lang.Codegen.compile_result ~name:"fuzz-case" src with
  | Error msg -> Oracles.Skip ("compile error: " ^ msg)
  | Ok prog ->
    Oracles.check ?mutate_slice ?resource prog
      ~policy:(Sched.policy sched) ~nondet_seed

type failure = {
  fr_case_id : int;
  fr_prog_seed : int;
  fr_nondet_seed : int;
  fr_kind : Oracles.kind;
  fr_detail : string;
  fr_shrink_steps : int;
  fr_lines : string array;  (** shrunk source *)
  fr_sched : Sched.t;  (** shrunk schedule *)
}

type summary = {
  s_master_seed : int;
  s_cases : int;  (** cases attempted (incl. skips) *)
  s_passes : int;
  s_skips : int;
  s_failures : failure list;
  s_elapsed : float;
}

let all_green (s : summary) = s.s_failures = []

(* ---- JSON artifacts ---- *)

let case_schema = "drdebug-fuzz-case-v1"

let failure_json ~master_seed (f : failure) : Dr_util.Json.t =
  Dr_util.Json.Obj
    [ ("schema", Dr_util.Json.Str case_schema);
      ("master_seed", Dr_util.Json.int master_seed);
      ("case_id", Dr_util.Json.int f.fr_case_id);
      ("prog_seed", Dr_util.Json.int f.fr_prog_seed);
      ("nondet_seed", Dr_util.Json.int f.fr_nondet_seed);
      ("oracle", Dr_util.Json.Str (Oracles.kind_name f.fr_kind));
      ("detail", Dr_util.Json.Str f.fr_detail);
      ("shrink_steps", Dr_util.Json.int f.fr_shrink_steps);
      ("source_lines",
       Dr_util.Json.List
         (Array.to_list f.fr_lines |> List.map (fun l -> Dr_util.Json.Str l)));
      ("schedule", Sched.to_json f.fr_sched) ]

let summary_json (s : summary) : Dr_util.Json.t =
  let by_kind =
    List.map
      (fun k ->
        ( Oracles.kind_name k,
          Dr_util.Json.int
            (List.length (List.filter (fun f -> f.fr_kind = k) s.s_failures))
        ))
      Oracles.all_kinds
  in
  Dr_util.Json.Obj
    [ ("schema", Dr_util.Json.Str "drdebug-fuzz-report-v1");
      ("master_seed", Dr_util.Json.int s.s_master_seed);
      ("cases", Dr_util.Json.int s.s_cases);
      ("passes", Dr_util.Json.int s.s_passes);
      ("skips", Dr_util.Json.int s.s_skips);
      ("failures", Dr_util.Json.int (List.length s.s_failures));
      ("failures_by_oracle", Dr_util.Json.Obj by_kind);
      ("elapsed_s", Dr_util.Json.Num s.s_elapsed) ]

(* ---- corpus files: load + replay ---- *)

type corpus_case = {
  cc_lines : string array;
  cc_sched : Sched.t;
  cc_nondet_seed : int;
  cc_oracle : string;  (** the oracle that originally failed *)
  cc_detail : string;
}

let corpus_case_of_json (j : Dr_util.Json.t) : (corpus_case, string) result =
  let ( let* ) = Result.bind in
  let str k =
    match Option.bind (Dr_util.Json.member k j) Dr_util.Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let num k =
    match Option.bind (Dr_util.Json.member k j) Dr_util.Json.to_float with
    | Some f -> Ok (int_of_float f)
    | None -> Error (Printf.sprintf "missing numeric field %S" k)
  in
  let* schema = str "schema" in
  if schema <> case_schema then
    Error (Printf.sprintf "unsupported schema %S" schema)
  else
    let* lines =
      match Option.bind (Dr_util.Json.member "source_lines" j) Dr_util.Json.to_list with
      | None -> Error "missing list field \"source_lines\""
      | Some items ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | Dr_util.Json.Str s :: rest -> go (s :: acc) rest
          | _ -> Error "source_lines: expected strings"
        in
        go [] items
    in
    let* sched =
      match Dr_util.Json.member "schedule" j with
      | None -> Error "missing field \"schedule\""
      | Some s -> Sched.of_json s
    in
    let* cc_nondet_seed = num "nondet_seed" in
    let* cc_oracle = str "oracle" in
    let* cc_detail = str "detail" in
    Ok { cc_lines = lines; cc_sched = sched; cc_nondet_seed; cc_oracle;
         cc_detail }

let load_corpus_case path : (corpus_case, string) result =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  match Dr_util.Json.parse contents with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match corpus_case_of_json j with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok c -> Ok c)

(** Re-run all oracles on a stored corpus case.  A fixed bug stays fixed
    when this returns [Pass] (or [Skip] for an environment-dependent
    case). *)
let replay_corpus_case (c : corpus_case) : Oracles.verdict =
  check_case ~lines:c.cc_lines ~sched:c.cc_sched ~nondet_seed:c.cc_nondet_seed
    ()

(* ---- the fuzz loop ---- *)

let gen_case ~master id =
  let lines =
    Dr_lang.Gen.program ~cfg:gen_cfg (prog_seed ~master id)
    |> String.split_on_char '\n' |> Array.of_list
  in
  let sched =
    Dr_lang.Gen.schedule ~threads:(2 + gen_cfg.Dr_lang.Gen.max_workers)
      ~steps:schedule_steps (sched_seed ~master id)
  in
  (lines, sched)

(* The complete, pure input set of a case: everything {!run} uses to
   check it, derived from (master seed, case id) alone. *)
let case_inputs ~disk_faults ~seed case_id =
  let lines, sched = gen_case ~master:seed case_id in
  let nds = nondet_seed ~master:seed case_id in
  let resource =
    if not disk_faults then None
    else begin
      let fault, salt = fault_plan ~master:seed case_id in
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "drdebug-fuzz-spill-%d-%d" (Unix.getpid ()) case_id)
      in
      Some { Oracles.r_spill_dir = dir; r_fault = fault; r_salt = salt }
    end
  in
  (lines, sched, nds, resource)

(** Re-run one fuzz case from its coordinates alone — the reproduction
    contract of the (possibly domain-sharded) fuzz farm: a failure
    reported by {!run} with [(seed, case_id)] yields the same verdict
    here, on one domain, with no farm state involved. *)
let replay_case ?mutate_slice ?(disk_faults = false) ~seed ~case_id () :
    Oracles.verdict =
  let lines, sched, nds, resource = case_inputs ~disk_faults ~seed case_id in
  check_case ?mutate_slice ?resource ~lines ~sched ~nondet_seed:nds ()

(* per-case result, folded into a summary in case-id order *)
type outcome = O_pass | O_skip | O_fail of failure

(* Check one case end-to-end (oracles, shrink, artifact).  Pure in the
   case coordinates apart from [log]/[out_dir] side effects, so it runs
   unchanged on any domain. *)
let run_case ?mutate_slice ~disk_faults ~out_dir ~log ~seed case_id :
    outcome =
  Dr_obs.Metrics.bump cases_counter;
  let lines, sched, nds, resource = case_inputs ~disk_faults ~seed case_id in
  let verdict =
    Dr_obs.Obs.with_span ~cat:"fuzz" "fuzz.case" @@ fun sp ->
    Dr_obs.Obs.add_attr sp "case_id" (Dr_obs.Obs.Int case_id);
    (match resource with
    | Some { Oracles.r_fault; _ } ->
      Dr_obs.Obs.add_attr sp "disk_fault"
        (Dr_obs.Obs.Str
           (match r_fault with
           | Some f -> Oracles.disk_fault_name f
           | None -> "none"))
    | None -> ());
    let v =
      check_case ?mutate_slice ?resource ~lines ~sched ~nondet_seed:nds ()
    in
    Dr_obs.Obs.add_attr sp "verdict"
      (Dr_obs.Obs.Str
         (match v with
         | Oracles.Pass -> "pass"
         | Oracles.Skip _ -> "skip"
         | Oracles.Fail f -> Oracles.kind_name f.Oracles.f_kind));
    v
  in
  match verdict with
  | Oracles.Pass -> O_pass
  | Oracles.Skip reason ->
    Dr_obs.Metrics.bump skips_counter;
    log (Printf.sprintf "case %d: skipped (%s)" case_id reason);
    O_skip
  | Oracles.Fail { Oracles.f_kind; f_detail } ->
    Dr_obs.Metrics.bump (fail_counter f_kind);
    log
      (Printf.sprintf "case %d: %s FAILED: %s (shrinking...)" case_id
         (Oracles.kind_name f_kind) f_detail);
    (* keep a reduction iff the same oracle still fails *)
    let still_fails ~lines ~sched =
      match
        check_case ?mutate_slice ?resource ~lines ~sched ~nondet_seed:nds ()
      with
      | Oracles.Fail { Oracles.f_kind = k; _ } -> k = f_kind
      | _ -> false
    in
    let s_lines, s_sched, steps =
      Shrink.shrink ~check:still_fails ~lines ~sched ()
    in
    (* re-run the shrunk case for the final failure detail *)
    let detail =
      match
        check_case ?mutate_slice ?resource ~lines:s_lines ~sched:s_sched
          ~nondet_seed:nds ()
      with
      | Oracles.Fail { Oracles.f_detail = d; _ } -> d
      | _ -> f_detail
    in
    let f =
      { fr_case_id = case_id; fr_prog_seed = prog_seed ~master:seed case_id;
        fr_nondet_seed = nds; fr_kind = f_kind; fr_detail = detail;
        fr_shrink_steps = steps; fr_lines = s_lines; fr_sched = s_sched }
    in
    (match out_dir with
    | Some d ->
      let path = Filename.concat d (Printf.sprintf "case-%d.json" case_id) in
      Dr_util.Atomic_file.write_string path
        (Dr_util.Json.to_string (failure_json ~master_seed:seed f));
      log (Printf.sprintf "case %d: shrunk to %d lines, saved %s" case_id
             (Array.length f.fr_lines) path)
    | None -> ());
    O_fail f

(** Fuzz [runs] cases derived from [seed].  [budget_s] stops the loop
    early (quick mode under [dune runtest]); [out_dir] receives
    [report.json] plus one [case-<id>.json] per (shrunk) failure;
    [mutate_slice] is threaded through to {!Oracles.check} for
    broken-slicer self-tests.  [disk_faults] additionally runs the
    resource-robustness oracle on every case: the trace is rebuilt
    through a disk-spilled segment store and a deterministic, seed-
    derived disk fault plan is injected ({!fault_plan}).

    Every case is one {!Dr_util.Pool.run} task over [domains]
    (default 1) domains, claimed dynamically (good balance against
    uneven shrink costs); one domain spawns nothing.  Because case
    derivation is pure in [(seed, case_id)], sharding changes nothing
    about any individual case: every reported failure replays
    bit-identically via {!replay_case} on one domain, and with no
    [budget_s] cutoff the summary (counts and failure list, ordered by
    case id) is identical to a 1-domain run's; a traced run's spans
    splice in case order too.  Each case's spill directory and artifact
    file are keyed by its case id, so concurrent cases never share disk
    paths.  [out_dir] is created before any case runs.
    @raise Sys_error when [out_dir] cannot be created. *)
let run ?mutate_slice ?(disk_faults = false) ?budget_s ?out_dir
    ?(log = ignore) ?(domains = 1) ~seed ~runs () : summary =
  let t0 = Dr_util.Timer.now () in
  Option.iter (fun d -> ignore (Dr_util.Atomic_file.mkdir_p d)) out_dir;
  let within_budget () =
    match budget_s with
    | None -> true
    | Some b -> Dr_util.Timer.now () -. t0 < b
  in
  let runs = max runs 0 in
  let results : outcome option array = Array.make runs None in
  (* [log] is the only shared sink the cases write concurrently;
     serialize it so interleaved lines stay whole *)
  let log_lock = Mutex.create () in
  let log msg =
    Mutex.lock log_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock log_lock) (fun () -> log msg)
  in
  let case id () =
    if within_budget () then
      results.(id) <-
        Some
          (run_case ?mutate_slice ~disk_faults ~out_dir ~log ~seed id)
  in
  Dr_util.Pool.run ~domains (Array.init runs case);
  let passes = ref 0 and skips = ref 0 and cases = ref 0 in
  let failures = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some o -> (
        incr cases;
        match o with
        | O_pass -> incr passes
        | O_skip -> incr skips
        | O_fail f -> failures := f :: !failures))
    results;
  let s =
    { s_master_seed = seed; s_cases = !cases; s_passes = !passes;
      s_skips = !skips; s_failures = List.rev !failures;
      s_elapsed = Dr_util.Timer.now () -. t0 }
  in
  (match out_dir with
  | Some d ->
    Dr_util.Atomic_file.write_string (Filename.concat d "report.json")
      (Dr_util.Json.to_string (summary_json s))
  | None -> ());
  s
