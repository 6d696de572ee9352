(* Race-detection benchmark: for every concurrency bug in the registry,
   measure the static detector's candidate set, then run the Maple
   campaign twice — plain (profiler-predicted candidates only) and
   seeded with the static race pairs — and dynamically cross-check the
   exposed execution with the lockset checker.  Emits BENCH_races.json
   (schema drdebug-bench-races-v1, see README "Benchmarking"):
   `maple_steps_saved` is the attempts the static seeding shaved off the
   campaign (a plain campaign that never exposes counts its whole
   exhausted queue).  A dune runtest smoke runs this in --quick mode and
   validates the emitted JSON. *)

let printf = Printf.printf

module Timer = Dr_util.Timer

module J = Dr_util.Json
module Race = Dr_static.Race

let schema_version = "drdebug-bench-races-v1"

type row = {
  r_name : string;
  r_static_candidates : int;
  r_static_resolved : bool;
  r_root_cause_ranked : bool;
  r_static_s : float;
  r_iroot_predicted : int;  (* profiler-predicted candidate iRoots *)
  r_iroot_seeded : int;  (* queue length after static seeding *)
  r_plain_exposed : bool;
  r_plain_attempts : int;  (* attempts used (queue length if exhausted) *)
  r_seeded_attempts : int;
  r_steps_saved : int;
  r_campaign_s : float;
  r_dynamic_races : int;  (* distinct racy pc pairs observed *)
  r_dynamic_in_static : bool;
}

let bench_bug (b : Dr_workloads.Bugs.t) : row =
  let name = b.Dr_workloads.Bugs.name in
  let prog = Dr_workloads.Bugs.compile b in
  (* static_s times the whole static analysis: super-CFG plus race *)
  let race, static_s =
    Timer.time (fun () -> Race.analyze (Dr_static.Supercfg.build prog))
  in
  let static_pairs = Race.candidate_pairs race in
  let root_cause_ranked =
    let line pc =
      Option.value ~default:(-1)
        (Dr_isa.Debug_info.line_of_pc prog.Dr_isa.Program.debug pc)
    in
    List.exists
      (fun (p, q) ->
        line p = b.Dr_workloads.Bugs.root_cause_line
        || line q = b.Dr_workloads.Bugs.root_cause_line)
      static_pairs
  in
  let obs = Dr_maple.Profiler.profile prog in
  let predicted = List.length obs.Dr_maple.Profiler.candidates in
  let seeded_extra =
    List.length
      (Dr_maple.Active.seed_candidates ~prog ~static_pairs
         obs.Dr_maple.Profiler.candidates)
  in
  let plain = Dr_maple.Active.expose prog in
  let plain_attempts =
    match plain with
    | Some e -> List.length e.Dr_maple.Active.attempts
    | None -> min 64 predicted  (* exhausted the whole plain queue *)
  in
  let (seeded, campaign_s) =
    Timer.time (fun () -> Dr_maple.Active.expose ~static_pairs prog)
  in
  match seeded with
  | None -> failwith (name ^ ": statically seeded campaign did not expose")
  | Some e ->
    let seeded_attempts = List.length e.Dr_maple.Active.attempts in
    let dyn_pairs =
      let on_pinball =
        Dr_conformance.Racecheck.observe_pinball prog
          e.Dr_maple.Active.pinball
      in
      (* bugs whose exposing schedule suppresses the racy access (the
         missed-signal case) still race under a plain interleaving *)
      let on_rr, _ =
        Dr_conformance.Racecheck.observe_run prog
          ~policy:(Dr_machine.Driver.Round_robin { quantum = 1 })
      in
      List.sort_uniq compare
        (on_pinball.Dr_conformance.Racecheck.pairs
        @ on_rr.Dr_conformance.Racecheck.pairs)
    in
    { r_name = name;
      r_static_candidates = List.length static_pairs;
      r_static_resolved = Race.fully_resolved race;
      r_root_cause_ranked = root_cause_ranked;
      r_static_s = static_s;
      r_iroot_predicted = predicted;
      r_iroot_seeded = predicted + seeded_extra;
      r_plain_exposed = plain <> None;
      r_plain_attempts = plain_attempts;
      r_seeded_attempts = seeded_attempts;
      r_steps_saved = max 0 (plain_attempts - seeded_attempts);
      r_campaign_s = campaign_s;
      r_dynamic_races = List.length dyn_pairs;
      r_dynamic_in_static =
        List.for_all (fun (p, q) -> Race.is_candidate race p q) dyn_pairs }

let row_json (r : row) : J.t =
  J.Obj
    [ ("name", J.Str r.r_name);
      ("static_candidates", J.int r.r_static_candidates);
      ("static_resolved", J.Bool r.r_static_resolved);
      ("root_cause_ranked", J.Bool r.r_root_cause_ranked);
      ("static_s", J.Num r.r_static_s);
      ("iroot_predicted", J.int r.r_iroot_predicted);
      ("iroot_seeded", J.int r.r_iroot_seeded);
      ("plain_exposed", J.Bool r.r_plain_exposed);
      ("plain_attempts", J.int r.r_plain_attempts);
      ("seeded_attempts", J.int r.r_seeded_attempts);
      ("maple_steps_saved", J.int r.r_steps_saved);
      ("campaign_s", J.Num r.r_campaign_s);
      ("dynamic_races", J.int r.r_dynamic_races);
      ("dynamic_in_static", J.Bool r.r_dynamic_in_static) ]

(** Run the race benchmark over every registry bug and write [out]
    (BENCH_races.json). *)
let run ~quick ~out () =
  let rows = List.map bench_bug Dr_workloads.Bugs.all in
  printf "%-10s %7s %9s %8s %7s %7s %6s %7s %7s\n" "bug" "static" "resolved"
    "iroots" "plain" "seeded" "saved" "dynraces" "subset";
  List.iter
    (fun r ->
      printf "%-10s %7d %9b %4d/%-3d %7s %7d %6d %7d %7b\n" r.r_name
        r.r_static_candidates r.r_static_resolved r.r_iroot_predicted
        r.r_iroot_seeded
        (if r.r_plain_exposed then string_of_int r.r_plain_attempts
         else Printf.sprintf "%d*" r.r_plain_attempts)
        r.r_seeded_attempts r.r_steps_saved r.r_dynamic_races
        r.r_dynamic_in_static)
    rows;
  printf "(* = plain campaign exhausted its queue without exposing)\n";
  let total_saved = List.fold_left (fun a r -> a + r.r_steps_saved) 0 rows in
  let doc =
    J.Obj
      [ ("schema", J.Str schema_version);
        ("quick", J.Bool quick);
        ("bugs", J.List (List.map row_json rows));
        ("total_steps_saved", J.int total_saved) ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (J.to_string doc);
      Out_channel.output_char oc '\n');
  printf "wrote %s\n" out
