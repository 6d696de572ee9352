(** [drdebug-analyze-v1] JSON documents: build from lint + call-graph
    results, and validate (the same checks [bench/validate_bench.exe]
    applies to every machine-readable artifact this repo emits).

    The document is fully deterministic for a given program — no
    timestamps, no floats beyond exact integers — so golden files under
    [examples/] can be diffed byte-for-byte by the [@static] alias. *)

open Dr_isa
module Json = Dr_util.Json

let schema = "drdebug-analyze-v1"

let reg_json r = Json.Str (Reg.name r)

let unreachable_json (u : Lint.unreachable_block) =
  Json.Obj
    [ ("fn", Json.int u.Lint.ub_fentry); ("block", Json.int u.Lint.ub_block);
      ("start_pc", Json.int u.Lint.ub_start);
      ("end_pc", Json.int u.Lint.ub_end) ]

let uninit_json (u : Lint.uninit) =
  Json.Obj
    [ ("fn", Json.int u.Lint.un_fentry); ("pc", Json.int u.Lint.un_pc);
      ("reg", reg_json u.Lint.un_reg) ]

let indirect_json (i : Lint.indirect) =
  Json.Obj
    [ ("pc", Json.int i.Lint.ind_pc);
      ("kind", Json.Str (match i.Lint.ind_kind with `Jind -> "jind" | `Callind -> "callind"));
      ("reg", reg_json i.Lint.ind_reg);
      ("suggestions", Json.List (List.map Json.int i.Lint.ind_suggestions)) ]

let sr_json (s : Lint.sr_issue) =
  Json.Obj
    [ ("fn", Json.int s.Lint.sr_fentry);
      ("kind", Json.Str (Lint.sr_kind_name s.Lint.sr_kind));
      ("pc", Json.int s.Lint.sr_pc); ("reg", reg_json s.Lint.sr_reg) ]

let race_json (prog : Program.t) (p : Race.pair) =
  let opt_int = function Some v -> Json.int v | None -> Json.Null in
  let access side (a : Race.access) roots lockset =
    ( side,
      Json.Obj
        [ ("pc", Json.int a.Race.acc_pc);
          ("line", opt_int (Debug_info.line_of_pc prog.Program.debug a.Race.acc_pc));
          ("write", Json.Bool a.Race.acc_write);
          ("addr", opt_int a.Race.acc_addr);
          ("roots", Json.List (List.map Json.int roots));
          ("lockset", Json.List (List.map Json.int lockset)) ] )
  in
  Json.Obj
    [ access "a" p.Race.p_a p.Race.p_roots_a p.Race.p_lockset_a;
      access "b" p.Race.p_b p.Race.p_roots_b p.Race.p_lockset_b;
      ("score", Json.int p.Race.p_score) ]

let pass_json ?(extra = []) findings =
  Json.Obj
    ([ ("count", Json.int (List.length findings)) ]
    @ extra
    @ [ ("findings", Json.List findings) ])

let callgraph_json (cg : Callgraph.t) ~entry_pc =
  let reachable = Callgraph.reachable_from_entry cg ~entry_pc in
  let unreachable_fns =
    List.filter_map
      (fun i -> if reachable.(i) then None else Some (Json.int cg.Callgraph.entries.(i)))
      (List.init (Callgraph.num_functions cg) Fun.id)
  in
  Json.Obj
    [ ("functions", Json.int (Callgraph.num_functions cg));
      ("edges", Json.int (Callgraph.num_edges cg));
      ("address_taken",
       Json.List
         (List.map (fun i -> Json.int cg.Callgraph.entries.(i))
            cg.Callgraph.address_taken));
      ("unreachable_functions", Json.List unreachable_fns) ]

let make (g : Supercfg.t) (lint : Lint.t) : Json.t =
  let prog = g.Supercfg.prog and cg = g.Supercfg.cg in
  let all_passes =
    [ ("unreachable-blocks",
       pass_json (List.map unreachable_json lint.Lint.unreachable));
      ("maybe-uninit", pass_json (List.map uninit_json lint.Lint.uninit));
      ("indirect-audit",
       pass_json (List.map indirect_json lint.Lint.indirect));
      ( "save-restore",
        pass_json
          ~extra:
            [ ("candidate_saves", Json.int lint.Lint.candidate_saves);
              ("candidate_restores", Json.int lint.Lint.candidate_restores)
            ]
          (List.map sr_json lint.Lint.save_restore) );
      ( "races",
        pass_json
          ~extra:[ ("mutexes", Json.int lint.Lint.race_mutexes) ]
          (List.map (race_json prog) lint.Lint.races) ) ]
  in
  Json.Obj
    [ ("schema", Json.Str schema);
      ("program", Json.Str prog.Program.name);
      ("code_size", Json.int (Array.length prog.Program.code));
      ("functions", Json.int (Callgraph.num_functions cg));
      ("callgraph", callgraph_json cg ~entry_pc:prog.Program.entry);
      ( "passes_run",
        Json.List (List.map (fun p -> Json.Str p) lint.Lint.passes_run) );
      ( "passes",
        Json.Obj
          (List.filter
             (fun (name, _) -> List.mem name lint.Lint.passes_run)
             all_passes) );
      ("findings_total", Json.int (Lint.findings_total lint)) ]

(* ---- validation ---- *)

let pass_names = Lint.pass_names

let validate (doc : Json.t) : (unit, string) result =
  let ( let* ) = Result.bind in
  let need path v = match v with Some x -> Ok x | None -> Error ("missing or ill-typed " ^ path) in
  let* s = need "schema" (Option.bind (Json.member "schema" doc) Json.to_str) in
  let* () = if s = schema then Ok () else Error ("schema is " ^ s) in
  let* _ = need "program" (Option.bind (Json.member "program" doc) Json.to_str) in
  let* _ = need "code_size" (Option.bind (Json.member "code_size" doc) Json.to_float) in
  let* _ = need "functions" (Option.bind (Json.member "functions" doc) Json.to_float) in
  let* cgj = need "callgraph" (Json.member "callgraph" doc) in
  let* _ = need "callgraph.functions" (Option.bind (Json.member "functions" cgj) Json.to_float) in
  let* _ = need "callgraph.edges" (Option.bind (Json.member "edges" cgj) Json.to_float) in
  let* _ = need "callgraph.address_taken" (Option.bind (Json.member "address_taken" cgj) Json.to_list) in
  let* _ = need "callgraph.unreachable_functions" (Option.bind (Json.member "unreachable_functions" cgj) Json.to_list) in
  let* run_json = need "passes_run" (Option.bind (Json.member "passes_run" doc) Json.to_list) in
  let* run =
    List.fold_left
      (fun acc j ->
        let* l = acc in
        match Json.to_str j with
        | Some s when List.mem s pass_names -> Ok (s :: l)
        | Some s -> Error ("passes_run: unknown pass " ^ s)
        | None -> Error "passes_run: non-string entry")
      (Ok []) run_json
  in
  let* passes = need "passes" (Json.member "passes" doc) in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        let* p = need ("passes." ^ name) (Json.member name passes) in
        let* count = need ("passes." ^ name ^ ".count") (Option.bind (Json.member "count" p) Json.to_float) in
        let* findings = need ("passes." ^ name ^ ".findings") (Option.bind (Json.member "findings" p) Json.to_list) in
        if int_of_float count <> List.length findings then
          Error (Printf.sprintf "passes.%s: count %d <> %d findings" name
                   (int_of_float count) (List.length findings))
        else Ok ())
      (Ok ()) run
  in
  let* _ = need "findings_total" (Option.bind (Json.member "findings_total" doc) Json.to_float) in
  Ok ()

(** Run the lint suite over [g] and package the report.  [passes] as in
    {!Lint.run}. *)
let analyze ?passes (g : Supercfg.t) : Lint.t * Json.t =
  let lint = Lint.run ?passes g in
  (lint, make g lint)
