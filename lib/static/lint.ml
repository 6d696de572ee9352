(** Binary lint pass suite over a program image.

    Five passes, all purely static, over one {!Supercfg.t} (the command
    line passes the unrefined graph, as a front-line audit before any
    dynamic information exists):

    - {b unreachable-blocks}: basic blocks unreachable from their function
      entry.  Blocks ending in an {e unresolved} indirect jump are treated
      as possibly jumping anywhere in their function, so jump-table case
      bodies are not false positives; what remains is genuinely dead code
      (e.g. statements after an unconditional [return]).
    - {b maybe-uninit}: uses of possibly-uninitialized registers
      ({!Analysis.maybe_uninit}).
    - {b indirect-audit}: every indirect jump/call whose targets are
      statically unknown, with refinement suggestions — jump-table entries
      found in the initial data image for [Jind], address-taken function
      entries for [Callind] — i.e. the candidates a dynamic refinement run
      is expected to confirm (paper §5.1).
    - {b save-restore}: prologue/epilogue discipline — for every [Ret],
      the pops before it must restore exactly the prologue's pushes in
      reverse order.  The candidates come from {!Dr_isa.Frame.scan}, the
      scan {!Dr_slicing.Prune.static_candidates} is built from.
    - {b races}: ranked static data-race candidate pairs from {!Race} —
      conflicting shared accesses reachable in distinct threads with
      disjoint must-locksets and no static happens-before order.

    [run ?passes] selects a subset by name (see {!pass_names}); passes
    left out contribute no findings and are absent from [passes_run]. *)

open Dr_isa
module Cfg = Dr_cfg.Cfg

type unreachable_block = {
  ub_fentry : int;
  ub_block : int;
  ub_start : int;
  ub_end : int;
}

type uninit = { un_fentry : int; un_pc : int; un_reg : Reg.t }

type indirect = {
  ind_pc : int;
  ind_kind : [ `Jind | `Callind ];
  ind_reg : Reg.t;
  ind_suggestions : int list;  (** candidate target pcs *)
}

type sr_kind =
  | Missing_restore  (** a prologue save with no matching epilogue pop *)
  | Unmatched_restore  (** an epilogue pop with no matching prologue push *)
  | Order_mismatch  (** pops are not the reverse of the pushes *)

let sr_kind_name = function
  | Missing_restore -> "missing-restore"
  | Unmatched_restore -> "unmatched-restore"
  | Order_mismatch -> "order-mismatch"

type sr_issue = { sr_fentry : int; sr_kind : sr_kind; sr_pc : int; sr_reg : Reg.t }

type t = {
  unreachable : unreachable_block list;
  uninit : uninit list;
  indirect : indirect list;
  save_restore : sr_issue list;
  candidate_saves : int;
  candidate_restores : int;
  races : Race.pair list;  (** ranked, best first *)
  race_mutexes : int;  (** resolved mutex addresses seen by the race pass *)
  passes_run : string list;  (** subset of {!pass_names}, in canonical order *)
}

let pass_names =
  [ "unreachable-blocks"; "maybe-uninit"; "indirect-audit"; "save-restore";
    "races" ]

let findings_total t =
  List.length t.unreachable + List.length t.uninit + List.length t.indirect
  + List.length t.save_restore + List.length t.races

(* ---- pass: unreachable blocks ---- *)

let unreachable_blocks (cfg : Cfg.t) : unreachable_block list =
  List.concat_map
    (fun (f : Cfg.func) ->
      let nb = Array.length f.Cfg.blocks in
      let seen = Array.make nb false in
      let rec go b =
        if not seen.(b) then begin
          seen.(b) <- true;
          let blk = f.Cfg.blocks.(b) in
          List.iter go blk.Cfg.succs;
          if blk.Cfg.unknown_succs then
            (* unresolved indirect jump: may target any block here *)
            for x = 0 to nb - 1 do
              go x
            done
        end
      in
      if nb > 0 then go 0;
      List.filter_map
        (fun (b : Cfg.block) ->
          if seen.(b.Cfg.id) then None
          else
            Some
              { ub_fentry = f.Cfg.fentry; ub_block = b.Cfg.id;
                ub_start = b.Cfg.start_pc; ub_end = b.Cfg.end_pc })
        (Array.to_list f.Cfg.blocks))
    cfg.Cfg.funcs

(* ---- pass: maybe-uninitialized registers ---- *)

let maybe_uninit (prog : Program.t) (cfg : Cfg.t) : uninit list =
  let code = prog.Program.code in
  List.concat_map
    (fun (f : Cfg.func) ->
      List.map
        (fun (u : Analysis.uninit_use) ->
          { un_fentry = f.Cfg.fentry; un_pc = u.Analysis.u_pc;
            un_reg = u.Analysis.u_reg })
        (Analysis.maybe_uninit code ~fentry:f.Cfg.fentry ~fend:f.Cfg.fend ()))
    cfg.Cfg.funcs

(* ---- pass: unresolved-indirect audit ---- *)

let indirect_audit (g : Supercfg.t) : indirect list =
  let prog = g.Supercfg.prog in
  let code = prog.Program.code in
  let n = Array.length code in
  let acc = ref [] in
  for pc = n - 1 downto 0 do
    match code.(pc) with
    | Instr.Jind r ->
      (* suggestions: initial-data words that look like pcs in the same
         function — exactly what the compiler's jump tables contain *)
      let suggestions =
        match Cfg.func_at g.Supercfg.cfg pc with
        | None -> []
        | Some f ->
          List.sort_uniq compare
            (List.filter_map
               (fun (_, v) ->
                 if v >= f.Cfg.fentry && v < f.Cfg.fend then Some v else None)
               prog.Program.data)
      in
      acc := { ind_pc = pc; ind_kind = `Jind; ind_reg = r;
               ind_suggestions = suggestions } :: !acc
    | Instr.Callind r ->
      acc := { ind_pc = pc; ind_kind = `Callind; ind_reg = r;
               ind_suggestions = Supercfg.address_taken_entries g } :: !acc
    | _ -> ()
  done;
  !acc

(* ---- pass: save/restore verification ---- *)

let save_restore (prog : Program.t) (cfg : Cfg.t) : sr_issue list * int * int =
  let code = prog.Program.code in
  let issues = ref [] in
  let nsaves = ref 0 and nrestores = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      let fentry = f.Cfg.fentry in
      let { Frame.saves; rets } = Frame.scan code ~fentry ~fend:f.Cfg.fend in
      nsaves := !nsaves + List.length saves;
      List.iter
        (fun (ret_pc, pops) ->
          nrestores := !nrestores + List.length pops;
          let expected = List.rev_map snd saves in
          let got = List.map snd pops in
          if got <> expected then begin
            let save_regs = List.map snd saves in
            (* pops of regs never saved *)
            List.iter
              (fun (ppc, r) ->
                if not (List.mem r save_regs) then
                  issues := { sr_fentry = fentry; sr_kind = Unmatched_restore;
                              sr_pc = ppc; sr_reg = r } :: !issues)
              pops;
            (* saves never popped before this ret *)
            List.iter
              (fun (spc, r) ->
                if not (List.mem r got) then
                  issues := { sr_fentry = fentry; sr_kind = Missing_restore;
                              sr_pc = spc; sr_reg = r } :: !issues)
              saves;
            (* same multiset but wrong order *)
            if List.sort compare got = List.sort compare expected then
              issues := { sr_fentry = fentry; sr_kind = Order_mismatch;
                          sr_pc = ret_pc; sr_reg = List.hd got } :: !issues
          end)
        rets)
    cfg.Cfg.funcs;
  (!issues, !nsaves, !nrestores)

(** Run the pass suite.  [passes] restricts to a subset of
    {!pass_names} (default: all); unknown names raise
    [Invalid_argument]. *)
let run ?(passes = pass_names) (g : Supercfg.t) : t =
  List.iter
    (fun p ->
      if not (List.mem p pass_names) then
        invalid_arg (Printf.sprintf "Lint.run: unknown pass %S" p))
    passes;
  let on p = List.mem p passes in
  let prog = g.Supercfg.prog and cfg = g.Supercfg.cfg in
  let save_restore, candidate_saves, candidate_restores =
    if on "save-restore" then save_restore prog cfg
    else ([], 0, 0)
  in
  let races, race_mutexes =
    if on "races" then begin
      let r = Race.analyze g in
      (r.Race.candidates, List.length r.Race.mutexes)
    end
    else ([], 0)
  in
  {
    unreachable = (if on "unreachable-blocks" then unreachable_blocks cfg else []);
    uninit = (if on "maybe-uninit" then maybe_uninit prog cfg else []);
    indirect = (if on "indirect-audit" then indirect_audit g else []);
    save_restore;
    candidate_saves;
    candidate_restores;
    races;
    race_mutexes;
    passes_run = List.filter on pass_names;
  }
