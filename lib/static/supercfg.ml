(** The whole-program super-CFG every static analysis in this library
    reads, built once per program (and per set of refined indirect
    targets).

    One {!build} runs code discovery ({!Dr_cfg.Cfg}), the call graph
    ({!Callgraph}), the pc-level super-CFG and register reaching
    definitions.  {!Pdg}, {!Race} and {!Lint} all take the result, so the
    static slice bound (oracle 6) and the static race bound (oracle 8)
    stand on literally the same graph and the same reaching-definitions
    solve.

    The super-CFG's edges over-approximate every per-thread transition
    the machine can make: fallthrough and direct jumps, resolved indirect
    targets, call → callee-entry plus a conservative call → continuation
    bypass, and ret → every continuation of the function's call sites.
    Those are the [intra] edges.  [succs] adds spawn → every
    address-taken entry, so the parent's argument write reaches the
    child's body.  Reaching definitions run over [succs] on register
    {e numbers} (thread-blind, a sound superset of the dynamic
    thread-local resolution). *)

open Dr_isa
module Bitset = Dr_util.Bitset
module Cfg = Dr_cfg.Cfg

type t = {
  prog : Program.t;
  cfg : Cfg.t;
  cg : Callgraph.t;
  intra : int list array;  (** pc -> per-thread successors *)
  succs : int list array;  (** [intra] plus spawn -> address-taken entries *)
  preds : int list array;  (** inverse of [succs] *)
  unresolved : int list;  (** indirect jump/call pcs with no known targets *)
  rd_in : Bitset.t array;  (** pc -> register def sites reaching its entry *)
  site_pcs_of_reg : (int * int) list array;  (** reg -> (def site, def pc) *)
}

(** No unresolved indirect jumps or calls remain: every super-CFG edge
    set is complete. *)
let fully_resolved t = t.unresolved = []

(** Entry pcs of the address-taken functions: every possible spawn
    target, and the only statically known thread entries besides the
    program entry. *)
let address_taken_entries t =
  List.map (fun i -> t.cg.Callgraph.entries.(i)) t.cg.Callgraph.address_taken

(** Pcs whose definition of [reg] may reach the entry of [pc]. *)
let reaching_defs t ~pc ~reg =
  List.filter_map
    (fun (s, dpc) -> if Bitset.mem t.rd_in.(pc) s then Some dpc else None)
    t.site_pcs_of_reg.(reg)

(** Pcs reachable from [seeds] along [edges] (one of [intra]/[succs]),
    seeds included; paths through [avoid] are cut. *)
let reach ?(avoid = -1) (edges : int list array) seeds : Bitset.t =
  let seen = Bitset.create (Array.length edges) in
  let stack = ref [] in
  let push p =
    if p >= 0 && p < Array.length edges && p <> avoid && not (Bitset.mem seen p)
    then begin
      Bitset.add seen p;
      stack := p :: !stack
    end
  in
  List.iter push seeds;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | p :: rest ->
      stack := rest;
      List.iter push edges.(p)
  done;
  seen

let build ?(indirect_targets : (int * int list) list = []) (prog : Program.t)
    : t =
  let cfg = Cfg.build ~indirect_targets prog in
  let cg = Callgraph.build ~indirect_targets prog ~cfg in
  let code = prog.Program.code in
  let n = Array.length code in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (pc, ts) -> Hashtbl.replace tbl pc ts) indirect_targets;
  (* return pcs per function, for ret -> continuation edges *)
  let rets = Array.make (Callgraph.num_functions cg) [] in
  for pc = 0 to n - 1 do
    if code.(pc) = Instr.Ret then begin
      let f = cg.Callgraph.fn_of_pc.(pc) in
      if f >= 0 then rets.(f) <- pc :: rets.(f)
    end
  done;
  let intra = Array.make n [] in
  let add p q =
    if p >= 0 && p < n && q >= 0 && q < n then intra.(p) <- q :: intra.(p)
  in
  let call pc t =
    add pc t;
    let f = Callgraph.fn_at cg t in
    if f >= 0 then List.iter (fun r -> add r (pc + 1)) rets.(f)
  in
  let unresolved = ref [] in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | Instr.Jmp t -> add pc t
    | Instr.Jcc (_, t) ->
      add pc t;
      add pc (pc + 1)
    | Instr.Jind _ -> (
      match Hashtbl.find_opt tbl pc with
      | Some ts -> List.iter (add pc) ts
      | None -> unresolved := pc :: !unresolved)
    | Instr.Call t ->
      call pc t;
      add pc (pc + 1)
    | Instr.Callind _ -> (
      add pc (pc + 1);
      match Hashtbl.find_opt tbl pc with
      | Some ts -> List.iter (call pc) ts
      | None -> unresolved := pc :: !unresolved)
    | Instr.Ret | Instr.Halt | Instr.Sys Instr.Exit -> ()
    | _ -> add pc (pc + 1)
  done;
  let spawn_entries =
    List.filter (fun e -> e >= 0 && e < n)
      (List.map (fun i -> cg.Callgraph.entries.(i)) cg.Callgraph.address_taken)
  in
  let succs =
    Array.mapi
      (fun pc qs ->
        if code.(pc) = Instr.Sys Instr.Spawn then spawn_entries @ qs else qs)
      intra
  in
  let preds = Array.make n [] in
  Array.iteri (fun p qs -> List.iter (fun q -> preds.(q) <- p :: preds.(q)) qs) succs;
  (* ---- reaching definitions over register def sites ---- *)
  let num_sites = ref 0 in
  let sites_at = Array.make n [] in
  for pc = 0 to n - 1 do
    Defuse.iter_mask
      (fun r ->
        sites_at.(pc) <- (!num_sites, r) :: sites_at.(pc);
        incr num_sites)
      (Defuse.def_mask code.(pc))
  done;
  let num_sites = !num_sites in
  let sites_of_reg = Array.init Reg.file_size (fun _ -> Bitset.create num_sites) in
  let site_pcs_of_reg = Array.make Reg.file_size [] in
  Array.iteri
    (fun pc l ->
      List.iter
        (fun (s, r) ->
          Bitset.add sites_of_reg.(r) s;
          site_pcs_of_reg.(r) <- (s, pc) :: site_pcs_of_reg.(r))
        l)
    sites_at;
  let gen pc =
    let b = Bitset.create num_sites in
    List.iter (fun (s, _) -> Bitset.add b s) sites_at.(pc);
    b
  in
  let kill pc =
    let b = Bitset.create num_sites in
    Defuse.iter_mask
      (fun r -> ignore (Bitset.union_into ~src:sites_of_reg.(r) ~dst:b))
      (Defuse.strong_def_mask code.(pc));
    b
  in
  let rd =
    Dataflow.solve ~num_nodes:n ~num_facts:num_sites ~direction:Dataflow.Forward
      ~succs:(fun p -> succs.(p))
      ~preds:(fun p -> preds.(p))
      ~gen ~kill ()
  in
  { prog; cfg; cg; intra; succs; preds;
    unresolved = List.sort compare !unresolved;
    rd_in = rd.Dataflow.in_; site_pcs_of_reg }
