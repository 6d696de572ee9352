(** Static program-dependence graph and backward static slicer.

    The PDG is built at pc granularity over the shared whole-program
    super-CFG ({!Supercfg}), whose edges over-approximate every
    per-thread transition the machine can make, plus spawn → every
    address-taken entry.  Register dependences come from the super-CFG's
    reaching definitions over register {e numbers} (thread-blind — a
    sound superset of the dynamic thread-local resolution); memory is
    treated as one global cell, so every memory-reading pc depends on
    every memory-writing pc (memory is shared across threads, and any
    flow-sensitive treatment would be unsound under interleaving).

    Control dependences use the {e region} semantics the dynamic
    Xin–Zhang tracker implements: a block is control-dependent on branch
    [b] if it is reachable from a successor of [b] without passing through
    [b]'s immediate post-dominator — a superset of the
    Ferrante–Ottenstein–Warren marks, matching how the collector
    attributes cd within [branch, ipdom) regions.  Interprocedural control
    flows through the invocation-controllers fixpoint
    [IC(f) = ∪ over call sites cs of f: directctrl(cs) ∪ IC(caller(cs))],
    the static analogue of the frame rule.

    The static backward slice of a pc is therefore a sound upper bound on
    the pc set of {e any} dynamic slice with that criterion pc — the
    property conformance oracle 6 checks on every fuzzed program whose
    refined CFG is fully resolved. *)

open Dr_isa
module Bitset = Dr_util.Bitset
module Cfg = Dr_cfg.Cfg

type t = {
  g : Supercfg.t;
  reg_deps : int list array;  (** pc -> def pcs of its register uses *)
  mem_reader : bool array;  (** pc -> may read memory *)
  mem_writers : int list;  (** pcs that may write memory *)
  ctrl_parents : int list array;  (** pc -> controlling branch pcs (intra) *)
  ic : int list array;  (** function index -> invocation-controller pcs *)
}

(** No unresolved indirect jumps or calls remain: every super-CFG edge set
    is complete, so static slices are sound upper bounds. *)
let fully_resolved t = Supercfg.fully_resolved t.g

let build (g : Supercfg.t) : t =
  let code = g.Supercfg.prog.Program.code and cg = g.Supercfg.cg in
  let n = Array.length code in
  let reg_deps =
    Array.init n (fun pc ->
        let deps = ref [] in
        Defuse.iter_mask
          (fun reg -> deps := Supercfg.reaching_defs g ~pc ~reg @ !deps)
          (Defuse.use_mask code.(pc));
        List.sort_uniq compare !deps)
  in
  let mem_reader = Array.init n (fun pc -> Defuse.reads_mem code.(pc)) in
  let mem_writers =
    List.filter (fun pc -> Defuse.writes_mem code.(pc)) (List.init n Fun.id)
  in
  (* ---- control dependences (region semantics) ---- *)
  let ctrl_parents = Array.make n [] in
  List.iter
    (fun (f : Cfg.func) ->
      let nb = Array.length f.Cfg.blocks in
      let block_parents = Array.make nb [] in
      Array.iter
        (fun (b : Cfg.block) ->
          let last = b.Cfg.end_pc - 1 in
          if Instr.is_branch code.(last) then begin
            let in_region = Array.make nb false in
            if b.Cfg.unknown_succs then
              (* unresolved indirect jump: the region cannot be tracked, so
                 conservatively everything in the function is controlled *)
              Array.fill in_region 0 nb true
            else begin
              let stop = f.Cfg.ipdom.(b.Cfg.id) in
              let rec go x =
                if x <> stop && not in_region.(x) then begin
                  in_region.(x) <- true;
                  List.iter go f.Cfg.blocks.(x).Cfg.succs
                end
              in
              List.iter go b.Cfg.succs
            end;
            for x = 0 to nb - 1 do
              if in_region.(x) then block_parents.(x) <- last :: block_parents.(x)
            done
          end)
        f.Cfg.blocks;
      for pc = f.Cfg.fentry to f.Cfg.fend - 1 do
        if pc < n then
          ctrl_parents.(pc) <- block_parents.(f.Cfg.block_of_pc.(pc - f.Cfg.fentry))
      done)
    g.Supercfg.cfg.Cfg.funcs;
  (* ---- invocation controllers: IC(f) = ∪ cs→f directctrl(cs) ∪ IC(caller) *)
  let ic_sets = Array.init (Callgraph.num_functions cg) (fun _ -> Hashtbl.create 8) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (s : Callgraph.site) ->
        let contrib = Hashtbl.create 8 in
        List.iter (fun b -> Hashtbl.replace contrib b ()) ctrl_parents.(s.Callgraph.site_pc);
        if s.Callgraph.caller >= 0 then
          Hashtbl.iter (fun b () -> Hashtbl.replace contrib b ())
            ic_sets.(s.Callgraph.caller);
        List.iter
          (fun g ->
            if g >= 0 then
              Hashtbl.iter
                (fun b () ->
                  if not (Hashtbl.mem ic_sets.(g) b) then begin
                    Hashtbl.replace ic_sets.(g) b ();
                    changed := true
                  end)
                contrib)
          s.Callgraph.callees)
      cg.Callgraph.sites
  done;
  let ic =
    Array.map
      (fun h -> List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) h []))
      ic_sets
  in
  { g; reg_deps; mem_reader; mem_writers; ctrl_parents; ic }

(** Pc set of the static backward slice from [pc]: transitive closure over
    register def-use chains, the conservative memory edges, intra-region
    control dependences and invocation controllers. *)
let backward_slice (t : t) ~pc : Bitset.t =
  let n = Array.length t.reg_deps in
  let inslice = Bitset.create n in
  let mem_pulled = ref false in
  let stack = ref [ pc ] in
  let push p = if p >= 0 && p < n && not (Bitset.mem inslice p) then begin
      Bitset.add inslice p;
      stack := p :: !stack
    end
  in
  Bitset.add inslice pc;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | p :: rest ->
      stack := rest;
      List.iter push t.reg_deps.(p);
      List.iter push t.ctrl_parents.(p);
      let f = Callgraph.fn_at t.g.Supercfg.cg p in
      if f >= 0 then List.iter push t.ic.(f);
      if t.mem_reader.(p) && not !mem_pulled then begin
        mem_pulled := true;
        List.iter push t.mem_writers
      end
  done;
  inslice
