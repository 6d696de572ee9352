(** Static data-race detector: must-held locksets + a static
    happens-before skeleton over the whole-program super-CFG, yielding a
    ranked list of race candidate pairs (DESIGN §14).

    Three cooperating analyses, all per program counter, over the shared
    super-CFG and its register reaching definitions ({!Supercfg}):

    - {e must-held locksets}: a forward union-meet dataflow on the
      complement ("may-not-held") run on the {!Dataflow} engine.  Facts
      are the statically-resolved mutex addresses; a resolved [Lock]
      kills its address from the may-not-held set, an unresolved
      [Unlock] generates every address, thread entries start with
      everything not held.  The complement of the solution at a pc is
      the set of mutexes held on {e every} path reaching it — an
      under-approximation of any run's actual held set, which is the
      sound direction for reporting disjointness.
    - {e static happens-before skeleton}: thread roots are the program
      entry plus every spawn-target entry.  An access ordered before the
      (unique, straight-line-reachable) spawn of a root cannot race with
      that root's accesses; an access dominated by a [Join] whose target
      chases back to the root's single spawn site cannot race with the
      joined thread.  Root multiplicity (can two instances of the same
      root run concurrently?) comes from a small fixpoint over spawn
      sites.
    - {e access classification}: [Load]/[Store] through [sp]/[fp] (and
      the push/pop/call/ret stack traffic) are thread-private and
      excluded; other accesses resolve their base register through
      unique reaching definitions to an exact address where possible,
      and otherwise conservatively may-alias every shared address.

    A candidate pair is two conflicting accesses (at least one write,
    possibly the same pc twice) that may touch the same shared address,
    can execute in distinct threads, have disjoint must-locksets and no
    static happens-before order.  Soundness contract (conformance
    oracle 8): when the refined CFG is fully resolved, every spawn
    target is statically known and every dynamic thread starts at a
    known entry, every dynamically-observed unsynchronized conflicting
    pair appears in the candidate set.  When a precondition fails the
    analysis degrades to the conservative all-pairs answer instead of
    guessing. *)

open Dr_isa
module Bitset = Dr_util.Bitset

(** Statically-chased value of a register at a program point. *)
type value = Const of int | Spawn_result of int | Unknown

type access = {
  acc_pc : int;
  acc_write : bool;
  acc_addr : int option;  (** exact shared address, when resolved *)
}

type pair = {
  p_a : access;
  p_b : access;
  p_roots_a : int list;  (** thread-root entry pcs that can execute [p_a] *)
  p_roots_b : int list;
  p_lockset_a : int list;  (** must-held mutex addresses at [p_a] *)
  p_lockset_b : int list;
  p_score : int;  (** ranking score, higher = more plausible *)
}

type t = {
  g : Supercfg.t;
  accesses : access list;
  mutexes : int list;  (** resolved mutex address universe *)
  roots : int list;  (** thread-root entry pcs (program entry first) *)
  candidates : pair list;  (** ranked, best first *)
  pair_tbl : (int * int, unit) Hashtbl.t;
  lockset_of : int -> int list;
  unresolved : int list;  (** unresolved jind/callind/spawn-target pcs *)
}

(** First address of the stack region: every address at or above it
    belongs to some thread's stack and is excluded from race detection
    (mirrored by the dynamic checker). *)
let shared_limit (prog : Program.t) =
  prog.Program.mem_size - (prog.Program.max_threads * prog.Program.stack_words)

(** Instructions whose memory traffic is thread-private stack traffic
    under the compilation model: push/pop/call/ret, and loads/stores
    based on [sp]/[fp].  The dynamic checker skips the same pcs so the
    two sides agree on what counts as a shared access. *)
let stack_class (i : Instr.t) =
  match i with
  | Instr.Push _ | Instr.Pop _ | Instr.Call _ | Instr.Callind _ | Instr.Ret ->
    true
  | Instr.Load (_, rb, _) | Instr.Store (rb, _, _) ->
    rb = Reg.sp || rb = Reg.fp
  | _ -> false

let fully_resolved t = t.unresolved = []

let candidate_pairs t =
  List.map (fun p -> (p.p_a.acc_pc, p.p_b.acc_pc)) t.candidates

(** Is the unordered pc pair [(p, q)] a static race candidate? *)
let is_candidate t p q = Hashtbl.mem t.pair_tbl (min p q, max p q)

let analyze (g : Supercfg.t) : t =
  let prog = g.Supercfg.prog and cg = g.Supercfg.cg in
  let code = prog.Program.code in
  let n = Array.length code in
  let intra = g.Supercfg.intra and full = g.Supercfg.succs in
  let unresolved = ref g.Supercfg.unresolved in
  let spawn_entries = Supercfg.address_taken_entries g in
  (* ---- unique-reaching-definition value chase ---- *)
  let memo : (int * int, value) Hashtbl.t = Hashtbl.create 64 in
  let rec resolve_at pc reg =
    (* value of [reg] on entry to [pc] *)
    if reg = Reg.sp || reg = Reg.fp then Unknown
    else
      match Hashtbl.find_opt memo (pc, reg) with
      | Some v -> v
      | None ->
        (* break copy cycles: an in-flight query resolves to Unknown *)
        Hashtbl.replace memo (pc, reg) Unknown;
        let v =
          match Supercfg.reaching_defs g ~pc ~reg with
          | [ dpc ] -> (
            match code.(dpc) with
            | Instr.Mov (rdst, Instr.Imm v) when rdst = reg -> Const v
            | Instr.Mov (rdst, Instr.Reg rs) when rdst = reg ->
              resolve_at dpc rs
            | Instr.Sys Instr.Spawn when reg = Reg.r0 -> Spawn_result dpc
            | _ -> Unknown)
          | _ -> Unknown
        in
        Hashtbl.replace memo (pc, reg) v;
        v
  in
  (* ---- spawn sites and thread roots ---- *)
  let entry_set = Hashtbl.create 16 in
  Array.iter (fun e -> Hashtbl.replace entry_set e ()) cg.Callgraph.entries;
  let spawn_sites = ref [] in
  for pc = 0 to n - 1 do
    if code.(pc) = Instr.Sys Instr.Spawn then begin
      let target =
        match resolve_at pc Reg.r1 with
        | Const v when Hashtbl.mem entry_set v -> Some v
        | _ -> None
      in
      if target = None then unresolved := pc :: !unresolved;
      spawn_sites := (pc, target) :: !spawn_sites
    end
  done;
  let spawn_sites = List.rev !spawn_sites in
  let has_spawn = spawn_sites <> [] in
  let main_root = prog.Program.entry in
  let precise = !unresolved = [] in
  let roots =
    let r =
      main_root
      :: List.filter_map
           (fun (_, t) -> t)
           spawn_sites
      @ (if List.exists (fun (_, t) -> t = None) spawn_sites then
           spawn_entries
         else [])
    in
    main_root :: List.sort_uniq compare (List.filter (fun e -> e <> main_root) r)
  in
  (* sites that can start root [r]: resolved sites targeting it, plus
     every unresolved site *)
  let sites_of_root r =
    List.filter_map
      (fun (pc, t) ->
        match t with
        | Some e when e = r -> Some pc
        | Some _ -> None
        | None -> Some pc)
      spawn_sites
  in
  (* ---- reachability (intra edges = per-thread flow) ---- *)
  let root_reach = List.map (fun r -> (r, Supercfg.reach intra [ r ])) roots in
  let roots_of_pc pc =
    if not precise then roots
    else
      match
        List.filter_map
          (fun (r, set) -> if Bitset.mem set pc then Some r else None)
          root_reach
      with
      | [] -> roots  (* statically dead pc: stay conservative *)
      | l -> l
  in
  (* can a spawn site re-execute? (reachable from itself through any
     super-CFG edge, spawn edges included) *)
  let self_reach =
    let cache = Hashtbl.create 8 in
    fun pc ->
      match Hashtbl.find_opt cache pc with
      | Some b -> b
      | None ->
        let b = Bitset.mem (Supercfg.reach full full.(pc)) pc in
        Hashtbl.replace cache pc b;
        b
  in
  (* ---- root multiplicity: can two instances of a root overlap? ----
     [single r] is proven from below: the main root is single when no
     spawn targets it; a spawn root is single when it has exactly one
     site, the site cannot re-execute, and the site runs in exactly one
     already-single root. *)
  let single = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace single r false) roots;
  if precise then begin
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun r ->
          if not (Hashtbl.find single r) then begin
            let proven =
              if r = main_root then sites_of_root r = []
              else
                match sites_of_root r with
                | [ s ] -> (
                  (not (self_reach s))
                  &&
                  match roots_of_pc s with
                  | [ owner ] -> Hashtbl.find single owner
                  | _ -> false)
                | _ -> false
            in
            if proven then begin
              Hashtbl.replace single r true;
              changed := true
            end
          end)
        roots
    done
  end;
  let is_single r = try Hashtbl.find single r with Not_found -> false in
  (* ---- must-held locksets ---- *)
  let lock_addr pc =
    match resolve_at pc Reg.r1 with Const v -> Some v | _ -> None
  in
  let lock_sites = ref [] and unlock_sites = ref [] in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | Instr.Sys Instr.Lock -> lock_sites := (pc, lock_addr pc) :: !lock_sites
    | Instr.Sys Instr.Unlock ->
      unlock_sites := (pc, lock_addr pc) :: !unlock_sites
    | _ -> ()
  done;
  let mutexes =
    List.sort_uniq compare
      (List.filter_map snd (!lock_sites @ !unlock_sites))
  in
  let mutex_idx = Hashtbl.create 8 in
  List.iteri (fun i a -> Hashtbl.replace mutex_idx a i) mutexes;
  let num_mx = List.length mutexes in
  let lockset_of =
    if (not precise) || num_mx = 0 then fun _ -> []
    else begin
      let all_mx = Bitset.create num_mx in
      for i = 0 to num_mx - 1 do
        Bitset.add all_mx i
      done;
      let empty = Bitset.create num_mx in
      (* facts: "may not be held".  Lock(a) kills a; Unlock(a) gens a;
         an unresolved Unlock gens everything; Wait is identity (the
         mutex is released and re-held entirely within the blocked
         span, so every successor pc sees it held again). *)
      let gen pc =
        match code.(pc) with
        | Instr.Sys Instr.Unlock -> (
          match lock_addr pc with
          | Some a -> (
            match Hashtbl.find_opt mutex_idx a with
            | Some i ->
              let b = Bitset.create num_mx in
              Bitset.add b i;
              b
            | None -> empty)
          | None -> all_mx)
        | _ -> empty
      in
      let kill pc =
        match code.(pc) with
        | Instr.Sys Instr.Lock -> (
          match lock_addr pc with
          | Some a -> (
            match Hashtbl.find_opt mutex_idx a with
            | Some i ->
              let b = Bitset.create num_mx in
              Bitset.add b i;
              b
            | None -> empty)
          | None -> empty)
        | _ -> empty
      in
      let thread_entries =
        main_root :: List.filter (fun r -> r <> main_root) roots
      in
      let entry p = if List.mem p thread_entries then Some all_mx else None in
      let sol =
        Dataflow.solve ~num_nodes:n ~num_facts:num_mx
          ~direction:Dataflow.Forward
          ~succs:(fun p -> full.(p))
          ~preds:(fun p -> g.Supercfg.preds.(p))
          ~gen ~kill ~entry ()
      in
      fun pc ->
        if pc < 0 || pc >= n then []
        else
          (* keep addresses whose fact bit is absent from may-not-held *)
          List.filter
            (fun a ->
              match Hashtbl.find_opt mutex_idx a with
              | Some i -> not (Bitset.mem sol.Dataflow.in_.(pc) i)
              | None -> false)
            mutexes
    end
  in
  (* ---- join sites: join pc -> the spawn site whose tid it joins ---- *)
  let joins =
    let l = ref [] in
    for pc = 0 to n - 1 do
      if code.(pc) = Instr.Sys Instr.Join then
        match resolve_at pc Reg.r1 with
        | Spawn_result s -> l := (pc, s) :: !l
        | _ -> ()
    done;
    !l
  in
  (* ---- shared-memory access classification ---- *)
  let limit = shared_limit prog in
  let classify pc =
    match code.(pc) with
    | i when stack_class i -> None
    | Instr.Load (_, rb, off) ->
      let addr =
        match resolve_at pc rb with Const v -> Some (v + off) | _ -> None
      in
      if match addr with Some a -> a >= limit | None -> false then None
      else Some { acc_pc = pc; acc_write = false; acc_addr = addr }
    | Instr.Store (rb, off, _) ->
      let addr =
        match resolve_at pc rb with Const v -> Some (v + off) | _ -> None
      in
      if match addr with Some a -> a >= limit | None -> false then None
      else Some { acc_pc = pc; acc_write = true; acc_addr = addr }
    | _ -> None
  in
  let accesses =
    List.filter_map classify (List.init n Fun.id)
  in
  (* ---- happens-before prunes ---- *)
  let reach_after_site =
    let cache = Hashtbl.create 8 in
    fun s ->
      match Hashtbl.find_opt cache s with
      | Some b -> b
      | None ->
        let b = Supercfg.reach intra intra.(s) in
        Hashtbl.replace cache s b;
        b
  in
  let reach_avoiding_join =
    let cache = Hashtbl.create 8 in
    fun j ->
      match Hashtbl.find_opt cache j with
      | Some b -> b
      | None ->
        let b = Supercfg.reach ~avoid:j intra [ main_root ] in
        Hashtbl.replace cache j b;
        b
  in
  (* [x] (proven main-only) executes before every instance of root [r]
     exists: every site starting [r] runs only in the single main root
     and cannot reach [x] afterwards. *)
  let before_spawn_of x r =
    is_single main_root
    && sites_of_root r <> []
    && List.for_all
         (fun s ->
           roots_of_pc s = [ main_root ]
           && not (Bitset.mem (reach_after_site s) x))
         (sites_of_root r)
  in
  (* [y] (proven main-only) executes after root [r]'s single thread has
     been joined: one non-reexecuting main-only site, a join that chases
     back to it, and every main path to [y] passes through the join. *)
  let after_join_of y r =
    is_single main_root
    &&
    match sites_of_root r with
    | [ s ] ->
      (not (self_reach s))
      && roots_of_pc s = [ main_root ]
      && List.exists
           (fun (j, js) ->
             js = s
             && roots_of_pc j = [ main_root ]
             && not (Bitset.mem (reach_avoiding_join j) y))
           joins
    | _ -> false
  in
  (* does the combo (a in root ra, b in root rb) survive? *)
  let combo_feasible a ra b rb =
    if ra = rb then (not (is_single ra)) || not precise
    else if not precise then true
    else if ra = main_root then
      not (before_spawn_of a rb || after_join_of a rb)
    else if rb = main_root then
      not (before_spawn_of b ra || after_join_of b ra)
    else true
  in
  let may_alias a b =
    match (a.acc_addr, b.acc_addr) with
    | Some x, Some y -> x = y
    | _ -> true
  in
  let alias_score a b =
    match (a.acc_addr, b.acc_addr) with
    | Some _, Some _ -> 2
    | Some _, None | None, Some _ -> 1
    | None, None -> 0
  in
  let feasible_roots a b =
    let ras = roots_of_pc a.acc_pc and rbs = roots_of_pc b.acc_pc in
    let keep_a = ref [] and keep_b = ref [] in
    List.iter
      (fun ra ->
        List.iter
          (fun rb ->
            if combo_feasible a.acc_pc ra b.acc_pc rb then begin
              if not (List.mem ra !keep_a) then keep_a := ra :: !keep_a;
              if not (List.mem rb !keep_b) then keep_b := rb :: !keep_b
            end)
          rbs)
      ras;
    (List.sort compare !keep_a, List.sort compare !keep_b)
  in
  let disjoint l1 l2 = not (List.exists (fun x -> List.mem x l2) l1) in
  let candidates = ref [] in
  let arr = Array.of_list accesses in
  let na = Array.length arr in
  for i = 0 to na - 1 do
    for k = i to na - 1 do
      let a = arr.(i) and b = arr.(k) in
      if (a.acc_write || b.acc_write) && has_spawn && may_alias a b then begin
        let la = lockset_of a.acc_pc and lb = lockset_of b.acc_pc in
        if disjoint la lb then begin
          let ra, rb = feasible_roots a b in
          if ra <> [] && rb <> [] then begin
            let score =
              (4 * alias_score a b)
              + (if la = [] && lb = [] then 2 else 0)
              + if a.acc_write && b.acc_write then 1 else 0
            in
            candidates :=
              { p_a = a; p_b = b; p_roots_a = ra; p_roots_b = rb;
                p_lockset_a = la; p_lockset_b = lb; p_score = score }
              :: !candidates
          end
        end
      end
    done
  done;
  let candidates =
    List.sort
      (fun x y ->
        match compare y.p_score x.p_score with
        | 0 -> compare (x.p_a.acc_pc, x.p_b.acc_pc) (y.p_a.acc_pc, y.p_b.acc_pc)
        | c -> c)
      !candidates
  in
  let pair_tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let x = p.p_a.acc_pc and y = p.p_b.acc_pc in
      Hashtbl.replace pair_tbl (min x y, max x y) ())
    candidates;
  { g; accesses; mutexes; roots; candidates; pair_tbl;
    lockset_of; unresolved = List.sort_uniq compare !unresolved }
