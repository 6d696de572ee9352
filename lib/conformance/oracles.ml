(** The seven pipeline oracles of the conformance subsystem.

    One fuzz case drives the whole DrDebug pipeline —
    log -> pinball save/load -> replay -> trace -> slice (three drivers)
    -> exclusion build -> relog -> slice replay — and checks an oracle at
    every seam:

    {ol
    {- {e replay determinism}: two independent replays of the pinball
       produce the same chained {!Dr_pinplay.Exec_digest} over every
       retired instruction, the same step count and the same output;}
    {- {e pinball roundtrip}: encode -> decode -> encode is byte-for-byte
       stable and the container passes integrity verification;}
    {- {e driver agreement}: the indexed, LP-scan and plain-scan slicers
       produce identical positions and (canonicalized) edges on several
       criteria;}
    {- {e slice soundness}: (a) slice replay with injected side effects
       reproduces the original r0 value at every slice statement and the
       original output subsequence; (b) a forward {e re-execution} of the
       {e unpruned} dependence closure (plus forced sync records) from
       the region snapshot — with {e no} injections, nondet fed from the
       recorded log, and the untracked sp/fp treated as ambient —
       reproduces the values used and defined by the criterion.  (b) is
       the oracle that catches an unsound slicer: injections would mask
       a dropped dependence, pure re-execution cannot.  It runs on the
       unpruned closure because save/restore pruning bypasses the
       excluded restore and is only value-faithful under the relogger's
       injections, which (a) checks;}
    {- {e exclusion sanity}: the paper's exclusion regions derived from
       the slice, read back under their half-open [(pc, instance)]
       semantics, keep exactly the slice and forced records the relogger
       is handed, and every bounded region closes;}
    {- {e static slice bound}: on programs whose refined CFG is fully
       resolved (no unknown indirect targets, every thread entered at a
       statically known entry), the pc set of every dynamic slice is
       contained in the static backward slice of its criterion's pc
       ({!Dr_static.Pdg}) — the static PDG must over-approximate every
       dynamic dependence;}
    {- {e resource robustness} (opt-in via [resource]): the trace
       rebuilt through a disk-spilled {!Dr_slicing.Segment_store} yields
       slices identical to the in-memory run on the three drivers and the
       governed ladder, and an injected disk fault (ENOSPC, short write,
       bit flip, truncation, deletion) never yields a {e wrong} slice —
       only an identical one, a structured
       {!Dr_util.Budget.Resource_error}, or a result honestly marked
       truncated that is a subset of the clean slice.}} *)

open Dr_machine
open Dr_pinplay
open Dr_slicing

type kind =
  | Replay_determinism
  | Pinball_roundtrip
  | Driver_agreement
  | Slice_soundness
  | Exclusion_sanity
  | Static_slice_bound
  | Resource_robustness
  | Race_soundness

let all_kinds =
  [ Replay_determinism; Pinball_roundtrip; Driver_agreement; Slice_soundness;
    Exclusion_sanity; Static_slice_bound; Resource_robustness; Race_soundness ]

let kind_name = function
  | Replay_determinism -> "replay-determinism"
  | Pinball_roundtrip -> "pinball-roundtrip"
  | Driver_agreement -> "driver-agreement"
  | Slice_soundness -> "slice-soundness"
  | Exclusion_sanity -> "exclusion-sanity"
  | Static_slice_bound -> "static-slice-bound"
  | Resource_robustness -> "resource-robustness"
  | Race_soundness -> "race-soundness"

type failure = { f_kind : kind; f_detail : string }

type verdict = Pass | Fail of failure | Skip of string

exception Oracle of failure

exception Skipped of string

let fail kind fmt =
  Printf.ksprintf (fun d -> raise (Oracle { f_kind = kind; f_detail = d })) fmt

(* each oracle stage runs under its own span so fuzz --stats can report
   per-oracle wall time *)
let oracle_span kind f =
  Dr_obs.Obs.with_span ~cat:"oracle" ("oracle." ^ kind_name kind) @@ fun _ ->
  f ()

(** Step bound per case: generated programs terminate well under this;
    anything longer is a runaway we skip rather than fuzz. *)
let max_case_steps = 2_000_000

(* ---- oracle 1: replay determinism ---- *)

(* One full replay, reduced to (chained digest, steps, output). *)
let replay_digest prog pb =
  let r = Replayer.create prog pb in
  let m = Replayer.machine r in
  let h = ref 0 and steps = ref 0 in
  let hooks =
    { Driver.on_event =
        (fun ev ->
          incr steps;
          h := Exec_digest.mix !h (Exec_digest.hash m ev ~step:!steps)) }
  in
  (try ignore (Replayer.resume ~hooks r)
   with Replayer.Divergence d ->
     fail Replay_determinism "replay diverged: %s" (Replayer.divergence_message d));
  (!h land max_int, !steps, Machine.output_list m)

let check_determinism prog pb =
  let h1, s1, o1 = replay_digest prog pb in
  let h2, s2, o2 = replay_digest prog pb in
  if (h1, s1, o1) <> (h2, s2, o2) then
    fail Replay_determinism
      "two replays disagree: digests %d/%d, steps %d/%d, outputs %s/%s" h1 h2
      s1 s2
      (String.concat "," (List.map string_of_int o1))
      (String.concat "," (List.map string_of_int o2))

(* ---- oracle 2: pinball roundtrip stability ---- *)

let check_roundtrip pb =
  let b1 = Pinball.to_bytes pb in
  let report = Pinball.verify_bytes b1 in
  if not (Pinball.report_ok report) then
    fail Pinball_roundtrip "fresh container fails verification: %s"
      (String.concat "; " report.Pinball.r_problems);
  let pb2 =
    try Pinball.of_bytes b1
    with Pinball.Pinball_error e ->
      fail Pinball_roundtrip "decode failed: %s" (Pinball.error_to_string e)
  in
  let b2 = Pinball.to_bytes pb2 in
  if not (String.equal b1 b2) then
    fail Pinball_roundtrip "re-encoded container differs (%d vs %d bytes)"
      (String.length b1) (String.length b2)

(* ---- oracle 3: driver agreement ---- *)

(* Three drivers over the stored trace: indexed, scan+LP-skip and plain
   scan.  Returns the indexed slice so the caller can reuse it. *)
let check_agreement gt ~lp ~pairs crit =
  let a = Slicer.compute ~lp ~pairs gt crit in
  let b = Slicer.compute ~lp ~pairs ~driver:`Scan_skip gt crit in
  let c = Slicer.compute ~lp ~pairs ~driver:`Scan gt crit in
  if not (Slicer.equal a b && Slicer.equal b c) then
    fail Driver_agreement
      "drivers disagree at crit_pos %d: indexed %d, scan+skip %d, scan %d \
       positions"
      crit.Slicer.crit_pos (Slicer.size a) (Slicer.size b) (Slicer.size c);
  a

(* ---- oracle 6: static slice as a soundness bound ---- *)

(* The shared precondition of oracles 6 and 8: every thread entered at a
   statically known entry (the program entry or an address-taken
   function), so the static analyses saw every thread's code. *)
let entries_known (g : Dr_static.Supercfg.t) (c : Collector.result) =
  let known =
    g.Dr_static.Supercfg.prog.Dr_isa.Program.entry
    :: Dr_static.Supercfg.address_taken_entries g
  in
  Array.for_all
    (fun gseqs ->
      Array.length gseqs = 0
      || List.mem (Segment_store.pc c.Collector.records gseqs.(0)) known)
    c.Collector.per_thread

(* Every pc in a dynamic slice must lie in the static backward slice of
   the criterion's pc: the static PDG over-approximates every dynamic
   dependence (register RD is thread-blind, memory is one global cell,
   control regions cover the dynamic tracker's [branch, ipdom) marks).
   The bound only holds when the super-CFG is complete — every indirect
   jump/call resolved by refinement — and {!entries_known}.  When a precondition fails the oracle checks nothing
   rather than reporting Skip: corpus replay treats Skip as a failure,
   and an unresolved CFG is a property of the program, not a bug. *)
let check_static_bound g (c : Collector.result) gt
    ~(slices : (int * Slicer.t) list) =
  let pdg = Dr_static.Pdg.build g in
  if Dr_static.Pdg.fully_resolved pdg && entries_known g c then
    List.iter
      (fun (pos, (slice : Slicer.t)) ->
        let crit_pc = (Global_trace.record gt pos).Trace.pc in
        let bound = Dr_static.Pdg.backward_slice pdg ~pc:crit_pc in
        Array.iter
          (fun p ->
            let pc = (Global_trace.record gt p).Trace.pc in
            if not (Dr_util.Bitset.mem bound pc) then
              fail Static_slice_bound
                "dynamic slice at crit_pos %d (pc %d) contains pc %d outside \
                 its static backward slice"
                pos crit_pc pc)
          slice.Slicer.positions)
      slices

(* ---- oracle 8: race soundness ---- *)

(* Every dynamically-observed unsynchronized conflicting access pair must
   appear in the static race candidate set.  Gated like oracle 6: the
   static detector is only a sound over-approximation when the refined
   CFG is fully resolved (including every spawn target) and every dynamic
   thread starts at a statically known entry.  The dynamic side
   ({!Racecheck}) under-reports by construction — per-thread must-held
   locksets are supersets of the static must-locksets, and its vector
   clocks encode exactly the spawn/join/signal orderings the static HB
   skeleton under-approximates — so a dynamic pair escaping the static
   set is a genuine soundness bug in {!Dr_static.Race}. *)
let check_race_soundness g (c : Collector.result) pb =
  let prog = g.Dr_static.Supercfg.prog in
  let race = Dr_static.Race.analyze g in
  if Dr_static.Race.fully_resolved race && entries_known g c then begin
    let dyn =
      try Racecheck.observe_pinball prog pb
      with Replayer.Divergence d ->
        fail Race_soundness "race-check replay diverged: %s"
          (Replayer.divergence_message d)
    in
    List.iter
      (fun (r : Racecheck.race) ->
        if not (Dr_static.Race.is_candidate race r.Racecheck.r_pc_a r.Racecheck.r_pc_b)
        then
          fail Race_soundness
            "dynamic race on addr %d (tid %d pc %d %s / tid %d pc %d %s) is \
             not a static race candidate"
            r.Racecheck.r_addr r.Racecheck.r_tid_a r.Racecheck.r_pc_a
            (if r.Racecheck.r_write_a then "write" else "read")
            r.Racecheck.r_tid_b r.Racecheck.r_pc_b
            (if r.Racecheck.r_write_b then "write" else "read"))
      dyn.Racecheck.races
  end

(* ---- oracle 5: exclusion-region sanity ---- *)

(* Derive the paper's exclusion regions from the slice, read them back
   under their half-open [(pc, instance)] semantics and confirm they keep
   exactly the records the relogger is handed: every bounded region
   closes, no kept record falls inside a region and no excluded record
   outside one. *)
let check_exclusions ~slice ~(c : Collector.result) ~keep =
  let regions, _ = Dr_exeslice.Exclusion.build ~slice ~collector:c in
  match Dr_exeslice.Exclusion.kept_by ~collector:c regions with
  | Error { Dr_exeslice.Exclusion.x_tid; x_end; _ } ->
    let epc, einst = Option.get x_end in
    fail Exclusion_sanity
      "tid %d: bounded exclusion region never reached its end marker \
       (pc %d instance %d)"
      x_tid epc einst
  | Ok kept ->
    for g = 0 to Dr_util.Bitset.length keep - 1 do
      let want = Dr_util.Bitset.mem keep g in
      if Dr_util.Bitset.mem kept g <> want then begin
        let r = Segment_store.get c.Collector.records g in
        fail Exclusion_sanity
          "%s record %s an exclusion region: tid=%d pc=%d instance=%d \
           (gseq %d)"
          (if want then "kept" else "excluded")
          (if want then "inside" else "outside every")
          r.Trace.tid r.Trace.pc r.Trace.instance g
      end
    done

(* ---- observation replay (feeds both soundness checks) ---- *)

type observed = {
  o_nondet : (int, int) Hashtbl.t;  (** gseq -> recorded nondet result *)
  o_sp_fp : int array;  (** pre-step (sp, fp) per gseq, flattened *)
  o_sync_regs : (int, int array) Hashtbl.t;
      (** pre-step register file of forced (sync/final-ret) records *)
  o_r0 : (int * int, int list ref) Hashtbl.t;
      (** (tid, pc) -> post-step r0 of every {e included} record, in
          execution order (reversed while building).  Slice replay steps
          exactly the included records, preserving per-thread order, so
          its k-th execution of (tid, pc) pairs with the k-th entry. *)
  o_crit_uses : (int * int) list;  (** (loc, pre-step value) at criterion *)
  o_crit_defs : (int * int) list;  (** (loc, post-step value) at criterion *)
  o_prints : int list;  (** print values at included records, in order *)
}

let observe prog pb (c : Collector.result) ~included ~crit_gseq :
    observed =
  let nrec = Segment_store.length c.Collector.records in
  let file_size = Dr_isa.Reg.file_size in
  let o_nondet = Hashtbl.create 64 in
  let o_sp_fp = Array.make (max 1 (2 * nrec)) 0 in
  let o_sync_regs = Hashtbl.create 64 in
  let o_r0 = Hashtbl.create 256 in
  let o_crit_uses = ref [] and o_crit_defs = ref [] in
  let prints = ref [] in
  let r = Replayer.create prog pb in
  let m = Replayer.machine r in
  (* shadow register files: each thread's post-step registers so far,
     i.e. the pre-step registers of its next record *)
  let shadows = Hashtbl.create 8 in
  let shadow tid =
    match Hashtbl.find_opt shadows tid with
    | Some a -> a
    | None ->
      let a = Array.make file_size 0 in
      (match
         List.find_opt
           (fun t -> t.Snapshot.s_tid = tid)
           pb.Pinball.snapshot.Snapshot.threads
       with
      | Some t -> Array.blit t.Snapshot.s_regs 0 a 0 file_size
      | None -> ());
      Hashtbl.replace shadows tid a;
      a
  in
  let g = ref 0 in
  let hooks =
    { Driver.on_event =
        (fun ev ->
          let gseq = !g in
          incr g;
          if gseq >= nrec then
            fail Replay_determinism
              "observation replay retired more instructions (%d) than the \
               collected trace (%d)"
              (gseq + 1) nrec;
          let rec_ = Segment_store.get c.Collector.records gseq in
          let tid = ev.Event.tid in
          if rec_.Trace.tid <> tid || rec_.Trace.pc <> ev.Event.pc then
            fail Replay_determinism
              "observation replay diverged from the collected trace at gseq \
               %d: got tid=%d pc=%d, recorded tid=%d pc=%d"
              gseq tid ev.Event.pc rec_.Trace.tid rec_.Trace.pc;
          let pre = shadow tid in
          o_sp_fp.(2 * gseq) <- pre.(Dr_isa.Reg.sp);
          o_sp_fp.((2 * gseq) + 1) <- pre.(Dr_isa.Reg.fp);
          if Dr_exeslice.Exclusion.forced c.Collector.records gseq then
            Hashtbl.replace o_sync_regs gseq (Array.copy pre);
          (match ev.Event.sys with
          | Event.Sys_nondet { result; _ } -> Hashtbl.replace o_nondet gseq result
          | Event.Sys_print v -> if included gseq then prints := v :: !prints
          | _ -> ());
          (if included gseq then
             let r0 = (Machine.thread m tid).Machine.regs.(0) in
             match Hashtbl.find_opt o_r0 (tid, rec_.Trace.pc) with
             | Some l -> l := r0 :: !l
             | None -> Hashtbl.replace o_r0 (tid, rec_.Trace.pc) (ref [ r0 ]));
          if gseq = crit_gseq then begin
            o_crit_uses :=
              Array.to_list rec_.Trace.uses
              |> List.map (fun l ->
                     match Dr_isa.Loc.view l with
                     | Dr_isa.Loc.Reg { tid = rt; reg } ->
                       (l, (shadow rt).(reg))
                     | Dr_isa.Loc.Mem _ -> (l, ev.Event.mem_read_value));
            o_crit_defs :=
              Array.to_list rec_.Trace.defs
              |> List.map (fun l ->
                     match Dr_isa.Loc.view l with
                     | Dr_isa.Loc.Reg { tid = rt; reg } ->
                       (l, (Machine.thread m rt).Machine.regs.(reg))
                     | Dr_isa.Loc.Mem _ -> (l, ev.Event.mem_write_value))
          end;
          Array.blit (Machine.thread m tid).Machine.regs 0 pre 0 file_size;
          match ev.Event.sys with
          | Event.Sys_spawn { child; _ } ->
            Array.blit
              (Machine.thread m child).Machine.regs
              0 (shadow child) 0 file_size
          | _ -> ()) }
  in
  (try ignore (Replayer.resume ~hooks r)
   with Replayer.Divergence d ->
     fail Replay_determinism "observation replay diverged: %s"
       (Replayer.divergence_message d));
  { o_nondet; o_sp_fp; o_sync_regs; o_r0;
    o_crit_uses = !o_crit_uses; o_crit_defs = !o_crit_defs;
    o_prints = List.rev !prints }

(* ---- oracle 4a: slice replay with injections ---- *)

let check_slice_replay prog spb (obs : observed) =
  let expected = Hashtbl.create 128 in
  Hashtbl.iter
    (fun k l -> Hashtbl.replace expected k (Array.of_list (List.rev !l)))
    obs.o_r0;
  let sr = Dr_exeslice.Slice_replay.create prog spb in
  let sm = Dr_exeslice.Slice_replay.machine sr in
  let counts = Hashtbl.create 128 in
  let rec go () =
    match Dr_exeslice.Slice_replay.step sr with
    | Dr_exeslice.Slice_replay.Stepped { tid; pc; _ } ->
      let k = (tid, pc) in
      let i = 1 + Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k i;
      (match Hashtbl.find_opt expected k with
      | Some vs when i <= Array.length vs ->
        let v = vs.(i - 1) in
        let got = (Machine.thread sm tid).Machine.regs.(0) in
        if got <> v then
          fail Slice_soundness
            "slice replay: r0=%d after execution %d of tid=%d pc=%d, \
             original had %d"
            got i tid pc v
      | Some vs ->
        fail Slice_soundness
          "slice replay executed tid=%d pc=%d %d times, original included \
           only %d"
          tid pc i (Array.length vs)
      | None ->
        fail Slice_soundness
          "slice replay executed tid=%d pc=%d, which the original never \
           included"
          tid pc);
      go ()
    | Dr_exeslice.Slice_replay.Injected _ -> go ()
    | Dr_exeslice.Slice_replay.Finished _ | Dr_exeslice.Slice_replay.End_of_slice
      ->
      ()
  in
  (try go ()
   with Dr_exeslice.Slice_replay.Divergence msg ->
     fail Slice_soundness "slice replay diverged: %s" msg);
  let out = Machine.output_list sm in
  if out <> obs.o_prints then
    fail Slice_soundness "slice replay output [%s] differs from original [%s]"
      (String.concat "," (List.map string_of_int out))
      (String.concat "," (List.map string_of_int obs.o_prints))

(* ---- oracle 4b: forward re-execution without injections ---- *)

let check_forward_run prog pb (c : Collector.result) ~included ~in_slice
    ~crit_gseq (obs : observed) =
  let m = Snapshot.restore prog pb.Pinball.snapshot in
  let file_size = Dr_isa.Reg.file_size in
  let cur = ref (-1) in
  let nondet _kind =
    match Hashtbl.find_opt obs.o_nondet !cur with
    | Some v -> v
    | None ->
      fail Slice_soundness "re-execution: nondet result missing for gseq %d"
        !cur
  in
  for g = 0 to crit_gseq do
    if included g then begin
      let r = Segment_store.get c.Collector.records g in
      if Machine.outcome m <> Machine.Running then
        fail Slice_soundness
          "re-execution terminated before the criterion (at gseq %d)" g;
      if r.Trace.tid >= Machine.num_threads m then
        fail Slice_soundness "re-execution: thread %d does not exist at gseq %d"
          r.Trace.tid g;
      let th = Machine.thread m r.Trace.tid in
      if th.Machine.state <> Machine.Runnable then
        fail Slice_soundness
          "re-execution: thread %d not runnable at gseq %d (pc %d)" r.Trace.tid
          g r.Trace.pc;
      th.Machine.pc <- r.Trace.pc;
      (match Hashtbl.find_opt obs.o_sync_regs g with
      | Some regs when not (Dr_util.Bitset.mem in_slice g) ->
        (* forced sync record outside the slice: its operands are not in
           the dependence closure, so restore its full register file *)
        Array.blit regs 0 th.Machine.regs 0 file_size
      | _ ->
        (* sp/fp are untracked by dependence collection (ambient, as in
           binary slicers): pin them to their recorded values *)
        th.Machine.regs.(Dr_isa.Reg.sp) <- obs.o_sp_fp.(2 * g);
        th.Machine.regs.(Dr_isa.Reg.fp) <- obs.o_sp_fp.((2 * g) + 1));
      let pre =
        if g = crit_gseq then Array.copy th.Machine.regs else [||]
      in
      cur := g;
      let ev = Machine.step m ~tid:r.Trace.tid ~nondet in
      (match Machine.outcome m with
      | Machine.Fault { msg; _ } ->
        fail Slice_soundness "re-execution faulted at gseq %d: %s" g msg
      | _ -> ());
      if not ev.Event.retired then
        fail Slice_soundness
          "re-execution: included instruction blocked at gseq %d (tid %d pc \
           %d)"
          g r.Trace.tid r.Trace.pc;
      if g = crit_gseq then begin
        List.iter
          (fun (l, v) ->
            let got =
              match Dr_isa.Loc.view l with
              | Dr_isa.Loc.Reg { reg; _ } -> pre.(reg)
              | Dr_isa.Loc.Mem _ -> ev.Event.mem_read_value
            in
            if got <> v then
              fail Slice_soundness
                "re-execution: criterion use %s = %d, original %d"
                (Dr_isa.Loc.to_string l) got v)
          obs.o_crit_uses;
        List.iter
          (fun (l, v) ->
            let got =
              match Dr_isa.Loc.view l with
              | Dr_isa.Loc.Reg { tid = rt; reg } ->
                (Machine.thread m rt).Machine.regs.(reg)
              | Dr_isa.Loc.Mem _ -> ev.Event.mem_write_value
            in
            if got <> v then
              fail Slice_soundness
                "re-execution: criterion def %s = %d, original %d"
                (Dr_isa.Loc.to_string l) got v)
          obs.o_crit_defs
      end
    end
  done

(* ---- oracle 7: resource robustness ---- *)

(* A corrupted or missing trace segment must never yield a WRONG slice:
   the only acceptable endings are (a) a slice identical to the
   in-memory one (the fault hit nothing that was read), (b) a structured
   Resource_error, or (c) a result honestly marked truncated whose
   positions are a subset of the clean slice.  Phase A (no fault) is the
   spill-identity half of the oracle: the same trace rebuilt through a
   budgeted store — every segment on disk — must produce slices
   byte-identical to the in-memory run on the three drivers and the
   governed ladder. *)

type disk_fault =
  | Fault_enospc_sim  (** a spill write fails as if the disk were full *)
  | Fault_short  (** a spill write silently persists only a prefix *)
  | Fault_bit_flip  (** one bit of a spilled segment flips on disk *)
  | Fault_truncate  (** a spilled segment loses its tail *)
  | Fault_delete  (** a spilled segment disappears *)

let all_disk_faults =
  [ Fault_enospc_sim; Fault_short; Fault_bit_flip; Fault_truncate;
    Fault_delete ]

let disk_fault_name = function
  | Fault_enospc_sim -> "enospc"
  | Fault_short -> "short-write"
  | Fault_bit_flip -> "bit-flip"
  | Fault_truncate -> "truncate"
  | Fault_delete -> "delete"

type resource_config = {
  r_spill_dir : string;  (** per-case scratch dir for spilled segments *)
  r_fault : disk_fault option;  (** [None]: spill-identity phase only *)
  r_salt : int;  (** picks the victim write/segment/bit, deterministically *)
}

(** Records per segment in oracle runs — small, so even short fuzz
    traces span several segments. *)
let oracle_seg_records = 64

let apply_file_fault fault ~salt path =
  match fault with
  | Fault_delete -> Sys.remove path
  | Fault_truncate ->
    let data = In_channel.with_open_bin path In_channel.input_all in
    let keep = salt mod max 1 (String.length data) in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (String.sub data 0 keep))
  | Fault_bit_flip ->
    let data =
      Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
    in
    if Bytes.length data > 0 then begin
      let bit = salt mod (Bytes.length data * 8) in
      let byte = bit / 8 in
      Bytes.set_uint8 data byte
        (Bytes.get_uint8 data byte lxor (1 lsl (bit mod 8)));
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Bytes.to_string data))
    end
  | Fault_enospc_sim | Fault_short -> invalid_arg "apply_file_fault: write fault"

let check_resource ~(rc : resource_config) (c : Collector.result) ~crit_pos
    ~(clean : Slicer.t) =
  let clean_pos = clean.Slicer.positions in
  let crit = { Slicer.crit_pos; crit_locs = None } in
  let budgets = ref [] in
  let spilled_rebuild () =
    (* mem budget 0: every completed segment (and the sealed tail) must
       go to disk *)
    let budget =
      Dr_util.Budget.create ~mem_bytes:0 ~spill_dir:rc.r_spill_dir ()
    in
    budgets := budget :: !budgets;
    let store =
      Segment_store.rebuild ~budget ~seg_records:oracle_seg_records
        ~cache_segments:2 c.Collector.records
    in
    (budget, store)
  in
  let slice_of_store ?(driver = `Indexed) store =
    let gt = Global_trace.construct { c with Collector.records = store } in
    match driver with
    | (`Indexed | `Scan_skip | `Scan) as driver ->
      Slicer.compute ~pairs:c.Collector.pairs ~driver gt crit
    | `Governed budget ->
      (Slicer.compute_governed ~pairs:c.Collector.pairs ~budget gt crit)
        .Slicer.g_slice
  in
  Fun.protect ~finally:(fun () ->
      List.iter Dr_util.Budget.cleanup_spill !budgets)
  @@ fun () ->
  (* Phase A: spill identity, three drivers and the governed ladder *)
  let budget, store = spilled_rebuild () in
  if Segment_store.length store > 0 && Segment_store.spilled_segments store = 0
  then
    fail Resource_robustness
      "a zero memory budget rebuilt the trace without spilling any segment";
  List.iter
    (fun (name, driver) ->
      let s = slice_of_store ~driver store in
      if s.Slicer.stats.Slicer.truncated then
        fail Resource_robustness
          "spilled %s slice marked truncated with no time budget" name;
      if not (Slicer.equal s clean) then
        fail Resource_robustness
          "spilled %s slice differs from the in-memory slice at crit_pos %d \
           (%d vs %d positions)"
          name crit_pos (Slicer.size s) (Slicer.size clean))
    [ ("indexed", `Indexed); ("scan+skip", `Scan_skip); ("scan", `Scan);
      ("governed", `Governed budget) ];
  (* the zero budget must also have forced the governed ladder down *)
  if Dr_util.Budget.degradations budget = [] then
    fail Resource_robustness
      "governed slicing under a zero memory budget recorded no degradation";
  Dr_util.Budget.cleanup_spill budget;
  (* Phase B: one injected fault; never a wrong slice *)
  match rc.r_fault with
  | None -> ()
  | Some fault ->
    let faulted_store =
      match fault with
      | Fault_enospc_sim | Fault_short ->
        (* hit the (salt mod 3 + 1)-th spill write *)
        let target = 1 + (rc.r_salt mod 3) in
        let writes = ref 0 in
        Segment_store.set_write_fault_hook (fun _ ->
            incr writes;
            if !writes = target then
              match fault with
              | Fault_enospc_sim -> Some Segment_store.Fault_enospc
              | _ -> Some (Segment_store.Fault_short_write (rc.r_salt mod 48))
            else None);
        Fun.protect ~finally:Segment_store.clear_write_fault_hook (fun () ->
            try Ok (snd (spilled_rebuild ()))
            with Dr_util.Budget.Resource_error e -> Error e)
      | Fault_bit_flip | Fault_truncate | Fault_delete -> (
        let _, store = spilled_rebuild () in
        match Segment_store.spilled_paths store with
        | [] -> Ok store
        | paths ->
          let _, path = List.nth paths (rc.r_salt mod List.length paths) in
          apply_file_fault fault ~salt:rc.r_salt path;
          Ok store)
    in
    (match faulted_store with
    | Error _ -> ()  (* ending (b): a structured Resource_error *)
    | Ok store -> (
      match slice_of_store store with
      | exception Dr_util.Budget.Resource_error _ -> ()  (* ending (b) *)
      | s ->
        if s.Slicer.stats.Slicer.truncated then begin
          (* ending (c): honestly-marked partial — must be a subset *)
          let clean_set = Hashtbl.create (Array.length clean_pos) in
          Array.iter (fun p -> Hashtbl.replace clean_set p ()) clean_pos;
          Array.iter
            (fun p ->
              if not (Hashtbl.mem clean_set p) then
                fail Resource_robustness
                  "truncated slice after %s fault contains position %d not \
                   in the clean slice"
                  (disk_fault_name fault) p)
            s.Slicer.positions
        end
        else if not (Slicer.equal s clean) then
          (* the one forbidden ending: a silently wrong slice *)
          fail Resource_robustness
            "slice after %s fault differs from the clean slice without an \
             error or truncation mark (%d vs %d positions)"
            (disk_fault_name fault) (Slicer.size s) (Slicer.size clean)))

(* ---- the full pipeline for one case ---- *)

(** Run every stage and every oracle on [prog] under [policy].
    [mutate_slice] is a test hook: it rewrites the slice before exclusion
    building, standing in for a broken slicer — a mutation that drops a
    needed statement must be caught by the soundness oracle.
    [nondet_seed] seeds the native rand/time/read results of the logged
    run.  [resource] additionally runs the resource-robustness oracle:
    the trace is rebuilt through a disk-spilled segment store (and
    optionally hit with one injected disk fault) and the outcome checked
    against the in-memory slice. *)
let check ?mutate_slice ?resource (prog : Dr_isa.Program.t)
    ~(policy : Driver.policy) ~(nondet_seed : int) : verdict =
  try
    match
      Logger.log ~policy ~nondet_seed ~max_steps:max_case_steps prog
        Logger.Whole
    with
    | Error e -> Skip (Format.asprintf "logging failed: %a" Logger.pp_error e)
    | Ok (pb, stats) ->
      (match stats.Logger.stop with
      | Driver.Terminated (Machine.Exited _) -> ()
      | r ->
        raise
          (Skipped
             (Format.asprintf "run did not exit cleanly: %a"
                Driver.pp_stop_reason r)));
      oracle_span Pinball_roundtrip (fun () -> check_roundtrip pb);
      oracle_span Replay_determinism (fun () -> check_determinism prog pb);
      let c = Collector.collect prog pb in
      let gt = Global_trace.construct c in
      let n = Global_trace.length gt in
      if n = 0 then raise (Skipped "empty trace");
      let lp = Lp.prepare gt in
      let pairs = c.Collector.pairs in
      (* The soundness criterion is the last print record.  The final
         ret would slice only through control deps, which the
         value-comparing soundness oracle cannot exercise. *)
      let crit_pos = Global_trace.last_print_pos prog gt in
      let crits = List.sort_uniq compare [ n / 4; n / 2; n - 1; crit_pos ] in
      let slices =
        oracle_span Driver_agreement @@ fun () ->
        List.map
          (fun p ->
            ( p,
              check_agreement gt ~lp ~pairs
                { Slicer.crit_pos = p; crit_locs = None } ))
          crits
      in
      (* oracles 6 and 8 read one super-CFG, refined like the collector's *)
      let g =
        Dr_static.Supercfg.build
          ~indirect_targets:c.Collector.indirect_targets prog
      in
      oracle_span Static_slice_bound (fun () ->
          check_static_bound g c gt ~slices);
      oracle_span Race_soundness (fun () -> check_race_soundness g c pb);
      let slice0 = List.assoc crit_pos slices in
      (match resource with
      | Some rc ->
        oracle_span Resource_robustness (fun () ->
            check_resource ~rc c ~crit_pos ~clean:slice0)
      | None -> ());
      let slice =
        match mutate_slice with None -> slice0 | Some f -> f slice0
      in
      let crit_gseq = (Global_trace.record gt crit_pos).Trace.gseq in
      let nrec = Segment_store.length c.Collector.records in
      let keep = Dr_exeslice.Exclusion.keep ~slice ~collector:c in
      let included = Dr_util.Bitset.mem keep in
      oracle_span Exclusion_sanity (fun () -> check_exclusions ~slice ~c ~keep);
      let spb =
        try Relogger.relog prog pb ~keep
        with Relogger.Relog_error msg ->
          fail Exclusion_sanity "relog rejected the keep-set: %s" msg
      in
      oracle_span Slice_soundness @@ fun () ->
      let obs = observe prog pb c ~included ~crit_gseq in
      check_slice_replay prog spb obs;
      (* Oracle 4b re-executes the UNPRUNED dependence closure: a pruned
         slice bypasses confirmed save/restore pairs, so an included
         record inside the call may overwrite the saved register and only
         the (excluded) restore would bring it back — sound under the
         relogger's injections (checked by 4a), but not under pure
         re-execution.  The closure still goes through [mutate_slice],
         so a slicer that drops a real dependence is caught here. *)
      let closure =
        let s = Slicer.compute ~lp gt { Slicer.crit_pos; crit_locs = None } in
        match mutate_slice with None -> s | Some f -> f s
      in
      let in_closure = Dr_util.Bitset.create nrec in
      Array.iter
        (fun pos ->
          Dr_util.Bitset.add in_closure
            (Global_trace.record gt pos).Trace.gseq)
        closure.Slicer.positions;
      let included_cl g =
        Dr_util.Bitset.mem in_closure g
        || Dr_exeslice.Exclusion.forced c.Collector.records g
      in
      check_forward_run prog pb c ~included:included_cl ~in_slice:in_closure
        ~crit_gseq obs;
      Pass
  with
  | Oracle f -> Fail f
  | Skipped s -> Skip s
