(* The DrDebug session benchmark.

   One process, one domain, four closed-loop workloads with one client
   each: the next operation ("op") starts only after the previous one
   has finished and its answer has been checked.  Every latency is a
   median over many seeded ops; set-up is repeated and its median
   reported.  Pinballs and traces stay in memory (no disk, no fsync),
   no domain pool is created, the library tracer (Dr_obs) stays off and
   the GC keeps its runtime defaults.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   With --trace 0 the ops run untraced and the end-to-end metrics are
   reported.  With --trace 1 every public library call the benchmark
   makes is timed from the outside, with the allocation around it, and
   the per-layer metrics are reported.  The last line of standard
   output is one JSON object with the keys correct, attempted, failed
   and metrics.  README.md in this directory documents every workload
   and metric. *)

module Pb = Dr_pinplay.Pinball
module Logger = Dr_pinplay.Logger
module Replayer = Dr_pinplay.Replayer
module Collector = Dr_slicing.Collector
module Gt = Dr_slicing.Global_trace
module Lp = Dr_slicing.Lp
module Slicer = Dr_slicing.Slicer
module Reexec = Dr_slicing.Reexec
module Exclusion = Dr_exeslice.Exclusion
module Slice_replay = Dr_exeslice.Slice_replay
module Session = Drdebug.Session
module Driver = Dr_machine.Driver
module Machine = Dr_machine.Machine

let now = Unix.gettimeofday

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten ops beyond it, and that
   percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- layer tracing ----

   With [tracing] set, [call] times one public library call from the
   outside and reads the words allocated around it from [Gc.counters].
   Calls never nest, so the per-layer times of one op add up to the
   part of its wall time that library calls cover; the rest is
   residue. *)

type layer = {
  mutable calls : int;
  mutable secs : float;
  mutable units : float;  (* work done: steps, records, bytes or slices *)
  mutable alloc_words : float;
}

let tracing = ref false

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let covered = ref 0.0  (* traced seconds since the current op began *)

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; secs = 0.0; units = 0.0; alloc_words = 0.0 } in
    Hashtbl.replace layers name l;
    l

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let call name ?(units = fun _ -> 1.0) f =
  if not !tracing then f ()
  else begin
    let a0 = allocated () in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let l = layer name in
    l.calls <- l.calls + 1;
    l.secs <- l.secs +. dt;
    l.units <- l.units +. units r;
    l.alloc_words <- l.alloc_words +. (allocated () -. a0);
    covered := !covered +. dt;
    r
  end

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

let count name v = if !tracing then Hashtbl.replace counts name (counted name +. v)

let count_max name v =
  if !tracing then Hashtbl.replace counts name (Float.max (counted name) v)

(* ---- host reference ----

   A fixed memory-bound loop: a pseudo-random walk over 32 MiB held
   outside the OCaml heap (so it does not touch peak_heap_mb).  Timed
   around each run, it shows when a run was taken in a slow phase of
   the host's memory system. *)

let ref_words = 1 lsl 22

let ref_area =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ref_words in
     Bigarray.Array1.fill a 1;
     a)

let host_ref_ms () =
  let a = Lazy.force ref_area in
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land (ref_words - 1);
    acc := !acc + Bigarray.Array1.unsafe_get a !x
  done;
  let dt = now () -. t0 in
  if !acc <> 1_000_000 then failwith "host reference loop miscounted";
  dt *. 1e3

(* ---- library calls shared by the workloads ---- *)

(* Every program runs in a 256 KiB address space (32K words with eight
   2K-word stacks) instead of the 8 MiB default.  The workloads touch a
   few thousand words of it.  Every Machine.create, snapshot and
   snapshot decode copies the whole address space, so with the default
   image an op moves tens of MiB and its latency follows the host's
   memory bandwidth, which drifts by tens of percent over minutes on a
   shared host (README.md).  The small image keeps that work inside the
   caches. *)
let compile name ~iters =
  match Dr_workloads.Registry.find name with
  | Some e ->
    let prog = e.Dr_workloads.Registry.compile ~threads:4 ~iters in
    { prog with
      Dr_isa.Program.mem_size = 1 lsl 15; stack_words = 1 lsl 11; max_threads = 8 }
  | None -> failwith ("unknown program " ^ name)

(* Record the whole program under a seeded schedule. *)
let record prog ~seed =
  let units = function
    | Ok (pb, _) -> float_of_int (Pb.schedule_instructions pb)
    | Error _ -> 0.0
  in
  match
    call "logger" ~units (fun () ->
        Logger.log
          ~policy:(Driver.Seeded { seed; max_quantum = 8 })
          prog Logger.Whole)
  with
  | Ok (pb, _) -> pb
  | Error e ->
    failwith (Format.asprintf "logging failed: %a" Logger.pp_error e)

let encode pb =
  let bytes =
    call "pinball.encode"
      ~units:(fun b -> float_of_int (String.length b))
      (fun () -> Pb.to_bytes pb)
  in
  count "pinball.bytes" (float_of_int (String.length bytes));
  count "pinball.steps" (float_of_int (Pb.schedule_instructions pb));
  bytes

let report_region name pb bytes =
  Printf.printf "region %s: %d steps, %d pinball bytes\n" name
    (Pb.schedule_instructions pb) (String.length bytes)

let bytes_per_kstep pb bytes =
  float_of_int (String.length bytes)
  /. (float_of_int (Pb.schedule_instructions pb) /. 1000.0)

type analysis = { c : Collector.result; gt : Gt.t; lp : Lp.t }

let analyse prog pb =
  let c =
    call "collector"
      ~units:(fun c ->
        float_of_int (Dr_slicing.Segment_store.length c.Collector.records))
      (fun () -> Collector.collect prog pb)
  in
  let gt =
    call "global_trace"
      ~units:(fun gt -> float_of_int (Gt.length gt))
      (fun () -> Gt.construct c)
  in
  let n = float_of_int (Gt.length gt) in
  let lp = call "lp" ~units:(fun _ -> n) (fun () -> Lp.prepare gt) in
  { c; gt; lp }

let slice a crit =
  let s = call "slicer" (fun () -> Slicer.compute ~lp:a.lp a.gt crit) in
  count "slicer.visited" (float_of_int s.Slicer.stats.Slicer.visited);
  count "slicer.records" (float_of_int (Gt.length a.gt));
  count "slicer.slice_records" (float_of_int (Slicer.size s));
  s

let slice_pinball prog pb a s =
  let spb, st =
    call "exclusion" (fun () ->
        Exclusion.slice_pinball prog pb ~slice:s ~collector:a.c)
  in
  count "exclusion.regions" (float_of_int st.Exclusion.regions);
  spb

(* Replay a slice pinball to its end; true when it ran through. *)
let replay_slice prog spb =
  match
    call "slice_replay" (fun () -> Slice_replay.run (Slice_replay.create prog spb))
  with
  | Slice_replay.End_of_slice | Slice_replay.Finished _ -> true
  | Slice_replay.Stepped _ | Slice_replay.Injected _ -> false

let slice_pct pb spb =
  100.0
  *. float_of_int (Pb.step_count spb)
  /. float_of_int (Pb.schedule_instructions pb)

(* Slices compare by positions and by their edges in sorted order (the
   slicer leaves edge order unspecified). *)
let canonical (s : Slicer.t) =
  (s.Slicer.positions, List.sort compare (Array.to_list s.Slicer.edges))

let same_slice a b = canonical a = canonical b

(* ---- slicing criteria ---- *)

(* The last load at or before [pos], chasing its own uses. *)
let load_before gt pos =
  let rec go p =
    if p <= 0 || Dr_slicing.Trace.is_load (Gt.record gt p) then max p 0
    else go (p - 1)
  in
  { Slicer.crit_pos = go pos; crit_locs = None }

(* Every global variable the region defines, chased from the end of the
   trace. *)
let var_criteria prog a =
  let last = Gt.length a.gt - 1 and idx = Lp.def_index a.lp in
  Array.of_list
    (List.filter_map
       (fun (_, addr, _) ->
         let loc = Dr_isa.Loc.mem addr in
         if Array.length (Dr_slicing.Def_index.positions idx ~loc) > 0 then
           Some { Slicer.crit_pos = last; crit_locs = Some [ loc ] }
         else None)
       prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals)

(* A pool of three criterion shapes: 31 loads spread evenly over the
   trace, the registers with the fewest dynamic definitions, and the
   global variables.  Their slices differ in size by more than ten
   times.  The many loads make op costs a continuum, so the median and
   the tail do not sit on a gap between a few criteria's costs. *)
let criteria prog a =
  let len = Gt.length a.gt in
  let loads = List.init 31 (fun i -> load_before a.gt (len * (i + 1) / 32)) in
  let regs = ref [] in
  Dr_slicing.Def_index.iter (Lp.def_index a.lp) (fun loc positions ->
      match Dr_isa.Loc.view loc with
      | Dr_isa.Loc.Reg _ when Array.length positions > 0 ->
        regs := (Array.length positions, loc) :: !regs
      | _ -> ());
  let regs =
    List.filteri (fun i _ -> i < 4) (List.sort compare !regs)
    |> List.map (fun (_, loc) ->
           { Slicer.crit_pos = len - 1; crit_locs = Some [ loc ] })
  in
  Array.append (Array.of_list (loads @ regs)) (var_criteria prog a)

(* The pool in a seeded order; op [i] takes entry [i mod length], so
   every criterion is sliced equally often whatever the seed. *)
let shuffled ~seed pool =
  let rng = Random.State.make [| seed; 0x5e1ec7 |] in
  let a = Array.copy pool in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- workloads ---- *)

(* What one op reports besides its latency; [check] runs untimed. *)
type verdict = {
  check : unit -> bool;
  kstep_bytes : float option;
  pct : float option;
}

type instance = {
  op : int -> Random.State.t -> unit -> verdict;
      (* [op i rng] draws the op's inputs; the returned thunk is timed *)
  heavy : string list;  (* layers that should dominate op time *)
  setup_kstep_bytes : float;  (* of the set-up pinball; nan if none *)
  setup_pct : float;  (* nan if the ops report it *)
}

type sizes = { setups : int; scale : int }

(* The iteration counts below give these regions, in instructions
   retired over all threads: replay-loop ~1.5M, first-slice ~60k per
   program, slice-queries ~445k, beyond-ram ~103k, the layer sweep ~26k.
   They keep ops at 100-300 ms and make each set-up about half a
   second of work or more.  [scale] shrinks them for the smoke mode. *)
let iters sz n = max 8 (n / sz.scale)

(* Slice by on-demand re-execution, counting the windows [rx]
   re-derived and the cache hits this slice caused. *)
let reexec_slice rx lite a crit =
  let before = Reexec.stats rx in
  let s =
    call "reexec.slice" (fun () ->
        Slicer.compute ~lp:lite ~driver:(`Reexec rx) a.gt crit)
  in
  let after = Reexec.stats rx in
  count "reexec.windows"
    (float_of_int (after.Reexec.windows_rederived - before.Reexec.windows_rederived));
  count "reexec.hits"
    (float_of_int (after.Reexec.window_hits - before.Reexec.window_hits));
  count_max "reexec.peak_bytes" (float_of_int after.Reexec.peak_resident_bytes);
  s

let reexec_build prog pb a ~ckpt_interval =
  call "reexec.build" (fun () ->
      Reexec.create ~cfg:a.c.Collector.cfg ~ckpt_interval ~cache_windows:2 prog
        pb)

let drain_replay prog pb =
  let r = call "replayer.create" (fun () -> Replayer.create prog pb) in
  call "replayer"
    ~units:(fun _ -> float_of_int (Replayer.steps r))
    (fun () -> Replayer.run r)

(* Every layer on a small region: the per-layer metrics of a layer the
   workload itself never calls come from here.  The bare machine and
   the replayer run the region eight times each. *)
let sweep_layers sz ~seed =
  let prog = compile "streamcluster" ~iters:(iters sz 8) in
  for _ = 1 to 8 do
    let m = Machine.create prog in
    ignore
      (call "machine"
         ~units:(fun _ -> float_of_int (Machine.total_icount m))
         (fun () -> Driver.run m (Driver.Seeded { seed; max_quantum = 8 })))
  done;
  let pb = record prog ~seed in
  let bytes = encode pb in
  let pb =
    call "pinball.decode"
      ~units:(fun _ -> float_of_int (String.length bytes))
      (fun () -> Pb.of_bytes bytes)
  in
  for _ = 1 to 8 do
    ignore (drain_replay prog pb)
  done;
  let s = Session.create prog in
  Session.load_pinball s pb;
  ignore (Session.start_replay s);
  ignore (Session.stepi s (Pb.schedule_instructions pb / 2));
  ignore (call "session.goto_step" (fun () -> Session.reverse_stepi s 1000));
  let a = analyse prog pb in
  let crit = load_before a.gt (Gt.length a.gt / 2) in
  let sl = slice a crit in
  ignore (replay_slice prog (slice_pinball prog pb a sl));
  let rx = reexec_build prog pb a ~ckpt_interval:4096 in
  ignore (reexec_slice rx (Lp.prepare_lite a.gt) a crit)

(* replay-loop: cyclic debugging with no slicing.  Each op decodes the
   pinball, replays to a seeded breakpoint through Session, steps
   forward, reads a variable, steps backwards and continues to the
   region end. *)
let replay_loop sz ~seed () =
  let name = "fluidanimate" in
  let prog = compile name ~iters:(iters sz 2500) in
  let pb = record prog ~seed in
  let bytes = encode pb in
  report_region name pb bytes;
  (* reference replay: the region's end state, and every pc that
     retires in it (the breakpoint candidates) *)
  let pcs = Hashtbl.create 256 in
  let hooks =
    { Driver.on_event = (fun ev -> Hashtbl.replace pcs ev.Dr_machine.Event.pc ()) }
  in
  let m, stop = Replayer.replay ~hooks prog pb in
  let end_reason =
    match stop with
    | Driver.Schedule_end -> "end of region"
    | Driver.Terminated o -> Format.asprintf "%a" Machine.pp_outcome o
    | _ -> failwith "replay-loop: the reference replay stopped early"
  in
  let end_icount = Machine.total_icount m in
  let bps =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun pc () acc -> pc :: acc) pcs []))
  in
  let vars =
    Array.of_list
      (List.map (fun (v, _, _) -> v) prog.Dr_isa.Program.debug.Dr_isa.Debug_info.globals)
  in
  let op _ rng =
    let bp_pc = bps.(Random.State.int rng (Array.length bps)) in
    let k = 1 + Random.State.int rng 4000 in
    let back = 1 + Random.State.int rng k in
    let var = vars.(Random.State.int rng (Array.length vars)) in
    fun () ->
      let pb =
        call "pinball.decode"
          ~units:(fun _ -> float_of_int (String.length bytes))
          (fun () -> Pb.of_bytes bytes)
      in
      let s = Session.create prog in
      Session.load_pinball s pb;
      let bp = Session.add_breakpoint_pc s bp_pc in
      let started = call "replayer.create" (fun () -> Session.start_replay s) in
      let replay f =
        let before = s.Session.replay_steps in
        call "replayer"
          ~units:(fun _ -> float_of_int (s.Session.replay_steps - before))
          f
      in
      let at_bp = replay (fun () -> Session.continue_replay s) in
      (* Step forward by rewinding from the checkpoint the breakpoint stop
         took: resuming the replay that stopped at the breakpoint would
         diverge, because the stop has already consumed one slot of the
         recorded schedule. *)
      let stepped =
        call "session.goto_step" (fun () ->
            Session.goto_step s ~target:(s.Session.replay_steps + k))
      in
      let value =
        call "session" (fun () ->
            match Session.machine s with
            | Some m -> Session.read_var s m ~tid:0 var
            | None -> Error "no machine")
      in
      let rewound =
        call "session.goto_step" (fun () -> Session.reverse_stepi s back)
      in
      ignore (Session.delete_breakpoint s bp.Session.bp_id);
      let finished = replay (fun () -> Session.continue_replay s) in
      let check () =
        let reason = function
          | Ok st -> st.Session.stop_reason
          | Error e -> e
        in
        started = Ok ()
        && reason at_bp = "breakpoint"
        && Result.is_ok stepped && Result.is_ok value && Result.is_ok rewound
        && reason finished = end_reason
        &&
        (* output is not compared: a replay resumed from a checkpoint
           taken after a print does not print again *)
        match Session.machine s with
        | Some m -> Machine.total_icount m = end_icount
        | None -> false
      in
      { check; kstep_bytes = None; pct = None }
  in
  { op;
    heavy = [ "pinball.decode"; "replayer.create"; "replayer"; "session.goto_step" ];
    setup_kstep_bytes = bytes_per_kstep pb bytes;
    (* a constant: the op replays the whole region pinball, no slice *)
    setup_pct = 100.0 }

(* first-slice: the cold chain from a fresh recording to a replayed
   slice, cycling over three programs with different slice shapes. *)
let first_slice_programs =
  [| ("streamcluster", 22); ("ammp", 36); ("blackscholes", 112) |]

let first_slice_chain prog ~seed ~k =
  let pb = record prog ~seed in
  let bytes = encode pb in
  let a = analyse prog pb in
  let vars = var_criteria prog a in
  let crit = vars.(k mod Array.length vars) in
  let s = slice a crit in
  let spb = slice_pinball prog pb a s in
  let replayed = replay_slice prog spb in
  let check () =
    replayed && same_slice s (Slicer.compute ~lp:a.lp ~driver:`Scan a.gt crit)
  in
  { check; kstep_bytes = Some (bytes_per_kstep pb bytes); pct = Some (slice_pct pb spb) }

let first_slice sz ~seed () =
  let progs =
    Array.map (fun (name, n) -> compile name ~iters:(iters sz n)) first_slice_programs
  in
  (* two checked warm-up chains per program *)
  Array.iteri
    (fun i prog ->
      for k = 0 to 1 do
        if not ((first_slice_chain prog ~seed:(seed + (2 * i) + k) ~k).check ())
        then failwith "first-slice: warm-up chain"
      done)
    progs;
  let op i rng =
    let prog = progs.(i mod Array.length progs) in
    let seed = Random.State.bits rng in
    fun () -> first_slice_chain prog ~seed ~k:(i / Array.length progs)
  in
  { op; heavy = [ "collector" ]; setup_kstep_bytes = Float.nan;
    setup_pct = Float.nan }

(* slice-queries: interactive slicing over one prepared trace; each op
   slices a seeded criterion, relogs it and replays the slice. *)
let slice_queries sz ~seed () =
  let name = "ammp" in
  let prog = compile name ~iters:(iters sz 300) in
  let pb = record prog ~seed in
  let bytes = encode pb in
  report_region name pb bytes;
  let a = analyse prog pb in
  let pool = shuffled ~seed (criteria prog a) in
  let op i rng =
    let crit = pool.(i mod Array.length pool) in
    let checked = Random.State.int rng 4 = 0 in
    fun () ->
      let s = slice a crit in
      let spb = slice_pinball prog pb a s in
      let replayed = replay_slice prog spb in
      let check () =
        replayed
        && ((not checked)
           || same_slice s (Slicer.compute ~lp:a.lp ~driver:`Scan a.gt crit))
      in
      { check; kstep_bytes = None; pct = Some (slice_pct pb spb) }
  in
  { op; heavy = [ "slicer"; "exclusion" ];
    setup_kstep_bytes = bytes_per_kstep pb bytes; setup_pct = Float.nan }

(* beyond-ram: slicing by on-demand re-execution from a checkpoint
   ladder.  The reference answers are the in-memory indexed slices,
   computed during set-up. *)
let beyond_ram sz ~seed () =
  let name = "streamcluster" in
  let prog = compile name ~iters:(iters sz 36) in
  let pb = record prog ~seed in
  let bytes = encode pb in
  report_region name pb bytes;
  let a = analyse prog pb in
  let pool = shuffled ~seed (criteria prog a) in
  let refs = Array.map (fun crit -> slice a crit) pool in
  (* slice_pinball_pct comes from set-up, from the variables' indexed
     slices as in first-slice: the ops' Reexec slices make no slice
     pinball *)
  let pcts =
    Array.to_list
      (Array.map
         (fun crit -> slice_pct pb (slice_pinball prog pb a (slice a crit)))
         (var_criteria prog a))
  in
  let rx = reexec_build prog pb a ~ckpt_interval:4096 in
  let lite = Lp.prepare_lite a.gt in
  let op i _ =
    let j = i mod Array.length pool in
    fun () ->
      let s = reexec_slice rx lite a pool.(j) in
      { check = (fun () -> same_slice s refs.(j)); kstep_bytes = None; pct = None }
  in
  { op; heavy = [ "reexec.slice" ];
    setup_kstep_bytes = bytes_per_kstep pb bytes; setup_pct = median pcts }

let workloads =
  [ ("replay-loop", replay_loop); ("first-slice", first_slice);
    ("slice-queries", slice_queries); ("beyond-ram", beyond_ram) ]

(* ---- the run ---- *)

type op_sample = { ms : float; traced : bool; covered_ms : float; heavy_ms : float }

let layer_secs names = List.fold_left (fun acc n -> acc +. (layer n).secs) 0.0 names

type run = {
  inst : instance;  (* the last set-up's *)
  setup_times : float list;
  samples : op_sample list;  (* ops that passed their check *)
  attempted : int;
  failed : int;
  ksteps : float list;
  pcts : float list;
}

(* Set up [setups] times back to back, then run ops for [seconds] on
   the last instance (set-up is deterministic in the seed).  Each
   set-up starts from a fully collected heap, so none of them pays for
   collecting the one before, and peak_heap_mb counts one instance.
   Traced runs alternate traced and untraced ops. *)
let run_ops ~setup ~setups ~seed ~seconds ~trace =
  let last = ref None and times = ref [] in
  for _ = 1 to setups do
    last := None;
    Gc.full_major ();
    tracing := trace;
    let t0 = now () in
    last := Some (setup ());
    times := (now () -. t0) :: !times;
    tracing := false
  done;
  let inst = Option.get !last in
  let rng = Random.State.make [| seed; 0x0b5 |] in
  let samples = ref [] and failed = ref 0 and attempted = ref 0 in
  let ksteps = ref [] and pcts = ref [] in
  let start = now () in
  let i = ref 0 in
  while now () < start +. seconds || !attempted = 0 do
    tracing := trace && !i mod 2 = 1;
    let timed = inst.op !i rng in
    let heavy0 = layer_secs inst.heavy in
    covered := 0.0;
    let t0 = now () in
    let result = try Ok (timed ()) with e -> Error e in
    let ms = (now () -. t0) *. 1e3 in
    let sample =
      { ms; traced = !tracing; covered_ms = !covered *. 1e3;
        heavy_ms = (layer_secs inst.heavy -. heavy0) *. 1e3 }
    in
    tracing := false;
    incr attempted;
    (match result with
    | Ok v when (try v.check () with _ -> false) ->
      samples := sample :: !samples;
      Option.iter (fun x -> ksteps := x :: !ksteps) v.kstep_bytes;
      Option.iter (fun x -> pcts := x :: !pcts) v.pct
    | Ok _ ->
      incr failed;
      prerr_endline "op failed its check"
    | Error e ->
      incr failed;
      prerr_endline ("op failed: " ^ Printexc.to_string e));
    incr i
  done;
  { inst; setup_times = !times; samples = !samples;
    attempted = !attempted; failed = !failed; ksteps = !ksteps; pcts = !pcts }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.6g %s\n" n v u) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let end_to_end r =
  let ms = List.map (fun s -> s.ms) r.samples in
  let tail_ms, tail_pct = tail ms in
  Printf.printf "op_tail_ms is p%.1f of %d ops\n" tail_pct (List.length ms);
  let or_setup xs v = if xs = [] then v else median xs in
  [ ("setup_s", median r.setup_times, "s");
    ("op_p50_ms", median ms, "ms");
    ("op_tail_ms", tail_ms, "ms");
    ("peak_heap_mb", peak_heap_mb (), "MiB");
    ( "pinball_bytes_per_kstep",
      or_setup r.ksteps r.inst.setup_kstep_bytes,
      "B/kstep" );
    ("slice_pinball_pct", or_setup r.pcts r.inst.setup_pct, "%") ]

let per_layer ~ref_ms r =
  let l = layer in
  let per unit name = ratio ((l name).secs *. unit) (l name).units in
  let per_call unit name = ratio ((l name).secs *. unit) (float_of_int (l name).calls) in
  let traced = List.filter (fun s -> s.traced) r.samples in
  let plain = List.filter (fun s -> not s.traced) r.samples in
  let sum f xs = List.fold_left (fun acc s -> acc +. f s) 0.0 xs in
  let op_ms = sum (fun s -> s.ms) traced in
  let slices = float_of_int (l "slicer").calls in
  let rx_slices = float_of_int (l "reexec.slice").calls in
  let windows = counted "reexec.windows" in
  [ ("host.ref_ms", ref_ms, "ms");
    ("machine.ns_per_step", per 1e9 "machine", "ns");
    ("replayer.ns_per_step", per 1e9 "replayer", "ns");
    ("replayer.create_ms", per_call 1e3 "replayer.create", "ms");
    ("pinball.decode_ns_per_byte", per 1e9 "pinball.decode", "ns");
    ("pinball.encode_ns_per_byte", per 1e9 "pinball.encode", "ns");
    ( "pinball.bytes_per_kstep",
      ratio (counted "pinball.bytes") (counted "pinball.steps" /. 1000.0),
      "B/kstep" );
    ("session.goto_step_ms", per_call 1e3 "session.goto_step", "ms");
    ("logger.ns_per_step", per 1e9 "logger", "ns");
    ("collector.ns_per_record", per 1e9 "collector", "ns");
    ( "collector.alloc_bytes_per_record",
      ratio ((l "collector").alloc_words *. float_of_int (Sys.word_size / 8))
        (l "collector").units,
      "B" );
    ("global_trace.ns_per_record", per 1e9 "global_trace", "ns");
    ("lp.ns_per_record", per 1e9 "lp", "ns");
    ("slicer.ms_per_slice", per_call 1e3 "slicer", "ms");
    ( "slicer.visited_ratio",
      ratio (counted "slicer.visited") (counted "slicer.records"),
      "ratio" );
    ("slicer.slice_records", ratio (counted "slicer.slice_records") slices, "count");
    ("exclusion.ms_per_slice_pinball", per_call 1e3 "exclusion", "ms");
    ( "exclusion.regions",
      ratio (counted "exclusion.regions") (float_of_int (l "exclusion").calls),
      "count" );
    ("slice_replay.ms", per_call 1e3 "slice_replay", "ms");
    ("reexec.build_s", per_call 1.0 "reexec.build", "s");
    ("reexec.ms_per_slice", per_call 1e3 "reexec.slice", "ms");
    ("reexec.windows_rederived_per_slice", ratio windows rx_slices, "count");
    ( "reexec.window_hit_rate",
      ratio (counted "reexec.hits") (counted "reexec.hits" +. windows),
      "ratio" );
    ("reexec.peak_resident_mb", counted "reexec.peak_bytes" /. 1048576.0, "MiB");
    ( "trace.overhead_pct",
      100.0 *. (ratio (median (List.map (fun s -> s.ms) traced))
                  (median (List.map (fun s -> s.ms) plain)) -. 1.0),
      "%" );
    ( "trace.residue_pct",
      100.0 *. ratio (op_ms -. sum (fun s -> s.covered_ms) traced) op_ms,
      "%" );
    ( "trace.heavy_share_pct",
      100.0 *. ratio (sum (fun s -> s.heavy_ms) traced) op_ms,
      "%" ) ]

let print_layer_table () =
  let names = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) layers []) in
  Printf.printf "%-20s %8s %12s %14s %16s\n" "layer" "calls" "seconds" "units" "alloc_MiB";
  List.iter
    (fun n ->
      let l = layer n in
      Printf.printf "%-20s %8d %12.4f %14.0f %16.1f\n" n l.calls l.secs l.units
        (l.alloc_words *. float_of_int (Sys.word_size / 8) /. 1048576.0))
    names

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long the ops run");
      ("--trace", Arg.Set_int trace, "0|1 1 times every library call, per layer");
      ("--smoke", Arg.Set smoke, " small inputs and one set-up") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  Dr_obs.Obs.set_enabled false;
  let trace = !trace = 1 in
  let sz = if !smoke then { setups = 1; scale = 8 } else { setups = 5; scale = 1 } in
  let refs = List.init 3 (fun _ -> host_ref_ms ()) in
  let r =
    run_ops ~setup:(make sz ~seed:!seed)
      ~setups:(if trace then 1 else sz.setups)
      ~seed:!seed ~seconds:!seconds ~trace
  in
  if trace then begin
    tracing := true;
    sweep_layers sz ~seed:!seed;
    tracing := false
  end;
  let ref_ms = median (refs @ List.init 3 (fun _ -> host_ref_ms ())) in
  Printf.printf "host.ref_ms %.3f\n" ref_ms;
  Printf.printf "ops %d attempted, %d failed, op_fail_frac %.4f\n" r.attempted
    r.failed
    (float_of_int r.failed /. float_of_int r.attempted);
  if trace then print_layer_table ();
  let metrics = if trace then per_layer ~ref_ms r else end_to_end r in
  emit ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics

let () = main ()
