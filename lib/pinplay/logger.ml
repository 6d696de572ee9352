(** The PinPlay logger: fast-forward to a region, snapshot the
    architectural state, then record every source of non-determinism
    (thread schedule, syscall results) until the region ends.

    As in the paper, regions on the main thread are specified by [skip]
    and [length] in retired instructions, or by a predicate ("until the
    assertion fails").  Fast-forwarding runs without instrumentation
    ("Pin-only speed"); the reported [log_time] covers only the region. *)

open Dr_machine

let h_region_instr = Dr_obs.Metrics.histogram "logger.region_instructions"

type spec =
  | Skip_length of { skip : int; length : int }
      (** capture [length] main-thread instructions after skipping [skip] *)
  | Skip_until of { skip : int; until : Event.t -> bool }
      (** capture from [skip] until the predicate fires (inclusive) *)
  | Whole
      (** capture from program start to termination *)

type stats = {
  ff_time : float;  (** fast-forward wall-clock seconds *)
  log_time : float;  (** logging wall-clock seconds *)
  region_instructions : int;  (** retired instructions, all threads *)
  main_instructions : int;  (** retired instructions, main thread *)
  stop : Driver.stop_reason;  (** why the region ended *)
}

type error =
  | Terminated_before_region of Machine.outcome
  | Deadlock_before_region

let pp_error fmt = function
  | Terminated_before_region o ->
    Format.fprintf fmt "program ended before the region: %a" Machine.pp_outcome o
  | Deadlock_before_region -> Format.pp_print_string fmt "deadlock before the region"

(** Log a region of [prog]'s execution under the given schedule [policy]
    (default: a seeded pseudo-random schedule, the "native" run).

    Every [digest_interval] retired instructions the logger samples an
    execution digest (hash of the stepping thread's registers and dirty
    memory, see {!Exec_digest}) into the pinball; the replayer recomputes
    them to localize the first divergent step.  Pass [~digest_interval:0]
    to disable sampling. *)
let log ?(policy = Driver.Seeded { seed = 1; max_quantum = 8 })
    ?(input = [||]) ?nondet_seed ?(max_steps = max_int) ?(digest_interval = 256)
    (prog : Dr_isa.Program.t) (spec : spec) : (Pinball.t * stats, error) result
    =
  let m = Machine.create ~input prog in
  let nondet = Machine.native_nondet ?seed:nondet_seed m in
  let session = Driver.session ~nondet m policy in
  let skip = match spec with
    | Skip_length { skip; _ } -> skip
    | Skip_until { skip; _ } -> skip
    | Whole -> 0
  in
  (* Phase 1: fast-forward to the region start (minimal instrumentation). *)
  let sp_ff = Dr_obs.Obs.start ~cat:"log" "logger.fast_forward" in
  let ff_t0 = Dr_util.Timer.now () in
  let ff_ok =
    if skip = 0 then true
    else begin
      let reason =
        Driver.resume session ~max_steps
          ~stop_when:(fun ev ->
            ev.Event.tid = 0 && (Machine.thread m 0).Machine.icount >= skip)
      in
      match reason with Driver.Stop_requested -> true | _ -> false
    end
  in
  let ff_time = Dr_util.Timer.now () -. ff_t0 in
  Dr_obs.Obs.stop sp_ff
    ~attrs:[ ("skip", Dr_obs.Obs.Int skip); ("ok", Dr_obs.Obs.Bool ff_ok) ];
  if not ff_ok then
    Error
      (match Machine.outcome m with
      | Machine.Running -> Deadlock_before_region
      | o -> Terminated_before_region o)
  else begin
    (* Phase 2: snapshot + logged execution. *)
    let snapshot = Snapshot.capture m in
    let main_start = (Machine.thread m 0).Machine.icount in
    let total_start = Machine.total_icount m in
    let schedule = Schedule.recorder () in
    let syscalls = Dr_util.Vec.Int_vec.create () in
    let digests = Dr_util.Vec.create ~dummy:{ Pinball.dg_step = 0; dg_tid = 0; dg_hash = 0 } in
    let steps = ref 0 in
    let on_event (ev : Event.t) =
      Schedule.record schedule ev.Event.tid;
      incr steps;
      if digest_interval > 0 && !steps mod digest_interval = 0 then
        Dr_util.Vec.push digests
          { Pinball.dg_step = !steps; dg_tid = ev.Event.tid;
            dg_hash = Exec_digest.hash m ev ~step:!steps };
      match ev.Event.sys with
      | Event.Sys_nondet { result; _ } -> Dr_util.Vec.Int_vec.push syscalls result
      | _ -> ()
    in
    let stop_when =
      match spec with
      | Skip_length { length; _ } ->
        fun (ev : Event.t) ->
          ev.Event.tid = 0
          && (Machine.thread m 0).Machine.icount - main_start >= length
      | Skip_until { until; _ } -> until
      | Whole -> fun _ -> false
    in
    let sp_log = Dr_obs.Obs.start ~cat:"log" "logger.log_region" in
    let log_t0 = Dr_util.Timer.now () in
    let stop =
      Driver.resume session ~max_steps ~hooks:{ Driver.on_event } ~stop_when
    in
    let log_time = Dr_util.Timer.now () -. log_t0 in
    let main_instructions = (Machine.thread m 0).Machine.icount - main_start in
    let region_instructions = Machine.total_icount m - total_start in
    let pinball =
      Pinball.make_region ~digest_interval
        ~digests:(Dr_util.Vec.to_array digests)
        ~program_name:prog.Dr_isa.Program.name
        ~region:{ Pinball.skip; length = main_instructions }
        ~snapshot
        ~schedule:(Schedule.recorded schedule)
        ~syscalls:(Dr_util.Vec.Int_vec.to_array syscalls) ()
    in
    Dr_obs.Obs.stop sp_log
      ~attrs:
        [ ("region_instructions", Dr_obs.Obs.Int region_instructions);
          ("main_instructions", Dr_obs.Obs.Int main_instructions) ];
    Dr_obs.Metrics.observe h_region_instr (float_of_int region_instructions);
    let stats =
      { ff_time; log_time; region_instructions; main_instructions; stop }
    in
    Ok (pinball, stats)
  end
