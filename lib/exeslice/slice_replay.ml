(** Replaying an execution slice from a slice pinball (paper §4,
    Fig. 6b).

    The replay drives each thread's pc along its sequence of included
    instructions in the recorded global order; when a skipped code region
    is reached, its side effects are restored by applying the injection
    record (memory cells and the thread's registers).  Every [Step] event
    is a natural breakpoint, which is how the paper lets the user "step
    from the execution of one statement in the slice to the next while
    examining values of program variables". *)

open Dr_machine

let m_steps = Dr_obs.Metrics.counter "slice_replay.steps"
let m_injections = Dr_obs.Metrics.counter "slice_replay.injections"
let m_divergences = Dr_obs.Metrics.counter "slice_replay.divergences"

exception Divergence of string

let divergence msg =
  Dr_obs.Metrics.bump m_divergences;
  raise (Divergence msg)

type t = {
  prog : Dr_isa.Program.t;
  pinball : Dr_pinplay.Pinball.t;
  machine : Machine.t;
  mutable next_event : int;
  syscall_pos : int ref;
  nondet : Machine.nondet;
  mutable last_line : int;  (** source line of the last stepped instruction *)
  mutable last_tid : int;
}

type step_result =
  | Stepped of { tid : int; pc : int; line : int }
  | Injected of { tid : int }
  | Finished of Machine.outcome
      (** machine terminated (e.g. the assert fired) *)
  | End_of_slice  (** all slice events consumed *)

let create (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t) : t =
  if pinball.Dr_pinplay.Pinball.kind <> Dr_pinplay.Pinball.Slice then
    invalid_arg "Slice_replay.create: expected a slice pinball";
  let machine = Snapshot.restore prog pinball.Dr_pinplay.Pinball.snapshot in
  let syscall_pos = ref 0 in
  let nondet _kind =
    let syscalls = pinball.Dr_pinplay.Pinball.syscalls in
    if !syscall_pos >= Array.length syscalls then
      divergence "syscall log exhausted"
    else begin
      let v = syscalls.(!syscall_pos) in
      incr syscall_pos;
      v
    end
  in
  { prog; pinball; machine; next_event = 0; syscall_pos; nondet;
    last_line = -1; last_tid = -1 }

let machine t = t.machine

let remaining t =
  Array.length t.pinball.Dr_pinplay.Pinball.slice_events - t.next_event

let apply_injection t (inj : Dr_pinplay.Pinball.injection) =
  List.iter
    (fun (a, v) -> t.machine.Machine.mem.(a) <- v)
    inj.Dr_pinplay.Pinball.inj_mem;
  let th = Machine.thread t.machine inj.Dr_pinplay.Pinball.inj_tid in
  List.iter
    (fun (r, v) -> th.Machine.regs.(r) <- v)
    inj.Dr_pinplay.Pinball.inj_regs

(** Advance by one slice event. *)
let step (t : t) : step_result =
  let events = t.pinball.Dr_pinplay.Pinball.slice_events in
  if Machine.outcome t.machine <> Machine.Running then
    Finished (Machine.outcome t.machine)
  else if t.next_event >= Array.length events then End_of_slice
  else begin
    let ev = events.(t.next_event) in
    t.next_event <- t.next_event + 1;
    match ev with
    | Dr_pinplay.Pinball.Inject i ->
      let inj = t.pinball.Dr_pinplay.Pinball.injections.(i) in
      apply_injection t inj;
      Dr_obs.Metrics.bump m_injections;
      Injected { tid = inj.Dr_pinplay.Pinball.inj_tid }
    | Dr_pinplay.Pinball.Step { tid; pc } ->
      let th = Machine.thread t.machine tid in
      if th.Machine.state <> Machine.Runnable then
        divergence
          (Printf.sprintf "slice step schedules non-runnable tid %d at pc %d"
             tid pc);
      th.Machine.pc <- pc;
      let mev = Machine.step t.machine ~tid ~nondet:t.nondet in
      if not mev.Event.retired then
        divergence (Printf.sprintf "slice step blocked at tid %d pc %d" tid pc);
      Dr_obs.Metrics.bump m_steps;
      let line =
        Option.value ~default:(-1)
          (Dr_isa.Debug_info.line_of_pc t.prog.Dr_isa.Program.debug pc)
      in
      t.last_line <- line;
      t.last_tid <- tid;
      Stepped { tid; pc; line }
  end

(** Step forward to the next {e statement} of the slice: the next included
    instruction whose (thread, source line) differs from the current one —
    the paper's slice-stepping GUI action. *)
let step_statement (t : t) : step_result =
  let start_line = t.last_line and start_tid = t.last_tid in
  let rec go () =
    match step t with
    | Stepped { tid; line; _ } as s ->
      if line <> start_line || tid <> start_tid || line < 0 then s else go ()
    | Injected _ -> go ()
    | other -> other
  in
  go ()

(** Run the whole slice; [on_step] is called for every executed
    instruction. *)
let run ?(on_step : (tid:int -> pc:int -> unit) option) (t : t) :
    step_result =
  Dr_obs.Obs.with_span ~cat:"slice-replay" "slice_replay.run" @@ fun sp ->
  let steps = ref 0 and injected = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Dr_obs.Obs.add_attr sp "steps" (Dr_obs.Obs.Int !steps);
      Dr_obs.Obs.add_attr sp "injections" (Dr_obs.Obs.Int !injected))
  @@ fun () ->
  let rec go () =
    match step t with
    | Stepped { tid; pc; _ } ->
      incr steps;
      (match on_step with Some f -> f ~tid ~pc | None -> ());
      if Machine.outcome t.machine <> Machine.Running then
        Finished (Machine.outcome t.machine)
      else go ()
    | Injected _ ->
      incr injected;
      go ()
    | other -> other
  in
  go ()
