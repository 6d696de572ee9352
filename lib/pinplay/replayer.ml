(** The PinPlay replayer: deterministically re-execute a region pinball.

    The replayer restores the snapshot, drives threads with the recorded
    schedule, and feeds syscall results from the log.  Any analysis
    (slicing, relogging) and any debugger interaction attaches to the
    replay via hooks and breakpoints — replaying the same pinball always
    reproduces the same events.

    If the pinball does not match the program (wrong build, perturbed
    log), the replay diverges.  Digest-carrying pinballs localize this:
    the replayer recomputes each sampled {!Exec_digest} and reports the
    first step whose digest disagrees with the recording, instead of
    letting the replay run on into an unrelated failure. *)

open Dr_machine

(** Why a replay left the recorded execution. *)
type divergence =
  | Schedule_divergence of string
      (** the recorded schedule named a blocked/bad thread *)
  | Syscall_log_exhausted of { consumed : int }
      (** the replay asked for more nondet results than were recorded *)
  | Digest_mismatch of { step : int; tid : int; expected : int; got : int }
      (** first sampled digest that disagrees with the recording *)

exception Divergence of divergence

let divergence_message = function
  | Schedule_divergence msg -> msg
  | Syscall_log_exhausted { consumed } ->
    Printf.sprintf "syscall log exhausted after %d results" consumed
  | Digest_mismatch { step; tid; expected; got } ->
    Printf.sprintf
      "first divergence at step %d in thread %d (digest %x, recorded %x)"
      step tid got expected

type t = {
  machine : Machine.t;
  pinball : Pinball.t;
  session : Driver.session;
  syscall_pos : int ref;
  steps0 : int;  (** retired instructions before [session]'s first step *)
  mutable next_digest : int;  (** index of the next pinball digest to check *)
}

(** A mid-replay checkpoint: enough state to resume the {e same} replay
    from this point without re-executing the prefix.  This is the
    "user-level check-pointing" the paper's related-work section proposes
    for reverse debugging (§8).  Unlike a pinball snapshot it carries the
    output printed so far and the outcome, so a resumed replay prints and
    stops as an uninterrupted one does. *)
type checkpoint = {
  c_snapshot : Snapshot.t;
  c_steps : int;
  c_syscall_pos : int;
  c_output : int array;
  c_outcome : Machine.outcome;
}

(** A nondet source that feeds results from a recorded syscall log. *)
let log_nondet (syscalls : int array) (pos : int ref) : Machine.nondet =
  fun _kind ->
    if !pos >= Array.length syscalls then
      raise (Divergence (Syscall_log_exhausted { consumed = !pos }))
    else begin
      let v = syscalls.(!pos) in
      incr pos;
      v
    end

(* the machine at a checkpoint: its snapshot plus the output and outcome
   that the snapshot format leaves out *)
let restore prog (c : checkpoint) =
  let m = Snapshot.restore prog c.c_snapshot in
  Array.iter (Dr_util.Vec.Int_vec.push m.Machine.output) c.c_output;
  m.Machine.outcome <- c.c_outcome;
  m

(* first digest index strictly beyond [steps] retired instructions *)
let digest_index (digests : Pinball.digest array) steps =
  let i = ref 0 in
  while !i < Array.length digests && digests.(!i).Pinball.dg_step <= steps do
    incr i
  done;
  !i

(** Create a replayer for a region pinball, optionally resuming [from] a
    checkpoint taken on an earlier replay of the {e same} pinball.  The
    scripted picker seeks into the recorded schedule in place, so
    resuming costs a snapshot restore, not a copy of the schedule. *)
let create ?(from : checkpoint option) (prog : Dr_isa.Program.t)
    (pinball : Pinball.t) : t =
  if pinball.Pinball.kind <> Pinball.Region then
    invalid_arg "Replayer.create: slice pinballs replay via Dr_exeslice";
  let machine, steps, sys0 =
    match from with
    | None -> (Snapshot.restore prog pinball.Pinball.snapshot, 0, 0)
    | Some c -> (restore prog c, c.c_steps, c.c_syscall_pos)
  in
  let syscall_pos = ref sys0 in
  let nondet = log_nondet pinball.Pinball.syscalls syscall_pos in
  let policy =
    Driver.Scripted { schedule = pinball.Pinball.schedule; start = steps }
  in
  let session = Driver.session ~nondet machine policy in
  { machine; pinball; session; syscall_pos; steps0 = steps;
    next_digest = digest_index pinball.Pinball.digests steps }

let machine t = t.machine

(* the driver's count, not [Machine.total_icount]: a faulting instruction
   is a step of the recorded schedule but does not retire in the machine *)
let steps t = t.steps0 + t.session.Driver.retired

(** Capture a checkpoint at the current replay position (must be between
    instructions, i.e. not from inside a hook that mutates state). *)
let checkpoint (t : t) : checkpoint =
  { c_snapshot = Snapshot.capture t.machine; c_steps = steps t;
    c_syscall_pos = !(t.syscall_pos);
    c_output = Dr_util.Vec.Int_vec.to_array t.machine.Machine.output;
    c_outcome = Machine.outcome t.machine }

(* The step of the next recorded digest still ahead of the replay, or -1.
   A digest at or behind the replay position was skipped by a seek, or
   is out of order; either way it is never checked, and it hides the
   digests after it. *)
let digest_target (t : t) =
  let digests = t.pinball.Pinball.digests in
  if t.next_digest < Array.length digests
     && digests.(t.next_digest).Pinball.dg_step > steps t
  then digests.(t.next_digest).Pinball.dg_step
  else -1

(* Recompute the digest of the step the replay just retired (the
   machine's scratch event) and compare it with the recording. *)
let check_digest (t : t) =
  let dg = t.pinball.Pinball.digests.(t.next_digest) in
  t.next_digest <- t.next_digest + 1;
  let ev = t.machine.Machine.ev in
  let got = Exec_digest.hash t.machine ev ~step:dg.Pinball.dg_step in
  if ev.Event.tid <> dg.Pinball.dg_tid || got <> dg.Pinball.dg_hash then
    raise
      (Divergence
         (Digest_mismatch
            { step = dg.Pinball.dg_step; tid = ev.Event.tid;
              expected = dg.Pinball.dg_hash; got }))

(** Resume replay until a stop condition (breakpoint, predicate,
    [max_steps]) or the end of the recorded region ([Schedule_end]).  The
    driver runs in chunks that end at the next recorded digest step,
    where the digest is checked against the step just retired. *)
let resume ?hooks ?(max_steps = max_int) ?break_at ?stop_when (t : t) :
    Driver.stop_reason =
  let steps0 = steps t in
  let rec go () =
    let left = max_steps - (steps t - steps0) and target = digest_target t in
    let chunk = if target >= 0 then min left (target - steps t) else left in
    let reason =
      Driver.resume ?hooks ~max_steps:chunk ?break_at ?stop_when t.session
    in
    if steps t = target then check_digest t;
    match reason with
    | Driver.Max_steps when steps t - steps0 < max_steps -> go ()
    | reason -> reason
  in
  Dr_obs.Obs.with_span ~cat:"replay" "replayer.resume" @@ fun sp ->
  Fun.protect
    ~finally:(fun () ->
      Dr_obs.Obs.add_attr sp "steps" (Dr_obs.Obs.Int (steps t - steps0)))
    (fun () ->
      try go ()
      with Driver.Replay_divergence msg ->
        raise (Divergence (Schedule_divergence msg)))

(** Replay the whole region in one go. *)
let run ?hooks (t : t) : Driver.stop_reason = resume ?hooks t

(** Convenience: replay a pinball against [prog] and return the machine's
    final state together with the stop reason. *)
let replay ?hooks prog pinball =
  let t = create prog pinball in
  let reason = run ?hooks t in
  (t.machine, reason)
