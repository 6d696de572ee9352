(** Scheduling drivers for the virtual machine.

    A driver asks its policy for a {e run} (a runnable thread and how
    many steps it keeps the processor) and steps that thread until the
    run is spent or the thread stops being runnable.  Policies:

    - {!Round_robin}: runs of a fixed quantum in tid order,
      deterministic given the program.
    - {!Seeded}: pseudo-random thread and run length from a seed — the
      "native" non-deterministic schedule; different seeds give the
      run-to-run variation that makes cyclic debugging hard (paper §1).
    - {!Scripted}: replay of a recorded {!Schedule}, starting [start]
      retired instructions in; divergence raises.
    - {!Custom}: externally controlled, one step per run — used by
      Maple's active scheduler and the conformance schedules. *)

type policy =
  | Round_robin of { quantum : int }
  | Seeded of { seed : int; max_quantum : int }
  | Scripted of { schedule : Schedule.t; start : int }
  | Custom of (Machine.t -> last:int -> int option)

type stop_reason =
  | Terminated of Machine.outcome  (** exited / assert / fault *)
  | Deadlock  (** live threads, none runnable *)
  | Max_steps
  | Schedule_end  (** scripted schedule exhausted *)
  | Breakpoint of { tid : int; pc : int }
  | Stop_requested  (** [stop_when] hook fired *)

exception Replay_divergence of string

type hooks = { on_event : Event.t -> unit }

let no_hooks = { on_event = (fun _ -> ()) }

(** The next runnable tid at or after [start mod n], wrapping; -1 when no
    thread is runnable. *)
let next_runnable m start =
  let n = Machine.num_threads m in
  let i = ref (((start mod n) + n) mod n) and k = ref n and found = ref (-1) in
  while !found < 0 && !k > 0 do
    (match (Machine.thread m !i).Machine.state with
    | Machine.Runnable -> found := !i
    | _ -> i := (!i + 1) mod n);
    decr k
  done;
  !found

(* A picker's own state; the run it hands out lives in the session. *)
type picker =
  | Pick_round_robin of int  (** quantum, at least 1 *)
  | Pick_seeded of { rng : Random.State.t; max_quantum : int }
  | Pick_scripted of { schedule : Schedule.t; mutable pos : int }
      (** [pos]: the next run to hand out *)
  | Pick_custom of (Machine.t -> last:int -> int option)

(** A resumable scheduling session.  A picker hands out {e runs}: a
    thread and how many steps it keeps the processor ([run_tid],
    [run_left]).  The run cursor and the picker's state (round-robin
    rotation, PRNG, script position) persist across {!resume} calls, so
    a debugger can stop anywhere, including at a breakpoint in the
    middle of a run, and continue as if uninterrupted. *)
type session = {
  m : Machine.t;
  nondet : Machine.nondet;
  picker : picker;
  mutable last : int;  (** thread of the last step *)
  mutable run_tid : int;
  mutable run_left : int;  (** steps left in the run; 0 = pick a new run *)
  mutable retired : int;  (** retired steps over all resumes *)
}

let session ?(nondet : Machine.nondet option) (m : Machine.t) (policy : policy)
    : session =
  let nondet = match nondet with Some f -> f | None -> Machine.native_nondet m in
  let s picker ~run_tid ~run_left =
    { m; nondet; picker; last = 0; run_tid; run_left; retired = 0 }
  in
  match policy with
  | Round_robin { quantum } ->
    (* the first run belongs to thread 0, as if it had just been picked *)
    s (Pick_round_robin (max quantum 1)) ~run_tid:0 ~run_left:(max quantum 0)
  | Seeded { seed; max_quantum } ->
    s
      (Pick_seeded
         { rng = Random.State.make [| seed; 0x5eed |];
           max_quantum = max max_quantum 1 })
      ~run_tid:0 ~run_left:0
  | Scripted { schedule; start } ->
    (* seek: the run and remainder [start] instructions in, found by one
       scan over the counts; the schedule itself is not copied *)
    let n = Schedule.length schedule in
    let pos = ref 0 and skip = ref start in
    while !pos < n && !skip >= Schedule.count schedule !pos do
      skip := !skip - Schedule.count schedule !pos;
      incr pos
    done;
    if !skip > 0 && !pos < n then
      s (Pick_scripted { schedule; pos = !pos + 1 })
        ~run_tid:(Schedule.tid schedule !pos)
        ~run_left:(Schedule.count schedule !pos - !skip)
    else s (Pick_scripted { schedule; pos = !pos }) ~run_tid:0 ~run_left:0
  | Custom f -> s (Pick_custom f) ~run_tid:0 ~run_left:0

(* Hand out the next run into [s.run_tid]/[s.run_left]; [run_tid] is -1
   when there is none (deadlock, or the script is exhausted). *)
let pick_run s =
  let m = s.m in
  match s.picker with
  | Pick_round_robin quantum ->
    (* the current thread keeps its quantum only if it is picked again
       mid-run; anything else starts a fresh quantum *)
    let t = next_runnable m (if s.run_left <= 0 then s.last + 1 else s.last) in
    if t >= 0 && (t <> s.last || s.run_left <= 0) then s.run_left <- quantum;
    s.run_tid <- t
  | Pick_seeded { rng; max_quantum } ->
    let t = next_runnable m (Random.State.int rng (Machine.num_threads m)) in
    s.run_tid <- t;
    (* 2 + a draw below [max_quantum] steps: recorded seeded schedules
       depend on this length, and test_pinplay's golden CRCs pin it *)
    if t >= 0 then s.run_left <- 2 + Random.State.int rng max_quantum
  | Pick_scripted p ->
    let sched = p.schedule in
    let n = Schedule.length sched in
    while p.pos < n && Schedule.count sched p.pos <= 0 do
      p.pos <- p.pos + 1
    done;
    if p.pos >= n then s.run_tid <- -1
    else begin
      s.run_tid <- Schedule.tid sched p.pos;
      s.run_left <- Schedule.count sched p.pos;
      p.pos <- p.pos + 1
    end
  | Pick_custom f -> (
    match f m ~last:s.last with
    | Some t ->
      s.run_tid <- t;
      s.run_left <- 1
    | None -> s.run_tid <- -1)

let breakpoint_at bs pc =
  pc >= 0 && pc < Dr_util.Bitset.length bs && Dr_util.Bitset.mem bs pc

let divergence fmt =
  Printf.ksprintf (fun msg -> raise (Replay_divergence msg)) fmt

(** Run the session until a stop condition.

    [break_at] holds the breakpoint pcs, tested {e before} executing an
    instruction; [stop_when] is consulted on the event {e after} each
    retired instruction.  [max_steps] bounds retired instructions across
    all threads.  A breakpoint stop leaves the run cursor as it was, so
    the next call steps the same thread (testing [break_at] on it again)
    and the schedule stays in step.  For scripted policies, scheduling a
    blocked thread or a bad tid raises {!Replay_divergence}: a correct
    pinball never does this. *)
let resume ?(hooks = no_hooks) ?(max_steps = max_int)
    ?(break_at : Dr_util.Bitset.t option)
    ?(stop_when : (Event.t -> bool) option) (s : session) : stop_reason =
  let m = s.m and nondet = s.nondet and on_event = hooks.on_event in
  let scripted = match s.picker with Pick_scripted _ -> true | _ -> false in
  let retired0 = s.retired in
  (* one step of the run's thread [th], which is runnable *)
  let rec step (th : Machine.thread) =
    let tid = th.Machine.tid and pc = th.Machine.pc in
    match break_at with
    | Some bs when breakpoint_at bs pc -> Breakpoint { tid; pc }
    | _ ->
      let ev = Machine.step m ~tid ~nondet in
      s.run_left <- s.run_left - 1;
      s.last <- tid;
      if ev.Event.retired then begin
        s.retired <- s.retired + 1;
        on_event ev;
        match stop_when with
        | Some f when f ev -> Stop_requested
        | _ -> loop ()
      end
      else if scripted then
        divergence "scheduled tid %d blocked at pc %d" tid pc
      else loop ()
  and loop () =
    match Machine.outcome m with
    | Machine.Running ->
      if s.retired - retired0 >= max_steps then Max_steps
      else if s.run_left > 0 then continue_run ~picked:false
      else new_run ()
    | o -> Terminated o
  and new_run () =
    pick_run s;
    let tid = s.run_tid in
    if tid < 0 then begin
      s.run_left <- 0;
      if scripted then Schedule_end
      else if Machine.all_finished m then
        (* every thread returned; no explicit halt was executed *)
        Terminated (Machine.Exited 0)
      else Deadlock
    end
    else if tid >= Machine.num_threads m then
      if scripted then divergence "schedule names bad tid %d" tid
      else invalid_arg "Driver.run: picker returned bad tid"
    else continue_run ~picked:true
  (* the run's thread steps if it is runnable; a run cut short by its
     thread blocking or finishing gives way to a new pick *)
  and continue_run ~picked =
    let th = Machine.thread m s.run_tid in
    match th.Machine.state with
    | Machine.Runnable -> step th
    | _ when scripted ->
      divergence "scheduled tid %d not runnable at pc %d" th.Machine.tid
        th.Machine.pc
    | _ when picked ->
      s.run_left <- 0;
      Deadlock
    | _ -> new_run ()
  in
  loop ()

(** One-shot convenience: create a session and run it to the first stop. *)
let run ?nondet ?hooks ?max_steps ?break_at ?stop_when (m : Machine.t)
    (policy : policy) : stop_reason =
  resume ?hooks ?max_steps ?break_at ?stop_when (session ?nondet m policy)

let pp_stop_reason fmt = function
  | Terminated o -> Format.fprintf fmt "terminated: %a" Machine.pp_outcome o
  | Deadlock -> Format.pp_print_string fmt "deadlock"
  | Max_steps -> Format.pp_print_string fmt "max steps reached"
  | Schedule_end -> Format.pp_print_string fmt "schedule exhausted"
  | Breakpoint { tid; pc } -> Format.fprintf fmt "breakpoint [tid=%d pc=%d]" tid pc
  | Stop_requested -> Format.pp_print_string fmt "stop requested"
