(** Scheduling drivers for the virtual machine.

    A driver repeatedly picks a runnable thread and steps it.  Policies:

    - {!Round_robin}: fixed quantum, deterministic given the program.
    - {!Seeded}: pseudo-random thread and quantum from a seed — the
      "native" non-deterministic schedule; different seeds give the
      run-to-run variation that makes cyclic debugging hard (paper §1).
    - {!Scripted}: replay of a recorded schedule (RLE array of
      [(tid, retired-instruction count)] slices), starting [start]
      retired instructions in; divergence raises.
    - {!Custom}: externally controlled — used by Maple's active scheduler
      and by the interactive debugger. *)

type policy =
  | Round_robin of { quantum : int }
  | Seeded of { seed : int; max_quantum : int }
  | Scripted of { schedule : (int * int) array; start : int }
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

(* Pick the next runnable tid at or after [start mod n], wrapping. *)
let next_runnable m start =
  let n = Machine.num_threads m in
  let rec go i k =
    if k = 0 then None
    else if (Machine.thread m i).Machine.state = Machine.Runnable then Some i
    else go ((i + 1) mod n) (k - 1)
  in
  go (((start mod n) + n) mod n) n

(* A picker returns the tid to step next, or None for "no runnable thread"
   (deadlock, or schedule exhausted for scripted picks). *)
let make_picker policy =
  match policy with
  | Round_robin { quantum } ->
    let left = ref quantum in
    fun m ~last ->
      let start = if !left <= 0 then last + 1 else last in
      let chosen = next_runnable m start in
      (match chosen with
      | Some t ->
        if t <> last || !left <= 0 then left := quantum;
        decr left
      | None -> ());
      chosen
  | Seeded { seed; max_quantum } ->
    let rng = Random.State.make [| seed; 0x5eed |] in
    let left = ref 0 and cur = ref (-1) in
    fun m ~last ->
      ignore last;
      let cur_ok =
        !cur >= 0 && !left > 0
        && !cur < Machine.num_threads m
        && (Machine.thread m !cur).Machine.state = Machine.Runnable
      in
      if cur_ok then begin
        decr left;
        Some !cur
      end
      else
        let n = Machine.num_threads m in
        (match next_runnable m (Random.State.int rng n) with
        | None -> None
        | Some t ->
          cur := t;
          left := 1 + Random.State.int rng (max max_quantum 1);
          Some t)
  | Scripted { schedule = sched; start } ->
    (* seek: the (entry, remaining) cursor [start] instructions in, found
       by one scan over the counts — the schedule itself is not copied *)
    let pos = ref 0 and left = ref 0 and skip = ref start in
    while !pos < Array.length sched && !skip >= snd sched.(!pos) do
      skip := !skip - snd sched.(!pos);
      incr pos
    done;
    if !skip > 0 && !pos < Array.length sched then
      left := snd sched.(!pos) - !skip;
    fun _m ~last ->
      ignore last;
      (* advance past empty slices *)
      while !left = 0 && !pos < Array.length sched do
        let _, cnt = sched.(!pos) in
        if cnt = 0 then incr pos else left := cnt
      done;
      if !left = 0 then None
      else begin
        let tid, _ = sched.(!pos) in
        decr left;
        if !left = 0 then incr pos;
        Some tid
      end
  | Custom f -> f

(** A resumable scheduling session: the picker's state (round-robin
    rotation, PRNG, script cursor) persists across {!resume} calls, so a
    debugger can stop at a breakpoint and continue as if uninterrupted. *)
type session = {
  m : Machine.t;
  nondet : Machine.nondet;
  pick : Machine.t -> last:int -> int option;
  scripted : bool;
  mutable last : int;
  mutable pending : int option;
      (** the tid picked when a breakpoint stopped the run: the picker
          has already spent that slot, so the next {!resume} steps this
          tid instead of picking again *)
}

let session ?(nondet : Machine.nondet option) (m : Machine.t) (policy : policy)
    : session =
  let nondet = match nondet with Some f -> f | None -> Machine.native_nondet m in
  let scripted = match policy with Scripted _ -> true | _ -> false in
  { m; nondet; pick = make_picker policy; scripted; last = 0; pending = None }

(** Run the session until a stop condition.

    [break_at] is consulted {e before} executing an instruction
    (breakpoint semantics); [stop_when] is consulted on the event {e
    after} each retired instruction.  [max_steps] bounds retired
    instructions across all threads.  A breakpoint stop keeps the thread
    it picked, so the next call resumes with that thread (testing
    [break_at] on it again) and the schedule stays in step.  For scripted
    policies, scheduling a blocked thread or a bad tid raises
    {!Replay_divergence}: a correct pinball never does this. *)
let resume ?(hooks = no_hooks) ?(max_steps = max_int)
    ?(break_at : (tid:int -> pc:int -> bool) option)
    ?(stop_when : (Event.t -> bool) option) (s : session) : stop_reason =
  let { m; nondet; pick; scripted; _ } = s in
  let last = ref s.last in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    if Machine.outcome m <> Machine.Running then
      result := Some (Terminated (Machine.outcome m))
    else if !steps >= max_steps then result := Some Max_steps
    else
      let picked =
        match s.pending with
        | Some _ as p ->
          s.pending <- None;
          p
        | None -> pick m ~last:!last
      in
      match picked with
      | None ->
        if scripted then result := Some Schedule_end
        else if Machine.all_finished m then
          (* every thread returned; no explicit halt was executed *)
          result := Some (Terminated (Machine.Exited 0))
        else result := Some Deadlock
      | Some tid ->
        if tid < 0 || tid >= Machine.num_threads m then
          if scripted then
            raise (Replay_divergence (Printf.sprintf "schedule names bad tid %d" tid))
          else invalid_arg "Driver.run: picker returned bad tid"
        else begin
          let th = Machine.thread m tid in
          if th.Machine.state <> Machine.Runnable then begin
            if scripted then
              raise
                (Replay_divergence
                   (Printf.sprintf "scheduled tid %d not runnable at pc %d" tid
                      th.Machine.pc))
            else result := Some Deadlock
          end
          else begin
            match break_at with
            | Some f when f ~tid ~pc:th.Machine.pc ->
              s.pending <- Some tid;
              result := Some (Breakpoint { tid; pc = th.Machine.pc })
            | _ ->
              let ev = Machine.step m ~tid ~nondet in
              last := tid;
              if ev.Event.retired then begin
                incr steps;
                hooks.on_event ev;
                (match stop_when with
                | Some f when f ev -> result := Some Stop_requested
                | _ -> ());
                match Machine.outcome m with
                | Machine.Running -> ()
                | o -> if !result = None then result := Some (Terminated o)
              end
              else if scripted then
                raise
                  (Replay_divergence
                     (Printf.sprintf "scheduled tid %d blocked at pc %d" tid
                        th.Machine.pc))
          end
        end
  done;
  s.last <- !last;
  Option.get !result

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
