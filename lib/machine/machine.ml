(** The DrDebug virtual machine: a word-addressed memory shared by
    simulated threads, executed one instruction at a time.

    The machine itself is {e sequentially consistent and deterministic}:
    all non-determinism lives in (a) which thread the driver chooses to
    step next and (b) the results of the [rand]/[time]/[read] syscalls,
    supplied by a [nondet] callback.  This factoring is what makes
    PinPlay-style record/replay possible: the logger records exactly those
    two inputs, and the replayer feeds them back. *)

open Dr_isa

type thread_state =
  | Runnable
  | Blocked_lock of int  (** waiting to acquire the mutex at this address *)
  | Blocked_join of int  (** waiting for this thread to finish *)
  | Blocked_cond of int  (** waiting on the condition variable at this address *)
  | Finished

type thread = {
  tid : int;
  mutable pc : int;
  regs : int array;  (** [Reg.file_size] slots; flags at index 16 *)
  mutable state : thread_state;
  mutable icount : int;  (** retired instructions *)
  mutable wait_reacquire : int;
      (** mutex address this thread must reacquire to finish a [wait],
          or -1; see the Wait syscall *)
}

type outcome =
  | Running
  | Exited of int
  | Assert_failed of { tid : int; pc : int; msg : string }
  | Fault of { tid : int; pc : int; msg : string }

type nondet = Event.nondet_kind -> int

type t = {
  prog : Program.t;
  mem : int array;
  mutable threads : thread array;
  mutable nthreads : int;
  locks : (int, int) Hashtbl.t;  (** mutex address -> owner tid *)
  mutable heap_ptr : int;
  mutable outcome : outcome;
  output : Dr_util.Vec.Int_vec.t;  (** words printed by [sys print] *)
  mutable input : int array;
  mutable input_pos : int;
  mutable total_icount : int;
  ev : Event.t;  (** scratch event, filled by [step] *)
}

let ret_sentinel = -1

let heap_limit t =
  t.prog.Program.mem_size - (t.prog.Program.max_threads * t.prog.Program.stack_words)

let make_thread prog ~tid ~pc ~arg mem =
  let regs = Array.make Reg.file_size 0 in
  let base = Program.stack_base prog ~tid in
  let sp = base - 1 in
  mem.(sp) <- ret_sentinel;
  regs.(Reg.sp) <- sp;
  regs.(Reg.fp) <- sp;
  regs.(Reg.r1) <- arg;
  { tid; pc; regs; state = Runnable; icount = 0; wait_reacquire = -1 }

let create ?(input = [||]) prog =
  let mem = Array.make prog.Program.mem_size 0 in
  List.iter (fun (a, v) -> mem.(a) <- v) prog.Program.data;
  let main = make_thread prog ~tid:0 ~pc:prog.Program.entry ~arg:0 mem in
  { prog; mem;
    threads = Array.make prog.Program.max_threads main;
    nthreads = 1;
    locks = Hashtbl.create 7;
    heap_ptr = prog.Program.data_end;
    outcome = Running;
    output = Dr_util.Vec.Int_vec.create ();
    input; input_pos = 0;
    total_icount = 0;
    ev = Event.create () }

let outcome t = t.outcome
let num_threads t = t.nthreads
let total_icount t = t.total_icount

let thread t tid =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Machine.thread";
  t.threads.(tid)

let threads t = Array.sub t.threads 0 t.nthreads

let output_list t = Dr_util.Vec.Int_vec.to_list t.output

let next_input t =
  if t.input_pos < Array.length t.input then begin
    let v = t.input.(t.input_pos) in
    t.input_pos <- t.input_pos + 1;
    v
  end
  else -1

(** A native [nondet] source: seeded PRNG for [rand], the retired
    instruction count for [time], the machine's input stream for [read]. *)
let native_nondet ?(seed = 42) t : nondet =
  let rng = Random.State.make [| seed |] in
  fun kind ->
    match kind with
    | Event.Rand -> Random.State.int rng 0x3FFFFFFF
    | Event.Time -> t.total_icount
    | Event.Read -> next_input t

let all_finished t =
  let ok = ref true in
  for tid = 0 to t.nthreads - 1 do
    match t.threads.(tid).state with Finished -> () | _ -> ok := false
  done;
  !ok

(* ---- memory helpers ---- *)

exception Trap of string

let mem_load t th addr (ev : Event.t) =
  if addr < 0 || addr >= Array.length t.mem then
    raise (Trap (Printf.sprintf "load out of bounds: %d" addr));
  let v = t.mem.(addr) in
  ev.mem_read <- addr;
  ev.mem_read_value <- v;
  ignore th;
  v

let mem_store t th addr v (ev : Event.t) =
  if addr < 0 || addr >= Array.length t.mem then
    raise (Trap (Printf.sprintf "store out of bounds: %d" addr));
  t.mem.(addr) <- v;
  ev.mem_write <- addr;
  ev.mem_write_value <- v;
  ignore th

let operand_value th = function
  | Instr.Reg r -> th.regs.(r)
  | Instr.Imm n -> n

(* ---- syscall execution ---- *)

let do_spawn t th (ev : Event.t) =
  let fn = th.regs.(Reg.r1) and arg = th.regs.(Reg.r2) in
  if t.nthreads >= t.prog.Program.max_threads then
    raise (Trap "spawn: too many threads");
  if fn < 0 || fn >= Array.length t.prog.Program.code then
    raise (Trap (Printf.sprintf "spawn: bad entry pc %d" fn));
  let tid = t.nthreads in
  let child = make_thread t.prog ~tid ~pc:fn ~arg t.mem in
  t.threads.(tid) <- child;
  t.nthreads <- t.nthreads + 1;
  th.regs.(Reg.r0) <- tid;
  ev.sys <- Event.Sys_spawn { child = tid; child_pc = fn; arg }

let wake_joiners t ~finished_tid =
  for i = 0 to t.nthreads - 1 do
    match t.threads.(i).state with
    | Blocked_join target when target = finished_tid ->
      t.threads.(i).state <- Runnable
    | _ -> ()
  done

let finish_thread t th =
  th.state <- Finished;
  wake_joiners t ~finished_tid:th.tid

let do_syscall t th sys nondet (ev : Event.t) =
  match sys with
  | Instr.Exit ->
    let status = th.regs.(Reg.r1) in
    t.outcome <- Exited status;
    ev.sys <- Event.Sys_exit status
  | Instr.Print ->
    let v = th.regs.(Reg.r1) in
    Dr_util.Vec.Int_vec.push t.output v;
    ev.sys <- Event.Sys_print v
  | Instr.Rand ->
    let v = nondet Event.Rand in
    th.regs.(Reg.r0) <- v;
    ev.sys <- Event.Sys_nondet { kind = Event.Rand; result = v }
  | Instr.Time ->
    let v = nondet Event.Time in
    th.regs.(Reg.r0) <- v;
    ev.sys <- Event.Sys_nondet { kind = Event.Time; result = v }
  | Instr.Read ->
    let v = nondet Event.Read in
    th.regs.(Reg.r0) <- v;
    ev.sys <- Event.Sys_nondet { kind = Event.Read; result = v }
  | Instr.Spawn -> do_spawn t th ev
  | Instr.Join ->
    let target = th.regs.(Reg.r1) in
    if target < 0 || target >= t.nthreads then
      raise (Trap (Printf.sprintf "join: bad tid %d" target))
    else begin
      match t.threads.(target).state with
      | Finished ->
        th.regs.(Reg.r0) <- 0;
        ev.sys <- Event.Sys_join { target; blocked = false }
      | _ ->
        th.state <- Blocked_join target;
        ev.retired <- false;
        ev.sys <- Event.Sys_join { target; blocked = true }
    end
  | Instr.Lock ->
    let addr = th.regs.(Reg.r1) in
    if addr < 0 || addr >= Array.length t.mem then raise (Trap "lock: bad address");
    (match Hashtbl.find_opt t.locks addr with
    | None ->
      Hashtbl.replace t.locks addr th.tid;
      ev.sys <- Event.Sys_lock { addr; acquired = true }
    | Some owner when owner = th.tid -> raise (Trap "lock: not reentrant")
    | Some _ ->
      th.state <- Blocked_lock addr;
      ev.retired <- false;
      ev.sys <- Event.Sys_lock { addr; acquired = false })
  | Instr.Unlock ->
    let addr = th.regs.(Reg.r1) in
    (match Hashtbl.find_opt t.locks addr with
    | Some owner when owner = th.tid ->
      Hashtbl.remove t.locks addr;
      for i = 0 to t.nthreads - 1 do
        match t.threads.(i).state with
        | Blocked_lock a when a = addr -> t.threads.(i).state <- Runnable
        | _ -> ()
      done;
      ev.sys <- Event.Sys_unlock { addr }
    | _ -> raise (Trap "unlock: lock not held by this thread"))
  | Instr.Yield -> ev.sys <- Event.Sys_yield
  | Instr.Wait ->
    (* Two-phase, both visible in the schedule so replay is sound:
       phase 1 RETIRES without advancing the pc — it releases the mutex
       and blocks the thread on the condvar (the retirement places the
       block in the recorded schedule before the waking signal); after a
       signal wakes the thread, phase 2 re-executes the instruction to
       reacquire the mutex, blocking like a contended lock (convergent
       under scripted replay). *)
    if th.wait_reacquire >= 0 then begin
      let mutex = th.wait_reacquire in
      match Hashtbl.find_opt t.locks mutex with
      | None ->
        Hashtbl.replace t.locks mutex th.tid;
        th.wait_reacquire <- -1;
        ev.sys <- Event.Sys_lock { addr = mutex; acquired = true }
      | Some _ ->
        th.state <- Blocked_lock mutex;
        ev.retired <- false;
        ev.sys <- Event.Sys_lock { addr = mutex; acquired = false }
    end
    else begin
      let cond = th.regs.(Reg.r1) and mutex = th.regs.(Reg.r2) in
      if cond < 0 || cond >= Array.length t.mem then raise (Trap "wait: bad condvar");
      (match Hashtbl.find_opt t.locks mutex with
      | Some owner when owner = th.tid -> Hashtbl.remove t.locks mutex
      | _ -> raise (Trap "wait: mutex not held by this thread"));
      (* waking lock-blocked threads now that the mutex is free *)
      for i = 0 to t.nthreads - 1 do
        match t.threads.(i).state with
        | Blocked_lock a when a = mutex -> t.threads.(i).state <- Runnable
        | _ -> ()
      done;
      th.wait_reacquire <- mutex;
      th.state <- Blocked_cond cond;
      (* phase 1 retires in place: pc stays at the wait instruction *)
      ev.next_pc <- th.pc;
      ev.sys <- Event.Sys_wait { cond; mutex }
    end
  | Instr.Signal | Instr.Broadcast ->
    let cond = th.regs.(Reg.r1) in
    let all = sys = Instr.Broadcast in
    let woken = ref 0 in
    (* wake in tid order: deterministic given machine state *)
    for i = 0 to t.nthreads - 1 do
      match t.threads.(i).state with
      | Blocked_cond a when a = cond && (all || !woken = 0) ->
        t.threads.(i).state <- Runnable;
        incr woken
      | _ -> ()
    done;
    ev.sys <- Event.Sys_signal { cond; woken = !woken; broadcast = all }
  | Instr.Alloc ->
    let words = th.regs.(Reg.r1) in
    if words < 0 then raise (Trap "alloc: negative size");
    if t.heap_ptr + words > heap_limit t then raise (Trap "alloc: out of memory");
    th.regs.(Reg.r0) <- t.heap_ptr;
    ev.sys <- Event.Sys_alloc { addr = t.heap_ptr; words };
    t.heap_ptr <- t.heap_ptr + words

(* ---- the interpreter ---- *)

(** Execute one instruction of thread [tid].  Returns the machine's scratch
    {!Event.t} describing what happened; [ev.retired = false] means the
    instruction blocked (lock/join) and did not retire — the thread is now
    blocked and must not be stepped until woken.  Raises [Invalid_argument]
    if the thread is not runnable or the machine has terminated. *)
let step t ~tid ~(nondet : nondet) : Event.t =
  (match t.outcome with
   | Running -> () | _ -> invalid_arg "Machine.step: not running");
  let th = thread t tid in
  (match th.state with
   | Runnable -> () | _ -> invalid_arg "Machine.step: thread not runnable");
  let pc = th.pc in
  let ev = t.ev in
  let code = t.prog.Program.code in
  (if pc < 0 || pc >= Array.length code then begin
     Event.reset ev ~tid ~pc ~instr:Instr.Nop;
     t.outcome <- Fault { tid; pc; msg = Printf.sprintf "pc out of code: %d" pc }
   end
   else
    let instr = Array.unsafe_get code pc in
    Event.reset ev ~tid ~pc ~instr;
    try
      (match instr with
      | Instr.Nop -> ()
      | Instr.Halt -> t.outcome <- Exited 0
      | Instr.Mov (rd, op) -> th.regs.(rd) <- operand_value th op
      | Instr.Bin (b, rd, rs, op) ->
        th.regs.(rd) <- Instr.eval_binop b th.regs.(rs) (operand_value th op)
      | Instr.Load (rd, rb, off) ->
        th.regs.(rd) <- mem_load t th (th.regs.(rb) + off) ev
      | Instr.Store (rb, off, rs) ->
        mem_store t th (th.regs.(rb) + off) th.regs.(rs) ev
      | Instr.Push r ->
        let sp = th.regs.(Reg.sp) - 1 in
        mem_store t th sp th.regs.(r) ev;
        th.regs.(Reg.sp) <- sp
      | Instr.Pop r ->
        let sp = th.regs.(Reg.sp) in
        th.regs.(r) <- mem_load t th sp ev;
        th.regs.(Reg.sp) <- sp + 1
      | Instr.Cmp (r, op) ->
        th.regs.(Reg.flags) <- Instr.eval_cmp th.regs.(r) (operand_value th op)
      | Instr.Setcc (c, rd) ->
        th.regs.(rd) <- (if Instr.eval_cond c th.regs.(Reg.flags) then 1 else 0)
      | Instr.Jmp target -> ev.next_pc <- target
      | Instr.Jcc (c, target) ->
        if Instr.eval_cond c th.regs.(Reg.flags) then begin
          ev.branch_taken <- true;
          ev.next_pc <- target
        end
      | Instr.Jind r ->
        ev.branch_taken <- true;
        ev.next_pc <- th.regs.(r)
      | Instr.Call target ->
        let sp = th.regs.(Reg.sp) - 1 in
        mem_store t th sp (pc + 1) ev;
        th.regs.(Reg.sp) <- sp;
        ev.next_pc <- target
      | Instr.Callind r ->
        let sp = th.regs.(Reg.sp) - 1 in
        mem_store t th sp (pc + 1) ev;
        th.regs.(Reg.sp) <- sp;
        ev.next_pc <- th.regs.(r)
      | Instr.Ret ->
        let sp = th.regs.(Reg.sp) in
        let ra = mem_load t th sp ev in
        th.regs.(Reg.sp) <- sp + 1;
        if ra = ret_sentinel then begin
          ev.next_pc <- pc;
          if tid = 0 then t.outcome <- Exited th.regs.(Reg.r0)
          else finish_thread t th
        end
        else ev.next_pc <- ra
      | Instr.Sys sys -> do_syscall t th sys nondet ev
      | Instr.Assert (r, msg_idx) ->
        if th.regs.(r) = 0 then
          t.outcome <-
            Assert_failed { tid; pc; msg = Program.string_at t.prog msg_idx });
      (* Validate control-flow targets eagerly so bad jumps fault at the
         jump, not at the next fetch. *)
      match t.outcome with
      | Running
        when ev.retired && (ev.next_pc < 0 || ev.next_pc > Array.length code) ->
        t.outcome <- Fault { tid; pc; msg = Printf.sprintf "bad jump target %d" ev.next_pc }
      | _ -> ()
    with
    | Trap msg -> t.outcome <- Fault { tid; pc; msg }
    | Division_by_zero -> t.outcome <- Fault { tid; pc; msg = "division by zero" }
    | Invalid_argument m -> t.outcome <- Fault { tid; pc; msg = "invalid: " ^ m });
  if ev.retired then begin
    (match t.outcome with
    | Fault _ -> ()
    | _ ->
      th.pc <- ev.next_pc;
      th.icount <- th.icount + 1;
      t.total_icount <- t.total_icount + 1)
  end;
  ev

let pp_outcome fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Exited n -> Format.fprintf fmt "exited(%d)" n
  | Assert_failed { tid; pc; msg } ->
    Format.fprintf fmt "assertion failed [tid=%d pc=%d]: %s" tid pc msg
  | Fault { tid; pc; msg } -> Format.fprintf fmt "fault [tid=%d pc=%d]: %s" tid pc msg
