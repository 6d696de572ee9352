(** Instruction set of the DrDebug virtual machine.

    The ISA is deliberately shaped like the subset of x86 the paper's
    algorithms care about: explicit flags, a downward-growing stack with
    [push]/[pop], direct and {e indirect} jumps (the latter produced by
    [switch] jump tables and the source of CFG imprecision, §5.1), and
    call/ret with return addresses on the stack. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cond = Eq | Ne | Lt | Le | Gt | Ge

type operand = Reg of Reg.t | Imm of int

(** Non-deterministic or OS-level operations, modelled as syscalls.  The
    results of [Rand], [Time] and [Read] are non-deterministic and are
    captured in pinballs by the PinPlay logger. *)
type syscall =
  | Exit  (** terminate the program; status in [r1] *)
  | Print  (** append [r1] to the program output stream *)
  | Rand  (** [r0 <- ] fresh random value (non-deterministic) *)
  | Time  (** [r0 <- ] current "time" (non-deterministic) *)
  | Read  (** [r0 <- ] next input word (non-deterministic) *)
  | Spawn  (** [r0 <- ] new tid; thread starts at pc [r1] with arg [r2] *)
  | Join  (** block until thread [r1] finishes *)
  | Lock  (** acquire mutex at address [r1] (blocking) *)
  | Unlock  (** release mutex at address [r1] *)
  | Yield  (** scheduling hint; no architectural effect *)
  | Alloc  (** [r0 <- ] fresh heap block of [r1] words *)
  | Wait  (** wait on condvar [r1], atomically releasing mutex [r2];
              reacquires the mutex before returning *)
  | Signal  (** wake one waiter of condvar [r1] *)
  | Broadcast  (** wake all waiters of condvar [r1] *)

type t =
  | Mov of Reg.t * operand  (** [rd <- op] *)
  | Bin of binop * Reg.t * Reg.t * operand  (** [rd <- rs <op> op] *)
  | Load of Reg.t * Reg.t * int  (** [rd <- mem[rbase + off]] *)
  | Store of Reg.t * int * Reg.t  (** [mem[rbase + off] <- rsrc] *)
  | Push of Reg.t  (** [sp <- sp-1; mem[sp] <- r] *)
  | Pop of Reg.t  (** [r <- mem[sp]; sp <- sp+1] *)
  | Cmp of Reg.t * operand  (** [flags <- sign (r - op)] *)
  | Setcc of cond * Reg.t  (** [rd <- flags satisfies cond] *)
  | Jmp of int  (** unconditional direct jump *)
  | Jcc of cond * int  (** conditional direct jump (reads flags) *)
  | Jind of Reg.t  (** indirect jump: [pc <- r] (jump tables) *)
  | Call of int  (** push return pc; jump to target *)
  | Callind of Reg.t  (** indirect call: [pc <- r] *)
  | Ret  (** pop return pc *)
  | Sys of syscall
  | Assert of Reg.t * int
      (** trap with message [strings.(i)] if the register is zero — the
          failure points of the bug workloads *)
  | Halt  (** terminate the program with status 0 *)
  | Nop

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let syscall_name = function
  | Exit -> "exit"
  | Print -> "print"
  | Rand -> "rand"
  | Time -> "time"
  | Read -> "read"
  | Spawn -> "spawn"
  | Join -> "join"
  | Lock -> "lock"
  | Unlock -> "unlock"
  | Yield -> "yield"
  | Alloc -> "alloc"
  | Wait -> "wait"
  | Signal -> "signal"
  | Broadcast -> "broadcast"

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise Division_by_zero else a / b
  | Mod -> if b = 0 then raise Division_by_zero else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)

(* Flags encode the sign of [a - b] as -1 / 0 / 1. *)
let eval_cmp a b = Int.compare a b

let eval_cond c flags =
  match c with
  | Eq -> flags = 0
  | Ne -> flags <> 0
  | Lt -> flags < 0
  | Le -> flags <= 0
  | Gt -> flags > 0
  | Ge -> flags >= 0

let pp_operand fmt = function
  | Reg r -> Reg.pp fmt r
  | Imm n -> Format.fprintf fmt "$%d" n

let pp fmt = function
  | Mov (rd, op) -> Format.fprintf fmt "mov %a, %a" Reg.pp rd pp_operand op
  | Bin (b, rd, rs, op) ->
    Format.fprintf fmt "%s %a, %a, %a" (binop_name b) Reg.pp rd Reg.pp rs
      pp_operand op
  | Load (rd, rb, off) ->
    Format.fprintf fmt "load %a, [%a%+d]" Reg.pp rd Reg.pp rb off
  | Store (rb, off, rs) ->
    Format.fprintf fmt "store [%a%+d], %a" Reg.pp rb off Reg.pp rs
  | Push r -> Format.fprintf fmt "push %a" Reg.pp r
  | Pop r -> Format.fprintf fmt "pop %a" Reg.pp r
  | Cmp (r, op) -> Format.fprintf fmt "cmp %a, %a" Reg.pp r pp_operand op
  | Setcc (c, r) -> Format.fprintf fmt "set%s %a" (cond_name c) Reg.pp r
  | Jmp t -> Format.fprintf fmt "jmp %d" t
  | Jcc (c, t) -> Format.fprintf fmt "j%s %d" (cond_name c) t
  | Jind r -> Format.fprintf fmt "jmp *%a" Reg.pp r
  | Call t -> Format.fprintf fmt "call %d" t
  | Callind r -> Format.fprintf fmt "call *%a" Reg.pp r
  | Ret -> Format.pp_print_string fmt "ret"
  | Sys s -> Format.fprintf fmt "sys %s" (syscall_name s)
  | Assert (r, m) -> Format.fprintf fmt "assert %a, #%d" Reg.pp r m
  | Halt -> Format.pp_print_string fmt "halt"
  | Nop -> Format.pp_print_string fmt "nop"

let to_string i = Format.asprintf "%a" pp i

(** [is_branch i] holds for instructions that are sources of dynamic
    control dependences: conditional and indirect jumps.  Unconditional
    direct jumps, calls and returns do not create control dependences
    (calls/returns are handled by the Xin–Zhang frame rule). *)
let is_branch = function Jcc _ | Jind _ -> true | _ -> false

(** Static control-flow successors of the instruction at [pc], or [None]
    for indirect jumps whose targets are statically unknown.  [Ret] and
    terminating instructions return [Some []]. *)
let static_successors ~pc = function
  | Jmp t -> Some [ t ]
  | Jcc (_, t) -> Some [ t; pc + 1 ]
  | Jind _ | Callind _ -> None
  | Ret | Halt | Sys Exit -> Some []
  | Assert _ ->
    (* Failure terminates, success falls through; for CFG purposes only
       fallthrough matters (the trap edge leaves the function). *)
    Some [ pc + 1 ]
  | Call _ ->
    (* Intra-procedural CFG: a call falls through to its continuation. *)
    Some [ pc + 1 ]
  | _ -> Some [ pc + 1 ]
