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

(* ---- Serialization (used by pinballs that embed programs) ---- *)

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Mod -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9

let binop_of_code = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Mod
  | 5 -> And | 6 -> Or | 7 -> Xor | 8 -> Shl | 9 -> Shr
  | _ -> raise (Dr_util.Codec.Corrupt "binop")

let cond_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let cond_of_code = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Le | 4 -> Gt | 5 -> Ge
  | _ -> raise (Dr_util.Codec.Corrupt "cond")

let syscall_code = function
  | Exit -> 0 | Print -> 1 | Rand -> 2 | Time -> 3 | Read -> 4 | Spawn -> 5
  | Join -> 6 | Lock -> 7 | Unlock -> 8 | Yield -> 9 | Alloc -> 10
  | Wait -> 11 | Signal -> 12 | Broadcast -> 13

let syscall_of_code = function
  | 0 -> Exit | 1 -> Print | 2 -> Rand | 3 -> Time | 4 -> Read | 5 -> Spawn
  | 6 -> Join | 7 -> Lock | 8 -> Unlock | 9 -> Yield | 10 -> Alloc
  | 11 -> Wait | 12 -> Signal | 13 -> Broadcast
  | _ -> raise (Dr_util.Codec.Corrupt "syscall")

let encode_operand e = function
  | Reg r ->
    Dr_util.Codec.put_uint e 0;
    Dr_util.Codec.put_uint e r
  | Imm n ->
    Dr_util.Codec.put_uint e 1;
    Dr_util.Codec.put_int e n

let decode_operand d =
  match Dr_util.Codec.get_uint d with
  | 0 -> Reg (Dr_util.Codec.get_uint d)
  | 1 -> Imm (Dr_util.Codec.get_int d)
  | _ -> raise (Dr_util.Codec.Corrupt "operand")

let encode e i =
  let open Dr_util.Codec in
  match i with
  | Mov (rd, op) -> put_uint e 0; put_uint e rd; encode_operand e op
  | Bin (b, rd, rs, op) ->
    put_uint e 1; put_uint e (binop_code b); put_uint e rd; put_uint e rs;
    encode_operand e op
  | Load (rd, rb, off) -> put_uint e 2; put_uint e rd; put_uint e rb; put_int e off
  | Store (rb, off, rs) -> put_uint e 3; put_uint e rb; put_int e off; put_uint e rs
  | Push r -> put_uint e 4; put_uint e r
  | Pop r -> put_uint e 5; put_uint e r
  | Cmp (r, op) -> put_uint e 6; put_uint e r; encode_operand e op
  | Setcc (c, r) -> put_uint e 7; put_uint e (cond_code c); put_uint e r
  | Jmp t -> put_uint e 8; put_uint e t
  | Jcc (c, t) -> put_uint e 9; put_uint e (cond_code c); put_uint e t
  | Jind r -> put_uint e 10; put_uint e r
  | Call t -> put_uint e 11; put_uint e t
  | Callind r -> put_uint e 12; put_uint e r
  | Ret -> put_uint e 13
  | Sys s -> put_uint e 14; put_uint e (syscall_code s)
  | Assert (r, m) -> put_uint e 15; put_uint e r; put_uint e m
  | Halt -> put_uint e 16
  | Nop -> put_uint e 17

let decode d =
  let open Dr_util.Codec in
  match get_uint d with
  | 0 -> let rd = get_uint d in Mov (rd, decode_operand d)
  | 1 ->
    let b = binop_of_code (get_uint d) in
    let rd = get_uint d in
    let rs = get_uint d in
    Bin (b, rd, rs, decode_operand d)
  | 2 -> let rd = get_uint d in let rb = get_uint d in Load (rd, rb, get_int d)
  | 3 -> let rb = get_uint d in let off = get_int d in Store (rb, off, get_uint d)
  | 4 -> Push (get_uint d)
  | 5 -> Pop (get_uint d)
  | 6 -> let r = get_uint d in Cmp (r, decode_operand d)
  | 7 -> let c = cond_of_code (get_uint d) in Setcc (c, get_uint d)
  | 8 -> Jmp (get_uint d)
  | 9 -> let c = cond_of_code (get_uint d) in Jcc (c, get_uint d)
  | 10 -> Jind (get_uint d)
  | 11 -> Call (get_uint d)
  | 12 -> Callind (get_uint d)
  | 13 -> Ret
  | 14 -> Sys (syscall_of_code (get_uint d))
  | 15 -> let r = get_uint d in Assert (r, get_uint d)
  | 16 -> Halt
  | 17 -> Nop
  | _ -> raise (Dr_util.Codec.Corrupt "instr")
