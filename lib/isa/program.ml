(** An executable program image: code, initial data, and debug info.

    Memory layout (word-addressed, see {!Dr_machine.Machine}):

    {v
      [0, data_end)             globals, string/jump tables
      [data_end, stack_floor)   heap (bump-allocated by sys alloc)
      [stack_floor, mem_size)   per-thread stacks, growing downward
    v} *)

type t = {
  name : string;
  code : Instr.t array;
  entry : int;  (** initial pc of the main thread *)
  data : (int * int) list;  (** initial memory cells: (address, value) *)
  data_end : int;  (** first address past static data; heap base *)
  mem_size : int;  (** total memory words *)
  stack_words : int;  (** stack region size per thread *)
  max_threads : int;
  strings : string array;  (** messages referenced by [Assert] *)
  debug : Debug_info.t;
}

let default_mem_size = 1 lsl 20
let default_stack_words = 1 lsl 14
let default_max_threads = 16

let make ?(name = "<anon>") ?(data = []) ?(data_end = 0)
    ?(mem_size = default_mem_size) ?(stack_words = default_stack_words)
    ?(max_threads = default_max_threads) ?(strings = [||])
    ?(debug = Debug_info.empty) ~entry code =
  let code = Array.of_list code in
  if entry < 0 || entry >= Array.length code then
    invalid_arg "Program.make: entry out of range";
  List.iter
    (fun (a, _) ->
      if a < 0 || a >= mem_size then invalid_arg "Program.make: data address out of range")
    data;
  { name; code; entry; data; data_end; mem_size; stack_words; max_threads;
    strings; debug }

let code_size t = Array.length t.code

let instr t pc =
  if pc < 0 || pc >= Array.length t.code then None else Some t.code.(pc)

let string_at t i =
  if i >= 0 && i < Array.length t.strings then t.strings.(i) else "<bad-string>"

(** Base address of thread [tid]'s stack (exclusive upper bound; the stack
    grows down from here). *)
let stack_base t ~tid = t.mem_size - (tid * t.stack_words)

(** Lowest address thread [tid]'s stack may touch. *)
let stack_limit t ~tid = stack_base t ~tid - t.stack_words
