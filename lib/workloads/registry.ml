(** Unified view of every workload, plus iteration-count calibration so
    benches can target a desired main-thread region length in
    instructions. *)

type kind = Bug | Parsec_app | Parsec_kernel | Specomp

type entry = {
  name : string;
  kind : kind;
  compile : threads:int -> iters:int -> Dr_isa.Program.t;
}

let all : entry list =
  List.map
    (fun (b : Bugs.t) ->
      { name = b.Bugs.name; kind = Bug;
        compile = (fun ~threads:_ ~iters:_ -> Bugs.compile b) })
    Bugs.all
  @ List.map
      (fun (w : Parsec.t) ->
        { name = w.Parsec.name;
          kind = (match w.Parsec.kind with Parsec.App -> Parsec_app | Parsec.Kernel -> Parsec_kernel);
          compile = (fun ~threads ~iters -> Parsec.compile ~threads ~iters w) })
      Parsec.all
  @ List.map
      (fun (w : Specomp.t) ->
        { name = w.Specomp.name; kind = Specomp;
          compile = (fun ~threads ~iters -> Specomp.compile ~threads ~iters w) })
      Specomp.all

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

(** Main-thread instructions consumed by a full run with the given
    iteration count (probe run under round-robin). *)
let probe_main_icount (e : entry) ~threads ~iters : int =
  let prog = e.compile ~threads ~iters in
  let m = Dr_machine.Machine.create prog in
  let _ =
    Dr_machine.Driver.run ~max_steps:50_000_000 m
      (Dr_machine.Driver.Round_robin { quantum = 20 })
  in
  (Dr_machine.Machine.thread m 0).Dr_machine.Machine.icount

(** Iteration count so that the main thread retires at least
    [main_instrs] instructions (with ~30% headroom).  Uses two probe runs
    to fit the linear model [icount = a + b * iters]. *)
let iters_for (e : entry) ?(threads = 4) ~main_instrs () : int =
  let n1 = 64 and n2 = 256 in
  let i1 = probe_main_icount e ~threads ~iters:n1 in
  let i2 = probe_main_icount e ~threads ~iters:n2 in
  let b = max 1 ((i2 - i1) / (n2 - n1)) in
  let a = max 0 (i1 - (b * n1)) in
  let need = (main_instrs * 13 / 10) - a in
  max 64 ((need / b) + 1)
