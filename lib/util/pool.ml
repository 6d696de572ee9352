type task = unit -> unit

type batch = {
  wrap : slot:int -> task:int -> (unit -> unit) -> unit;
  finish : unit -> unit;
}

(* One ref load + option match per batch when no hook is installed. *)
let instrument : (tasks:int -> batch) option ref = ref None

let set_instrument i = instrument := Some i

let plain = { wrap = (fun ~slot:_ ~task:_ f -> f ()); finish = ignore }

let run ~domains (tasks : task array) =
  let n = Array.length tasks in
  if n > 0 then begin
    let batch =
      match !instrument with
      | Some begin_batch -> begin_batch ~tasks:n
      | None -> plain
    in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let drain slot () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          try batch.wrap ~slot ~task:i tasks.(i)
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      done
    in
    let helpers =
      List.init (min (max 1 domains) n - 1) (fun k ->
          Domain.spawn (drain (k + 1)))
    in
    drain 0 ();
    (* joining publishes every task's writes to the caller *)
    List.iter Domain.join helpers;
    batch.finish ();
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
