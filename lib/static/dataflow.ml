(** Generic worklist dataflow engine.

    Solves forward or backward monotone gen/kill problems with {e union}
    meet (may-analyses) over an explicit graph: nodes are integers
    [0, num_nodes), edges come from [succs]/[preds] callbacks, and facts
    are {!Dr_util.Bitset} rows of width [num_facts].  The per-node transfer
    is the classic [out = gen ∪ (in \ kill)].

    The engine is instantiated in this library for reaching definitions
    (forward, over the whole-program super-CFG in {!Supercfg}), register
    liveness (backward) and maybe-uninitialized registers (forward, a
    kill-only problem) in {!Analysis}.  Callers supply [entry] facts for
    boundary nodes (e.g. the function entry for uninitialized-register
    analysis); everything else starts empty and grows monotonically, so
    the fixpoint is reached without ever clearing a row. *)

module Bitset = Dr_util.Bitset

type direction = Forward | Backward

type result = {
  in_ : Bitset.t array;  (** facts at node entry *)
  out_ : Bitset.t array;  (** facts at node exit *)
}

(** [solve ~num_nodes ~num_facts ~direction ~succs ~preds ~gen ~kill ()]
    runs the fixpoint and returns per-node entry/exit fact rows.  [gen]
    and [kill] are consulted once per node.  [entry] injects constant
    boundary facts into a node's meet input (its [in_] for forward
    problems, its [out_] for backward ones). *)
let solve ~num_nodes ~num_facts ~direction ~(succs : int -> int list)
    ~(preds : int -> int list) ~(gen : int -> Bitset.t)
    ~(kill : int -> Bitset.t) ?(entry : int -> Bitset.t option = fun _ -> None)
    () : result =
  let mk () = Array.init num_nodes (fun _ -> Bitset.create num_facts) in
  let in_ = mk () and out_ = mk () in
  (* [pre] is the meet side, [post] the transfer side; [downstream] lists
     the nodes whose meet input consumes our [post] row. *)
  let pre, post, downstream =
    match direction with
    | Forward -> (in_, out_, succs)
    | Backward -> (out_, in_, preds)
  in
  let gens = Array.init num_nodes gen and kills = Array.init num_nodes kill in
  for n = 0 to num_nodes - 1 do
    match entry n with
    | Some facts -> ignore (Bitset.union_into ~src:facts ~dst:pre.(n))
    | None -> ()
  done;
  let queue = Queue.create () in
  let queued = Array.make num_nodes false in
  let enqueue n =
    if not queued.(n) then begin
      queued.(n) <- true;
      Queue.push n queue
    end
  in
  (* Seed roughly in propagation order: pcs ascend along fallthrough
     edges, so forward problems converge fastest low-to-high. *)
  (match direction with
  | Forward -> for n = 0 to num_nodes - 1 do enqueue n done
  | Backward -> for n = num_nodes - 1 downto 0 do enqueue n done);
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    queued.(n) <- false;
    let changed =
      Bitset.transfer ~gen:gens.(n) ~kill:kills.(n) ~src:pre.(n) ~dst:post.(n)
    in
    if changed then
      List.iter
        (fun m ->
          if Bitset.union_into ~src:post.(n) ~dst:pre.(m) then enqueue m)
        (downstream n)
  done;
  { in_; out_ }
