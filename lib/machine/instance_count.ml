(** Per-thread execution counters: how many times a thread has retired
    each pc, the [instance] of the paper's [pc:instance:tid] positions.

    Code is small (a few hundred instructions), so the counts of pcs in
    the code live in a dense [int array] and a count costs one array
    read and write.  A pc outside the code (the fault event of a thread
    that ran off the end of its code) takes a hashtable fallback. *)

type t = {
  counts : int array;  (** pc -> executions so far, for pcs in the code *)
  off_code : (int, int) Hashtbl.t;  (** the same, for pcs outside it *)
}

let create ~code_size =
  { counts = Array.make code_size 0; off_code = Hashtbl.create 1 }

(** Count one more execution of [pc] and return its 1-based instance. *)
let next t pc =
  if pc >= 0 && pc < Array.length t.counts then begin
    let i = t.counts.(pc) + 1 in
    t.counts.(pc) <- i;
    i
  end
  else begin
    let i =
      1 + (match Hashtbl.find_opt t.off_code pc with Some i -> i | None -> 0)
    in
    Hashtbl.replace t.off_code pc i;
    i
  end

let copy t = { counts = Array.copy t.counts; off_code = Hashtbl.copy t.off_code }
