(** A thread schedule, run-length encoded as it is recorded: one
    [(tid, retired count)] run per maximal stretch of consecutive steps
    of one thread (the {!Pinball.t} [schedule] format).  The open run is
    two mutable ints, so a step allocates nothing; a run's tuple is
    allocated once, when the next thread takes over. *)

type t = {
  runs : (int * int) Dr_util.Vec.t;  (** closed runs *)
  mutable tid : int;  (** thread of the open run *)
  mutable count : int;  (** steps in the open run; 0 = none yet *)
}

let create () = { runs = Dr_util.Vec.create ~dummy:(0, 0); tid = -1; count = 0 }

(** Record one retired step of thread [tid]. *)
let step t tid =
  if t.count > 0 && tid = t.tid then t.count <- t.count + 1
  else begin
    if t.count > 0 then Dr_util.Vec.push t.runs (t.tid, t.count);
    t.tid <- tid;
    t.count <- 1
  end

let to_array t =
  let n = Dr_util.Vec.length t.runs in
  if t.count = 0 then Dr_util.Vec.to_array t.runs
  else
    Array.init (n + 1) (fun i ->
        if i < n then Dr_util.Vec.get t.runs i else (t.tid, t.count))
