module Int_vec = Dr_util.Vec.Int_vec

(* Run [i]'s tid at [2i], its count at [2i+1]. *)
type t = int array

let length (t : t) = Array.length t / 2

let tid (t : t) i = t.(2 * i)

let count (t : t) i = t.((2 * i) + 1)

let steps (t : t) =
  let n = ref 0 in
  for i = 0 to length t - 1 do
    n := !n + count t i
  done;
  !n

let of_runs runs : t =
  let t = Array.make (2 * List.length runs) 0 in
  List.iteri
    (fun i (tid, n) ->
      t.(2 * i) <- tid;
      t.((2 * i) + 1) <- n)
    runs;
  t

let to_runs (t : t) = List.init (length t) (fun i -> (tid t i, count t i))

let encode e (t : t) =
  Dr_util.Codec.put_uint e (length t);
  Array.iter (Dr_util.Codec.put_uint e) t

let decode d : t =
  let n = Dr_util.Codec.get_count ~min_elt_bytes:2 d "schedule" in
  let t = Array.make (2 * n) 0 in
  for i = 0 to (2 * n) - 1 do
    t.(i) <- Dr_util.Codec.get_uint d
  done;
  t

type recorder = {
  runs : Int_vec.t;  (** closed runs, flat *)
  mutable open_tid : int;  (** thread of the open run *)
  mutable open_count : int;  (** steps in the open run; 0 = none yet *)
}

let recorder () =
  { runs = Int_vec.create (); open_tid = -1; open_count = 0 }

let record r tid =
  if r.open_count > 0 && tid = r.open_tid then r.open_count <- r.open_count + 1
  else begin
    if r.open_count > 0 then begin
      Int_vec.push r.runs r.open_tid;
      Int_vec.push r.runs r.open_count
    end;
    r.open_tid <- tid;
    r.open_count <- 1
  end

let recorded r : t =
  if r.open_count > 0 then begin
    Int_vec.push r.runs r.open_tid;
    Int_vec.push r.runs r.open_count;
    r.open_count <- 0
  end;
  Int_vec.to_array r.runs
