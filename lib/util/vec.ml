(** Growable vectors.

    Two flavours are provided: a polymorphic vector ['a t] and an unboxed
    integer vector {!Int_vec.t} used on hot paths (trace collection,
    def/use sets) where avoiding boxing matters. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 16 dummy; len = 0; dummy }

let length v = v.len

let is_empty v = v.len = 0

let clear v = v.len <- 0

let ensure v n =
  if n > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while n > !cap do
      cap := !cap * 2
    done;
    let data = Array.make !cap v.dummy in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  v.data.(i) <- x

let last v = if v.len = 0 then invalid_arg "Vec.last" else v.data.(v.len - 1)

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let to_array v = Array.sub v.data 0 v.len

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.rev (fold (fun acc x -> x :: acc) [] v)

(** Unboxed int vector. *)
module Int_vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let with_capacity n = { data = Array.make (max n 1) 0; len = 0 }

  let length v = v.len

  let clear v = v.len <- 0

  let ensure v n =
    if n > Array.length v.data then begin
      let cap = ref (Array.length v.data) in
      while n > !cap do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end

  let push v x =
    ensure v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Int_vec.get";
    v.data.(i)

  let unsafe_get v i = Array.unsafe_get v.data i

  let set v i x =
    if i < 0 || i >= v.len then invalid_arg "Int_vec.set";
    v.data.(i) <- x

  let last v =
    if v.len = 0 then invalid_arg "Int_vec.last";
    v.data.(v.len - 1)

  let pop v =
    if v.len = 0 then invalid_arg "Int_vec.pop";
    v.len <- v.len - 1;
    v.data.(v.len)

  let to_array v = Array.sub v.data 0 v.len

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.data.(i)
    done

  let to_list v =
    let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
    go (v.len - 1) []
end
