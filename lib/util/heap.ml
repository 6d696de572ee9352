(** Array-based binary max-heap keyed by [int], carrying an arbitrary
    payload.  Used by the indexed slicer to pop the highest pending
    trace position; grows like {!Vec}. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { keys = Array.make 16 0; vals = Array.make 16 dummy; len = 0; dummy }

let length h = h.len
let is_empty h = h.len = 0

let ensure h n =
  if n > Array.length h.keys then begin
    let cap = ref (Array.length h.keys) in
    while n > !cap do
      cap := !cap * 2
    done;
    let keys = Array.make !cap 0 and vals = Array.make !cap h.dummy in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals
  end

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.vals.(j) <- v

let push h key v =
  ensure h (h.len + 1);
  h.keys.(h.len) <- key;
  h.vals.(h.len) <- v;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) < h.keys.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(** Largest key, or [None]. *)
let peek_key h = if h.len = 0 then None else Some h.keys.(0)

(** Remove and return the entry with the largest key. *)
let pop h =
  if h.len = 0 then None
  else begin
    let k = h.keys.(0) and v = h.vals.(0) in
    h.len <- h.len - 1;
    h.keys.(0) <- h.keys.(h.len);
    h.vals.(0) <- h.vals.(h.len);
    h.vals.(h.len) <- h.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < h.len && h.keys.(l) > h.keys.(!largest) then largest := l;
      if r < h.len && h.keys.(r) > h.keys.(!largest) then largest := r;
      if !largest <> !i then begin
        swap h !i !largest;
        i := !largest
      end
      else continue := false
    done;
    Some (k, v)
  end
