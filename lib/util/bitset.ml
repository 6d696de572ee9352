(** Dense bitsets over [0, n). Used by the LP traversal ([to_include]
    marks) and by dominator computations. *)

type t = { bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let length t = t.n

let check t i = if i < 0 || i >= t.n then invalid_arg "Bitset: out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (i land 7)) land 0xff))

let cardinal t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if mem t i then incr c
  done;
  !c

let to_list t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let check_same a b =
  if a.n <> b.n then invalid_arg "Bitset: length mismatch"

let equal a b =
  check_same a b;
  Bytes.equal a.bits b.bits

let blit ~src ~dst =
  check_same src dst;
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

let is_empty t =
  let r = ref true in
  let nb = Bytes.length t.bits in
  let i = ref 0 in
  while !r && !i < nb do
    if Bytes.get t.bits !i <> '\000' then r := false;
    incr i
  done;
  !r

(** [dst := dst ∪ src]; returns whether [dst] changed. *)
let union_into ~src ~dst =
  check_same src dst;
  let changed = ref false in
  for i = 0 to Bytes.length src.bits - 1 do
    let d = Char.code (Bytes.get dst.bits i) in
    let u = d lor Char.code (Bytes.get src.bits i) in
    if u <> d then begin
      changed := true;
      Bytes.set dst.bits i (Char.chr u)
    end
  done;
  !changed

(** [dst := gen ∪ (src \ kill)] — the gen/kill dataflow transfer;
    returns whether [dst] changed. *)
let transfer ~gen ~kill ~src ~dst =
  check_same gen kill;
  check_same gen src;
  check_same gen dst;
  let changed = ref false in
  for i = 0 to Bytes.length dst.bits - 1 do
    let v =
      Char.code (Bytes.get gen.bits i)
      lor (Char.code (Bytes.get src.bits i)
          land lnot (Char.code (Bytes.get kill.bits i))
          land 0xff)
    in
    if v <> Char.code (Bytes.get dst.bits i) then begin
      changed := true;
      Bytes.set dst.bits i (Char.chr v)
    end
  done;
  !changed
