(** Binary codec used for pinball serialization.

    Values are encoded with LEB128-style varints (zig-zag for signed
    values) into a [Buffer]; decoding reads from a string with an explicit
    cursor.  Pinballs store their schedule as (tid, count) runs (see
    {!Dr_machine.Schedule}); this module only provides the primitive
    layer. *)

type encoder = Buffer.t

let encoder () = Buffer.create 4096

let to_string (e : encoder) = Buffer.contents e

(* Varint over the raw 63-bit pattern (logical shifts, so negative inputs
   encode their full bit pattern in at most 9 bytes). *)
let put_bits (e : encoder) n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char e (Char.chr b);
      continue := false
    end
    else Buffer.add_char e (Char.chr (b lor 0x80))
  done

(* Unsigned varint. *)
let put_uint (e : encoder) n =
  if n < 0 then invalid_arg "Codec.put_uint: negative";
  put_bits e n

(* Zig-zag signed varint; [(n lsl 1) lxor (n asr 62)] is a bijection on the
   full 63-bit int range (including wraparound cases like [2^61]). *)
let put_int e n = put_bits e ((n lsl 1) lxor (n asr 62))

let put_bool e b = put_uint e (if b then 1 else 0)

let put_string e s =
  put_uint e (String.length s);
  Buffer.add_string e s

let put_int_array e a =
  put_uint e (Array.length a);
  Array.iter (put_int e) a

let put_list e put_elt l =
  put_uint e (List.length l);
  List.iter (put_elt e) l

type decoder = { src : string; mutable pos : int }

exception Corrupt of string

let decoder src = { src; pos = 0 }

let at_end d = d.pos >= String.length d.src

(** Bytes left to decode — the budget every count is checked against. *)
let remaining d = String.length d.src - d.pos

let get_uint d =
  let n = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if d.pos >= String.length d.src then raise (Corrupt "truncated varint");
    (* 9 bytes of 7 bits cover the full 63-bit int range; a 10th byte can
       only smear garbage into the sign bit *)
    if !shift >= 63 then raise (Corrupt "varint too long");
    let b = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !n

(** Read a collection count and validate it against the remaining input:
    each element occupies at least [min_elt_bytes] encoded bytes, so a
    count that could not possibly fit is corrupt.  This bounds decode-time
    allocation by the input size — a 5-byte file can never make
    [Array.init] allocate gigabytes. *)
let get_count ?(min_elt_bytes = 1) d what =
  let n = get_uint d in
  if n < 0 || n > remaining d / min_elt_bytes then
    raise (Corrupt (what ^ ": count exceeds remaining input"));
  n

let get_int d =
  let z = get_uint d in
  (z lsr 1) lxor (-(z land 1))

let get_bool d =
  match get_uint d with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Corrupt "bad bool")

let get_string d =
  let n = get_uint d in
  if n < 0 || n > remaining d then raise (Corrupt "truncated string");
  let s = String.sub d.src d.pos n in
  d.pos <- d.pos + n;
  s

let get_int_array d =
  let n = get_count d "int array" in
  Array.init n (fun _ -> get_int d)

let get_list d get_elt =
  let n = get_count d "list" in
  List.init n (fun _ -> get_elt d)
