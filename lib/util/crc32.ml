(** CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.

    Used by the pinball v2 container format to give every section and the
    whole file an integrity checksum, so a truncated or bit-flipped
    pinball is rejected with a precise error instead of being decoded
    into garbage.  Values are in [0, 2^32), so they fit a non-negative
    OCaml int on 64-bit platforms. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(** Fold [len] bytes of [s] starting at [pos] into a running checksum.
    Start from {!empty} and chain calls to checksum discontiguous data. *)
let update crc s ~pos ~len =
  (* written so that no sum can overflow: a hostile [len] near [max_int]
     must fail here, not wrap past the check *)
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.update";
  let table = Lazy.force table in
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let empty = 0

let string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  update empty s ~pos ~len
