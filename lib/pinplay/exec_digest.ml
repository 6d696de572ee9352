(** Periodic execution digests for divergence localization.

    While logging, a digest of the stepping thread's architectural state
    is sampled every N retired instructions and stored in the pinball;
    during replay the same hash is recomputed at the same steps.  The
    first mismatch pinpoints where a replay left the recorded execution
    ("first divergence at step K in thread T") instead of letting it run
    on and fail far from the cause — or worse, finish silently wrong.

    Both sides call {!hash} right after the sampled step retires: the
    logger from its event hook, the replayer when the driver chunk that
    ends at that step returns (with the machine's scratch event still
    describing it), so both see identical machine state.  The digest
    covers the thread's pc, register file and retired count plus the
    memory cell the instruction wrote (the thread's dirty memory at this
    event): any divergence in control flow, register contents or stores
    flips it. *)

open Dr_machine

(* splitmix64-style finalizer, truncated to OCaml's 63-bit int *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x9e3779b97f4a7c1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xbf58476d1ce4e5b in
  h lxor (h lsr 32)

(** Digest of [m]'s state right after the retired instruction described
    by [ev], at global region step [step].  Always non-negative, so it
    varint-encodes compactly. *)
let hash (m : Machine.t) (ev : Event.t) ~step =
  let th = Machine.thread m ev.Event.tid in
  let regs = th.Machine.regs in
  let h = ref (mix step ev.Event.tid) in
  h := mix !h th.Machine.pc;
  h := mix !h th.Machine.icount;
  (* a [for] loop, not [Array.iter]: the ref stays local, so a digest
     allocates nothing *)
  for i = 0 to Array.length regs - 1 do
    h := mix !h regs.(i)
  done;
  if ev.Event.mem_write >= 0 then begin
    h := mix !h ev.Event.mem_write;
    h := mix !h ev.Event.mem_write_value
  end;
  !h land max_int
