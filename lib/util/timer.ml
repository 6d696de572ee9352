(** Wall-clock timing helpers with a process-wide monotonic guarantee.

    OCaml 5.1's stdlib exposes no raw monotonic clock, so [now] ratchets
    [Unix.gettimeofday] through an {!Atomic}: a read never returns less
    than any earlier read {e from any domain}.  An NTP step backwards
    therefore freezes the reported clock until real time catches up
    instead of producing negative span or timer durations; a step
    forwards is indistinguishable from elapsed time, as with any wall
    clock.  Every elapsed-time consumer in the tree ({!Obs} spans,
    Metrics timers, {!Budget} watchdogs, the bench loops) reads this one
    source, so no pair of subsystems can disagree about the direction of
    time. *)

let last : float Atomic.t = Atomic.make neg_infinity

let rec ratchet t =
  let prev = Atomic.get last in
  if t > prev then
    if Atomic.compare_and_set last prev t then t else ratchet t
  else prev

(** Monotonic non-decreasing wall-clock seconds (see module doc). *)
let now () = ratchet (Unix.gettimeofday ())

(** Test hook: force the clock ratchet forward to [t] (a no-op when the
    clock is already past it).  Simulates the wall clock having stepped
    backwards relative to an earlier reading — after
    [advance_to (now () +. d)], real time is behind the ratchet and
    subsequent [now] calls stand still instead of going backwards. *)
let advance_to t = ignore (ratchet t)

(** [time f] runs [f ()] and returns its result together with the elapsed
    wall-clock seconds (never negative). *)
let time f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0)
