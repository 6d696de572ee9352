(** The process-wide metrics registry: counters, timers and histograms
    under one lock, one name table and one name-sorted listing.  Spans
    are the only other observability store (see {!Obs}); they are gated
    on the tracing switch, the registry is not.

    Hot paths register a handle once at module initialisation
    ([counter]/[timer]/[histogram]) and update it without a hash lookup
    or an allocation.  Counters and timers are {!Atomic} cells, so
    worker domains in a {!Dr_util.Pool} bump the same handles the
    sequential code does with one atomic fetch-and-add.  A histogram
    observation is a few field updates on preallocated arrays under the
    registry lock; histograms are fed once per log, slice or re-executed
    window, never per instruction.

    Registration is idempotent and O(1): two domains racing to register
    a name share one handle.  A name belongs to one kind; registering it
    as another is a programming error ([Invalid_argument]).  [list]
    snapshots the registry under the lock and returns it {e sorted by
    name}: with parallel sections registering handles on first touch,
    arrival order depends on the schedule, and a deterministic report
    must not. *)

type counter = { count : int Atomic.t }

type timer = {
  seconds : float Atomic.t;
  events : int Atomic.t;  (** number of timed sections *)
}

(** A log-bucketed distribution (latencies, sizes).  Bucket 0 holds
    exactly the samples [<= 0]; the others are base-2: bucket [i >= 1]
    covers [[2^(i-bias), 2^(i-bias+1))], bucket 1 also absorbs the
    positive values below it and the last bucket everything above.
    With [bias = 32] and 73 buckets the range runs from ~4.7e-10 to
    beyond 1e12 with one integer increment per sample. *)
type histogram = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = C of counter | T of timer | H of histogram

(* one table for every kind; the lock covers registration, histogram
   observation and [list] — counter and timer updates are lock-free *)
let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* the handle registered under [name], created by [make] on first use;
   [select] extracts it, [None] meaning another kind owns the name *)
let register name make select =
  let m =
    locked @@ fun () ->
    match Hashtbl.find_opt table name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.replace table name m;
      m
  in
  match select m with
  | Some h -> h
  | None -> invalid_arg ("Metrics: " ^ name ^ " is registered as another kind")

let counter name =
  register name
    (fun () -> C { count = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let timer name =
  register name
    (fun () -> T { seconds = Atomic.make 0.0; events = Atomic.make 0 })
    (function T t -> Some t | _ -> None)

(* ---- histograms ---- *)

let num_buckets = 73
let bias = 32

(** Bucket index for a sample value (total over all floats). *)
let bucket_of v =
  if v <= 0.0 then 0
  else begin
    (* v = m * 2^e with m in [0.5, 1): v lies in [2^(e-1), 2^e) *)
    let _, e = Float.frexp v in
    let b = e - 1 + bias in
    if b < 1 then 1 else if b >= num_buckets then num_buckets - 1 else b
  end

(** [(lo, hi)] of bucket [i]: samples land in [i >= 1] iff
    [lo <= v < hi] (bucket 1 reports [lo = 0] for its absorb-below
    role; the last bucket reports [hi = infinity]).  The closed zero
    bucket 0 reports [(0, 0)]. *)
let bucket_bounds i =
  if i = 0 then (0.0, 0.0)
  else begin
    let lo = if i = 1 then 0.0 else Float.ldexp 1.0 (i - bias) in
    let hi =
      if i = num_buckets - 1 then Float.infinity
      else Float.ldexp 1.0 (i - bias + 1)
    in
    (lo, hi)
  end

let empty_histogram () =
  { buckets = Array.make num_buckets 0; h_count = 0;
    h_sum = 0.0; h_min = Float.infinity; h_max = Float.neg_infinity }

let add_sample h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let histogram name =
  register name
    (fun () -> H (empty_histogram ()))
    (function H h -> Some h | _ -> None)

(** Record a sample under the registry lock, from any domain.  Bucket
    sums are commutative, so the result is schedule-independent. *)
let observe h v =
  Mutex.lock lock;
  add_sample h v;
  Mutex.unlock lock

(** An unregistered histogram of [samples], for aggregating values the
    registry never sees (the report's span durations). *)
let histogram_of_samples samples =
  let h = empty_histogram () in
  List.iter (add_sample h) samples;
  h

let min_value h = if h.h_count = 0 then 0.0 else h.h_min
let max_value h = if h.h_count = 0 then 0.0 else h.h_max
let mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

(** Upper bound of the bucket holding the rank-[ceil(q*count)] sample,
    clamped to the observed range; 0 on an empty histogram.  That makes
    p50/p90/p99 conservative (never under-reported) and deterministic. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let rec go i cum =
      let cum = cum + h.buckets.(i) in
      if cum >= rank || i = num_buckets - 1 then
        Float.min (snd (bucket_bounds i)) h.h_max
      else go (i + 1) cum
    in
    Float.max (go 0 0) h.h_min
  end

(* ---- counters and timers ---- *)

let bump c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let count c = Atomic.get c.count

(* lock-free float accumulation: retry the CAS on contention *)
let rec add_float (a : float Atomic.t) dt =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. dt)) then add_float a dt

(** [time t f] runs [f ()], accumulating its duration in [t].  The
    clock is {!Dr_util.Timer.now} — the same ratcheted monotonic source
    the span recorder uses, so a wall-clock step (NTP) can never yield a
    negative accumulation.  The elapsed time is recorded even when [f]
    raises. *)
let time t f =
  let t0 = Dr_util.Timer.now () in
  Fun.protect
    ~finally:(fun () ->
      add_float t.seconds (Dr_util.Timer.now () -. t0);
      Atomic.incr t.events)
    f

let seconds t = Atomic.get t.seconds
let events t = Atomic.get t.events

(* ---- listing ---- *)

type value =
  | Counter of int
  | Timer of { seconds : float; events : int }
  | Histogram of histogram  (** a copy, consistent at the listing *)

(** Every registered metric, sorted by name (deterministic whatever the
    registration interleaving). *)
let list () =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | C c -> Counter (Atomic.get c.count)
            | T t ->
              Timer { seconds = Atomic.get t.seconds; events = Atomic.get t.events }
            | H h -> Histogram { h with buckets = Array.copy h.buckets }
          in
          (name, v) :: acc)
        table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
