(** Combined global trace construction (paper §3(ii)).

    Per-thread traces are merged into a single fully ordered trace that
    honours (a) program order within each thread and (b) the shared-memory
    access order between threads (RAW, WAW and WAR edges captured during
    replay).  The merge is a topological sort of that graph; as in the
    paper, it greedily {e clusters} runs of records from the same thread
    to improve the locality of the LP traversal: it keeps emitting from
    the current thread until an incoming cross-thread edge forces a
    switch. *)

type t = {
  records : Segment_store.t;  (** shared with the collector result *)
  order : int array;  (** position -> gseq *)
  pos_of_gseq : int array;  (** gseq -> position *)
}

(** One blocked per-thread head at the moment the merge stalled. *)
type cycle_head = {
  ch_tid : int;
  ch_gseq : int;
  ch_pc : int;
  ch_indeg : int;  (** unsatisfied incoming access-order edges *)
}

type cycle_info = {
  cy_emitted : int;  (** records merged before the stall *)
  cy_total : int;
  cy_heads : cycle_head list;  (** the offending record window *)
}

exception Cycle of cycle_info

let cycle_message { cy_emitted; cy_total; cy_heads } =
  let head_s h =
    Printf.sprintf "tid %d gseq %d pc %d (indeg %d)" h.ch_tid h.ch_gseq h.ch_pc
      h.ch_indeg
  in
  Printf.sprintf
    "no thread ready after %d of %d records: access-order edges form a cycle \
     among [%s]"
    cy_emitted cy_total
    (String.concat "; " (List.map head_s cy_heads))

let m_records = Dr_obs.Metrics.counter "global_trace.records_merged"

(** Merge per-thread traces under the given cross-thread edges.
    [cluster] (default true) keeps emitting from the current thread while
    its next record is ready — the paper's locality heuristic for the LP
    traversal; with [cluster:false] threads rotate every record (used by
    the ablation bench). *)
let construct ?(cluster = true) (c : Collector.result) : t =
  Dr_obs.Obs.with_span ~cat:"trace" "global_trace.construct" @@ fun _ ->
  let n = Segment_store.length c.Collector.records in
  Dr_obs.Metrics.add m_records n;
  let indeg = Array.make n 0 in
  (* out-edges grouped by source *)
  let out_count = Array.make n 0 in
  Array.iter
    (fun (src, dst) ->
      out_count.(src) <- out_count.(src) + 1;
      indeg.(dst) <- indeg.(dst) + 1)
    c.Collector.order_edges;
  let out_start = Array.make (n + 1) 0 in
  for i = 1 to n do
    out_start.(i) <- out_start.(i - 1) + out_count.(i - 1)
  done;
  let out_edges = Array.make (Array.length c.Collector.order_edges) 0 in
  let fill = Array.copy out_start in
  Array.iter
    (fun (src, dst) ->
      out_edges.(fill.(src)) <- dst;
      fill.(src) <- fill.(src) + 1)
    c.Collector.order_edges;
  (* per-thread cursors; a head of -1 means the thread is done *)
  let nthreads = Array.length c.Collector.per_thread in
  let cursor = Array.make nthreads 0 in
  let head tid =
    let tr = c.Collector.per_thread.(tid) in
    if cursor.(tid) < Array.length tr then tr.(cursor.(tid)) else -1
  in
  let ready tid =
    let g = head tid in
    g >= 0 && indeg.(g) = 0
  in
  let order = Array.make n 0 in
  let pos_of_gseq = Array.make n 0 in
  let emitted = ref 0 in
  let cur = ref 0 in
  while !emitted < n do
    (* stay on the current thread while possible (clustering) *)
    if not cluster then cur := (!cur + 1) mod nthreads;
    let tid =
      if ready !cur then !cur
      else begin
        let found = ref (-1) in
        let k = ref 1 in
        while !found < 0 && !k <= nthreads do
          let t = (!cur + !k) mod nthreads in
          if ready t then found := t;
          incr k
        done;
        if !found < 0 then begin
          (* every thread head is blocked: report the offending window *)
          let heads = ref [] in
          for tid = nthreads - 1 downto 0 do
            let g = head tid in
            if g >= 0 then
              heads :=
                { ch_tid = tid; ch_gseq = g;
                  ch_pc = Segment_store.pc c.Collector.records g;
                  ch_indeg = indeg.(g) }
                :: !heads
          done;
          raise (Cycle { cy_emitted = !emitted; cy_total = n; cy_heads = !heads })
        end;
        !found
      end
    in
    cur := tid;
    let g = head tid in
    cursor.(tid) <- cursor.(tid) + 1;
    order.(!emitted) <- g;
    pos_of_gseq.(g) <- !emitted;
    incr emitted;
    for i = out_start.(g) to out_start.(g + 1) - 1 do
      let dst = out_edges.(i) in
      indeg.(dst) <- indeg.(dst) - 1
    done
  done;
  { records = c.Collector.records; order; pos_of_gseq }

let length t = Array.length t.order

(** Record at merge position [pos], as a view built on each call. *)
let record t pos = Segment_store.get t.records t.order.(pos)

(** Position of the record with the given gseq. *)
let position t ~gseq = t.pos_of_gseq.(gseq)

(** [gseq_at t pos] is the collection-order sequence number of the record
    at merged position [pos] — the inverse of {!position}. *)
let gseq_at t pos = t.order.(pos)

(** [is_topological t c] checks the order against program order and the
    collector's cross-thread edges — used by tests. *)
let is_topological (t : t) (c : Collector.result) : bool =
  let ok = ref true in
  Array.iter
    (fun per ->
      for i = 1 to Array.length per - 1 do
        if t.pos_of_gseq.(per.(i - 1)) >= t.pos_of_gseq.(per.(i)) then ok := false
      done)
    c.Collector.per_thread;
  Array.iter
    (fun (src, dst) ->
      if t.pos_of_gseq.(src) >= t.pos_of_gseq.(dst) then ok := false)
    c.Collector.order_edges;
  !ok

(** Position of the last record satisfying [p], or [None]: a backwards
    scan. *)
let find_last (t : t) ~(p : Trace.record -> bool) : int option =
  let rec go pos =
    if pos < 0 then None
    else if p (record t pos) then Some pos
    else go (pos - 1)
  in
  go (length t - 1)

(** Position of the last print record, else of the last record. *)
let last_print_pos (prog : Dr_isa.Program.t) (t : t) : int =
  let is_print (r : Trace.record) =
    match Dr_isa.Program.instr prog r.Trace.pc with
    | Some (Dr_isa.Instr.Sys Dr_isa.Instr.Print) -> true
    | _ -> false
  in
  match find_last t ~p:is_print with Some p -> p | None -> length t - 1
