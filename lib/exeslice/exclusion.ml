(** Code-exclusion region construction from a dynamic slice (paper §4,
    Fig. 6a: the "special slice file").

    For each thread, the maximal runs of trace records {e not} in the
    slice become exclusion regions
    [[startPc:sinstance, endPc:einstance)]: the start is the first
    excluded record, the (exclusive) end is the thread's next included
    record.  A trailing run extends to the region end ([x_end = None]).

    Synchronization instructions (spawn/join/lock/unlock/exit/alloc) and
    thread-final returns are always kept, whether or not the slice
    contains them: their effects (thread creation, lock state, heap
    growth) are not expressible as memory/register injections.  Replay of
    the slice pinball therefore preserves the region's thread structure
    while skipping all other non-slice computation. *)

type stats = {
  total_records : int;
  included_records : int;  (** slice + forced sync instructions *)
  excluded_records : int;
  regions : int;
}

let forced_flags flags =
  flags land (Dr_slicing.Trace.flag_sync lor Dr_slicing.Trace.flag_final_ret)
  <> 0

(** Should the record with this gseq be kept even if it is not in the
    slice? *)
let forced (records : Dr_slicing.Segment_store.t) g =
  forced_flags (Dr_slicing.Segment_store.flags records g)

(** Build the exclusion regions for [slice] over the collector's
    per-thread traces. *)
let build ~(slice : Dr_slicing.Slicer.t) ~(collector : Dr_slicing.Collector.result)
    : Dr_pinplay.Relogger.exclusion list * stats =
  let module Chunk = Dr_slicing.Segment_store.Chunk in
  let gt = slice.Dr_slicing.Slicer.gt in
  let records = collector.Dr_slicing.Collector.records in
  let n = Dr_slicing.Segment_store.length records in
  let in_slice = Dr_util.Bitset.create n in
  Array.iter
    (fun pos ->
      Dr_util.Bitset.add in_slice (Dr_slicing.Global_trace.gseq_at gt pos))
    slice.Dr_slicing.Slicer.positions;
  let exclusions = ref [] in
  let included = ref 0 and excluded = ref 0 and regions = ref 0 in
  Array.iteri
    (fun tid gseqs ->
      let run_start = ref None in
      Array.iter
        (fun g ->
          let c = Dr_slicing.Segment_store.chunk records g in
          let keep =
            Dr_util.Bitset.mem in_slice g || forced_flags (Chunk.flags c g)
          in
          if keep then begin
            incr included;
            match !run_start with
            | Some (spc, sinst) ->
              exclusions :=
                { Dr_pinplay.Relogger.x_tid = tid; x_start_pc = spc;
                  x_start_instance = sinst;
                  x_end = Some (Chunk.pc c g, Chunk.instance c g) }
                :: !exclusions;
              incr regions;
              run_start := None
            | None -> ()
          end
          else begin
            incr excluded;
            if !run_start = None then
              run_start := Some (Chunk.pc c g, Chunk.instance c g)
          end)
        gseqs;
      match !run_start with
      | Some (spc, sinst) ->
        exclusions :=
          { Dr_pinplay.Relogger.x_tid = tid; x_start_pc = spc;
            x_start_instance = sinst; x_end = None }
          :: !exclusions;
        incr regions
      | None -> ())
    collector.Dr_slicing.Collector.per_thread;
  ( List.rev !exclusions,
    { total_records = n; included_records = !included;
      excluded_records = !excluded; regions = !regions } )

(** One-call pipeline: slice -> exclusion regions -> slice pinball. *)
let slice_pinball (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t)
    ~(slice : Dr_slicing.Slicer.t)
    ~(collector : Dr_slicing.Collector.result) :
    Dr_pinplay.Pinball.t * stats =
  let exclusions, stats = build ~slice ~collector in
  let spb = Dr_pinplay.Relogger.relog prog pinball ~exclusions in
  (spb, stats)
