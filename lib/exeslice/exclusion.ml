(** Code exclusion from a dynamic slice (paper §4, Fig. 6a: the "special
    slice file").

    A slice pinball keeps the slice's records plus the forced ones:
    synchronization instructions (spawn/join/lock/unlock/exit/alloc) and
    thread-final returns, whether or not the slice contains them, since
    their effects (thread creation, lock state, heap growth) are not
    expressible as memory/register injections.  The relogger takes that
    keep-set over gseq.  The paper's exclusion regions are, per thread,
    the maximal runs of records {e not} kept: the start is the first
    excluded record, the (exclusive) end the thread's next kept record,
    and a trailing run extends to the region end ([x_end = None]). *)

type stats = {
  total_records : int;
  included_records : int;  (** slice + forced sync instructions *)
  excluded_records : int;
  regions : int;
}

type region = {
  x_tid : int;
  x_start_pc : int;
  x_start_instance : int;
  x_end : (int * int) option;
}

(** Should the record with this gseq be kept even if it is not in the
    slice? *)
let forced (records : Dr_slicing.Segment_store.t) g =
  Dr_slicing.Segment_store.flags records g
  land (Dr_slicing.Trace.flag_sync lor Dr_slicing.Trace.flag_final_ret)
  <> 0

let keep ~(slice : Dr_slicing.Slicer.t) ~(collector : Dr_slicing.Collector.result) =
  let gt = slice.Dr_slicing.Slicer.gt in
  let records = collector.Dr_slicing.Collector.records in
  let n = Dr_slicing.Segment_store.length records in
  let keep = Dr_util.Bitset.create n in
  Array.iter
    (fun pos -> Dr_util.Bitset.add keep (Dr_slicing.Global_trace.gseq_at gt pos))
    slice.Dr_slicing.Slicer.positions;
  for g = 0 to n - 1 do
    if forced records g then Dr_util.Bitset.add keep g
  done;
  keep

(* Walk each thread's records in program order and call
   [on_run tid start end_] once per maximal run of records outside
   [keep]: [start] is the run's first gseq, [end_] the thread's next
   kept gseq ([None] when the run reaches the region end). *)
let iter_runs ~(collector : Dr_slicing.Collector.result) keep on_run =
  Array.iteri
    (fun tid gseqs ->
      let run_start = ref (-1) in
      Array.iter
        (fun g ->
          if Dr_util.Bitset.mem keep g then begin
            if !run_start >= 0 then on_run tid !run_start (Some g);
            run_start := -1
          end
          else if !run_start < 0 then run_start := g)
        gseqs;
      if !run_start >= 0 then on_run tid !run_start None)
    collector.Dr_slicing.Collector.per_thread

let stats_of ~collector keep =
  let n = Dr_util.Bitset.length keep and kept = Dr_util.Bitset.cardinal keep in
  let regions = ref 0 in
  iter_runs ~collector keep (fun _ _ _ -> incr regions);
  { total_records = n; included_records = kept; excluded_records = n - kept;
    regions = !regions }

let build ~slice ~(collector : Dr_slicing.Collector.result) =
  let keep = keep ~slice ~collector in
  let marker g =
    let c = Dr_slicing.Segment_store.chunk collector.Dr_slicing.Collector.records g in
    Dr_slicing.Segment_store.Chunk.(pc c g, instance c g)
  in
  let regions = ref [] in
  iter_runs ~collector keep (fun tid start end_ ->
      let x_start_pc, x_start_instance = marker start in
      regions :=
        { x_tid = tid; x_start_pc; x_start_instance;
          x_end = Option.map marker end_ }
        :: !regions);
  (List.rev !regions, stats_of ~collector keep)

let kept_by ~(collector : Dr_slicing.Collector.result) regions =
  let module Chunk = Dr_slicing.Segment_store.Chunk in
  let records = collector.Dr_slicing.Collector.records in
  let kept = Dr_util.Bitset.create (Dr_slicing.Segment_store.length records) in
  let exception Unclosed of region in
  try
    Array.iteri
      (fun tid gseqs ->
        let queue = ref (List.filter (fun x -> x.x_tid = tid) regions) in
        let excluding = ref false in
        Array.iter
          (fun g ->
            let c = Dr_slicing.Segment_store.chunk records g in
            let pc = Chunk.pc c g and instance = Chunk.instance c g in
            (* the end marker is kept: it closes the region first, and an
               empty region [p:i, p:i) closes on its own start marker *)
            let check_end () =
              match !queue with
              | { x_end = Some (epc, einst); _ } :: rest
                when !excluding && epc = pc && einst = instance ->
                excluding := false;
                queue := rest
              | _ -> ()
            in
            check_end ();
            (match !queue with
            | { x_start_pc; x_start_instance; _ } :: _
              when (not !excluding) && x_start_pc = pc
                   && x_start_instance = instance ->
              excluding := true;
              check_end ()
            | _ -> ());
            if not !excluding then Dr_util.Bitset.add kept g)
          gseqs;
        match !queue with
        | ({ x_end = Some _; _ } as r) :: _ when !excluding -> raise (Unclosed r)
        | _ -> ())
      collector.Dr_slicing.Collector.per_thread;
    Ok kept
  with Unclosed r -> Error r

let slice_pinball (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t)
    ~slice ~collector =
  let keep = keep ~slice ~collector in
  let spb = Dr_pinplay.Relogger.relog prog pinball ~keep in
  (spb, stats_of ~collector keep)
