(** Crash-safe file writes: write to [path ^ ".tmp"], fsync, then rename
    over the destination.

    On POSIX the rename is atomic, so readers either see the complete old
    file or the complete new file — a crash mid-save can never leave a
    truncated pinball or slice file behind (it leaves at worst a stale
    [.tmp] that the next save overwrites). *)

let with_out path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     f oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_string path s = with_out path (fun oc -> output_string oc s)

(** Create [dir] and any missing parents; returns the directories it
    made, deepest first.  One made concurrently by someone else counts
    as existing.  On failure the directories made so far are removed
    again before the [Sys_error] propagates. *)
let mkdir_p dir =
  let rec walk dir =
    if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then []
    else
      let made = walk (Filename.dirname dir) in
      match Sys.mkdir dir 0o755 with
      | () -> dir :: made
      | exception Sys_error _ when Sys.file_exists dir -> made
      | exception e ->
        List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) made;
        raise e
  in
  walk dir
