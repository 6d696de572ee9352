(* Execution regions (paper section 2, "Replay efficiency"): instead of
   capturing a whole execution, fast-forward and log only a region of
   interest, then replay just that region — each debug session starts at
   the region entry with no fast-forwarding.

   Run with: dune exec examples/region_logging.exe *)

let () =
  print_endline "== DrDebug region logging on a PARSEC-style workload ==\n";
  let w = Option.get (Dr_workloads.Parsec.find "fluidanimate") in
  let prog = Dr_workloads.Parsec.compile ~threads:4 ~iters:3000 w in
  Printf.printf "workload: %s (4 threads)\n\n" "fluidanimate";
  List.iter
    (fun (skip, length) ->
      match
        Dr_pinplay.Logger.log prog
          (Dr_pinplay.Logger.Skip_length { skip; length })
      with
      | Error e ->
        Format.printf "region skip=%d len=%d: failed: %a@." skip length
          Dr_pinplay.Logger.pp_error e
      | Ok (pb, stats) ->
        (* replay the region and time it *)
        let t0 = Unix.gettimeofday () in
        let _, _ = Dr_pinplay.Replayer.replay prog pb in
        let replay_time = Unix.gettimeofday () -. t0 in
        Printf.printf
          "region skip=%-6d len=%-6d: logged %7d instrs (all threads) in %.3fs, \
           pinball %6d bytes, replayed in %.3fs\n"
          skip length stats.Dr_pinplay.Logger.region_instructions
          stats.Dr_pinplay.Logger.log_time
          (Dr_pinplay.Pinball.size_bytes pb) replay_time)
    [ (0, 5_000); (10_000, 5_000); (50_000, 5_000); (10_000, 50_000) ];
  print_endline "\nEvery region replays from its snapshot: no fast-forward, same";
  print_endline "heap/stack/schedule every time — the paper's replay efficiency."
