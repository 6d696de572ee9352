(* Fault-injection harness for the pinball container (the robustness
   counterpart of test_pinplay): systematic truncation at every byte
   boundary, seeded bit flips, hostile tiny inputs, the retired v1 magic,
   and divergence localization via execution digests.

   The invariant under test: no corrupted pinball may decode silently,
   crash with an unstructured exception, or make the decoder allocate
   memory proportional to anything but the input size.  Every mutation
   must surface as a structured [Pinball_error]. *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"fault" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

(* Two racing threads plus rand/read syscalls: exercises the snapshot,
   schedule, syscall, and digest sections. *)
let racy_src =
  {|
global int x;
fn t2(int n) {
  int k = x;
  k = k + 1;
  x = k;
}
fn main() {
  int t = spawn(t2, 0);
  int k = x;
  k = k + 1;
  x = k;
  join(t);
  print(x);
  print(rand() % 100);
  print(read());
}
|}

let straightline_src =
  {|
global int a;
global int b;
global int c;
fn main() {
  a = 1;
  b = 2;
  b = b * 10;
  b = b + 3;
  c = a + b;
  print(c);
}
|}

let log_whole ?(digest_interval = 1) src =
  let prog = compile src in
  match
    Dr_pinplay.Logger.log
      ~policy:(Dr_machine.Driver.Seeded { seed = 3; max_quantum = 4 })
      ~input:[| 55 |] ~digest_interval prog Dr_pinplay.Logger.Whole
  with
  | Ok (pb, _) -> (prog, pb)
  | Error e -> Alcotest.failf "logging failed: %a" Dr_pinplay.Logger.pp_error e

(* A slice pinball (carries injections + slice-events sections). *)
let slice_pinball () =
  let prog = compile straightline_src in
  let pb, _ =
    match Dr_pinplay.Logger.log prog Dr_pinplay.Logger.Whole with
    | Ok r -> r
    | Error e -> Alcotest.failf "log: %a" Dr_pinplay.Logger.pp_error e
  in
  (* keep every event but 5..9 *)
  let n = Dr_pinplay.Pinball.schedule_instructions pb in
  let keep = Dr_util.Bitset.create n in
  for k = 0 to n - 1 do
    if k < 5 || k >= 10 then Dr_util.Bitset.add keep k
  done;
  Dr_pinplay.Relogger.relog prog pb ~keep

(* Decoding corrupted bytes must yield exactly a structured error —
   anything else (success, Invalid_argument, Out_of_memory, ...) fails. *)
let expect_structured what s =
  match Dr_pinplay.Pinball.of_bytes s with
  | _ -> Alcotest.failf "%s: corrupt pinball decoded without error" what
  | exception Dr_pinplay.Pinball.Pinball_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: unstructured exception %s" what (Printexc.to_string e)

let flip_bit s i bit =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

(* ---- systematic truncation ---- *)

let test_truncation_region () =
  let _, pb = log_whole racy_src in
  let bytes = Dr_pinplay.Pinball.to_bytes pb in
  for len = 0 to String.length bytes - 1 do
    expect_structured
      (Printf.sprintf "region truncated to %d/%d" len (String.length bytes))
      (String.sub bytes 0 len)
  done

let test_truncation_slice () =
  let spb = slice_pinball () in
  Alcotest.(check bool) "is a slice" true
    (spb.Dr_pinplay.Pinball.kind = Dr_pinplay.Pinball.Slice);
  let bytes = Dr_pinplay.Pinball.to_bytes spb in
  for len = 0 to String.length bytes - 1 do
    expect_structured
      (Printf.sprintf "slice truncated to %d/%d" len (String.length bytes))
      (String.sub bytes 0 len)
  done

(* ---- seeded bit flips ---- *)

(* 256 deterministic single-bit flips spread over the container.  The
   whole-file trailer CRC32 guarantees every one is caught (a flip in
   the trailer itself mismatches too). *)
let test_bit_flips () =
  let _, pb = log_whole racy_src in
  let bytes = Dr_pinplay.Pinball.to_bytes pb in
  let n = String.length bytes in
  let state = ref 42 in
  let next () =
    state := ((!state * 2685821657736338717) + 1442695040888963407) land max_int;
    !state
  in
  for k = 1 to 256 do
    let i = next () mod n in
    let bit = next () mod 8 in
    let mutated = flip_bit bytes i bit in
    expect_structured
      (Printf.sprintf "flip #%d (byte %d bit %d)" k i bit)
      mutated;
    (* verify_bytes must agree, without raising *)
    if k mod 32 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "verify_bytes flags flip #%d" k)
        false
        (Dr_pinplay.Pinball.report_ok (Dr_pinplay.Pinball.verify_bytes mutated))
  done

(* ---- CRC-valid section damage ---- *)

(* Split a container into its header fields and section payloads, and
   seal it again with fresh section CRCs and trailer, so damage to a
   payload gets past every checksum and reaches the section decoders. *)
let unseal bytes =
  let open Dr_util.Codec in
  let d = decoder bytes in
  let magic = get_string d in
  let version = get_uint d in
  let flags = get_uint d in
  let table =
    List.init (get_uint d) (fun _ ->
        let id = get_uint d in
        let len = get_uint d in
        ignore (get_uint d : int);
        (id, len))
  in
  let off = ref d.pos in
  let sections =
    List.map
      (fun (id, len) ->
        let payload = String.sub bytes !off len in
        off := !off + len;
        (id, payload))
      table
  in
  (magic, version, flags, sections)

let reseal (magic, version, flags, sections) =
  let open Dr_util.Codec in
  let e = encoder () in
  put_string e magic;
  put_uint e version;
  put_uint e flags;
  put_uint e (List.length sections);
  List.iter
    (fun (id, p) ->
      put_uint e id;
      put_uint e (String.length p);
      put_uint e (Dr_util.Crc32.string p))
    sections;
  List.iter (fun (_, p) -> Buffer.add_string e p) sections;
  let body = to_string e in
  let crc = Dr_util.Crc32.string body in
  body ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * (3 - i))) land 0xff))

(* Up to 16 prefixes and 16 spread bit flips of every section payload,
   each resealed; every decode builds a whole memory image, so the sweep
   samples rather than enumerates.  [of_bytes] may accept the damage (a
   flipped count can still decode) but may raise nothing other than
   [Pinball_error]: no bare [Dr_util.Codec.Corrupt] escapes a section
   decoder.  One damaged file per section also goes through
   [load_file]. *)
let test_resealed_sections () =
  let check what s =
    match Dr_pinplay.Pinball.of_bytes s with
    | _ | (exception Dr_pinplay.Pinball.Pinball_error _) -> ()
    | exception e ->
      Alcotest.failf "%s: unstructured exception %s" what (Printexc.to_string e)
  in
  let sweep bytes =
    let magic, version, flags, sections = unseal bytes in
    Alcotest.(check bool) "reseal is the identity" true
      (reseal (magic, version, flags, sections) = bytes);
    List.iteri
      (fun k (id, payload) ->
        let with_payload p =
          reseal
            (magic, version, flags,
             List.mapi (fun j s -> if j = k then (id, p) else s) sections)
        in
        let n = String.length payload in
        let cut len =
          check
            (Printf.sprintf "section %d cut to %d/%d" id len n)
            (with_payload (String.sub payload 0 len))
        in
        for i = 0 to min n 16 - 1 do
          cut (i * n / min n 16)
        done;
        if n > 0 then cut (n - 1);
        check (Printf.sprintf "section %d + 1 byte" id) (with_payload (payload ^ "\x01"));
        for f = 1 to if n = 0 then 0 else 16 do
          let bit = (f * 2654435761) mod (n * 8) in
          check
            (Printf.sprintf "section %d bit %d" id bit)
            (with_payload (flip_bit payload (bit / 8) (bit mod 8)))
        done;
        let path = Filename.temp_file "fault" ".pinball" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (with_payload (String.sub payload 0 (n / 2))));
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            match Dr_pinplay.Pinball.load_file path with
            | _ | (exception Dr_pinplay.Pinball.Pinball_error _) -> ()
            | exception e ->
              Alcotest.failf "load_file, section %d: unstructured exception %s"
                id (Printexc.to_string e)))
      sections
  in
  sweep (Dr_pinplay.Pinball.to_bytes (snd (log_whole racy_src)));
  sweep (Dr_pinplay.Pinball.to_bytes (slice_pinball ()))

(* ---- hostile tiny inputs: structured errors, bounded allocation ---- *)

let test_tiny_inputs () =
  expect_structured "empty" "";
  expect_structured "single byte" "\x00";
  expect_structured "bad magic" "\x05WRONG";
  expect_structured "magic only v2" "\x05DRPB2";
  (* a v2 header whose section count claims ~2^50 entries: must fail
     against the remaining-input budget, not allocate *)
  let e = Dr_util.Codec.encoder () in
  Dr_util.Codec.put_string e "DRPB2";
  Dr_util.Codec.put_uint e 2 (* version *);
  Dr_util.Codec.put_uint e 0 (* flags *);
  Dr_util.Codec.put_uint e (1 lsl 50) (* section count *);
  expect_structured "huge v2 section count" (Dr_util.Codec.to_string e)

(* ---- trailing garbage ---- *)

let test_trailing_bytes () =
  let _, pb = log_whole racy_src in
  expect_structured "v2 + trailing byte" (Dr_pinplay.Pinball.to_bytes pb ^ "\x00")

(* ---- the retired v1 container ---- *)

(* Format v1 (bare "DRPB1" magic + unchecksummed body) is no longer
   read: such a file is a structured header error, from the decoder and
   from the integrity report alike. *)
let test_v1_rejected () =
  let e = Dr_util.Codec.encoder () in
  Dr_util.Codec.put_string e "DRPB1";
  Dr_util.Codec.put_string e "prog";
  Dr_util.Codec.put_uint e 0 (* kind *);
  let bytes = Dr_util.Codec.to_string e in
  (match Dr_pinplay.Pinball.of_bytes bytes with
  | _ -> Alcotest.fail "v1 file decoded"
  | exception Dr_pinplay.Pinball.Pinball_error err ->
    Alcotest.(check string) "section" "header" err.Dr_pinplay.Pinball.pe_section;
    Alcotest.(check string) "reason" "bad pinball magic"
      err.Dr_pinplay.Pinball.pe_reason);
  let r = Dr_pinplay.Pinball.verify_bytes bytes in
  Alcotest.(check bool) "verify flags it" false (Dr_pinplay.Pinball.report_ok r);
  Alcotest.(check (list string)) "verify names the magic"
    [ "bad pinball magic" ] r.Dr_pinplay.Pinball.r_problems

(* ---- verify report on intact input ---- *)

let test_verify_report () =
  let _, pb = log_whole racy_src in
  let bytes = Dr_pinplay.Pinball.to_bytes pb in
  let r = Dr_pinplay.Pinball.verify_bytes bytes in
  let open Dr_pinplay.Pinball in
  Alcotest.(check bool) "intact" true (report_ok r);
  Alcotest.(check int) "version" 2 r.r_version;
  Alcotest.(check bool) "trailer ok" true r.r_trailer_ok;
  Alcotest.(check bool) "has the four required sections" true
    (List.length r.r_sections >= 4);
  Alcotest.(check bool) "every section crc ok" true
    (List.for_all (fun s -> s.sr_crc_ok) r.r_sections);
  Alcotest.(check bool) "digests seen" true (r.r_digest_count > 0);
  (* corrupt one payload byte: the report localizes it to a section *)
  let payload_flip = flip_bit bytes (String.length bytes - 8) 3 in
  let r' = verify_bytes payload_flip in
  Alcotest.(check bool) "flip detected" false (report_ok r');
  Alcotest.(check bool) "problems listed" true (r'.r_problems <> [])

(* A section length read from the file must not overflow the range
   checks.  With [len = 2^62 - payload_start] the sum [payload_start +
   len] wraps to [min_int], so a check written as [off + len > limit]
   passes and the CRC loop runs off the end of the string.  The report
   must name the bad length instead; [of_bytes] must fail structured. *)
let test_overflowing_section_length () =
  let open Dr_util.Codec in
  let container len =
    let e = encoder () in
    put_string e "DRPB2";
    put_uint e 2 (* version *);
    put_uint e 0 (* flags *);
    put_uint e 1 (* section count *);
    put_uint e 3 (* schedule *);
    put_uint e len;
    put_uint e 0 (* crc *);
    let header = to_string e in
    let body = header ^ String.make 8 '\x00' in
    let crc = Dr_util.Crc32.string body in
    (String.length header,
     body ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * (3 - i))) land 0xff)))
  in
  (* every length in [2^56, 2^63) takes 9 varint bytes, so the
     placeholder gives the real payload start *)
  let payload_start, _ = container (1 lsl 61) in
  let len = (1 lsl 62) - payload_start in
  let payload_start', bytes = container len in
  Alcotest.(check int) "payload start fixed" payload_start payload_start';
  Alcotest.(check int) "the sum wraps" min_int (payload_start + len);
  let r =
    try Dr_pinplay.Pinball.verify_bytes bytes
    with e -> Alcotest.failf "verify_bytes raised %s" (Printexc.to_string e)
  in
  Alcotest.(check bool) "flagged" false (Dr_pinplay.Pinball.report_ok r);
  Alcotest.(check bool) "trailer ok" true r.Dr_pinplay.Pinball.r_trailer_ok;
  Alcotest.(check bool)
    (Printf.sprintf "names the length: %s"
       (String.concat "; " r.Dr_pinplay.Pinball.r_problems))
    true
    (List.mem
       (Printf.sprintf "section schedule length %d exceeds file" len)
       r.Dr_pinplay.Pinball.r_problems);
  expect_structured "overflowing section length" bytes;
  (* the checksum's own range check must not wrap either *)
  match Dr_util.Crc32.string ~pos:1 ~len:max_int "abc" with
  | _ -> Alcotest.fail "Crc32 accepted a range past the string"
  | exception Invalid_argument m ->
    Alcotest.(check string) "rejected by the range check" "Crc32.update" m

(* ---- divergence localization via digests ---- *)

let test_digests_verify_clean () =
  let prog, pb = log_whole racy_src in
  Alcotest.(check bool) "digests recorded" true
    (Array.length pb.Dr_pinplay.Pinball.digests > 0);
  (* an unperturbed replay must pass every digest checkpoint *)
  let _ = Dr_pinplay.Replayer.replay prog pb in
  ()

let test_perturbed_syscall_localized () =
  let prog, pb = log_whole racy_src in
  let syscalls = Array.copy pb.Dr_pinplay.Pinball.syscalls in
  Alcotest.(check bool) "has syscalls" true (Array.length syscalls > 0);
  syscalls.(0) <- syscalls.(0) + 7;
  let pb' = { pb with Dr_pinplay.Pinball.syscalls } in
  match Dr_pinplay.Replayer.replay prog pb' with
  | _ -> Alcotest.fail "perturbed replay did not diverge"
  | exception
      Dr_pinplay.Replayer.Divergence
        (Dr_pinplay.Replayer.Digest_mismatch { step; tid; _ } as d) ->
    (* pinned: with a digest at every step, the first step whose state
       the perturbed result changes *)
    Alcotest.(check int) "step localized" 54 step;
    Alcotest.(check int) "thread localized" 0 tid;
    let msg = Dr_pinplay.Replayer.divergence_message d in
    Alcotest.(check bool)
      (Printf.sprintf "message names step and thread: %s" msg)
      true
      (String.length msg > 0
      && String.sub msg 0 19 = "first divergence at")
  | exception Dr_pinplay.Replayer.Divergence d ->
    Alcotest.failf "wrong divergence kind: %s"
      (Dr_pinplay.Replayer.divergence_message d)

let test_truncated_syscall_log () =
  let prog, pb = log_whole ~digest_interval:0 racy_src in
  let n = Array.length pb.Dr_pinplay.Pinball.syscalls in
  Alcotest.(check bool) "has syscalls" true (n > 0);
  let pb' =
    { pb with
      Dr_pinplay.Pinball.syscalls =
        Array.sub pb.Dr_pinplay.Pinball.syscalls 0 (n - 1) }
  in
  match Dr_pinplay.Replayer.replay prog pb' with
  | _ -> Alcotest.fail "replay with truncated syscall log did not diverge"
  | exception
      Dr_pinplay.Replayer.Divergence
        (Dr_pinplay.Replayer.Syscall_log_exhausted { consumed }) ->
    Alcotest.(check int) "consumed the whole log" (n - 1) consumed
  | exception Dr_pinplay.Replayer.Divergence d ->
    Alcotest.failf "wrong divergence kind: %s"
      (Dr_pinplay.Replayer.divergence_message d)

let () =
  Alcotest.run "fault_injection"
    [ ( "truncation",
        [ Alcotest.test_case "region pinball, every prefix" `Quick
            test_truncation_region;
          Alcotest.test_case "slice pinball, every prefix" `Quick
            test_truncation_slice ] );
      ( "corruption",
        [ Alcotest.test_case "256 seeded bit flips" `Quick test_bit_flips;
          Alcotest.test_case "hostile tiny inputs" `Quick test_tiny_inputs;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_bytes;
          Alcotest.test_case "resealed section damage" `Quick
            test_resealed_sections ] );
      ( "compat",
        [ Alcotest.test_case "v1 magic rejected" `Quick test_v1_rejected ] );
      ( "verify",
        [ Alcotest.test_case "report on intact and damaged" `Quick
            test_verify_report;
          Alcotest.test_case "overflowing section length" `Quick
            test_overflowing_section_length ] );
      ( "divergence",
        [ Alcotest.test_case "clean replay passes digests" `Quick
            test_digests_verify_clean;
          Alcotest.test_case "perturbed syscall localized" `Quick
            test_perturbed_syscall_localized;
          Alcotest.test_case "exhausted syscall log" `Quick
            test_truncated_syscall_log ] ) ]
