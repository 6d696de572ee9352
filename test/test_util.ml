(* Tests for dr_util: vectors, codec round-trips (including qcheck
   properties), bitsets, stats. *)

let test_vec_basic () =
  let v = Dr_util.Vec.create ~dummy:0 in
  for i = 0 to 99 do
    Dr_util.Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Dr_util.Vec.length v);
  Alcotest.(check int) "get" 42 (Dr_util.Vec.get v 42);
  Alcotest.(check int) "last" 99 (Dr_util.Vec.last v);
  Alcotest.(check int) "pop" 99 (Dr_util.Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Dr_util.Vec.length v);
  Dr_util.Vec.set v 0 7;
  Alcotest.(check int) "set" 7 (Dr_util.Vec.get v 0);
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec.get")
    (fun () -> ignore (Dr_util.Vec.get v 99))

let test_int_vec () =
  let v = Dr_util.Vec.Int_vec.create () in
  for i = 0 to 9999 do
    Dr_util.Vec.Int_vec.push v (i * 3)
  done;
  Alcotest.(check int) "length" 10000 (Dr_util.Vec.Int_vec.length v);
  Alcotest.(check int) "get" 300 (Dr_util.Vec.Int_vec.get v 100);
  let a = Dr_util.Vec.Int_vec.to_array v in
  Alcotest.(check int) "array len" 10000 (Array.length a);
  Alcotest.(check int) "array val" 29997 a.(9999)

let test_codec_roundtrip () =
  let e = Dr_util.Codec.encoder () in
  Dr_util.Codec.put_uint e 0;
  Dr_util.Codec.put_uint e 127;
  Dr_util.Codec.put_uint e 128;
  Dr_util.Codec.put_uint e 1_000_000_007;
  Dr_util.Codec.put_int e (-1);
  Dr_util.Codec.put_int e (min_int / 4);
  Dr_util.Codec.put_string e "hello\000world";
  Dr_util.Codec.put_bool e true;
  Dr_util.Codec.put_int_array e [| 1; -2; 3 |];
  let d = Dr_util.Codec.decoder (Dr_util.Codec.to_string e) in
  Alcotest.(check int) "u0" 0 (Dr_util.Codec.get_uint d);
  Alcotest.(check int) "u127" 127 (Dr_util.Codec.get_uint d);
  Alcotest.(check int) "u128" 128 (Dr_util.Codec.get_uint d);
  Alcotest.(check int) "u1e9" 1_000_000_007 (Dr_util.Codec.get_uint d);
  Alcotest.(check int) "neg" (-1) (Dr_util.Codec.get_int d);
  Alcotest.(check int) "big neg" (min_int / 4) (Dr_util.Codec.get_int d);
  Alcotest.(check string) "string" "hello\000world" (Dr_util.Codec.get_string d);
  Alcotest.(check bool) "bool" true (Dr_util.Codec.get_bool d);
  Alcotest.(check (array int)) "array" [| 1; -2; 3 |] (Dr_util.Codec.get_int_array d);
  Alcotest.(check bool) "at end" true (Dr_util.Codec.at_end d)

let test_codec_corrupt () =
  let d = Dr_util.Codec.decoder "\xff" in
  Alcotest.check_raises "truncated"
    (Dr_util.Codec.Corrupt "truncated varint") (fun () ->
      ignore (Dr_util.Codec.get_uint d))

(* Zig-zag extremes must survive a round-trip bit-exactly. *)
let test_codec_extremes () =
  List.iter
    (fun x ->
      let e = Dr_util.Codec.encoder () in
      Dr_util.Codec.put_int e x;
      let d = Dr_util.Codec.decoder (Dr_util.Codec.to_string e) in
      Alcotest.(check int) (string_of_int x) x (Dr_util.Codec.get_int d);
      Alcotest.(check bool) "consumed" true (Dr_util.Codec.at_end d))
    [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

(* Over-long varints (10+ continuation bytes) must be rejected, not
   silently smeared into the sign bit. *)
let test_codec_overlong () =
  let d = Dr_util.Codec.decoder (String.make 10 '\xff') in
  Alcotest.check_raises "overlong" (Dr_util.Codec.Corrupt "varint too long")
    (fun () -> ignore (Dr_util.Codec.get_uint d))

(* A declared count/length larger than the remaining input must fail
   before any allocation proportional to the count. *)
let test_codec_bounded () =
  let huge_count =
    (* varint 2^40 followed by no payload *)
    let e = Dr_util.Codec.encoder () in
    Dr_util.Codec.put_uint e (1 lsl 40);
    Dr_util.Codec.to_string e
  in
  let expect_corrupt what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted bogus length" what
    | exception Dr_util.Codec.Corrupt _ -> ()
  in
  expect_corrupt "string" (fun () ->
      Dr_util.Codec.get_string (Dr_util.Codec.decoder huge_count));
  expect_corrupt "int array" (fun () ->
      Dr_util.Codec.get_int_array (Dr_util.Codec.decoder huge_count));
  expect_corrupt "list" (fun () ->
      Dr_util.Codec.get_list (Dr_util.Codec.decoder huge_count)
        Dr_util.Codec.get_int);
  expect_corrupt "count helper" (fun () ->
      Dr_util.Codec.get_count (Dr_util.Codec.decoder huge_count) "test")

let prop_codec_extreme_ints =
  QCheck.Test.make ~name:"codec extreme int round-trip" ~count:500
    QCheck.(list (oneof [ int; always min_int; always max_int ]))
    (fun xs ->
      let e = Dr_util.Codec.encoder () in
      List.iter (Dr_util.Codec.put_int e) xs;
      let d = Dr_util.Codec.decoder (Dr_util.Codec.to_string e) in
      List.for_all (fun x -> Dr_util.Codec.get_int d = x) xs
      && Dr_util.Codec.at_end d)

let prop_codec_int =
  QCheck.Test.make ~name:"codec int round-trip" ~count:500
    QCheck.(list int)
    (fun xs ->
      let e = Dr_util.Codec.encoder () in
      List.iter (Dr_util.Codec.put_int e) xs;
      let d = Dr_util.Codec.decoder (Dr_util.Codec.to_string e) in
      List.for_all (fun x -> Dr_util.Codec.get_int d = x) xs)

let prop_codec_string =
  QCheck.Test.make ~name:"codec string round-trip" ~count:200
    QCheck.(list string)
    (fun xs ->
      let e = Dr_util.Codec.encoder () in
      List.iter (Dr_util.Codec.put_string e) xs;
      let d = Dr_util.Codec.decoder (Dr_util.Codec.to_string e) in
      List.for_all (fun x -> Dr_util.Codec.get_string d = x) xs)

let test_bitset () =
  let b = Dr_util.Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Dr_util.Bitset.cardinal b);
  Dr_util.Bitset.add b 0;
  Dr_util.Bitset.add b 63;
  Dr_util.Bitset.add b 99;
  Alcotest.(check bool) "mem 63" true (Dr_util.Bitset.mem b 63);
  Alcotest.(check bool) "not mem 64" false (Dr_util.Bitset.mem b 64);
  Alcotest.(check int) "cardinal" 3 (Dr_util.Bitset.cardinal b);
  Dr_util.Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Dr_util.Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Dr_util.Bitset.to_list b);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: out of range")
    (fun () -> ignore (Dr_util.Bitset.mem b 100))

let prop_bitset =
  QCheck.Test.make ~name:"bitset matches reference set" ~count:200
    QCheck.(list (int_bound 499))
    (fun xs ->
      let b = Dr_util.Bitset.create 500 in
      List.iter (Dr_util.Bitset.add b) xs;
      let expect = List.sort_uniq compare xs in
      Dr_util.Bitset.to_list b = expect)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Dr_util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0
    (Dr_util.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "percent" 25.0
    (Dr_util.Stats.percent ~part:1 ~total:4);
  Alcotest.(check (float 1e-9)) "stddev" 1.0
    (Dr_util.Stats.stddev [ 1.0; 2.0; 3.0 ]);
  let lo, hi = Dr_util.Stats.min_max [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 3.0 hi

(* ---- json ---- *)

let test_json_roundtrip () =
  let module J = Dr_util.Json in
  let v =
    J.Obj
      [ ("schema", J.Str "demo-v1");
        ("ok", J.Bool true);
        ("none", J.Null);
        ("count", J.int 42);
        ("ratio", J.Num 0.125);
        (* needs 17 significant digits: 9 used to print 0.00553107262 *)
        ("lossy", J.Num 0.0055310726165771484);
        ( "items",
          J.List [ J.int 1; J.Str "two \"quoted\"\n"; J.List []; J.Obj [] ] ) ]
  in
  List.iter
    (fun indent ->
      match J.parse (J.to_string ~indent v) with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
    [ true; false ]

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"json finite float round-trip" ~count:1000
    QCheck.(float)
    (fun f ->
      let module J = Dr_util.Json in
      QCheck.assume (Float.is_finite f);
      J.parse (J.to_string (J.Num f)) = Ok (J.Num f))

let test_json_rejects_bad_input () =
  let module J = Dr_util.Json in
  let bad =
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad;
  Alcotest.check_raises "NaN rejected at emission"
    (Invalid_argument "Json: NaN/infinity is not representable") (fun () ->
      ignore (J.to_string (J.Num Float.nan)))

let test_json_accessors () =
  let module J = Dr_util.Json in
  match J.parse {|{"a": 1.5, "b": [true, "x"], "c": null}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    Alcotest.(check (option (float 1e-9)))
      "num" (Some 1.5)
      (Option.bind (J.member "a" v) J.to_float);
    (match Option.bind (J.member "b" v) J.to_list with
    | Some [ t; s ] ->
      Alcotest.(check (option bool)) "bool" (Some true) (J.to_bool t);
      Alcotest.(check (option string)) "str" (Some "x") (J.to_str s)
    | _ -> Alcotest.fail "list accessor");
    Alcotest.(check bool) "null member" true (J.member "c" v = Some J.Null);
    Alcotest.(check bool) "missing member" true (J.member "zz" v = None)

(* Metrics moved to the observability library (Dr_obs): its tests live
   in test_obs.ml alongside spans and histograms. *)

(* ---- heap ---- *)

let test_heap_basic () =
  let h = Dr_util.Heap.create ~dummy:"" in
  Alcotest.(check bool) "empty" true (Dr_util.Heap.is_empty h);
  List.iter
    (fun (k, v) -> Dr_util.Heap.push h k v)
    [ (3, "c"); (10, "j"); (1, "a"); (7, "g"); (10, "j2") ];
  Alcotest.(check int) "length" 5 (Dr_util.Heap.length h);
  Alcotest.(check (option int)) "peek max" (Some 10) (Dr_util.Heap.peek_key h);
  let keys = ref [] in
  let rec drain () =
    match Dr_util.Heap.pop h with
    | None -> ()
    | Some (k, _) ->
      keys := k :: !keys;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "descending pop order" [ 10; 10; 7; 3; 1 ]
    (List.rev !keys);
  Alcotest.(check (option int)) "exhausted" None (Dr_util.Heap.peek_key h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops every key in descending order" ~count:100
    QCheck.(list int)
    (fun keys ->
      let h = Dr_util.Heap.create ~dummy:0 in
      List.iter (fun k -> Dr_util.Heap.push h k k) keys;
      let out = ref [] in
      let rec drain () =
        match Dr_util.Heap.pop h with
        | None -> ()
        | Some (k, v) ->
          assert (k = v);
          out := k :: !out;
          drain ()
      in
      drain ();
      (* popped descending = accumulated list ascending *)
      List.rev !out = List.sort (fun a b -> Int.compare b a) keys)

(* ---- domain pool ---- *)

exception Boom of int

(* Task [i] writes slot [i] of the result, whichever domain claims it. *)
let pool_map ~domains f xs =
  let out = Array.make (Array.length xs) None in
  Dr_util.Pool.run ~domains
    (Array.mapi (fun i x () -> out.(i) <- Some (f x)) xs);
  Array.map Option.get out

let test_pool_map_order () =
  let xs = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "slots @ %d domains deterministic" domains)
        expect
        (pool_map ~domains (fun x -> (x * x) + 1) xs))
    [ 1; 2; 4 ]

let test_pool_exception () =
  (* at one domain the caller drains the batch alone; the contract is
     the same as with helpers *)
  List.iter
    (fun domains ->
      let ran = Array.make 8 false in
      let tasks =
        Array.init 8 (fun i () ->
            ran.(i) <- true;
            if i = 3 then raise (Boom i))
      in
      (match Dr_util.Pool.run ~domains tasks with
      | () -> Alcotest.fail "task exception was swallowed"
      | exception Boom 3 -> ()
      | exception e ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
      (* the batch is not torn down: every task still ran *)
      Array.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "%d domains: task %d ran" domains i)
            true r)
        ran)
    [ 1; 2 ]

let prop_pool_map_matches_sequential =
  QCheck.Test.make ~name:"pool map = Array.map at any domain count" ~count:30
    QCheck.(pair (int_range 1 4) (list small_int))
    (fun (domains, xs) ->
      let xs = Array.of_list xs in
      pool_map ~domains (fun x -> x * 7) xs = Array.map (fun x -> x * 7) xs)

let () =
  Alcotest.run "util"
    [ ( "vec",
        [ Alcotest.test_case "poly vec" `Quick test_vec_basic;
          Alcotest.test_case "int vec" `Quick test_int_vec ] );
      ( "codec",
        [ Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "corrupt" `Quick test_codec_corrupt;
          Alcotest.test_case "zig-zag extremes" `Quick test_codec_extremes;
          Alcotest.test_case "overlong varint" `Quick test_codec_overlong;
          Alcotest.test_case "bounded counts" `Quick test_codec_bounded;
          QCheck_alcotest.to_alcotest prop_codec_int;
          QCheck_alcotest.to_alcotest prop_codec_string;
          QCheck_alcotest.to_alcotest prop_codec_extreme_ints ] );
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset;
          QCheck_alcotest.to_alcotest prop_bitset ] );
      ("stats", [ Alcotest.test_case "basic" `Quick test_stats ]);
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects bad input" `Quick
            test_json_rejects_bad_input;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip ] );
      ( "heap",
        [ Alcotest.test_case "basic" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorts ] );
      ( "pool",
        [ Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          QCheck_alcotest.to_alcotest prop_pool_map_matches_sequential ] ) ]
