(* Tests for dr_isa: location encoding, stack layout, line table. *)

let test_loc_encoding () =
  let m = Dr_isa.Loc.mem 1234 in
  (match Dr_isa.Loc.view m with
  | Dr_isa.Loc.Mem 1234 -> ()
  | _ -> Alcotest.fail "mem view");
  let r = Dr_isa.Loc.reg ~tid:3 5 in
  (match Dr_isa.Loc.view r with
  | Dr_isa.Loc.Reg { tid = 3; reg = 5 } -> ()
  | _ -> Alcotest.fail "reg view");
  Alcotest.(check bool) "mem is mem" true (Dr_isa.Loc.is_mem m);
  Alcotest.(check bool) "reg not mem" false (Dr_isa.Loc.is_mem r);
  let f = Dr_isa.Loc.flags ~tid:2 in
  match Dr_isa.Loc.view f with
  | Dr_isa.Loc.Reg { tid = 2; reg } ->
    Alcotest.(check int) "flags reg" Dr_isa.Reg.flags reg
  | _ -> Alcotest.fail "flags view"

let prop_loc_distinct =
  QCheck.Test.make ~name:"loc encoding is injective" ~count:500
    QCheck.(pair (pair (int_bound 15) (int_bound 16)) (pair (int_bound 15) (int_bound 16)))
    (fun ((t1, r1), (t2, r2)) ->
      let l1 = Dr_isa.Loc.reg ~tid:t1 r1 and l2 = Dr_isa.Loc.reg ~tid:t2 r2 in
      (l1 = l2) = (t1 = t2 && r1 = r2))

let test_loc_mem_reg_disjoint () =
  (* memory and register encodings never collide *)
  for a = 0 to 1000 do
    let m = Dr_isa.Loc.mem a in
    Alcotest.(check bool) "parity" true (Dr_isa.Loc.is_mem m)
  done;
  for t = 0 to 7 do
    for r = 0 to 16 do
      Alcotest.(check bool) "reg parity" false
        (Dr_isa.Loc.is_mem (Dr_isa.Loc.reg ~tid:t r))
    done
  done

let sample_program () =
  let open Dr_isa.Instr in
  Dr_isa.Program.make ~name:"sample"
    ~data:[ (8, 42) ]
    ~data_end:9
    ~strings:[| "oops" |]
    ~entry:0
    [ Mov (0, Imm 1); Assert (0, 0); Halt ]

let test_stack_layout () =
  let p = sample_program () in
  let b0 = Dr_isa.Program.stack_base p ~tid:0 in
  let b1 = Dr_isa.Program.stack_base p ~tid:1 in
  Alcotest.(check int) "stack separation" p.Dr_isa.Program.stack_words (b0 - b1);
  Alcotest.(check int) "limit" (b0 - p.Dr_isa.Program.stack_words)
    (Dr_isa.Program.stack_limit p ~tid:0)

let test_line_of_pc_boundaries () =
  let dbg =
    { Dr_isa.Debug_info.empty with
      lines = [| (0, 1); (5, 2); (10, 3) |] }
  in
  Alcotest.(check (option int)) "pc 0" (Some 1) (Dr_isa.Debug_info.line_of_pc dbg 0);
  Alcotest.(check (option int)) "pc 4" (Some 1) (Dr_isa.Debug_info.line_of_pc dbg 4);
  Alcotest.(check (option int)) "pc 5" (Some 2) (Dr_isa.Debug_info.line_of_pc dbg 5);
  Alcotest.(check (option int)) "pc 100" (Some 3)
    (Dr_isa.Debug_info.line_of_pc dbg 100);
  Alcotest.(check (option int)) "pc_of_line" (Some 5)
    (Dr_isa.Debug_info.pc_of_line dbg 2)

let () =
  Alcotest.run "isa"
    [ ( "loc",
        [ Alcotest.test_case "encoding" `Quick test_loc_encoding;
          Alcotest.test_case "mem/reg disjoint" `Quick test_loc_mem_reg_disjoint;
          QCheck_alcotest.to_alcotest prop_loc_distinct ] );
      ( "program",
        [ Alcotest.test_case "stack layout" `Quick test_stack_layout;
          Alcotest.test_case "line table" `Quick test_line_of_pc_boundaries ] ) ]
