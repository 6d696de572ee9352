(** Minimal JSON tree, emitter and parser.

    The container has no JSON library; the bench harness emits
    [BENCH_*.json] through {!to_string} and the schema smoke test reads
    it back through {!parse}.  Only the JSON subset we emit is
    supported: no unicode escapes beyond [\uXXXX] pass-through, numbers
    are OCaml floats, and NaN/infinity are rejected at emission time
    (they are not valid JSON). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* ---- emission ---- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integers print without a fraction; any other float prints as the
   shortest of 15, 16 or 17 significant digits that parses back to the
   same float, so a document survives print/parse unchanged. *)
let number_to_string f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Json: NaN/infinity is not representable"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
      match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let rec emit b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_string b (if indent then "[\n" else "[");
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b (if indent then ",\n" else ",");
        pad (level + 1);
        emit b ~indent ~level:(level + 1) item)
      items;
    if indent then begin
      Buffer.add_char b '\n';
      pad level
    end;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_string b (if indent then "{\n" else "{");
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string b (if indent then ",\n" else ",");
        pad (level + 1);
        escape_string b k;
        Buffer.add_string b (if indent then ": " else ":");
        emit b ~indent ~level:(level + 1) item)
      fields;
    if indent then begin
      Buffer.add_char b '\n';
      pad level
    end;
    Buffer.add_char b '}'

let to_string ?(indent = true) v =
  let b = Buffer.create 1024 in
  emit b ~indent ~level:0 v;
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %c, found %c" c c')
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let parse_literal st word v =
  String.iter (fun c -> expect st c) word;
  v

let parse_string_raw st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' -> advance st; Buffer.add_char b '"'; go ()
      | Some '\\' -> advance st; Buffer.add_char b '\\'; go ()
      | Some '/' -> advance st; Buffer.add_char b '/'; go ()
      | Some 'n' -> advance st; Buffer.add_char b '\n'; go ()
      | Some 'r' -> advance st; Buffer.add_char b '\r'; go ()
      | Some 't' -> advance st; Buffer.add_char b '\t'; go ()
      | Some 'b' -> advance st; Buffer.add_char b '\b'; go ()
      | Some 'f' -> advance st; Buffer.add_char b '\012'; go ()
      | Some 'u' ->
        advance st;
        let hex = Buffer.create 4 in
        for _ = 1 to 4 do
          match peek st with
          | Some c -> advance st; Buffer.add_char hex c
          | None -> error st "truncated \\u escape"
        done;
        let code =
          match int_of_string_opt ("0x" ^ Buffer.contents hex) with
          | Some c -> c
          | None -> error st "bad \\u escape"
        in
        (* BMP only; fine for our own output *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
        go ()
      | _ -> error st "bad escape")
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> error st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws st;
        let k = parse_string_raw st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields_loop ()
        | Some '}' -> advance st
        | _ -> error st "expected , or } in object"
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items_loop ()
        | Some ']' -> advance st
        | _ -> error st "expected , or ] in array"
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string_raw st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let parse (s : string) : (t, string) result =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then error st "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors (for schema checks) ---- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
