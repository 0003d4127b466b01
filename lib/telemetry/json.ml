(* Minimal JSON: just enough for the telemetry subsystem's JSONL
   emission and for validating files it wrote itself.

   Serialisation is canonical — object keys keep insertion order,
   numbers print through a fixed format — so that two campaigns with the
   same seed produce byte-identical metrics files (an acceptance
   criterion of the observability layer; no dependence on hash order or
   locale). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)
(* ------------------------------------------------------------------ *)

(* The quoted, escaped string. *)
let add_string buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

(* [string_of_int i], digit by digit: the magnitude is taken negative,
   so [min_int] needs no special case. *)
let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  let n = if i < 0 then i else -i in
  let pow = ref 1 in
  while n / !pow <= -10 do
    pow := !pow * 10
  done;
  while !pow > 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 - (n / !pow mod 10)));
    pow := !pow / 10
  done

(* What [Printf.sprintf "%.12g"] calls. *)
external format_float : string -> float -> string = "caml_format_float"

(* Fixed float format: integral values render as "x.0" (["%.1f"],
   written here from the integer, so they allocate nothing), everything
   else through %.12g (12 significant digits cover the cycle model's
   sums exactly while staying locale-independent). *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if f = 0.0 && Float.sign_bit f then Buffer.add_char buf '-';
    add_int buf (int_of_float f);
    Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf (format_float "%.12g" f)

let float_repr f =
  let buf = Buffer.create 24 in
  add_float buf f;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | Str s -> add_string buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; accepts what [to_string] emits plus      *)
(* arbitrary whitespace).                                               *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %c at %d, got %c" ch c.pos x
  | None -> fail "expected %c at %d, got end of input" ch c.pos

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'; advance c
      | Some '\\' -> Buffer.add_char buf '\\'; advance c
      | Some 'n' -> Buffer.add_char buf '\n'; advance c
      | Some 'r' -> Buffer.add_char buf '\r'; advance c
      | Some 't' -> Buffer.add_char buf '\t'; advance c
      | Some '/' -> Buffer.add_char buf '/'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then fail "truncated \\u escape";
        let hex = String.sub c.text c.pos 4 in
        c.pos <- c.pos + 4;
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail "bad \\u escape %s" hex
        in
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else fail "non-ASCII \\u escape unsupported"
      | _ -> fail "bad escape");
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S at %d" s start)

let parse_literal c lit value =
  if
    c.pos + String.length lit <= String.length c.text
    && String.sub c.text c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else fail "bad literal at %d" c.pos

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string_body c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected , or } at %d" c.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail "expected , or ] at %d" c.pos
      in
      Arr (elements [])
    end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %c at %d" ch c.pos

let of_string s =
  let c = { text = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing input at %d" c.pos;
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* Typed field readers: the one place a reader's error names a missing
   or mistyped field. *)
let bad name what = Error (Printf.sprintf "field %S is not %s" name what)
let missing name = Error (Printf.sprintf "missing field %S" name)

let int name j =
  match member name j with
  | Some (Int v) -> Ok v
  | Some _ -> bad name "an int"
  | None -> missing name

let str name j =
  match member name j with
  | Some (Str v) -> Ok v
  | Some _ -> bad name "a string"
  | None -> missing name

let float name j =
  match member name j with
  | Some (Float v) -> Ok v
  | Some (Int v) -> Ok (float_of_int v)
  | Some _ -> bad name "a number"
  | None -> missing name
