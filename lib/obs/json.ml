(* Minimal JSON tree, printer and parser.

   The container has no JSON library (and the growth rules forbid adding
   one), so the observability layer carries its own.  Scope is exactly
   what the exporter and the schema checks need: the seven standard value
   kinds, a Buffer-based printer with string escaping, and a
   recursive-descent parser used by the round-trip tests and
   [stm_run obs-check].  Ints are kept distinct from floats so counter
   values survive a round trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> escape buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          print buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  print buf v;
  Buffer.contents buf

let to_channel oc v =
  let buf = Buffer.create 65536 in
  print buf v;
  Buffer.output_buffer oc buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    &&
    match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if cur.pos >= String.length cur.s then fail cur "unterminated string";
    let c = cur.s.[cur.pos] in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if cur.pos >= String.length cur.s then fail cur "bad escape";
         let e = cur.s.[cur.pos] in
         cur.pos <- cur.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
             if cur.pos + 4 > String.length cur.s then fail cur "bad \\u";
             let hex = String.sub cur.s cur.pos 4 in
             cur.pos <- cur.pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail cur "bad \\u digits"
             in
             (* Only BMP code points below 0x80 round-trip byte-exactly;
                everything the exporter emits is ASCII, so encode the rest
                as UTF-8 best-effort. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf
                 (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
         | _ -> fail cur "bad escape");
        go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos]
  do
    cur.pos <- cur.pos + 1
  done;
  let tok = String.sub cur.s start (cur.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
      expect cur '{';
      skip_ws cur;
      if peek cur = Some '}' then begin
        expect cur '}';
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              expect cur ',';
              members ((k, v) :: acc)
          | Some '}' ->
              expect cur '}';
              List.rev ((k, v) :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      expect cur '[';
      skip_ws cur;
      if peek cur = Some ']' then begin
        expect cur ']';
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              expect cur ',';
              elements (v :: acc)
          | Some ']' ->
              expect cur ']';
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* --- accessors --------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

(* --- structural compare ------------------------------------------------ *)

(* Path of the first differing leaf, rendered as "a.b[2].c: x ≠ y"
   (expected ≠ actual).  Objects compare as maps (key order is not
   significant); [Int 1] and [Float 1.0] differ, because the printer keeps
   the two kinds apart and a frozen file must pin which one a field is. *)
let diff ?(path = "") expected actual =
  let show = function
    | List _ -> "[...]"
    | Obj _ -> "{...}"
    | v -> to_string v
  in
  let key path k = if path = "" then k else path ^ "." ^ k in
  let rec go path e a =
    match (e, a) with
    | Obj ekvs, Obj akvs -> (
        let in_expected =
          List.find_map
            (fun (k, ev) ->
              match List.assoc_opt k akvs with
              | None -> Some (key path k ^ ": missing")
              | Some av -> go (key path k) ev av)
            ekvs
        in
        match in_expected with
        | Some _ -> in_expected
        | None ->
            List.find_map
              (fun (k, _) ->
                if List.mem_assoc k ekvs then None
                else Some (key path k ^ ": unexpected"))
              akvs)
    | List es, List as_ ->
        let rec items i = function
          | [], [] -> None
          | _ :: _, [] -> Some (Printf.sprintf "%s[%d]: missing" path i)
          | [], _ :: _ -> Some (Printf.sprintf "%s[%d]: unexpected" path i)
          | e :: es, a :: as_ -> (
              match go (Printf.sprintf "%s[%d]" path i) e a with
              | None -> items (i + 1) (es, as_)
              | d -> d)
        in
        items 0 (es, as_)
    | Float x, Float y when Float.equal x y -> None
    | (Null | Bool _ | Int _ | Str _), _ when e = a -> None
    | _ -> Some (Printf.sprintf "%s: %s \u{2260} %s" path (show e) (show a))
  in
  go path expected actual
