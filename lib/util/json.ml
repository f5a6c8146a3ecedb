type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
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
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf ppf "%.1f" f
      else Format.fprintf ppf "%.6g" f
  | Str s -> Format.fprintf ppf "\"%s\"" (escape s)
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
      Format.fprintf ppf "@[<v 2>[@,%a@;<0 -2>]@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           pp)
        items
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      Format.fprintf ppf "@[<v 2>{@,%a@;<0 -2>}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           (fun ppf (k, v) -> Format.fprintf ppf "@[<hov 2>\"%s\":@ %a@]" (escape k) pp v))
        fields

let to_string t = Format.asprintf "%a" pp t

(* One-line rendering for line-oriented streams (JSONL): same number and
   escaping rules as [pp], no layout. *)
let to_string_compact t =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let rec go = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Int i -> add (string_of_int i)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          add (Printf.sprintf "%.1f" f)
        else add (Printf.sprintf "%.6g" f)
    | Str s ->
        add "\"";
        add (escape s);
        add "\""
    | List items ->
        add "[";
        List.iteri
          (fun i v ->
            if i > 0 then add ",";
            go v)
          items;
        add "]"
    | Obj fields ->
        add "{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then add ",";
            add "\"";
            add (escape k);
            add "\":";
            go v)
          fields;
        add "}"
  in
  go t;
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

exception Parse_error of string

(* Recursive-descent parser over the string; tracks position for error
   messages. Accepts exactly the documents the printer emits (plus
   arbitrary whitespace and unicode escapes); integers without '.', 'e'
   or leading '-0's parse as [Int], everything else numeric as [Float]. *)
type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st "bad \\u escape"
                in
                st.pos <- st.pos + 4;
                (* Encode the code point as UTF-8 (BMP only — surrogate
                   pairs re-encode as two 3-byte sequences, fine for the
                   ASCII documents this repo produces). *)
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
            | c -> fail st (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  in
  while match peek st with Some c when numeric c -> true | _ -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  if text = "" then fail st "expected a number";
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %s" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Out of int range: fall back to float. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st (Printf.sprintf "bad number %s" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string_body st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let field () =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ----------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let string_val = function Str s -> Some s | _ -> None

let list_val = function List items -> Some items | _ -> None
