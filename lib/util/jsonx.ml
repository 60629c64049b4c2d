(* JSON values, a deterministic printer (compact, or pretty in the bench
   tables' layout), and a strict parser.  Self-contained on purpose: the
   simulator depends on no external JSON library, and every format
   decision (escaping, number format, layout) lives here because the
   printer's byte-stability is part of the bench contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Fixed (d, x), Fixed (d', y) -> d = d' && x = y
  | Str x, Str y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && equal v v') xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s) in
  escape_into buf s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.17g" f in
    (* shortest representation that still round-trips *)
    let s =
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s else s ^ ".0"

(* [f] on each element, [gap] between consecutive ones *)
let iter_gap buf gap f xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf gap;
      f x)
    xs

let write_key buf k colon =
  Buffer.add_char buf '"';
  escape_into buf k;
  Buffer.add_string buf colon

(* Everything on one line; [spaced] puts a space after each comma and
   colon. *)
let write_inline buf ~spaced v =
  let comma = if spaced then ", " else "," and colon = if spaced then "\": " else "\":" in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Fixed (d, f) ->
        Buffer.add_string buf (if Float.is_finite f then Printf.sprintf "%.*f" d f else "null")
    | Str s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        iter_gap buf comma go xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        iter_gap buf comma
          (fun (k, x) ->
            write_key buf k colon;
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v

let to_string v =
  let buf = Buffer.create 256 in
  write_inline buf ~spaced:false v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  let inline = write_inline buf ~spaced:true in
  (match v with
  | Obj (_ :: _ as fields) ->
      Buffer.add_string buf "{\n  ";
      iter_gap buf ",\n  "
        (fun (k, x) ->
          write_key buf k "\": ";
          match x with
          | List (_ :: _ as xs) ->
              (* a top-level field's list: one element per line *)
              Buffer.add_string buf "[\n    ";
              iter_gap buf ",\n    " inline xs;
              Buffer.add_string buf "\n  ]"
          | x -> inline x)
        fields;
      Buffer.add_string buf "\n}"
  | v -> inline v);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> fail "bad \\u escape"
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else if cp < 0x10000 then (
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else (
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "truncated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'u' ->
              let cp = hex4 () in
              let cp =
                (* combine a surrogate pair when one follows *)
                if cp >= 0xd800 && cp <= 0xdbff && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then (
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xdc00 && lo <= 0xdfff then
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  else fail "unpaired surrogate")
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> fail "bad escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    let is_float = ref false in
    if peek () = Some '.' then (
      is_float := true;
      advance ();
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done);
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          advance ()
        done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "bad number";
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let mem v k = match v with Obj fields -> List.assoc_opt k fields | _ -> None
let str = function Str s -> Some s | _ -> None
let int_ = function Int n -> Some n | _ -> None
let bool_ = function Bool b -> Some b | _ -> None
let list_ = function List xs -> Some xs | _ -> None
let field_str v k = Option.bind (mem v k) str
let field_int v k = Option.bind (mem v k) int_
let field_bool v k = Option.bind (mem v k) bool_
