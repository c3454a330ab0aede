type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Verbatim of string

external format_float : string -> float -> string = "caml_format_float"

let round_trips s f = float_of_string s = f

(* A power of two has a narrower rounding interval below it than above
   it, so a 15-digit form can round-trip where the closer 16-digit one
   does not. *)
let is_power_of_two f =
  Int64.equal (Int64.logand (Int64.bits_of_float f) 0xF_FFFF_FFFF_FFFFL) 0L

(* Shortest decimal representation that parses back to the same float:
   the smallest precision p in 1..17 whose "%.{p}g" round-trips.  A
   normal, non-integral float below 1e15 that is not a power of two
   gets the same answer from at most three probes (see json.mli); the
   other floats take the full search. *)
let float_repr f =
  if not (Float.is_finite f) then None
  else
    let a = Float.abs f in
    if Float.is_integer f && a < 1e15 then Some (format_float "%.1f" f)
    else if a < 1e15 && a >= Float.min_float && not (is_power_of_two f) then
      let s16 = format_float "%.16g" f in
      if round_trips s16 f then
        let s15 = format_float "%.15g" f in
        Some (if round_trips s15 f then s15 else s16)
      else Some (format_float "%.17g" f)
    else
      let rec go p =
        if p > 17 then Printf.sprintf "%.17g" f
        else
          let s = Printf.sprintf "%.*g" p f in
          if round_trips s f then s else go (p + 1)
      in
      Some (go 1)

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

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Verbatim s -> Buffer.add_string buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> (
      match float_repr f with
      | None -> Buffer.add_string buf "null"
      | Some s -> Buffer.add_string buf s)
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------

   A recursive-descent parser for the subset this library emits (plus
   standard JSON escapes), so tooling like the bench-trend gate can
   read its own history files back without an external dependency.
   Numbers with a '.', exponent, or out-of-int range parse as [Float],
   everything else as [Int]; [Verbatim] never comes back (it re-parses
   as its structure). *)

exception Parse_error of string

let parse_error pos msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" pos msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then
      parse_error !pos (Printf.sprintf "expected %C" c);
    advance ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then parse_error !pos "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then parse_error !pos "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> parse_error !pos "bad \\u escape"
                in
                (* Code points below 0x80 map to one byte; everything
                   else is re-encoded as UTF-8. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end;
                pos := !pos + 4
            | c -> parse_error !pos (Printf.sprintf "bad escape %C" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let raw = String.sub s start (!pos - start) in
    let is_floaty =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) raw
    in
    if is_floaty then
      match float_of_string_opt raw with
      | Some f -> Float f
      | None -> parse_error start (Printf.sprintf "bad number %S" raw)
    else
      match int_of_string_opt raw with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt raw with
          | Some f -> Float f
          | None -> parse_error start (Printf.sprintf "bad number %S" raw))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing characters";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
