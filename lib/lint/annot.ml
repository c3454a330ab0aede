(* In-source lint annotations.  Two directive families share one rigid
   grammar — a directive that does not say what it governs and why is
   itself a finding:

     (* lint: allow <rule> -- <reason> *)        suppress, same + next line
     (* lint: allow-file <rule> -- <reason> *)   suppress, whole file
     (* lint: hot <function> -- <reason> *)      alloc-hot contract: the
                                                 named function is a hot
                                                 path; allocation
                                                 constructs in its body
                                                 and its same-file callees
                                                 are errors

   Comments are located with a small scanner that understands string
   literals, quoted strings, char literals and nested comments, because
   the parsetree drops comments. *)

type t = { line : int; rule : string; file_wide : bool; reason : string }

type hot = { hot_line : int; target : string; hot_reason : string }

let split_words s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (fun w -> not (String.equal w ""))

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The byte spans [(comment, i, j)] of [src]'s outermost comments and
   of its string literals and quoted strings ({|...|}, {id|...|id})
   outside comments, in order.  As in the lexer, comments nest, and a
   string, quoted string or char literal inside a comment is skipped
   whole, so a "*)" in it closes nothing.  Char literals are stepped
   over but not reported, so '"' opens no string. *)
let literal_spans src =
  let n = String.length src in
  let at i c = i < n && Char.equal src.[i] c in
  let rec string_end i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let rec quoted_end close i =
    let m = String.length close in
    if i + m > n then n
    else if String.equal (String.sub src i m) close then i + m
    else quoted_end close (i + 1)
  in
  let rec id_end j =
    match src.[j] with 'a' .. 'z' | '_' when j + 1 < n -> id_end (j + 1) | _ -> j
  in
  let literal_end i =
    match src.[i] with
    | '"' -> Some (string_end (i + 1))
    | '{' when i + 1 < n ->
        let j = id_end (i + 1) in
        if at j '|' then
          Some (quoted_end ("|" ^ String.sub src (i + 1) (j - i - 1) ^ "}") (j + 1))
        else None
    | '\'' when i > 0 && is_ident_char src.[i - 1] -> None
    | '\'' when at (i + 1) '\\' && i + 3 < n ->
        Option.map succ (String.index_from_opt src (i + 3) '\'')
    | '\'' when at (i + 2) '\'' -> Some (i + 3)
    | _ -> None
  in
  let rec comment_end i depth =
    if i >= n then n
    else if at i '(' && at (i + 1) '*' then comment_end (i + 2) (depth + 1)
    else if at i '*' && at (i + 1) ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else
      match literal_end i with
      | Some j -> comment_end j depth
      | None -> comment_end (i + 1) depth
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if at i '(' && at (i + 1) '*' then
      let j = comment_end (i + 2) 1 in
      go j ((true, i, j) :: acc)
    else
      match literal_end i with
      | Some j when at i '\'' -> go j acc
      | Some j -> go j ((false, i, j) :: acc)
      | None -> go (i + 1) acc
  in
  go 0 []

let code_only src =
  let b = Bytes.of_string src in
  List.iter (fun (_, i, j) -> Bytes.fill b i (j - i) ' ') (literal_spans src);
  Bytes.to_string b

(* Every outermost comment as (start_line, end_line, body).  A
   multi-line directive governs the line after it ends, so suppressions
   anchor at [end_line]. *)
let comments src =
  let line = ref 1 and pos = ref 0 in
  let line_at k =
    while !pos < k do
      if Char.equal src.[!pos] '\n' then incr line;
      incr pos
    done;
    !line
  in
  List.filter_map
    (fun (comment, i, j) ->
      if not comment then None
      else
        let start_line = line_at i in
        let body = String.sub src (i + 2) (Stdlib.max 0 (j - i - 4)) in
        Some (start_line, line_at j, body))
    (literal_spans src)

let bad ~file ~line message =
  Finding.make ~file ~line ~rule:"bad-annotation" ~severity:Finding.Error
    message

type parsed = Allow of t | Hot_fn of hot

let parse_directive ~file ~line ~valid_rules body =
  match split_words body with
  | kw :: rest when String.equal kw "allow" || String.equal kw "allow-file"
    -> (
      let file_wide = String.equal kw "allow-file" in
      match rest with
      | [] -> Error (bad ~file ~line "missing rule name in lint annotation")
      | rule :: tail -> (
          if not (List.exists (String.equal rule) valid_rules) then
            Error
              (bad ~file ~line
                 (Printf.sprintf "unknown rule %S in lint annotation" rule))
          else
            match tail with
            | "--" :: reason_words when reason_words <> [] ->
                Ok
                  (Allow
                     {
                       line;
                       rule;
                       file_wide;
                       reason = String.concat " " reason_words;
                     })
            | _ ->
                Error
                  (bad ~file ~line
                     (Printf.sprintf
                        "lint annotation for %S must carry a reason: \
                         (* lint: allow %s -- <reason> *)"
                        rule rule))))
  | kw :: rest when String.equal kw "hot" -> (
      match rest with
      | [] ->
          Error
            (bad ~file ~line
               "hot annotation must name a function: (* lint: hot <function> \
                -- <reason> *)")
      | target :: tail -> (
          match tail with
          | "--" :: reason_words when reason_words <> [] ->
              Ok
                (Hot_fn
                   {
                     hot_line = line;
                     target;
                     hot_reason = String.concat " " reason_words;
                   })
          | _ ->
              Error
                (bad ~file ~line
                   (Printf.sprintf
                      "hot annotation for %S must carry a reason: (* lint: \
                       hot %s -- <reason> *)"
                      target target))))
  | kw :: _ ->
      Error
        (bad ~file ~line
           (Printf.sprintf
              "unknown lint directive %S (expected allow, allow-file or hot)"
              kw))
  | [] -> Error (bad ~file ~line "empty lint annotation")

let collect ~file ~valid_rules src =
  List.fold_left
    (fun (allows, hots, findings) (line, end_line, body) ->
      let trimmed = String.trim body in
      if String.length trimmed >= 5 && String.sub trimmed 0 5 = "lint:" then
        let rest = String.sub trimmed 5 (String.length trimmed - 5) in
        match parse_directive ~file ~line ~valid_rules rest with
        | Ok (Allow a) -> ({ a with line = end_line } :: allows, hots, findings)
        | Ok (Hot_fn h) -> (allows, h :: hots, findings)
        | Error f -> (allows, hots, f :: findings)
      else (allows, hots, findings))
    ([], [], []) (comments src)
  |> fun (allows, hots, findings) ->
  (List.rev allows, List.rev hots, List.rev findings)

let suppresses annot (finding : Finding.t) =
  String.equal annot.rule finding.rule
  && (annot.file_wide
     || annot.line = finding.line
     || annot.line = finding.line - 1)
