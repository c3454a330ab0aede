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
   literals, char literals and nested comments, because the parsetree
   drops comments. *)

type t = { line : int; rule : string; file_wide : bool; reason : string }

type hot = { hot_line : int; target : string; hot_reason : string }

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let split_words s =
  let words = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      words := Buffer.contents buf :: !words;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if is_space c then flush () else Buffer.add_char buf c) s;
  flush ();
  List.rev !words

(* Extract every top-level comment as (start_line, body). *)
let comments src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if c = '\n' then incr line in
  while !i < n do
    let c = src.[!i] in
    if c = '"' then begin
      (* Skip a string literal. *)
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        (match src.[!i] with
        | '\\' ->
            if !i + 1 < n then bump src.[!i + 1];
            incr i
        | '"' -> closed := true
        | ch -> bump ch);
        incr i
      done
    end
    else if
      c = '\''
      && !i + 2 < n
      && (src.[!i + 2] = '\'' || (src.[!i + 1] = '\\' && !i + 3 < n))
    then
      (* A char literal ('x' or an escape like '\n', '\''); skipping it
         keeps quotes inside from confusing the string scanner. *)
      if src.[!i + 1] = '\\' then i := !i + 4 else i := !i + 3
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let start_line = !line in
      let body = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
          incr depth;
          Buffer.add_string body "(*";
          i := !i + 2
        end
        else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
          decr depth;
          if !depth > 0 then Buffer.add_string body "*)";
          i := !i + 2
        end
        else begin
          bump src.[!i];
          Buffer.add_char body src.[!i];
          incr i
        end
      done;
      (* A multi-line directive comment governs the line after it ends,
         so the suppression anchor is the closing line. *)
      out := (start_line, !line, Buffer.contents body) :: !out
    end
    else begin
      bump c;
      incr i
    end
  done;
  List.rev !out

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
