(* Version 2: Tcp_ack carries an advertised-window field; the TCP
   sender/receiver sections grew handshake, flow-control and RFC 5961
   state; fault timelines gained blind-injection events. *)
let version = 2

let magic = "RLACKPT1"

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Crc_mismatch of string
  | Malformed of string

let error_to_string = function
  | Truncated -> "truncated checkpoint"
  | Bad_magic -> "not a checkpoint file (bad magic)"
  | Bad_version v ->
      Printf.sprintf "unsupported checkpoint format version %d (expected %d)" v
        version
  | Crc_mismatch name -> Printf.sprintf "section %S failed its CRC-32" name
  | Malformed msg -> Printf.sprintf "malformed checkpoint: %s" msg

type section = { name : string; payload : string }

(* --- CRC-32 (IEEE 802.3, reflected), slicing-by-8 ------------------- *)

(* Eight 256-entry tables, [crc_tables.(256 * j + b)] being the CRC of
   byte [b] followed by [j] zero bytes: row 0 is the bytewise table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let c = t.(i - 256) in
    t.(i) <- t.(c land 0xFF) lxor (c lsr 8)
  done;
  t

(* The low 32 bits of a little-endian word; [Int64.to_int] of a 64-bit
   read would drop bit 63, so words are read 32 bits at a time. *)
let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

(* The register stays within 32 bits, so a native [int] holds it.  Eight
   bytes per step: the register folded into the first four, the next
   four as they are, each byte looked up in the table for its distance
   from the end of the step; the tail goes a byte at a time. *)
let crc32 s =
  let t = crc_tables and len = String.length s in
  let crc = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 8 <= len do
    let lo = !crc lxor word s !i and hi = word s (!i + 4) in
    crc :=
      t.((7 * 256) + (lo land 0xFF))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xFF))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    crc := t.((!crc lxor Char.code s.[j]) land 0xFF) lxor (!crc lsr 8)
  done;
  Int64.of_int (!crc lxor 0xFFFFFFFF)

(* --- primitives ----------------------------------------------------- *)

exception Parse of string

type reader = { buf : string; mutable pos : int }

let reader buf = { buf; pos = 0 }

let at_end r = r.pos = String.length r.buf

let need r n =
  if r.pos + n > String.length r.buf then raise (Parse "unexpected end of input")

let w_i64 = Buffer.add_int64_be

let r_i64 r =
  need r 8;
  let v = String.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let w_int b v = w_i64 b (Int64.of_int v)

let r_int r = Int64.to_int (r_i64 r)

let w_f64 b v = w_i64 b (Int64.bits_of_float v)

let r_f64 r = Int64.float_of_bits (r_i64 r)

let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let r_bool r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> raise (Parse (Printf.sprintf "bad bool byte %d" (Char.code c)))

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let r_string r =
  let n = r_int r in
  if n < 0 then raise (Parse "negative string length");
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let w_option w b = function
  | None -> w_bool b false
  | Some v ->
      w_bool b true;
      w b v

let r_option rd r = if r_bool r then Some (rd r) else None

let w_list w b l =
  w_int b (List.length l);
  List.iter (w b) l

let r_list rd r =
  let n = r_int r in
  if n < 0 then raise (Parse "negative list length");
  List.init n (fun _ -> rd r)

let w_pair wa wb b (a, v) =
  wa b a;
  wb b v

let r_pair ra rb r =
  let a = ra r in
  let v = rb r in
  (a, v)

(* --- container ------------------------------------------------------ *)

(* Writes the container through [b]: the header and each section's
   header are appended to [b], and [add_payload b p] takes each payload,
   so a file writer can pass payloads through without copying them. *)
let write b ~add_payload sections =
  Buffer.add_string b magic;
  w_int b version;
  w_int b (List.length sections);
  List.iter
    (fun { name; payload = p } ->
      w_string b name;
      w_int b (String.length p);
      w_i64 b (crc32 p);
      add_payload b p)
    sections

let encode sections =
  let b = Buffer.create 4096 in
  write b ~add_payload:Buffer.add_string sections;
  Buffer.contents b

let decode s =
  let r = reader s in
  let truncated_as e = match e with Parse _ -> Truncated | e -> raise e in
  try
    if String.length s < String.length magic then Error Truncated
    else if String.sub s 0 (String.length magic) <> magic then Error Bad_magic
    else begin
      r.pos <- String.length magic;
      let v = r_int r in
      if v <> version then Error (Bad_version v)
      else begin
        let n = r_int r in
        if n < 0 then Error (Malformed "negative section count")
        else begin
          let sections = ref [] in
          let err = ref None in
          (try
             for _ = 1 to n do
               let name = r_string r in
               let len = r_int r in
               if len < 0 then raise (Parse "negative section length");
               let crc = r_i64 r in
               need r len;
               let payload = String.sub r.buf r.pos len in
               r.pos <- r.pos + len;
               if not (Int64.equal (crc32 payload) crc) then begin
                 err := Some (Crc_mismatch name);
                 raise Exit
               end;
               sections := { name; payload } :: !sections
             done;
             if not (at_end r) then
               err := Some (Malformed "trailing bytes after last section")
           with
          | Exit -> ()
          | Parse _ -> err := Some Truncated);
          match !err with
          | Some e -> Error e
          | None -> Ok (List.rev !sections)
        end
      end
    end
  with e -> Error (truncated_as e)

let parse_payload { name; payload } f =
  let r = reader payload in
  try
    let v = f r in
    if at_end r then Ok v
    else Error (Malformed (Printf.sprintf "section %S: trailing bytes" name))
  with
  | Parse msg -> Error (Malformed (Printf.sprintf "section %S: %s" name msg))
  | Invalid_argument msg ->
      Error (Malformed (Printf.sprintf "section %S: %s" name msg))

let save_file ~path sections =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let b = Buffer.create 256 in
        write b sections ~add_payload:(fun b p ->
            Buffer.output_buffer oc b;
            Buffer.clear b;
            output_string oc p);
        (* The header alone when there are no sections. *)
        Buffer.output_buffer oc b);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let load_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error msg -> Error (Malformed msg)
  | exception _ -> Error Truncated
