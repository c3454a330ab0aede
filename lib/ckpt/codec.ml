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
let crc32_range s off len =
  let t = crc_tables and stop = off + len in
  let crc = ref 0xFFFFFFFF and i = ref off in
  while !i + 8 <= stop do
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
  for j = !i to stop - 1 do
    crc := t.((!crc lxor Char.code s.[j]) land 0xFF) lxor (!crc lsr 8)
  done;
  Int64.of_int (!crc lxor 0xFFFFFFFF)

let crc32 s = crc32_range s 0 (String.length s)

(* --- codecs ----------------------------------------------------------- *)

exception Parse of string

(* A cursor over [buf.[pos .. stop - 1]]: a whole file while the
   container is decoded, one section's range of it while a payload is. *)
type reader = { buf : string; mutable pos : int; stop : int }

(* [n] is never negative here, and [stop - pos] cannot overflow, so a
   huge [n] is refused rather than wrapping past the check. *)
let need r n =
  if n > r.stop - r.pos then raise (Parse "unexpected end of input")

type 'a t = { write : Buffer.t -> 'a -> unit; read : reader -> 'a }

let i64 =
  {
    write = Buffer.add_int64_be;
    read =
      (fun r ->
        need r 8;
        let v = String.get_int64_be r.buf r.pos in
        r.pos <- r.pos + 8;
        v);
  }

let int =
  {
    write = (fun b v -> i64.write b (Int64.of_int v));
    read = (fun r -> Int64.to_int (i64.read r));
  }

let f64 =
  {
    write = (fun b v -> i64.write b (Int64.bits_of_float v));
    read = (fun r -> Int64.float_of_bits (i64.read r));
  }

let bool =
  {
    write = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    read =
      (fun r ->
        need r 1;
        let c = r.buf.[r.pos] in
        r.pos <- r.pos + 1;
        match c with
        | '\000' -> false
        | '\001' -> true
        | c -> raise (Parse (Printf.sprintf "bad bool byte %d" (Char.code c))));
  }

(* A length word for [what] whose elements take at least [width] bytes
   each: refused before the caller allocates for it when the payload
   cannot hold that many. *)
let count r ~width what =
  let n = int.read r in
  if n < 0 then raise (Parse (Printf.sprintf "negative %s length" what));
  if n > (r.stop - r.pos) / width then
    raise (Parse (Printf.sprintf "%s length %d overruns the input" what n));
  n

let string =
  {
    write =
      (fun b s ->
        int.write b (String.length s);
        Buffer.add_string b s);
    read =
      (fun r ->
        let n = count r ~width:1 "string" in
        let s = String.sub r.buf r.pos n in
        r.pos <- r.pos + n;
        s);
  }

let option c =
  {
    write =
      (fun b -> function
        | None -> bool.write b false
        | Some v ->
            bool.write b true;
            c.write b v);
    read = (fun r -> if bool.read r then Some (c.read r) else None);
  }

(* Every element codec writes at least one byte. *)
let list c =
  {
    write =
      (fun b l ->
        int.write b (List.length l);
        List.iter (c.write b) l);
    read =
      (fun r ->
        let n = count r ~width:1 "list" in
        List.init n (fun _ -> c.read r));
  }

let floats =
  {
    write =
      (fun b a ->
        int.write b (Array.length a);
        for i = 0 to Array.length a - 1 do
          Buffer.add_int64_be b (Int64.bits_of_float a.(i))
        done);
    read =
      (fun r ->
        let n = count r ~width:8 "array" in
        let a = Array.create_float n in
        for i = 0 to n - 1 do
          a.(i) <-
            Int64.float_of_bits (String.get_int64_be r.buf (r.pos + (8 * i)))
        done;
        r.pos <- r.pos + (8 * n);
        a);
  }

type ('r, 'a) fields = { put : Buffer.t -> 'r -> unit; get : reader -> 'a }

let field c proj = { put = (fun b v -> c.write b (proj v)); get = c.read }

module Syntax = struct
  let ( let+ ) f k = { put = f.put; get = (fun r -> k (f.get r)) }

  let ( and+ ) f g =
    {
      put =
        (fun b v ->
          f.put b v;
          g.put b v);
      get =
        (fun r ->
          let x = f.get r in
          let y = g.get r in
          (x, y));
    }
end

open Syntax

let record f = { write = f.put; read = f.get }

let pair a b =
  record
    (let+ x = field a fst
     and+ y = field b snd in
     (x, y))

type 'a case =
  | Case : {
      tag : int;
      payload : 'b t;
      inject : 'b -> 'a;
      project : 'a -> 'b option;
    }
      -> 'a case

let case tag payload inject project = Case { tag; payload; inject; project }

let const tag v =
  case tag
    { write = (fun _ () -> ()); read = (fun _ -> ()) }
    (fun () -> v)
    (fun x -> if x == v then Some () else None)

let variant name cases =
  let rec write b v = function
    | [] -> invalid_arg (Printf.sprintf "Ckpt.Codec: no %s case for value" name)
    | Case c :: rest -> (
        match c.project v with
        | Some p ->
            int.write b c.tag;
            c.payload.write b p
        | None -> write b v rest)
  in
  let read r =
    let tag = int.read r in
    match
      List.find_map
        (fun (Case c) ->
          if c.tag = tag then Some (c.inject (c.payload.read r)) else None)
        cases
    with
    | Some v -> v
    | None -> raise (Parse (Printf.sprintf "bad %s tag %d" name tag))
  in
  { write = (fun b v -> write b v cases); read }

(* --- sections and the container ---------------------------------------- *)

type section = { name : string; data : string; off : int; len : int }

let section name c v =
  let b = Buffer.create 1024 in
  c.write b v;
  let data = Buffer.contents b in
  { name; data; off = 0; len = String.length data }

let name s = s.name

let payload s = String.sub s.data s.off s.len

let read c s =
  let r = { buf = s.data; pos = s.off; stop = s.off + s.len } in
  let malformed msg =
    Error (Malformed (Printf.sprintf "section %S: %s" s.name msg))
  in
  match c.read r with
  | v -> if r.pos = r.stop then Ok v else malformed "trailing bytes"
  | exception Parse msg -> malformed msg

exception Bad of error

let decode s =
  let r = { buf = s; pos = String.length magic; stop = String.length s } in
  let section () =
    let name = string.read r in
    let len = int.read r in
    if len < 0 then raise (Parse "negative section length");
    let crc = i64.read r in
    need r len;
    let sec = { name; data = s; off = r.pos; len } in
    r.pos <- r.pos + len;
    if not (Int64.equal (crc32_range s sec.off len) crc) then
      raise (Bad (Crc_mismatch name));
    sec
  in
  if String.length s < String.length magic then Error Truncated
  else if not (String.starts_with ~prefix:magic s) then Error Bad_magic
  else
    try
      let v = int.read r in
      if v <> version then raise (Bad (Bad_version v));
      let n = int.read r in
      if n < 0 then raise (Bad (Malformed "negative section count"));
      let sections = List.init n (fun _ -> section ()) in
      if r.pos <> r.stop then
        raise (Bad (Malformed "trailing bytes after last section"));
      Ok sections
    with
    | Parse _ -> Error Truncated
    | Bad e -> Error e

let save_file ~path sections =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        (* Headers go through [b]; payloads go straight to the file. *)
        let b = Buffer.create 256 in
        Buffer.add_string b magic;
        int.write b version;
        int.write b (List.length sections);
        List.iter
          (fun s ->
            string.write b s.name;
            int.write b s.len;
            i64.write b (crc32_range s.data s.off s.len);
            Buffer.output_buffer oc b;
            Buffer.clear b;
            output_substring oc s.data s.off s.len)
          sections;
        (* The header alone when there are no sections. *)
        Buffer.output_buffer oc b);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let load_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> decode s
  | exception Sys_error msg -> Error (Malformed msg)
  | exception _ -> Error Truncated
