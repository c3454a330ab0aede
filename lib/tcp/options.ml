(* SYN-time TCP options, packed into a single immediate integer so
   they travel inside a packet payload without allocating.

   Layout (low to high bits):
     bits  0-15  mss, in bytes (1 .. 65535; 0 is invalid)
     bits 16-19  window-scale shift (0 .. 14, RFC 7323 cap)
     bit  20     SACK-permitted
   Everything above bit 20 must be zero. *)

type t = { mss : int; wscale : int; sack_ok : bool }

type error = Bad_mss of int | Bad_wscale of int | Bad_bits of int

let max_wscale = 14

let make ~mss ~wscale ~sack_ok =
  if mss < 1 || mss > 0xFFFF then invalid_arg "Tcp.Options.make: bad mss";
  if wscale < 0 || wscale > max_wscale then
    invalid_arg "Tcp.Options.make: bad wscale";
  { mss; wscale; sack_ok }

let encode t = t.mss lor (t.wscale lsl 16) lor (if t.sack_ok then 1 lsl 20 else 0)

let decode v =
  if v lsr 21 <> 0 || v < 0 then Error (Bad_bits v)
  else
    let mss = v land 0xFFFF in
    let wscale = (v lsr 16) land 0xF in
    if mss = 0 then Error (Bad_mss mss)
    else if wscale > max_wscale then Error (Bad_wscale wscale)
    else Ok { mss; wscale; sack_ok = v land (1 lsl 20) <> 0 }

(* Symmetric negotiation over our packet-granular model: both
   directions use the smaller mss and shift, and SACK only if both
   ends permit it.  (Real TCP scales each direction by the peer's
   announced shift; the symmetric min is the conservative choice and
   keeps a single shift per connection.) *)
let negotiate a b =
  { mss = min a.mss b.mss; wscale = min a.wscale b.wscale;
    sack_ok = a.sack_ok && b.sack_ok }
