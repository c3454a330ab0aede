(* lint: allow-file ckpt-coverage -- packet fields are mutable only so
   the pool can recycle records; per-packet state is captured and
   restored by the owning link/node codecs, never by this module. *)

type addr = int

type group = int

type flow = int

type dest = Unicast of addr | Multicast of group

type payload = ..

type payload += Raw

(* Fields are mutable solely so [Pool] can overwrite a recycled record
   in place; outside the pool a packet is logically immutable, except
   that a link may set [ecn] while it holds the only reference (the
   copy-on-write mark path).  [refs] counts owners: a multicast fan-out
   shares one record across the outgoing links, and the record returns
   to the free list only when the last owner releases it. *)
type t = {
  mutable uid : int;
  mutable flow : flow;
  mutable src : addr;
  mutable dst : dest;
  mutable size : int;
  mutable payload : payload;
  mutable born : float;
  mutable ecn : bool;
  mutable refs : int;
}

module Pool = struct
  type pkt = t

  type nonrec t = {
    mutable free : pkt array;
    mutable n_free : int;
    mutable allocated : int;  (* fresh records ever built *)
    mutable recycled : int;  (* acquisitions served from the free list *)
  }

  (* lint: allow shared-mutable-capture -- array-fill sentinel only;
     never dereferenced, every free-list slot is overwritten before use *)
  let dummy_pkt =
    {
      uid = -1;
      flow = -1;
      src = -1;
      dst = Unicast (-1);
      size = 0;
      payload = Raw;
      born = 0.0;
      ecn = false;
      refs = 0;
    }

  let create () = { free = [||]; n_free = 0; allocated = 0; recycled = 0 }

  let free_count t = t.n_free

  let allocated t = t.allocated

  let recycled t = t.recycled

  let acquire t ~uid ~flow ~src ~dst ~size ~payload ~born =
    if t.n_free > 0 then begin
      let i = t.n_free - 1 in
      t.n_free <- i;
      let p = t.free.(i) in
      t.free.(i) <- dummy_pkt;
      t.recycled <- t.recycled + 1;
      p.uid <- uid;
      p.flow <- flow;
      p.src <- src;
      p.dst <- dst;
      p.size <- size;
      p.payload <- payload;
      p.born <- born;
      p.ecn <- false;
      p.refs <- 1;
      p
    end
    else begin
      t.allocated <- t.allocated + 1;
      { uid; flow; src; dst; size; payload; born; ecn = false; refs = 1 }
    end

  (* Copy-on-write for the ECN mark path: a shared (multicast fan-out)
     packet cannot be marked in place, so the marking link takes a
     private copy under the same uid — traces and delay accounting are
     unchanged — and drops its claim on the original. *)
  let acquire_copy t p =
    let c =
      acquire t ~uid:p.uid ~flow:p.flow ~src:p.src ~dst:p.dst ~size:p.size
        ~payload:p.payload ~born:p.born
    in
    c.ecn <- p.ecn;
    c

  (* lint: hot Pool.retain -- per multicast fan-out branch; a bare
     refcount bump *)
  let retain p =
    if p.refs <= 0 then
      invalid_arg
        (Printf.sprintf "Packet.Pool.retain: pkt#%d is already released" p.uid);
    p.refs <- p.refs + 1

  (* lint: hot Pool.release -- every packet exit path (drop, deliver,
     sink) lands here; recycling exists precisely to avoid allocation *)
  let release t p =
    if p.refs <= 0 then
      invalid_arg
        (Printf.sprintf "Packet.Pool.release: pkt#%d is already released" p.uid);
    p.refs <- p.refs - 1;
    if p.refs = 0 then begin
      (* Drop the payload reference so recycling never keeps a protocol
         header (and whatever it points at) alive. *)
      p.payload <- Raw;
      let cap = Array.length t.free in
      if t.n_free = cap then begin
        let grown = Array.make (Stdlib.max 16 (2 * cap)) dummy_pkt in
        Array.blit t.free 0 grown 0 t.n_free;
        t.free <- grown
      end;
      t.free.(t.n_free) <- p;
      t.n_free <- t.n_free + 1
    end
end
