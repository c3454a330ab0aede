(* In-memory span recorder for the traced run.  A span is one call of
   the benchmark into a layer: its name, start, end and the span that
   was open when it began.  With recording off, [record] is a plain
   call, so untraced runs pay nothing but the closure. *)

type span = {
  name : string;
  parent : int;  (** Index of the enclosing span, -1 at the top. *)
  start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span array;
  mutable count : int;
  mutable open_ : int;
}

let create ~enabled = { enabled; spans = [||]; count = 0; open_ = -1 }

let push t s =
  if t.count = Array.length t.spans then begin
    let grown = Array.make (max 16 (2 * t.count)) s in
    Array.blit t.spans 0 grown 0 t.count;
    t.spans <- grown
  end;
  t.spans.(t.count) <- s;
  t.count <- t.count + 1

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.count in
    let parent = t.open_ in
    push t { name; parent; start = Unix.gettimeofday (); stop = nan };
    t.open_ <- id;
    Fun.protect
      ~finally:(fun () ->
        t.spans.(id).stop <- Unix.gettimeofday ();
        t.open_ <- parent)
      f
  end

let spans t = Array.sub t.spans 0 t.count
let duration s = s.stop -. s.start

(* Self time: a span's duration minus what its direct children
   cover, summed per span name. *)
let self_times t =
  let spans = spans t in
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    spans;
  let names = List.sort_uniq compare (List.map (fun s -> s.name) (Array.to_list spans)) in
  List.map
    (fun name ->
      let total = ref 0.0 in
      Array.iteri (fun i s -> if s.name = name then total := !total +. self.(i)) spans;
      (name, !total))
    names

let pp ppf t =
  let spans = spans t in
  let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
  Array.iteri
    (fun i s ->
      Format.fprintf ppf "span %2d %-10s parent %2d  start %9.4f s  end %9.4f s@."
        i s.name s.parent (s.start -. t0) (s.stop -. t0))
    spans
