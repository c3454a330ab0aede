type counter = { counter_name : string; mutable count : int }

type gauge = { gauge_name : string; mutable gauge_value : float }

type event = { time : float; source : string; event : string; value : float }

(* Handles are interned by name (get-or-create), so two components
   naming the same metric share one cell.  Insertion order is kept for
   every family: exports iterate in creation order, which is itself
   deterministic for a deterministic simulation, keeping reports
   byte-identical across runs. *)
type t = {
  series_limit : int;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  series_tbl : (string, Series.t) Hashtbl.t;
  mutable counter_order : counter list;  (* reverse creation order *)
  mutable gauge_order : gauge list;
  mutable series_order : Series.t list;
  mutable taps : (event -> unit) list;  (* reverse subscription order *)
}

let create ?(series_limit = Series.default_limit) () =
  if series_limit < 2 then
    invalid_arg "Registry.create: series_limit must be at least 2";
  {
    series_limit;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    series_tbl = Hashtbl.create 64;
    counter_order = [];
    gauge_order = [];
    series_order = [];
    taps = [];
  }

(* --- counters ------------------------------------------------------- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { counter_name = name; count = 0 } in
      Hashtbl.replace t.counters name c;
      t.counter_order <- c :: t.counter_order;
      c

let incr c = c.count <- c.count + 1

(* --- gauges --------------------------------------------------------- *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { gauge_name = name; gauge_value = 0.0 } in
      Hashtbl.replace t.gauges name g;
      t.gauge_order <- g :: t.gauge_order;
      g

let set g v = g.gauge_value <- v

(* --- series --------------------------------------------------------- *)

let series ?limit t name =
  match Hashtbl.find_opt t.series_tbl name with
  | Some s -> s
  | None ->
      let s =
        Series.create ~limit:(Option.value limit ~default:t.series_limit) name
      in
      Hashtbl.replace t.series_tbl name s;
      t.series_order <- s :: t.series_order;
      s

let find_series t name = Hashtbl.find_opt t.series_tbl name

(* --- event taps ----------------------------------------------------- *)

let on_event t f = t.taps <- f :: t.taps

let emit t ~time ~source ~event ~value =
  match t.taps with
  | [] -> ()
  | taps ->
      let e = { time; source; event; value } in
      List.iter (fun f -> f e) (List.rev taps)

(* --- enumeration ----------------------------------------------------- *)

let counters t =
  List.rev_map (fun c -> (c.counter_name, c.count)) t.counter_order

let gauges t =
  List.rev_map (fun g -> (g.gauge_name, g.gauge_value)) t.gauge_order

let all_series t = List.rev t.series_order

(* --- checkpoint/restore ---------------------------------------------- *)

type state = {
  s_counters : (string * int) list;  (* creation order *)
  s_gauges : (string * float) list;
  s_series : (string * int * Series.state) list;  (* (name, limit, state) *)
}

let capture t =
  {
    s_counters = counters t;
    s_gauges = gauges t;
    s_series =
      List.rev_map
        (fun s -> (Series.name s, Series.limit s, Series.capture s))
        t.series_order;
  }

(* Interning in saved creation order reproduces the order lists: after
   a deterministic rebuild the components have already interned a
   prefix of these names in the same order, so each entry either finds
   its existing cell or appends in the captured position.  Taps are not
   state — subscribers re-attach themselves. *)
let restore t st =
  List.iter (fun (name, n) -> (counter t name).count <- n) st.s_counters;
  List.iter (fun (name, v) -> (gauge t name).gauge_value <- v) st.s_gauges;
  List.iter
    (fun (name, limit, s) -> Series.restore (series ~limit t name) s)
    st.s_series
