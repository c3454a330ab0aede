(* Topology generators for the partitioning and sharded-engine tests:
   explicit edge lists, fat trees and seeded random graphs, plus a
   connectivity check.  Deterministic: the same parameters (and, for
   [random_graph], the same seed) always build the same topology. *)

let check_edges ~n edges =
  let seen = Hashtbl.create (List.length edges * 2) in
  List.iter
    (fun e ->
      if e.Net.Topo.u = e.v then
        invalid_arg (Printf.sprintf "Topo: self-loop at node %d" e.u);
      if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
        invalid_arg
          (Printf.sprintf "Topo: edge (%d,%d) out of range [0,%d)" e.u e.v n);
      let key = (Stdlib.min e.u e.v, Stdlib.max e.u e.v) in
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Topo: duplicate edge (%d,%d)" e.u e.v);
      Hashtbl.replace seen key ())
    edges

let of_edges ~n spec =
  if n < 1 then invalid_arg "Topo.of_edges: n must be >= 1";
  let edges = List.map (fun (u, v, config) -> { Net.Topo.u; v; config }) spec in
  check_edges ~n edges;
  { Net.Topo.n; edges }

let fat_tree ~k ~configs =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topo.fat_tree: k must be even and >= 2";
  if Array.length configs = 0 then invalid_arg "Topo.fat_tree: configs is empty";
  let half = k / 2 in
  let cores = half * half in
  let layer l = configs.(Stdlib.min l (Array.length configs - 1)) in
  (* Ids: cores [0,cores); pod p's aggs at cores + p*k + i, edges at
     cores + p*k + half + i; hosts after all switches. *)
  let agg p i = cores + (p * k) + i in
  let edge_sw p i = cores + (p * k) + half + i in
  let host_base = cores + (k * k) in
  let host p e j = host_base + (p * half * half) + (e * half) + j in
  let n = host_base + (k * half * half) in
  let edges = ref [] in
  for p = 0 to k - 1 do
    for i = 0 to half - 1 do
      (* Agg i of every pod connects to cores [i*half .. i*half+half-1]. *)
      for c = 0 to half - 1 do
        edges := { Net.Topo.u = (i * half) + c; v = agg p i; config = layer 0 } :: !edges
      done
    done;
    for e = 0 to half - 1 do
      for i = 0 to half - 1 do
        edges := { Net.Topo.u = agg p i; v = edge_sw p e; config = layer 1 } :: !edges
      done;
      for j = 0 to half - 1 do
        edges := { Net.Topo.u = edge_sw p e; v = host p e j; config = layer 2 } :: !edges
      done
    done
  done;
  { Net.Topo.n; edges = List.rev !edges }

let random_graph ~seed ~n ~extra ~configs =
  if n < 1 then invalid_arg "Topo.random_graph: n must be >= 1";
  if extra < 0 then invalid_arg "Topo.random_graph: extra must be >= 0";
  if Array.length configs = 0 then
    invalid_arg "Topo.random_graph: configs is empty";
  let rng = Sim.Rng.create seed in
  let pick_config () = configs.(Sim.Rng.int rng (Array.length configs)) in
  let present = Hashtbl.create (2 * (n + extra)) in
  let key u v = (Stdlib.min u v, Stdlib.max u v) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    let u = Sim.Rng.int rng v in
    Hashtbl.replace present (key u v) ();
    edges := { Net.Topo.u; v; config = pick_config () } :: !edges
  done;
  (* Extra edges by bounded rejection sampling: deterministic for a
     seed, and capped so dense graphs cannot loop forever. *)
  if n > 1 then begin
    let added = ref 0 and attempts = ref 0 in
    let max_attempts = 10 * (extra + 1) in
    while !added < extra && !attempts < max_attempts do
      incr attempts;
      let u = Sim.Rng.int rng n and v = Sim.Rng.int rng n in
      if u <> v && not (Hashtbl.mem present (key u v)) then begin
        Hashtbl.replace present (key u v) ();
        edges := { Net.Topo.u; v; config = pick_config () } :: !edges;
        incr added
      end
    done
  end;
  { Net.Topo.n; edges = List.rev !edges }

let connected t =
  let parents = Net.Topo.bfs_parents t ~root:0 in
  Array.for_all (fun p -> p >= 0) parents
