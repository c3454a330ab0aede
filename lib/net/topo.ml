type edge = { u : int; v : int; config : Link.config }
type t = { n : int; edges : edge list }

let level_config configs d =
  configs.(Stdlib.min (d - 1) (Array.length configs - 1))

let kary ~fanout ~depth ~configs =
  if fanout < 2 then invalid_arg "Topo.kary: fanout must be >= 2";
  if depth < 0 then invalid_arg "Topo.kary: depth must be >= 0";
  if Array.length configs = 0 then invalid_arg "Topo.kary: configs is empty";
  (* Nodes per level: fanout^d; node i's parent is (i-1)/fanout. *)
  let n = ref 1 and level = ref 1 in
  for _ = 1 to depth do
    level := !level * fanout;
    n := !n + !level
  done;
  let n = !n in
  (* Depth of node i: the level whose index range contains i. *)
  let edges = ref [] in
  let first = ref 1 and width = ref fanout in
  for d = 1 to depth do
    for i = !first to !first + !width - 1 do
      edges := { u = (i - 1) / fanout; v = i; config = level_config configs d }
               :: !edges
    done;
    first := !first + !width;
    width := !width * fanout
  done;
  { n; edges = List.rev !edges }

let node_count t = t.n
let edge_count t = List.length t.edges

let neighbors t =
  let adj = Array.make t.n [] in
  List.iter
    (fun e ->
      adj.(e.u) <- e.v :: adj.(e.u);
      adj.(e.v) <- e.u :: adj.(e.v))
    t.edges;
  Array.map List.rev adj

let degrees t =
  let deg = Array.make t.n 0 in
  List.iter
    (fun e ->
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    t.edges;
  deg

let leaves t =
  let deg = degrees t in
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if deg.(v) = 1 then acc := v :: !acc
  done;
  !acc

let bfs_parents t ~root =
  if root < 0 || root >= t.n then invalid_arg "Topo.bfs_parents: bad root";
  let adj = neighbors t in
  let parents = Array.make t.n (-1) in
  parents.(root) <- root;
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if parents.(v) < 0 then begin
          parents.(v) <- u;
          Queue.add v q
        end)
      adj.(u)
  done;
  parents

let path_to_root ~parents v =
  if v < 0 || v >= Array.length parents || parents.(v) < 0 then
    invalid_arg "Topo.path_to_root: unreachable node";
  let rec up v acc = if parents.(v) = v then v :: acc else up parents.(v) (v :: acc) in
  List.rev (up v [])

let tree_path ~parents a b =
  let pa = path_to_root ~parents a (* a .. root *) in
  let pb = path_to_root ~parents b in
  (* Strip the common suffix (toward the root), keeping the LCA once. *)
  let ra = List.rev pa (* root .. a *) and rb = List.rev pb in
  let rec strip ra rb lca =
    match (ra, rb) with
    | x :: ra', y :: rb' when x = y -> strip ra' rb' x
    | _ -> (ra, rb, lca)
  in
  match (ra, rb) with
  | x :: _, y :: _ when x <> y ->
      invalid_arg "Topo.tree_path: nodes in different components"
  | _ ->
      let ta, tb, lca = strip ra rb (-1) in
      (* ta runs lca-side .. a; reversed it runs a .. lca-exclusive. *)
      List.rev ta @ (lca :: tb)
