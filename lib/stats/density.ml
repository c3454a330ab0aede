type t = {
  x_lo : float;
  x_hi : float;
  y_lo : float;
  y_hi : float;
  n : int;
  grid : int array; (* row-major: iy * n + ix *)
  mutable total : int;
}

let create ~x_lo ~x_hi ~y_lo ~y_hi ~cells =
  if cells <= 0 then invalid_arg "Density.create: cells must be positive";
  if not (x_hi > x_lo && y_hi > y_lo) then
    invalid_arg "Density.create: empty rectangle";
  { x_lo; x_hi; y_lo; y_hi; n = cells; grid = Array.make (cells * cells) 0; total = 0 }

let index_of t lo hi v =
  let w = (hi -. lo) /. float_of_int t.n in
  let i = int_of_float ((v -. lo) /. w) in
  Stdlib.max 0 (Stdlib.min (t.n - 1) i)

let add t ~x ~y =
  let ix = index_of t t.x_lo t.x_hi x in
  let iy = index_of t t.y_lo t.y_hi y in
  t.grid.((iy * t.n) + ix) <- t.grid.((iy * t.n) + ix) + 1;
  t.total <- t.total + 1

let cell t ix iy = t.grid.((iy * t.n) + ix)

let total t = t.total

let peak_cell t =
  let best = ref 0 in
  Array.iteri (fun i c -> if c > t.grid.(!best) then best := i) t.grid;
  (!best mod t.n, !best / t.n)

let cell_center t ix iy =
  let wx = (t.x_hi -. t.x_lo) /. float_of_int t.n in
  let wy = (t.y_hi -. t.y_lo) /. float_of_int t.n in
  ( t.x_lo +. ((float_of_int ix +. 0.5) *. wx),
    t.y_lo +. ((float_of_int iy +. 0.5) *. wy) )

let centroid t =
  if t.total = 0 then (0.0, 0.0)
  else begin
    let sx = ref 0.0 and sy = ref 0.0 in
    for iy = 0 to t.n - 1 do
      for ix = 0 to t.n - 1 do
        let c = float_of_int (cell t ix iy) in
        if c > 0.0 then begin
          let x, y = cell_center t ix iy in
          sx := !sx +. (c *. x);
          sy := !sy +. (c *. y)
        end
      done
    done;
    let m = float_of_int t.total in
    (!sx /. m, !sy /. m)
  end

let mass_within t ~cx ~cy ~radius =
  if t.total = 0 then 0.0
  else begin
    let inside = ref 0 in
    for iy = 0 to t.n - 1 do
      for ix = 0 to t.n - 1 do
        let x, y = cell_center t ix iy in
        let dx = x -. cx and dy = y -. cy in
        if (dx *. dx) +. (dy *. dy) <= radius *. radius then
          inside := !inside + cell t ix iy
      done
    done;
    float_of_int !inside /. float_of_int t.total
  end

let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let pp ppf t =
  let max_c = Array.fold_left Stdlib.max 1 t.grid in
  (* Print y from high to low so the origin sits bottom-left. *)
  for iy = t.n - 1 downto 0 do
    for ix = 0 to t.n - 1 do
      let c = cell t ix iy in
      let shade =
        if c = 0 then shades.(0)
        else begin
          let idx = 1 + (c * (Array.length shades - 2) / max_c) in
          shades.(Stdlib.min idx (Array.length shades - 1))
        end
      in
      Format.fprintf ppf "%c" shade
    done;
    Format.fprintf ppf "@."
  done
