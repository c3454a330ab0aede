type branch = { mu : float; tcp_flows : int }

type gateway = Red | Droptail

let share b =
  if b.mu <= 0.0 then invalid_arg "Fairness.share: non-positive capacity";
  if b.tcp_flows < 0 then invalid_arg "Fairness.share: negative flow count";
  b.mu /. float_of_int (b.tcp_flows + 1)

let soft_bottleneck = function
  | [] -> invalid_arg "Fairness.soft_bottleneck: empty topology"
  | first :: rest ->
      let rec scan i best best_share = function
        | [] -> best
        | b :: tl ->
            let s = share b in
            if s < best_share then scan (i + 1) i s tl
            else scan (i + 1) best best_share tl
      in
      scan 1 0 (share first) rest

let fair_share branches =
  let i = soft_bottleneck branches in
  share (List.nth branches i)

let essential_bounds gateway ~n =
  if n <= 0 then invalid_arg "Fairness.essential_bounds: n must be positive";
  match gateway with
  | Red -> (1.0 /. 3.0, sqrt (3.0 *. float_of_int n))
  | Droptail -> (0.25, 2.0 *. float_of_int n)

let measured_ratio ~rla_throughput ~tcp_throughput =
  if tcp_throughput <= 0.0 then infinity
  else rla_throughput /. tcp_throughput

let is_essentially_fair gateway ~n ~rla_throughput ~tcp_throughput =
  let a, b = essential_bounds gateway ~n in
  let c = measured_ratio ~rla_throughput ~tcp_throughput in
  c > a && c < b

let jain = function
  | [] -> invalid_arg "Fairness.jain: empty allocation list"
  | xs ->
      let n = float_of_int (List.length xs) in
      let sum = List.fold_left ( +. ) 0.0 xs in
      let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      if sumsq <= 0.0 then 1.0 else sum *. sum /. (n *. sumsq)

module For_testing = struct
  let share = share
  let soft_bottleneck = soft_bottleneck
  let fair_share = fair_share
end
