type probe = { name : string; read : unit -> float }

type column = { probe : probe; mutable data : float array; mutable len : int }

type t = {
  net : Net.Network.t;
  interval : float;
  columns : column list;
  mutable times : float array;
  mutable n : int;
}

let push_time t x =
  if t.n = Array.length t.times then begin
    let grown = Array.make (Stdlib.max 64 (2 * t.n)) 0.0 in
    Array.blit t.times 0 grown 0 t.n;
    t.times <- grown
  end;
  t.times.(t.n) <- x;
  t.n <- t.n + 1

let push_col c x =
  if c.len = Array.length c.data then begin
    let grown = Array.make (Stdlib.max 64 (2 * c.len)) 0.0 in
    Array.blit c.data 0 grown 0 c.len;
    c.data <- grown
  end;
  c.data.(c.len) <- x;
  c.len <- c.len + 1

let create ~net ~interval ~probes =
  if interval <= 0.0 then invalid_arg "Timeseries.create: bad interval";
  if probes = [] then invalid_arg "Timeseries.create: no probes";
  let t =
    {
      net;
      interval;
      columns = List.map (fun probe -> { probe; data = [||]; len = 0 }) probes;
      times = [||];
      n = 0;
    }
  in
  let sched = Net.Network.scheduler net in
  let rec tick () =
    push_time t (Sim.Scheduler.now sched);
    List.iter (fun c -> push_col c (c.probe.read ())) t.columns;
    ignore (Sim.Scheduler.schedule_after sched t.interval tick)
  in
  ignore (Sim.Scheduler.schedule_after sched interval tick);
  t

let length t = t.n

let names t = List.map (fun c -> c.probe.name) t.columns

let column t name =
  match List.find_opt (fun c -> c.probe.name = name) t.columns with
  | Some c -> Array.sub c.data 0 c.len
  | None -> raise Not_found

let to_csv ppf t =
  Format.fprintf ppf "time";
  List.iter (fun c -> Format.fprintf ppf ",%s" c.probe.name) t.columns;
  Format.fprintf ppf "@.";
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "%.4f" t.times.(i);
    List.iter (fun c -> Format.fprintf ppf ",%.4f" c.data.(i)) t.columns;
    Format.fprintf ppf "@."
  done

let value_at t name ~time =
  let col =
    match List.find_opt (fun c -> c.probe.name = name) t.columns with
    | Some c -> c
    | None -> raise Not_found
  in
  if t.n = 0 || time < t.times.(0) then
    invalid_arg "Timeseries.value_at: before first sample";
  (* Binary search for the last sample at or before [time]. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.times.(mid) <= time then lo := mid else hi := mid - 1
  done;
  col.data.(!lo)
