type kind = Droptail | Red_gateway of Red.params | Bernoulli_loss of float

type impl = Tail | Red_state of Red.t | Lossy of float * Sim.Rng.t

type t = { kind : kind; capacity : int; impl : impl }

let create kind ~capacity ~rng =
  if capacity <= 0 then invalid_arg "Queue_disc.create: capacity must be positive";
  let impl =
    match kind with
    | Droptail -> Tail
    | Red_gateway params -> Red_state (Red.create params ~rng)
    | Bernoulli_loss p ->
        if p < 0.0 || p >= 1.0 then
          invalid_arg "Queue_disc.create: loss probability out of range";
        Lossy (p, rng)
  in
  { kind; capacity; impl }

let kind t = t.kind

let set_registry t reg ~id =
  match t.impl with
  | Tail | Lossy _ -> ()
  | Red_state red -> Red.set_registry red reg ~id

let capacity t = t.capacity

let on_arrival t ~now ~qlen =
  if !Sim.Invariant.enabled then
    Sim.Invariant.require
      (qlen >= 0 && qlen <= t.capacity)
      (fun () ->
        Printf.sprintf
          "Queue_disc.on_arrival: occupancy %d outside [0, %d]" qlen t.capacity);
  if qlen >= t.capacity then `Drop
  else
    match t.impl with
    | Tail -> `Admit
    | Red_state red -> Red.decide red ~now ~qlen
    | Lossy (p, rng) -> if Sim.Rng.bernoulli rng p then `Drop else `Admit

let on_empty t ~now =
  match t.impl with
  | Tail | Lossy _ -> ()
  | Red_state red -> Red.note_empty red ~now

(* Drop-tail and Bernoulli disciplines hold no mutable state of their
   own (the loss RNG is shared with the owning link). *)
type state = Stateless | Red of Red.state

let capture t =
  match t.impl with
  | Tail | Lossy _ -> Stateless
  | Red_state red -> Red (Red.capture red)

let restore t st =
  match (t.impl, st) with
  | (Tail | Lossy _), Stateless -> ()
  | Red_state red, Red s -> Red.restore red s
  | Red_state _, Stateless | (Tail | Lossy _), Red _ ->
      invalid_arg "Queue_disc.restore: discipline mismatch"
