(* Model-based testing of receive-side reassembly.

   The oracle is the reassembly the TCP and RLA receivers used to carry
   inline: the out-of-order set in a generic hash table, SACK blocks
   grown one membership probe at a time from the recent
   representatives, duplicate block starts filtered through a [seen]
   list.  Random arrival streams — in-order packets, duplicates, holes,
   far-ahead sequence numbers that force the ring to grow, and a
   non-zero start — go to both; after every arrival the cumulative
   point, the duplicate count, the number held out of order, the SACK
   block list and the captured state must agree. *)

module Oracle = struct
  type t = {
    ooo : (int, unit) Hashtbl.t;
    mutable recent : int list;
    mutable expected : int;
    mutable duplicates : int;
  }

  let create start =
    { ooo = Hashtbl.create 64; recent = []; expected = start; duplicates = 0 }

  let block_around t seq =
    let lo = ref seq in
    while Hashtbl.mem t.ooo (!lo - 1) do
      decr lo
    done;
    let hi = ref (seq + 1) in
    while Hashtbl.mem t.ooo !hi do
      incr hi
    done;
    { Tcp.Wire.block_lo = !lo; block_hi = !hi }

  let rec build_blocks t acc seen = function
    | [] -> List.rev acc
    | _ when List.length acc >= Tcp.Wire.max_sack_blocks -> List.rev acc
    | rep :: rest ->
        if rep < t.expected || not (Hashtbl.mem t.ooo rep) then
          build_blocks t acc seen rest
        else begin
          let block = block_around t rep in
          if List.mem block.Tcp.Wire.block_lo seen then
            build_blocks t acc seen rest
          else
            build_blocks t (block :: acc) (block.Tcp.Wire.block_lo :: seen) rest
        end

  let blocks t = build_blocks t [] [] t.recent

  let accept t seq =
    if seq < t.expected || Hashtbl.mem t.ooo seq then
      t.duplicates <- t.duplicates + 1
    else if seq = t.expected then begin
      t.expected <- t.expected + 1;
      while Hashtbl.mem t.ooo t.expected do
        Hashtbl.remove t.ooo t.expected;
        t.expected <- t.expected + 1
      done;
      t.recent <- List.filter (fun r -> r >= t.expected) t.recent
    end
    else begin
      Hashtbl.replace t.ooo seq ();
      t.recent <- seq :: List.filter (fun r -> r <> seq) t.recent;
      if List.length t.recent > 4 * Tcp.Wire.max_sack_blocks then
        t.recent <-
          List.filteri (fun i _ -> i < 4 * Tcp.Wire.max_sack_blocks) t.recent
    end

  let ooo t =
    Hashtbl.fold (fun seq () acc -> seq :: acc) t.ooo [] |> List.sort Int.compare
end

(* An arrival names its sequence number relative to the cumulative
   point at the moment it lands, so the stream keeps hitting the
   interesting region whatever happened before. *)
type op = Arrive of int | Round_trip

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return (Arrive 0));  (* in order *)
        (2, map (fun k -> Arrive (-k)) (1 -- 4));  (* old duplicate *)
        (10, map (fun k -> Arrive k) (1 -- 40));  (* hole above *)
        (1, map (fun k -> Arrive k) (60 -- 3000));  (* forces growth *)
        (1, return Round_trip);
      ])

let show_op = function
  | Arrive k -> Printf.sprintf "+%d" k
  | Round_trip -> "rt"

let case_arb =
  QCheck.make
    ~print:(fun (start, ops) ->
      Printf.sprintf "start %d: %s" start
        (String.concat " " (List.map show_op ops)))
    QCheck.Gen.(
      pair
        (oneof [ return 0; 0 -- 1_000_000 ])
        (list_size (1 -- 400) op_gen))

let show_blocks bs =
  String.concat " "
    (List.map
       (fun b -> Printf.sprintf "[%d,%d)" b.Tcp.Wire.block_lo b.Tcp.Wire.block_hi)
       bs)

let show_ints l = String.concat "," (List.map string_of_int l)

let agree r o =
  let st = Tcp.Reassembly.capture r in
  let check name show a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s: ring %s, oracle %s" name (show a) (show b)
  in
  check "expected" string_of_int (Tcp.Reassembly.expected r) o.Oracle.expected;
  check "captured expected" string_of_int st.expected o.Oracle.expected;
  check "duplicates" string_of_int st.duplicates o.Oracle.duplicates;
  check "held" string_of_int (Tcp.Reassembly.held r) (Hashtbl.length o.Oracle.ooo);
  check "blocks" show_blocks (Tcp.Reassembly.blocks r) (Oracle.blocks o);
  check "ooo" show_ints st.ooo (Oracle.ooo o);
  check "recent" show_ints st.recent o.Oracle.recent;
  true

let restored r =
  let fresh = Tcp.Reassembly.create () in
  Tcp.Reassembly.restore fresh (Tcp.Reassembly.capture r);
  fresh

let prop_model =
  QCheck.Test.make ~name:"ring reassembly agrees with the hash-table oracle"
    ~count:500 case_arb (fun (start, ops) ->
      let o = Oracle.create start in
      let r = ref (Tcp.Reassembly.create ~start ()) in
      List.for_all
        (fun op ->
          (match op with
          | Arrive k ->
              let seq = o.Oracle.expected + k in
              Oracle.accept o seq;
              Tcp.Reassembly.accept !r seq
          | Round_trip -> r := restored !r);
          agree !r o)
        ops)

(* A round trip through capture/restore with holes held: the restored
   endpoint reports the same state and then evolves exactly as the
   original does. *)
let prop_round_trip =
  QCheck.Test.make ~name:"capture/restore round trip with holes held"
    ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 60) (int_range 1 300)) (int_bound 500))
    (fun (aheads, start) ->
      let r = Tcp.Reassembly.create ~start () in
      List.iter (fun k -> Tcp.Reassembly.accept r (start + k)) aheads;
      let before = Tcp.Reassembly.capture r in
      let copy = restored r in
      let after = Tcp.Reassembly.capture copy in
      if before.ooo = [] then QCheck.Test.fail_report "nothing held out of order";
      if before <> after then QCheck.Test.fail_report "restored state differs";
      (* Fill every hole in order on both; they must stay in step. *)
      List.for_all
        (fun seq ->
          Tcp.Reassembly.accept r seq;
          Tcp.Reassembly.accept copy seq;
          Tcp.Reassembly.capture r = Tcp.Reassembly.capture copy
          && Tcp.Reassembly.blocks r = Tcp.Reassembly.blocks copy)
        (List.init 302 (fun i -> start + i)))

let () =
  Alcotest.run "reassembly-model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
    ]
