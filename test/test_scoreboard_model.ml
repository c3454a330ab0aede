(* Model-based testing of the SACK scoreboard.

   A deliberately naive reference model — plain sets of sequence
   numbers, no incremental counters — replays the same operation
   sequences as the real scoreboard; every observable (high_ack, pipe,
   sacked/lost flags, retransmission choice, loss detection) must
   agree.  This catches bookkeeping drift that unit tests of individual
   operations cannot. *)

module Model = struct
  type t = {
    mutable high_ack : int;
    mutable next_seq : int;
    mutable sacked : int list;
    mutable lost : int list;
    mutable rexmitted : int list;
    mutable highest_sacked : int;
    mutable loss_floor : int;
  }

  let create () =
    {
      high_ack = 0;
      next_seq = 0;
      sacked = [];
      lost = [];
      rexmitted = [];
      highest_sacked = -1;
      loss_floor = 0;
    }

  let mem x l = List.mem x l

  let register_send t =
    let s = t.next_seq in
    t.next_seq <- s + 1;
    s

  let sack_one t seq =
    if seq >= t.high_ack && seq < t.next_seq && not (mem seq t.sacked) then begin
      t.sacked <- seq :: t.sacked;
      t.lost <- List.filter (fun s -> s <> seq) t.lost;
      t.rexmitted <- List.filter (fun s -> s <> seq) t.rexmitted;
      if seq > t.highest_sacked then t.highest_sacked <- seq
    end

  let mark_sacked t ~lo ~hi =
    for seq = lo to hi - 1 do
      sack_one t seq
    done

  let advance_cum t ack =
    let ack = Stdlib.min ack t.next_seq in
    if ack > t.high_ack then begin
      let keep l = List.filter (fun s -> s >= ack) l in
      t.sacked <- keep t.sacked;
      t.lost <- keep t.lost;
      t.rexmitted <- keep t.rexmitted;
      t.high_ack <- ack;
      if t.loss_floor < ack then t.loss_floor <- ack
    end

  let detect_losses t ~dupthresh =
    let upper = t.highest_sacked - dupthresh in
    let fresh = ref [] in
    if upper >= t.loss_floor then begin
      for seq = t.loss_floor to upper do
        if
          seq >= t.high_ack
          && (not (mem seq t.sacked))
          && not (mem seq t.lost)
        then begin
          t.lost <- seq :: t.lost;
          fresh := seq :: !fresh
        end
      done;
      t.loss_floor <- upper + 1
    end;
    List.rev !fresh

  let next_retransmit t =
    let candidates =
      List.filter (fun s -> not (mem s t.rexmitted)) t.lost
    in
    match List.sort compare candidates with [] -> None | s :: _ -> Some s

  let mark_retransmitted t seq = t.rexmitted <- seq :: t.rexmitted

  let mark_all_lost t =
    t.rexmitted <- [];
    for seq = t.high_ack to t.next_seq - 1 do
      if (not (mem seq t.sacked)) && not (mem seq t.lost) then
        t.lost <- seq :: t.lost
    done

  let pipe t =
    (* In flight = sent, not cum-acked, not sacked, not lost; plus
       retransmissions still outstanding. *)
    let flight = ref 0 in
    for seq = t.high_ack to t.next_seq - 1 do
      if (not (mem seq t.sacked)) && not (mem seq t.lost) then incr flight
    done;
    !flight + List.length t.rexmitted
end

type op =
  | Send
  | Cum of int  (* advance within the current window, parameterised *)
  | Sack of int * int  (* offset, length *)
  | Detect
  | Rexmit
  | All_lost

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return Send);
        (2, map (fun k -> Cum k) (int_bound 10));
        (3, map2 (fun o l -> Sack (o, 1 + l)) (int_bound 20) (int_bound 4));
        (2, return Detect);
        (2, return Rexmit);
        (1, return All_lost);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
    QCheck.Gen.(list_size (1 -- 300) op_gen)

let agree sb model =
  Tcp.Scoreboard.For_testing.check_invariants sb;
  let ok = ref true in
  let check name a b =
    if a <> b then begin
      ok := false;
      QCheck.Test.fail_reportf "%s: real %d, model %d" name a b
    end
  in
  check "high_ack" (Tcp.Scoreboard.high_ack sb) model.Model.high_ack;
  check "next_seq" (Tcp.Scoreboard.next_seq sb) model.Model.next_seq;
  check "pipe" (Tcp.Scoreboard.pipe sb) (Model.pipe model);
  check "highest_sacked" (Tcp.Scoreboard.For_testing.highest_sacked sb)
    model.Model.highest_sacked;
  let entries = (Tcp.Scoreboard.capture sb ~next_seq:(Tcp.Scoreboard.next_seq sb)).s_entries in
  let flag get seq =
    List.exists (fun e -> e.Tcp.Scoreboard.e_seq = seq && get e) entries
  in
  for seq = model.Model.high_ack to model.Model.next_seq - 1 do
    if flag (fun e -> e.e_sacked) seq <> Model.mem seq model.Model.sacked then begin
      ok := false;
      QCheck.Test.fail_reportf "sacked flag mismatch at %d" seq
    end;
    if flag (fun e -> e.e_lost) seq <> Model.mem seq model.Model.lost then begin
      ok := false;
      QCheck.Test.fail_reportf "lost flag mismatch at %d" seq
    end
  done;
  !ok

let apply_both sb model op =
  match op with
  | Send ->
      let a = Tcp.Scoreboard.register_send sb in
      let b = Model.register_send model in
      a = b
  | Cum k ->
      let target = Tcp.Scoreboard.high_ack sb + k in
      let a = Tcp.Scoreboard.For_testing.advance_cum sb target in
      let before = model.Model.high_ack in
      Model.advance_cum model target;
      a = model.Model.high_ack - before
  | Sack (offset, len) ->
      let lo = Tcp.Scoreboard.high_ack sb + offset in
      let hi = lo + len in
      ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo ~hi);
      Model.mark_sacked model ~lo ~hi;
      true
  | Detect ->
      let a = Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3 in
      let b = Model.detect_losses model ~dupthresh:3 in
      a = b
  | Rexmit -> (
      let a = Tcp.Scoreboard.next_retransmit sb in
      let b = Model.next_retransmit model in
      match (a, b) with
      | None, None -> true
      | Some x, Some y when x = y ->
          Tcp.Scoreboard.mark_retransmitted sb x;
          Model.mark_retransmitted model x;
          true
      | _ -> false)
  | All_lost ->
      ignore (Tcp.Scoreboard.mark_all_lost sb ~next_seq:(Tcp.Scoreboard.next_seq sb));
      Model.mark_all_lost model;
      true

let prop_model_agreement =
  QCheck.Test.make ~name:"scoreboard agrees with reference model" ~count:300
    ops_arb (fun ops ->
      let sb = Tcp.Scoreboard.create () in
      let model = Model.create () in
      List.for_all
        (fun op -> apply_both sb model op && agree sb model)
        ops)

let prop_pipe_monotone_on_sack =
  QCheck.Test.make ~name:"sacking never increases pipe" ~count:200
    QCheck.(pair (int_bound 50) (int_bound 50))
    (fun (n, s) ->
      let sb = Tcp.Scoreboard.create () in
      for _ = 1 to n + 1 do
        ignore (Tcp.Scoreboard.register_send sb)
      done;
      let before = Tcp.Scoreboard.pipe sb in
      ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:(s mod (n + 1)) ~hi:((s mod (n + 1)) + 3));
      Tcp.Scoreboard.pipe sb <= before)

let prop_cum_clears_window =
  QCheck.Test.make ~name:"full cumulative ack empties the window" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 2))
    (fun noise ->
      let sb = Tcp.Scoreboard.create () in
      List.iter
        (fun x ->
          ignore (Tcp.Scoreboard.register_send sb);
          if x = 1 then
            ignore
              (Tcp.Scoreboard.For_testing.mark_sacked sb
                 ~lo:(Tcp.Scoreboard.next_seq sb - 1)
                 ~hi:(Tcp.Scoreboard.next_seq sb));
          if x = 2 then ignore (Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3))
        noise;
      ignore (Tcp.Scoreboard.For_testing.advance_cum sb (Tcp.Scoreboard.next_seq sb));
      Tcp.Scoreboard.pipe sb = 0
      && Tcp.Scoreboard.in_flight_window sb = 0)

let () =
  Alcotest.run "scoreboard-model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model_agreement;
          QCheck_alcotest.to_alcotest prop_pipe_monotone_on_sack;
          QCheck_alcotest.to_alcotest prop_cum_clears_window;
        ] );
    ]
