type entry = { time : float; source : string; event : string; value : float }

type t = { mutable rev_entries : entry list; mutable len : int }

let create () = { rev_entries = []; len = 0 }

let record t e =
  t.rev_entries <- e :: t.rev_entries;
  t.len <- t.len + 1

let attach t registry =
  Obs.Registry.on_event registry (fun e ->
      record t
        {
          time = e.Obs.Registry.time;
          source = e.source;
          event = e.event;
          value = e.value;
        })

let entries t = List.rev t.rev_entries

let length t = t.len

let entry_equal a b =
  Int64.equal (Int64.bits_of_float a.time) (Int64.bits_of_float b.time)
  && String.equal a.source b.source
  && String.equal a.event b.event
  && Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)

let entry_to_string e =
  Printf.sprintf "%h\t%s\t%s\t%h" e.time e.source e.event e.value

let save t ~path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  try
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (entry_to_string e);
            output_char oc '\n')
          (entries t));
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let parse_line lineno line =
  match String.split_on_char '\t' line with
  | [ time; source; event; value ] -> (
      match (float_of_string_opt time, float_of_string_opt value) with
      | Some time, Some value -> Ok { time; source; event; value }
      | _ -> Error (Printf.sprintf "line %d: bad float field" lineno))
  | _ -> Error (Printf.sprintf "line %d: expected 4 tab-separated fields" lineno)

let load ~path =
  match open_in_bin path with
  | exception _ -> Error (Printf.sprintf "cannot open %s" path)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let t = create () in
          let rec loop lineno =
            match input_line ic with
            | exception End_of_file -> Ok t
            | line when String.length line = 0 -> loop (lineno + 1)
            | line -> (
                match parse_line lineno line with
                | Ok e ->
                    record t e;
                    loop (lineno + 1)
                | Error _ as e -> e)
          in
          loop 1)

type divergence = { index : int; a : entry option; b : entry option }

let diff ta tb =
  let rec walk i ea eb =
    match (ea, eb) with
    | [], [] -> None
    | a :: ea, b :: eb when entry_equal a b -> walk (i + 1) ea eb
    | a, b ->
        Some
          {
            index = i;
            a = (match a with x :: _ -> Some x | [] -> None);
            b = (match b with x :: _ -> Some x | [] -> None);
          }
  in
  walk 0 (entries ta) (entries tb)
