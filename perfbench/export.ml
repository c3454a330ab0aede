(* The export half of `rla_trace --gateway red --case 3 --json --csv`,
   rendered to memory, plus one checkpoint written and read back
   through the public checkpoint API (the only file this benchmark
   writes, under .perfbench_tmp/ in the working directory). *)

let dir = ".perfbench_tmp"

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run ~spans ~config ~session ~registry ~seed =
  let span name f = Spans.record spans name f in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "red-seed%d.ckpt" seed) in
  let time = Net.Network.now session.Experiments.Sharing.net in
  let (json, json_s), (csv, csv_s), ((), save_s), (loaded, load_s) =
    span "export" (fun () ->
        let json =
          span "json" (fun () ->
              timed (fun () ->
                  Runner.Json.to_string (Runner.Report.registry_json registry)))
        in
        let csv =
          span "csv" (fun () ->
              timed (fun () ->
                  let buf = Buffer.create (1 lsl 20) in
                  let ppf = Format.formatter_of_buffer buf in
                  Runner.Report.flow_series_csv ppf registry;
                  Format.pp_print_flush ppf ();
                  Buffer.contents buf))
        in
        let save =
          span "ckpt_save" (fun () ->
              timed (fun () ->
                  Ckpt.Sharing_ckpt.save ~path ~time ~config ~session ~registry ()))
        in
        let load =
          span "ckpt_load" (fun () -> timed (fun () -> Ckpt.Sharing_ckpt.load ~path))
        in
        (json, csv, save, load))
  in
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  (try Sys.rmdir dir with Sys_error _ -> ());
  let failures =
    (match loaded with
    | Ok l when l.Ckpt.Sharing_ckpt.time = time -> []
    | Ok _ -> [ "checkpoint: loaded clock differs from the saved one" ]
    | Error e -> [ "checkpoint: " ^ Ckpt.Sharing_ckpt.error_to_string e ])
    @
    match Runner.Json.of_string json with
    | Runner.Json.Obj (_ :: _) -> []
    | _ -> [ "registry JSON is not a non-empty object" ]
    | exception Failure msg -> [ "registry JSON does not parse: " ^ msg ]
  in
  let samples =
    List.fold_left
      (fun acc s -> acc + Obs.Series.length s)
      0 (Obs.Registry.all_series registry)
  in
  ( json_s +. csv_s +. save_s +. load_s,
    [
      ("obs.series_samples", float_of_int samples);
      ("runner.json_s", json_s);
      ("runner.json_mb", float_of_int (String.length json) /. 1e6);
      ("runner.csv_s", csv_s);
      ("runner.csv_mb", float_of_int (String.length csv) /. 1e6);
      ("ckpt.save_s", save_s);
      ("ckpt.load_s", load_s);
      ("ckpt.kb", float_of_int bytes /. 1024.0);
    ],
    failures )
