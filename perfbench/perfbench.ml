(* perfbench WORKLOAD --seed N --seconds S --trace 0|1 --mspar PATH --dir DIR

   Runs one workload and prints, as its last line, one JSON object with
   the attempted and failed operation counts and the metrics.  With
   --trace 0 the end-to-end metrics of WORKLOAD; with --trace 1 the
   traced pass of every workload, serve-mixed included, so the per-layer
   table is complete whichever workload is named.  A failed check prints the workload and
   the seed on stderr and exits 1 without a result. *)

let usage () =
  prerr_endline
    "usage: perfbench (static-udg|dynamic-churn) --seed N --seconds S \
     --trace 0|1 --mspar PATH --dir DIR";
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Pb.fail "metric value %f is not a finite number" v

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { Pb.name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let mspar = ref "" and dir = ref "" in
  let rec parse = function
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | "--mspar" :: v :: rest ->
        mspar := v;
        parse rest
    | "--dir" :: v :: rest ->
        dir := v;
        parse rest
    | w :: rest when !workload = "" ->
        workload := w;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || !mspar = "" || !dir = "" then usage ();
  let seed = !seed and seconds = !seconds and mspar = !mspar and dir = !dir in
  (* a signal from the runner still takes the daemon down via at_exit *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    if !trace = 0 then begin
      let r =
        match !workload with
        | "static-udg" -> Static_udg.run ~seed ~seconds ~dir
        | "dynamic-churn" -> Dynamic_churn.run ~seed ~seconds
        | _ -> usage ()
      in
      List.iter print_endline r.Pb.notes;
      print_result ~attempted:r.Pb.attempted ~failed:r.Pb.failed r.Pb.metrics
    end
    else begin
      (match !workload with
      | "static-udg" | "dynamic-churn" -> ()
      | _ -> usage ());
      let part = seconds /. 3. in
      let s_ops, s_metrics = Static_udg.run_traced ~seed ~seconds:part ~dir in
      let d_ops, d_metrics = Dynamic_churn.run_traced ~seed ~seconds:part in
      let v_ops, v_failed, v_metrics =
        Serve_mixed.run_traced ~mspar ~seed ~seconds:part ~dir
      in
      Pb.Trace.write (Filename.concat dir "spans.tsv");
      print_result ~attempted:(s_ops + d_ops + v_ops) ~failed:v_failed
        (s_metrics @ d_metrics @ v_metrics)
    end
  with
  | () -> ()
  | exception Pb.Check_failed msg ->
      Printf.eprintf "perfbench: check failed in %s (seed %d): %s\n%!" !workload seed msg;
      exit 1
