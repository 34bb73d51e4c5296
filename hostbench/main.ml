(* The host-time benchmark of C4CAM's user paths.

     hostbench --workload W --seed N --seconds S --trace 0|1
     hostbench --selftest

   One workload per process. With [--trace 0] the last stdout line is
   the JSON result with every end-to-end metric; with [--trace 1] it
   carries every per-layer metric instead. Progress and failures go to
   stderr. See README.md. *)

let workloads =
  [
    ("explore", Explore.run);
    ("serve-tcp", Serve_tcp.run);
    ("store-churn", Store_churn.run);
  ]

let usage () =
  prerr_endline
    "usage: hostbench --workload explore|serve-tcp|store-churn --seed N \
     --seconds S --trace 0|1\n\
    \       hostbench --selftest";
  exit 2

let parse argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and selftest = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (seconds :=
           match float_of_string_opt s with
           | Some s when s > 0. && s <= 120. -> s
           | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | "--selftest" :: rest ->
        selftest := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if !selftest then `Selftest
  else
    match !workload with
    | Some w when List.mem_assoc w workloads ->
        `Run
          {
            Common.workload = w;
            (* registry shapes want a non-negative seed *)
            seed = !seed land 0x3fffffff;
            seconds = !seconds;
            trace = !trace;
          }
    | _ -> usage ()

let () =
  match parse Sys.argv with
  | `Selftest -> exit (Selftest.run ())
  | `Run o ->
      (* the checkers must reject corrupted results before they judge *)
      if Selftest.run () <> 0 then exit 1;
      let r = (List.assoc o.workload workloads) o in
      let catalogue =
        if o.trace then Layers.per_layer else Layers.end_to_end
      in
      let metrics = Layers.select catalogue r.Common.metrics in
      List.iter
        (fun (name, v, unit) ->
          Printf.eprintf "  %-26s %14.6g %s\n" name v unit)
        metrics;
      Printf.eprintf "  attempted %d, failed %d, correct %b\n%!" r.attempted
        r.failed r.correct;
      print_endline
        (Layers.to_json ~correct:r.correct ~attempted:r.attempted
           ~failed:r.failed metrics)
