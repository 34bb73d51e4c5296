(* The metric catalogue: every end-to-end and per-layer metric with its
   unit. BENCHMARK.json lists the same names; a traced run prints every
   per-layer metric, with 0 for layers its workload does not enter. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("peak_rss_mb", "MiB");
  ]

(* The passes of [Passes.Pipelines.full] on the explored architectures. *)
let pass_names =
  [
    "torch-to-cim";
    "cim-fuse-ops";
    "canonicalize";
    "cim-partition";
    "cam-map";
    "cam-power";
  ]

let per_layer =
  [
    ("workloads.gen_ms", "ms");
    ("frontend.ms", "ms");
    ("passes.ms", "ms");
  ]
  @ List.map (fun p -> ("pass." ^ p ^ ".ms", "ms")) pass_names
  @ [
      ("ir.verify_ms", "ms");
      ("ir.clone_ms", "ms");
      ("ir.cim_kb", "KiB");
      ("compile.ms", "ms");
      ("compile.covered_pct", "%");
      ("run.ms", "ms");
      ("interp.ops", "count");
      ("camsim.search_ops", "count");
      ("camsim.write_ops", "count");
      ("camsim.kernel_binary", "count");
      ("camsim.kernel_nibble", "count");
      ("camsim.kernel_generic", "count");
      ("camsim.kernel_early_exit", "count");
      ("store.insert_ms", "ms");
      ("store.delete_ms", "ms");
      ("store.update_ms", "ms");
      ("store.query_ms", "ms");
      ("range.update_ms", "ms");
      ("range.query_ms", "ms");
      ("store.write_ops", "count");
      ("range.write_ops", "count");
      ("session.query_ms", "ms");
      ("tcp.parse_ms", "ms");
      ("tcp.format_ms", "ms");
      ("tcp.other_ms", "ms");
      ("server.lat_ms_p50", "ms");
      ("server.batch_fill", "rows");
      ("gc.minor_mw_per_op", "Mword");
      ("gc.major_per_op", "count");
      ("trace.overhead_pct", "%");
    ]

(* The catalogue entries of [catalogue], valued from [measured] (0 for
   a metric the run did not measure). *)
let select catalogue measured =
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name measured) in
      (name, v, unit))
    catalogue

(* A run whose ops all failed has no op times; its result is still valid
   JSON, and [correct]/[failed] tell the story. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
