(* explore: design-space exploration, the path of [c4cam run]/[sweep].
   Two registry kernels (hdc: binary cells, dot metric; knn: multi-bit
   cells, Euclidean) on the 12 square architectures {16,32,64} x
   {base, power, density, power+density}. One op is [Driver.compile]
   plus one one-shot [Driver.run_cam]; one round runs all 24
   configurations in a fixed order. *)

open Common
module Reg = Workloads.Registry
module Spec = Archspec.Spec
module Driver = C4cam.Driver

type kernel = {
  source : string;
  stored : float array array;
  queries : float array array;
  dist : float array -> float array -> float;
  tol : float;
}

type config = { key : string; kernel : kernel; spec : Spec.t }

let architectures =
  List.concat_map
    (fun side ->
      List.map (Spec.square side) Spec.[ Base; Power; Density; Power_density ])
    [ 16; 32; 64 ]

(* The registry instance of [name] at [shape], for [spec]. *)
let instance name shape spec =
  let e = Reg.find_exn name in
  match e.Reg.exec with
  | Reg.Kernel mk -> mk shape (e.Reg.fix_spec shape spec)
  | _ -> invalid_arg ("explore: " ^ name ^ " is not a kernel workload")

(* hdc: 64 queries x 2048 dims against 10 classes; knn: the registry's
   default shape. CAM distances are Hamming for hdc's binary dot kernel
   and squared Euclidean for knn. *)
let kernels ~seed =
  let hdc =
    { Reg.queries = 64; rows = 10; dims = 2048; k = 1; seed }
  and knn = { (Reg.find_exn "knn").Reg.default_shape with Reg.seed } in
  [
    ("hdc", hdc, Check.hamming, 0.);
    ("knn", knn, Check.sq_euclidean, 1e-9);
  ]

let setup ~seed ~gen_ms () =
  let t0 = now () in
  let configs =
    List.concat_map
      (fun (name, shape, dist, tol) ->
        let ki = instance name shape (List.hd architectures) in
        let kernel =
          {
            source = ki.Reg.ki_source;
            stored = ki.Reg.ki_stored;
            queries = ki.Reg.ki_queries;
            dist;
            tol;
          }
        in
        List.map
          (fun arch ->
            let spec = (Reg.find_exn name).Reg.fix_spec shape arch in
            let key =
              Printf.sprintf "%s@%dx%d/%s" name spec.Spec.rows spec.cols
                (Spec.optimization_to_string spec.optimization)
            in
            { key; kernel; spec })
          architectures)
      (kernels ~seed)
  in
  gen_ms := (1e3 *. (now () -. t0)) :: !gen_ms;
  (* warm-up: every configuration compiled and run once *)
  let compiled =
    List.map
      (fun cfg ->
        let c = Driver.compile ~spec:cfg.spec cfg.kernel.source in
        ignore
          (Driver.run_cam c ~queries:cfg.kernel.queries
             ~stored:cfg.kernel.stored);
        c)
      configs
  in
  (Array.of_list configs, Array.of_list compiled)

(* The checks of one op: ranks against host brute force, then the
   simulated cost properties. *)
let check reference host cfg (r : Driver.run_result) () =
  let ( let* ) = Result.bind in
  let* () =
    Check.nearest_rows ~tol:cfg.kernel.tol host ~indices:r.indices
      ~values:r.values
  in
  Check.sim_cost reference cfg.key ~latency:r.latency ~energy:r.energy

(* [Driver.compile] rebuilt from the layers it composes, each call
   timed: the frontend, [Passes.Pipelines.full] run pass by pass without
   verification, [Ir.Verifier] after each pass, and the two module
   copies. [plain] is a plain compile of the same configuration; the
   result is [plain] with the three modules replaced. *)
let traced_compile spans cfg (plain : Driver.compiled) =
  let time name f = Spans.time spans name f in
  let source = cfg.kernel.source in
  let torch_ir =
    time "frontend" (fun () -> Frontend.Emit.compile_string source)
  in
  let run_stage m passes =
    List.fold_left
      (fun m (p : Ir.Pass.t) ->
        let m' =
          time ("pass." ^ p.pass_name) (fun () ->
              Ir.Pass.run ~verify:false p m)
        in
        time "verify" (fun () ->
            match Ir.Verifier.verify_module ~strict:false m' with
            | Ok () -> ()
            | Error e -> failwith (Ir.Verifier.error_to_string e));
        m')
      m passes
  in
  (* Driver.compile copies the module before the cim stage (ending with
     the partition pass) and again before the cam stage *)
  let rec split acc = function
    | (p : Ir.Pass.t) :: rest when p.pass_name = "cim-partition" ->
        (List.rev (p :: acc), rest)
    | p :: rest -> split (p :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let cim_passes, cam_passes = split [] (Passes.Pipelines.full cfg.spec) in
  let clone m = time "clone" (fun () -> Driver.clone_module m) in
  let cim_ir = run_stage (clone torch_ir) cim_passes in
  let cam_ir = run_stage (clone cim_ir) cam_passes in
  { plain with Driver.torch_ir; cim_ir; cam_ir }

(* The share of [Driver.compile] time, in percent, that the layer spans
   of [traced_compile] must account for. Outside it the copy no longer
   does what [Driver.compile] does (a step added, dropped or made
   cheaper), and the traced run is not correct. *)
let coverage_band = (90., 110.)

(* Deterministic per-run work counts, summed over the traced phase. *)
let count_run counts (r : Driver.run_result) =
  let add name v =
    let c = Option.value ~default:0 (Hashtbl.find_opt counts name) in
    Hashtbl.replace counts name (c + v)
  in
  add "interp.ops" (List.fold_left (fun a (_, n) -> a + n) 0 r.ops_executed);
  let s = r.stats in
  add "camsim.search_ops" s.Camsim.Stats.n_search_ops;
  add "camsim.write_ops" s.n_write_ops;
  add "camsim.kernel_binary" s.n_kernel_binary;
  add "camsim.kernel_nibble" s.n_kernel_nibble;
  add "camsim.kernel_generic" s.n_kernel_generic;
  add "camsim.kernel_early_exit" s.n_kernel_early_exit

let run (o : opts) =
  let gen_ms = ref [] in
  let (configs, compiled), setup_s =
    repeated_setup ~setup:(setup ~seed:o.seed ~gen_ms) ~teardown:ignore ()
  in
  let host =
    Array.map
      (fun cfg ->
        Check.distances cfg.kernel.dist ~queries:cfg.kernel.queries
          ~stored:cfg.kernel.stored)
      configs
  in
  let reference = Hashtbl.create 32 in
  let n = Array.length configs in
  let plain_op tally i =
    let cfg = configs.(i) in
    attempt tally (fun () ->
        let t0 = now () in
        let c = Driver.compile ~spec:cfg.spec cfg.kernel.source in
        let r =
          Driver.run_cam c ~queries:cfg.kernel.queries
            ~stored:cfg.kernel.stored
        in
        (now () -. t0, check reference host.(i) cfg r))
  in
  if not o.trace then begin
    let t = tally () in
    phase ~min_rounds:5 t ~seconds:o.seconds (fun _ ->
        for i = 0 to n - 1 do
          plain_op t i
        done);
    result_of [ t ] (end_to_end t ~setup_s)
  end
  else begin
    let half = o.seconds /. 2. in
    let u = tally () in
    phase ~min_rounds:3 u ~seconds:half (fun _ ->
        for i = 0 to n - 1 do
          plain_op u i
        done);
    let spans = Spans.create () in
    let counts = Hashtbl.create 8 in
    let t = tally () in
    let gc0 = gc_snapshot () in
    (* ops alternate between timing [Driver.compile] whole and timing
       its layers, so both see the same moments of the run; over two
       rounds every configuration is compiled both ways *)
    let traced_op round i =
      let cfg = configs.(i) in
      attempt t (fun () ->
          let t0 = now () in
          let c =
            if (round + i) mod 2 = 0 then
              Spans.time spans "compile" (fun () ->
                  Driver.compile ~spec:cfg.spec cfg.kernel.source)
            else traced_compile spans cfg compiled.(i)
          in
          let r =
            Spans.time spans "run" (fun () ->
                Driver.run_cam c ~queries:cfg.kernel.queries
                  ~stored:cfg.kernel.stored)
          in
          let dt = now () -. t0 in
          count_run counts r;
          (dt, check reference host.(i) cfg r))
    in
    phase ~min_rounds:2 t ~seconds:half (fun round ->
        for i = 0 to n - 1 do
          traced_op round i
        done);
    let gc = gc_metrics gc0 ~ops:t.attempted in
    let layer_ops = Spans.calls spans "frontend" in
    let per_compile name =
      if layer_ops = 0 then 0.
      else 1e3 *. Spans.total spans name /. float_of_int layer_ops
    in
    let passes =
      List.map
        (fun p -> ("pass." ^ p ^ ".ms", per_compile ("pass." ^ p)))
        Layers.pass_names
    in
    let passes_ms = List.fold_left (fun a (_, v) -> a +. v) 0. passes in
    let layers_ms =
      per_compile "frontend" +. passes_ms +. per_compile "verify"
      +. per_compile "clone"
    in
    let compile_ms = Spans.ms_per_call spans "compile" in
    let covered_pct = 100. *. layers_ms /. Float.max 1e-9 compile_ms in
    let faithful =
      covered_pct >= fst coverage_band && covered_pct <= snd coverage_band
    in
    if not faithful then
      complain "traced compile"
        (Printf.sprintf "layer spans cover %.1f%% of Driver.compile"
           covered_pct);
    let cim_kb =
      Array.fold_left
        (fun a (c : Driver.compiled) ->
          let text = Ir.Printer.module_to_string c.cim_ir in
          a +. float_of_int (String.length text))
        0. compiled
      /. 1024. /. float_of_int n
    in
    let per_op name =
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))
      /. float_of_int (max 1 t.attempted)
    in
    let counted =
      List.map
        (fun name -> (name, per_op name))
        [
          "interp.ops";
          "camsim.search_ops";
          "camsim.write_ops";
          "camsim.kernel_binary";
          "camsim.kernel_nibble";
          "camsim.kernel_generic";
          "camsim.kernel_early_exit";
        ]
    in
    let r =
      result_of [ u; t ]
        ([
           ("workloads.gen_ms", median (Array.of_list !gen_ms));
           ("frontend.ms", per_compile "frontend");
           ("passes.ms", passes_ms);
           ("ir.verify_ms", per_compile "verify");
           ("ir.clone_ms", per_compile "clone");
           ("ir.cim_kb", cim_kb);
           ("compile.ms", compile_ms);
           ("compile.covered_pct", covered_pct);
           ("run.ms", Spans.ms_per_call spans "run");
           ("trace.overhead_pct", overhead_pct ~untraced:u ~traced:t);
         ]
        @ passes @ counted @ gc)
    in
    { r with correct = r.correct && faithful }
  end
