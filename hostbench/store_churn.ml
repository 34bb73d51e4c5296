(* store-churn: mutation beside query on both serving stores, at
   jobs = 1. A [Serve.Sharded_store] of binary rows (4 shards, 3/4
   full, k = 4, q = 8) and a sharded [Serve.Range_store] of ACAM boxes
   from the registry's range-filter generator. One op:
   1. a delete-then-insert or an update (alternating) on the similarity
      store;
   2. one query batch on the similarity store;
   3. one [update_box] on the range store;
   4. one query batch on the range store. *)

open Common
module Reg = Workloads.Registry
module Spec = Archspec.Spec
module Store = Serve.Sharded_store
module Range = Serve.Range_store

let q = 8
let k = 4

(* similarity store: [capacity] slots of [dims] binary cells. Both
   stores are sized so that an op takes about 11 ms: the host's speed
   changes every few milliseconds, and an op that spans several such
   changes has a single-peaked time, whose median moves smoothly with
   the host instead of jumping between a fast and a slow peak. *)
let dims = 256
let shards = 4
let capacity = 1024
let live = capacity * 3 / 4

(* range store: [boxes] boxes of [box_dims] features *)
let boxes = 1024
let box_dims = 32
let range_shards = 4

(* ops per round, and distinct query batches per store *)
let round_ops = 16
let batches = 16

type state = {
  store : Store.t;
  mirror : (int * int array) array;
      (** live rows: (external id, packed row) *)
  range : Range.t;
  lo : float array array;  (** the boxes as the device should hold them *)
  hi : float array array;
  tables : (float array array * float array array) array;
      (** the generated box table and a second one: even rounds update
          boxes from the second, odd rounds back from the first *)
  store_queries : float array array array;
  packed_queries : int array array array;
  range_queries : float array array array;
  positions : int array;  (** per op of a round: mirror slot to mutate *)
  box_ids : int array;  (** per op of a round: box to update *)
  seed : int;
  mutable round : int;  (** rounds run so far, across phases *)
}

let binary_row rng =
  Array.init dims (fun _ -> if Random.State.bool rng then 1. else 0.)

let range_instance ~seed =
  let e = Reg.find_exn "range-filter" in
  match e.Reg.exec with
  | Reg.Range mk ->
      mk
        {
          Reg.queries = q * batches;
          rows = boxes;
          dims = box_dims;
          k = 1;
          seed;
        }
  | _ -> invalid_arg "store-churn: range-filter is not a range workload"

let setup ~seed () =
  Serve.Artifact_cache.clear ();
  let rng = Random.State.make [| seed; 0x5ca1e |] in
  let spec = Spec.square 32 Spec.Base in
  let store = Store.create ~spec ~q ~d:dims ~k ~shards ~capacity () in
  let mirror =
    Array.init live (fun _ ->
        let row = binary_row rng in
        (Store.insert store row, Check.pack row))
  in
  let store_queries =
    Array.init batches (fun _ -> Array.init q (fun _ -> binary_row rng))
  in
  let ri = range_instance ~seed and alt = range_instance ~seed:(seed + 1) in
  let range =
    Range.create ~shards:range_shards ~q ~lo:ri.Reg.ri_lo ~hi:ri.Reg.ri_hi ()
  in
  let range_queries =
    Array.init batches (fun b -> Array.sub ri.Reg.ri_queries (b * q) q)
  in
  (* warm-up: the first batches write every row and box to the devices *)
  ignore (Store.query store store_queries.(0));
  ignore (Range.query range range_queries.(0));
  {
    store;
    mirror;
    range;
    lo = Array.map Array.copy ri.Reg.ri_lo;
    hi = Array.map Array.copy ri.Reg.ri_hi;
    tables = [| (alt.Reg.ri_lo, alt.Reg.ri_hi); (ri.Reg.ri_lo, ri.Reg.ri_hi) |];
    store_queries;
    packed_queries = Array.map (Array.map Check.pack) store_queries;
    range_queries;
    positions = Array.init round_ops (fun _ -> Random.State.int rng live);
    box_ids = Array.init round_ops (fun _ -> Random.State.int rng boxes);
    seed;
    round = 0;
  }

(* One op of round [round]. The new row content is fresh for every op, from
   a generator keyed on (seed, round, op), so every write changes the
   device. Spans time each store call when given. *)
let op ?spans st ~round i =
  let time name f =
    match spans with None -> f () | Some s -> Spans.time s name f
  in
  let p = st.positions.(i) and b = st.box_ids.(i) in
  let row = binary_row (Random.State.make [| st.seed; round; i |]) in
  let lo, hi = st.tables.(round mod 2) in
  let lo = Array.copy lo.(b) and hi = Array.copy hi.(b) in
  let sq = st.store_queries.(i mod batches)
  and packed = st.packed_queries.(i mod batches)
  and rq = st.range_queries.(i mod batches) in
  let t0 = now () in
  let id, _ = st.mirror.(p) in
  let id =
    if i mod 2 = 0 then begin
      time "store.delete" (fun () -> Store.delete st.store id);
      time "store.insert" (fun () -> Store.insert st.store row)
    end
    else begin
      time "store.update" (fun () -> Store.update st.store id row);
      id
    end
  in
  let sr = time "store.query" (fun () -> Store.query st.store sq) in
  time "range.update" (fun () -> Range.update_box st.range ~row:b ~lo ~hi);
  let rr = time "range.query" (fun () -> Range.query st.range rq) in
  let dt = now () -. t0 in
  st.mirror.(p) <- (id, Check.pack row);
  st.lo.(b) <- lo;
  st.hi.(b) <- hi;
  ( dt,
    fun () ->
      let ( let* ) = Result.bind in
      let* () =
        Check.all_rows
          (fun r ->
            Check.ordered_topk Check.hamming_packed ~k st.mirror packed.(r)
              ~indices:sr.Store.indices.(r) ~values:sr.Store.values.(r))
          0 q
      in
      Check.range_rows ~lo:st.lo ~hi:st.hi rq ~matches:rr.Range.matches
        ~values:rr.Range.values ~indices:rr.Range.indices )

let rounds ?spans st t =
  phase ~min_rounds:7 t (fun _ ->
      for i = 0 to round_ops - 1 do
        attempt t (fun () -> op ?spans st ~round:st.round i)
      done;
      st.round <- st.round + 1)

let run (o : opts) =
  (* a set-up takes about 60 ms, so 25 of them cost little and steady
     the median *)
  let st, setup_s =
    repeated_setup ~times:25 ~setup:(setup ~seed:o.seed) ~teardown:ignore ()
  in
  if not o.trace then begin
    let t = tally () in
    rounds st t ~seconds:o.seconds;
    result_of [ t ] (end_to_end t ~setup_s)
  end
  else begin
    let half = o.seconds /. 2. in
    let u = tally () in
    rounds st u ~seconds:half;
    let spans = Spans.create () in
    let t = tally () in
    let writes () =
      ( (Store.device_stats st.store).Camsim.Stats.n_write_ops,
        (Range.device_stats st.range).Camsim.Stats.n_write_ops )
    in
    let w0 = writes () and gc0 = gc_snapshot () in
    rounds ~spans st t ~seconds:half;
    let gc = gc_metrics gc0 ~ops:t.attempted in
    let w1 = writes () in
    let per_op n = float_of_int n /. float_of_int (max 1 t.attempted) in
    result_of [ u; t ]
      ([
         ("store.write_ops", per_op (fst w1 - fst w0));
         ("range.write_ops", per_op (snd w1 - snd w0));
         ("trace.overhead_pct", overhead_pct ~untraced:u ~traced:t);
       ]
      @ List.map
          (fun name -> (name ^ "_ms", Spans.ms_per_call spans name))
          [
            "store.insert";
            "store.delete";
            "store.update";
            "store.query";
            "range.update";
            "range.query";
          ]
      @ gc)
  end
