(* Each checker must accept a correct result and reject a corrupted one:
   a swapped index, a stale row, a wrong box, a drifting cost. Returns
   the process exit code (0 when every case behaves). *)

let cases = ref []
let case name f = cases := (name, f) :: !cases

let expect_ok = function Ok () -> true | Error _ -> false
let expect_error = function Ok () -> false | Error _ -> true

(* A small binary store and its queries, from a fixed generator. *)
let rng = Random.State.make [| 7 |]
let binary_row d =
  Array.init d (fun _ -> if Random.State.bool rng then 1. else 0.)
let stored = Array.init 12 (fun _ -> binary_row 64)
let queries = Array.init 4 (fun _ -> binary_row 64)
let host = Check.distances Check.hamming ~queries ~stored

(* The true k-nearest result, by host brute force. *)
let truth k =
  let best row =
    let c = Array.mapi (fun i d -> (d, i)) row in
    Array.sort compare c;
    Array.sub c 0 k
  in
  let b = Array.map best host in
  (Array.map (Array.map snd) b, Array.map (Array.map fst) b)

(* Replace query 0's best row by its worst one, reporting the worst
   row's true distance: a self-consistent answer that only the ranking
   check can catch. *)
let swap_worst (indices : int array array) (values : float array array) =
  let row = host.(0) in
  let worst = ref 0 in
  Array.iteri (fun i d -> if d > row.(!worst) then worst := i) row;
  let indices = Array.map Array.copy indices
  and values = Array.map Array.copy values in
  indices.(0).(0) <- !worst;
  values.(0).(0) <- row.(!worst);
  (indices, values)

let () =
  case "nearest accepts the truth" (fun () ->
      let indices, values = truth 3 in
      expect_ok (Check.nearest_rows ~tol:0. host ~indices ~values));
  case "nearest accepts tied rows in either order" (fun () ->
      let host = [| [| 3.; 1.; 2.; 1. |] |] in
      expect_ok
        (Check.nearest_rows ~tol:0. host ~indices:[| [| 3; 1 |] |]
           ~values:[| [| 1.; 1. |] |]));
  case "nearest rejects a swapped index" (fun () ->
      let indices, values = truth 3 in
      let indices, values = swap_worst indices values in
      expect_error (Check.nearest_rows ~tol:0. host ~indices ~values));
  case "nearest rejects a repeated index" (fun () ->
      let host = [| [| 1.; 1.; 2. |] |] in
      expect_error
        (Check.nearest_rows ~tol:0. host ~indices:[| [| 0; 0 |] |]
           ~values:[| [| 1.; 1. |] |]));
  case "nearest rejects a wrong distance" (fun () ->
      let indices, values = truth 1 in
      let values = Array.map Array.copy values in
      values.(1).(0) <- values.(1).(0) +. 1.;
      expect_error (Check.nearest_rows ~tol:0. host ~indices ~values));
  let line indices values =
    "ok "
    ^ String.concat ";"
        (Array.to_list
           (Array.mapi
              (fun r row ->
                String.concat ","
                  (Array.to_list
                     (Array.mapi
                        (fun j i -> Printf.sprintf "%d:%.17g" i values.(r).(j))
                        row)))
              indices))
  in
  case "reply accepts the truth" (fun () ->
      let indices, values = truth 1 in
      expect_ok (Check.reply ~tol:0. host (line indices values)));
  case "reply rejects a swapped index" (fun () ->
      let indices, values = truth 1 in
      let indices, values = swap_worst indices values in
      expect_error (Check.reply ~tol:0. host (line indices values)));
  case "reply rejects an error or truncated line" (fun () ->
      let indices, values = truth 1 in
      let l = line indices values in
      expect_error (Check.reply ~tol:0. host "err overloaded")
      && expect_error
           (Check.reply ~tol:0. host (String.sub l 0 (String.length l - 6))));
  let live = Array.mapi (fun i r -> (100 + i, r)) stored in
  let store_result live q =
    let c = Array.map (fun (id, r) -> (Check.hamming q r, id)) live in
    Array.sort compare c;
    let top = Array.sub c 0 4 in
    (Array.map snd top, Array.map fst top)
  in
  case "store top-k accepts the mirror's answer" (fun () ->
      let indices, values = store_result live queries.(0) in
      expect_ok
        (Check.ordered_topk Check.hamming ~k:4 live queries.(0) ~indices
           ~values));
  case "store top-k rejects a stale row" (fun () ->
      (* the device still holds the query itself where row 105 was
         updated: the stale answer ranks 105 first at distance 0 *)
      let stale = Array.copy live in
      stale.(5) <- (105, Array.copy queries.(0));
      let indices, values = store_result stale queries.(0) in
      expect_error
        (Check.ordered_topk Check.hamming ~k:4 live queries.(0) ~indices
           ~values));
  case "store top-k rejects a deleted id" (fun () ->
      let indices, values = store_result live queries.(1) in
      let gone = indices.(0) in
      let fewer =
        Array.of_list
          (List.filter (fun (id, _) -> id <> gone) (Array.to_list live))
      in
      expect_error
        (Check.ordered_topk Check.hamming ~k:4 fewer queries.(1) ~indices
           ~values));
  case "packed Hamming equals the float one" (fun () ->
      let agree width =
        let cut r = Array.sub r 0 width in
        Array.for_all
          (fun q ->
            Array.for_all
              (fun s ->
                Check.hamming (cut q) (cut s)
                = Check.hamming_packed (Check.pack (cut q)) (Check.pack (cut s)))
              stored)
          queries
      in
      agree 64 && agree 45);
  let lo = [| [| 0.; 0. |]; [| 0.5; 0.5 |]; [| 0.2; 0.2 |] |]
  and hi = [| [| 0.4; 0.4 |]; [| 0.9; 0.9 |]; [| 0.6; 0.6 |] |] in
  let qs = [| [| 0.1; 0.3 |]; [| 0.55; 0.7 |]; [| 0.95; 0.99 |] |] in
  let oracle lo hi =
    let best = Array.map (Check.best_box ~lo ~hi) qs in
    ( Array.map (fun (v, b) -> if v = 0 then b else -1) best,
      Array.map (fun (v, _) -> [| float_of_int v |]) best,
      Array.map (fun (_, b) -> [| b |]) best )
  in
  case "range accepts the oracle" (fun () ->
      let matches, values, indices = oracle lo hi in
      expect_ok (Check.range_rows ~lo ~hi qs ~matches ~values ~indices));
  case "range rejects a wrong box" (fun () ->
      let matches, values, indices = oracle lo hi in
      let matches = Array.copy matches
      and indices = Array.map Array.copy indices in
      matches.(1) <- 2;
      indices.(1).(0) <- 2;
      expect_error (Check.range_rows ~lo ~hi qs ~matches ~values ~indices));
  case "range rejects a wrong best box or count where nothing matches"
    (fun () ->
      (* query 2 lies in no box, 2 violations from each: [matches] stays
         right, while the reported (violations, box) is not the least *)
      let matches, values, indices = oracle lo hi in
      assert (matches.(2) = -1 && indices.(2).(0) = 0);
      let corrupt f =
        let values = Array.map Array.copy values
        and indices = Array.map Array.copy indices in
        f values indices;
        expect_error (Check.range_rows ~lo ~hi qs ~matches ~values ~indices)
      in
      corrupt (fun _ indices -> indices.(2).(0) <- 1)
      && corrupt (fun values _ -> values.(2).(0) <- 1.));
  case "range rejects an answer from unmutated boxes" (fun () ->
      (* box 1 moved away from query 1 after the update *)
      let hi' = Array.map Array.copy hi and lo' = Array.map Array.copy lo in
      lo'.(1) <- [| 0.96; 0.96 |];
      hi'.(1) <- [| 0.99; 0.99 |];
      let matches, values, indices = oracle lo hi in
      expect_error
        (Check.range_rows ~lo:lo' ~hi:hi' qs ~matches ~values ~indices));
  case "sim cost accepts a repeat and rejects drift or zero" (fun () ->
      let r = Hashtbl.create 2 in
      expect_ok (Check.sim_cost r "a" ~latency:1e-6 ~energy:2e-9)
      && expect_ok (Check.sim_cost r "a" ~latency:1e-6 ~energy:2e-9)
      && expect_error (Check.sim_cost r "a" ~latency:1.1e-6 ~energy:2e-9)
      && expect_error (Check.sim_cost r "b" ~latency:0. ~energy:2e-9))

let run () =
  let failures =
    List.filter
      (fun (name, f) ->
        let ok = try f () with _ -> false in
        if not ok then prerr_endline ("hostbench selftest FAILED: " ^ name);
        not ok)
      (List.rev !cases)
  in
  if failures = [] then 0 else 1
