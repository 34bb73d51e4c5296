(* Correctness oracles computed apart from the program: host
   brute-force distances, top-k by distance, and ACAM box violations.
   Every checker returns [Error msg] on the first disagreement. *)

let hamming (a : float array) (b : float array) =
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr n
  done;
  float_of_int !n

let sq_euclidean (a : float array) (b : float array) =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  !s

(* Binary rows packed 32 cells per int, for a fast host Hamming
   distance over large mirrors. *)
let pack (row : float array) =
  let p = Array.make ((Array.length row + 31) / 32) 0 in
  Array.iteri
    (fun i x -> if x <> 0. then p.(i / 32) <- p.(i / 32) lor (1 lsl (i mod 32)))
    row;
  p

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) land 0xffffffff) lsr 24

let hamming_packed (a : int array) (b : int array) =
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    n := !n + popcount32 (a.(i) lxor b.(i))
  done;
  float_of_int !n

(* Host distances of every query row to every stored row. *)
let distances dist ~queries ~stored =
  Array.map (fun q -> Array.map (dist q) stored) queries

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let rec all_rows f i n =
  if i >= n then Ok ()
  else
    let* () = f i in
    all_rows f (i + 1) n

(* One query row of a nearest-k result: [indices] are distinct stored
   rows whose host distances, in order, equal the k smallest host
   distances (rows tied at a distance may come in any order), and
   [values.(j)] is the distance of [indices.(j)]. *)
let nearest ~tol (host : float array) ~(indices : int array)
    ~(values : float array) =
  let k = Array.length indices in
  let sorted = Array.copy host in
  Array.sort Float.compare sorted;
  let seen = Hashtbl.create k in
  let rec go j =
    if j >= k then Ok ()
    else
      let i = indices.(j) in
      if i < 0 || i >= Array.length host then errorf "index %d out of range" i
      else if Hashtbl.mem seen i then errorf "index %d returned twice" i
      else if not (close ~tol host.(i) sorted.(j)) then
        errorf "rank %d: row %d at host distance %g, best is %g" j i host.(i)
          sorted.(j)
      else if not (close ~tol values.(j) host.(i)) then
        errorf "rank %d: row %d reported %g, host distance %g" j i values.(j)
          host.(i)
      else begin
        Hashtbl.add seen i ();
        go (j + 1)
      end
  in
  if Array.length values <> k then errorf "%d values for %d indices"
      (Array.length values) k
  else go 0

let nearest_rows ~tol host ~(indices : int array array)
    ~(values : float array array) =
  if Array.length indices <> Array.length host then
    errorf "%d result rows for %d queries" (Array.length indices)
      (Array.length host)
  else
    all_rows
      (fun r ->
        Result.map_error
          (Printf.sprintf "query %d: %s" r)
          (nearest ~tol host.(r) ~indices:indices.(r) ~values:values.(r)))
      0 (Array.length host)

(* One query row of a store result: exactly the [k] least live rows by
   (distance, external id), in that order. [live] pairs each live row's
   external id with its contents. *)
let ordered_topk dist ~k (live : (int * 'row) array) (query : 'row)
    ~(indices : int array) ~(values : float array) =
  let cands = Array.map (fun (id, row) -> (dist query row, id)) live in
  Array.sort
    (fun (d1, i1) (d2, i2) ->
      match Float.compare d1 d2 with 0 -> Int.compare i1 i2 | c -> c)
    cands;
  if Array.length indices <> k || Array.length values <> k then
    errorf "expected %d results, got %d" k (Array.length indices)
  else
    all_rows
      (fun j ->
        let d, id = cands.(j) in
        if indices.(j) <> id || values.(j) <> d then
          errorf "rank %d: got id %d at %g, host mirror has id %d at %g" j
            indices.(j) values.(j) id d
        else Ok ())
      0 k

(* ACAM range search: the number of dimensions where [x] falls outside
   a box, and the least (violations, box id) over the table. *)
let violations ~(lo : float array) ~(hi : float array) (x : float array) =
  let v = ref 0 in
  Array.iteri (fun j xj -> if xj < lo.(j) || xj > hi.(j) then incr v) x;
  !v

let best_box ~(lo : float array array) ~(hi : float array array) x =
  let best = ref (max_int, -1) in
  Array.iteri
    (fun b lo_b ->
      let c = (violations ~lo:lo_b ~hi:hi.(b) x, b) in
      if compare c !best < 0 then best := c)
    lo;
  !best

(* One range batch: per query row the matched box (or -1), the best
   violation count and the best box id. *)
let range_rows ~lo ~hi queries ~(matches : int array)
    ~(values : float array array) ~(indices : int array array) =
  all_rows
    (fun r ->
      let v, b = best_box ~lo ~hi queries.(r) in
      let m = if v = 0 then b else -1 in
      if matches.(r) <> m then
        errorf "query %d: matched %d, host oracle %d" r matches.(r) m
      else if indices.(r).(0) <> b || values.(r).(0) <> float_of_int v then
        errorf "query %d: best box %d at %g, host oracle %d at %d" r
          indices.(r).(0) values.(r).(0) b v
      else Ok ())
    0 (Array.length queries)

(* Simulated cost properties of one run: positive, and identical every
   time the same configuration repeats ([reference] holds the first). *)
let sim_cost reference key ~latency ~energy =
  if not (latency > 0. && energy > 0.) then
    errorf "%s: non-positive latency %g or energy %g" key latency energy
  else
    match Hashtbl.find_opt reference key with
    | None ->
        Hashtbl.add reference key (latency, energy);
        Ok ()
    | Some (l, e) when Float.equal l latency && Float.equal e energy -> Ok ()
    | Some (l, e) ->
        errorf "%s: latency/energy %g/%g differ from the first run's %g/%g"
          key latency energy l e

(* ---- the wire reply ----------------------------------------------------- *)

(* "ok i:v,i:v;i:v,..." into per-row indices and values. *)
let parse_reply line =
  match String.index_opt line ' ' with
  | Some 2 when String.sub line 0 2 = "ok" ->
      let body = String.sub line 3 (String.length line - 3) in
      let rows = String.split_on_char ';' body in
      let pairs row =
        Array.of_list
          (List.map
             (fun p -> Scanf.sscanf p "%d:%f%!" (fun i v -> (i, v)))
             (String.split_on_char ',' row))
      in
      let rows = Array.of_list (List.map pairs rows) in
      Ok (Array.map (Array.map fst) rows, Array.map (Array.map snd) rows)
  | _ -> errorf "not an ok reply: %s" line

let reply ~tol host line =
  try
    let* indices, values = parse_reply line in
    nearest_rows ~tol host ~indices ~values
  with (Scanf.Scan_failure _ | Failure _ | End_of_file) as e ->
    errorf "malformed reply %S (%s)" line (Printexc.to_string e)
