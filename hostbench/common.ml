(* Shared plumbing of the host-time benchmark: clocks, percentiles, the
   op tally of a timed phase, span accumulators for the traced run, and
   the one-line JSON result. *)

let now = Unix.gettimeofday

type opts = { workload : string; seed : int; seconds : float; trace : bool }

(* ---- statistics --------------------------------------------------------- *)

(* Linear interpolation between closest ranks on a sorted copy. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

(* ---- the tally of one timed phase --------------------------------------- *)

(* Op times of completed ops, plus failures. A failed op raised or its
   output failed a check; [check_s] is host time spent in the
   benchmark's own checkers, which the phase clock does not charge to
   the program. *)
type tally = {
  mutable times : float array;
  mutable n : int;
  mutable attempted : int;
  mutable raised : int;
  mutable rejected : int;
  mutable check_s : float;
  mutable wall_s : float;
  mutable round_starts : int list;
      (** [n] when each round began, latest first *)
}

let tally () =
  {
    times = Array.make 1024 0.;
    n = 0;
    attempted = 0;
    raised = 0;
    rejected = 0;
    check_s = 0.;
    wall_s = 0.;
    round_starts = [];
  }

let failed t = t.raised + t.rejected

let record t dt =
  if t.n = Array.length t.times then begin
    let a = Array.make (2 * t.n) 0. in
    Array.blit t.times 0 a 0 t.n;
    t.times <- a
  end;
  t.times.(t.n) <- dt;
  t.n <- t.n + 1

let reported = ref 0

let complain what msg =
  if !reported < 5 then prerr_endline ("hostbench: " ^ what ^ ": " ^ msg);
  incr reported

(* Run [op ()] as one attempted op: [op] returns its own timed duration
   and the checker to apply to its output. *)
let attempt t (op : unit -> float * (unit -> (unit, string) result)) =
  t.attempted <- t.attempted + 1;
  match op () with
  | exception e ->
      t.raised <- t.raised + 1;
      complain "op raised" (Printexc.to_string e)
  | dt, check -> (
      let c0 = now () in
      let verdict = try check () with e -> Error (Printexc.to_string e) in
      t.check_s <- t.check_s +. (now () -. c0);
      match verdict with
      | Ok () -> record t dt
      | Error msg ->
          t.rejected <- t.rejected + 1;
          complain "check failed" msg)

(* Repeat whole rounds of [round ()] until [seconds] of wall-clock have
   passed (at least [min_rounds] of them), recording the phase clock. *)
let phase ?(min_rounds = 1) t ~seconds round =
  let t0 = now () in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () -. t0 < seconds do
    t.round_starts <- t.n :: t.round_starts;
    round !rounds;
    incr rounds
  done;
  t.wall_s <- now () -. t0

let op_times t = Array.sub t.times 0 t.n

(* The median over rounds of each round's [p]-quantile op time. Every
   round runs the same ops, so each estimates the same quantile; a stall
   of the host inflates the rounds it hits, not the median of them. *)
let round_quantile t p =
  let rec go acc next = function
    | [] -> acc
    | start :: rest ->
        let acc =
          if next > start then
            quantile (Array.sub t.times start (next - start)) p :: acc
          else acc
        in
        go acc start rest
  in
  median (Array.of_list (go [] t.n t.round_starts))

let ops_per_s t =
  float_of_int t.n /. Float.max 1e-9 (t.wall_s -. t.check_s)

(* ---- the process --------------------------------------------------------- *)

(* Peak resident set of this process, in MiB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

(* Run [setup] [times] times, keeping the last state and discarding the
   others with [teardown]; the reported set-up time is the median. Nine
   set-ups span several seconds on explore, so a short stall of the
   host moves the median less than it moves one set-up. The
   heap is compacted afterwards, untimed, so every timed phase starts
   from the same GC state whatever the set-ups left behind. *)
let repeated_setup ?(times = 9) ~setup ~teardown () =
  let durations = Array.make times 0. in
  let last = ref None in
  for i = 0 to times - 1 do
    Option.iter teardown !last;
    let t0 = now () in
    let s = setup () in
    durations.(i) <- now () -. t0;
    last := Some s
  done;
  Gc.compact ();
  (Option.get !last, median durations)

(* ---- spans of the traced run -------------------------------------------- *)

(* Accumulated seconds and call counts per span name, recorded from the
   benchmark's own code around its calls into each layer. *)
module Spans = struct
  type t = (string, float ref * int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let cell t name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
        let c = (ref 0., ref 0) in
        Hashtbl.add t name c;
        c

  let add t name dt =
    let s, n = cell t name in
    s := !s +. dt;
    incr n

  let time t name f =
    let t0 = now () in
    let r = f () in
    add t name (now () -. t0);
    r

  let total t name =
    match Hashtbl.find_opt t name with Some (s, _) -> !s | None -> 0.

  let calls t name =
    match Hashtbl.find_opt t name with Some (_, n) -> !n | None -> 0

  (* Milliseconds per call of [name] (0 when never called). *)
  let ms_per_call t name =
    let n = calls t name in
    if n = 0 then 0. else 1e3 *. total t name /. float_of_int n
end

(* Minor words (this domain) and major collections, for per-op GC cost. *)
let gc_snapshot () =
  (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

let gc_metrics (w0, m0) ~ops =
  let w1, m1 = gc_snapshot () in
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.minor_mw_per_op", (w1 -. w0) /. 1e6 /. ops);
    ("gc.major_per_op", float_of_int (m1 - m0) /. ops);
  ]

(* ---- results ------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** units come from {!Layers} *)
}

(* The end-to-end metrics of one untraced phase. *)
let end_to_end t ~setup_s =
  let times = op_times t in
  [
    ("setup_s", setup_s);
    ("ops_per_s", ops_per_s t);
    ("op_ms_p50", 1e3 *. median times);
    ("op_ms_p90", 1e3 *. round_quantile t 0.9);
    ("peak_rss_mb", peak_rss_mb ());
  ]

let result_of tallies metrics =
  let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
  {
    correct = sum (fun t -> t.rejected) = 0;
    attempted = sum (fun t -> t.attempted);
    failed = sum failed;
    metrics;
  }

(* [traced / untraced] slowdown of ops_per_s, in percent. *)
let overhead_pct ~untraced ~traced =
  100. *. ((ops_per_s untraced /. Float.max 1e-9 (ops_per_s traced)) -. 1.)
