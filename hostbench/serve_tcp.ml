(* serve-tcp: the steady-state serving path of [c4cam serve-tcp]. An HDC
   [Serve.Session] (2048 dims, 10 classes, q = 8) behind [Server] and
   [Tcp.listen] on 127.0.0.1; one client connection runs a closed loop
   from the benchmark's domain, one request in flight. Each request
   carries 8 query rows, rendered to text during set-up; one op is one
   request round trip. *)

open Common
module Reg = Workloads.Registry

let q = 8
let dims = 2048
let classes = 10

(* Distinct request lines; one round sends each line once. *)
let requests = 64

type conn = { ic : in_channel; oc : out_channel }

type state = {
  server : Server.t;
  listener : Tcp.listener;
  conn : conn;
  lines : string array;
  rows : float array array array;  (** per line, its query rows *)
  stored : float array array;
  query_s : float ref;  (** session time, written by the scheduler *)
  timing : bool Atomic.t;
}

(* Rows as the wire carries them: "v v ...; v v ...". Integral values
   (all of HDC's cells) print as integers, the same text "%.17g" gives,
   without its cost. *)
let render rows =
  let b = Buffer.create (Array.length rows * dims * 2) in
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b "; ";
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char b ' ';
          Buffer.add_string b
            (if Float.is_integer v && Float.abs v < 1e15 then
               string_of_int (int_of_float v)
             else Printf.sprintf "%.17g" v))
        r)
    rows;
  Buffer.contents b

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

(* With [traced], the backend's [query] is wrapped to time the session
   while [timing] is on. *)
let setup ~seed ~traced () =
  Serve.Artifact_cache.clear ();
  let e = Reg.find_exn "hdc" in
  let mk =
    match e.Reg.exec with
    | Reg.Kernel mk -> mk
    | _ -> invalid_arg "serve-tcp: hdc is not a kernel workload"
  in
  let shape n = { Reg.queries = n; rows = classes; dims; k = 1; seed } in
  let spec =
    e.Reg.fix_spec (shape q) (Archspec.Spec.square 32 Archspec.Spec.Base)
  in
  let source = (mk (shape q) spec).Reg.ki_source in
  let pool = mk (shape (q * requests)) spec in
  let stored = pool.Reg.ki_stored in
  let rows =
    Array.init requests (fun i -> Array.sub pool.Reg.ki_queries (i * q) q)
  in
  let lines = Array.map render rows in
  let session = Serve.Session.create ~spec ~stored source in
  let backend = Serve.Backend.of_session session in
  let query_s = ref 0. and timing = Atomic.make false in
  let backend =
    if not traced then backend
    else
      {
        backend with
        Serve.Backend.query =
          (fun batch ->
            if Atomic.get timing then begin
              let t0 = now () in
              let r = backend.Serve.Backend.query batch in
              query_s := !query_s +. (now () -. t0);
              r
            end
            else backend.Serve.Backend.query batch);
      }
  in
  let server = Server.create_on backend in
  let listener = Tcp.listen ~port:0 server in
  let conn = connect (Tcp.port listener) in
  (* warm-up: the first batch writes the stored rows to the device *)
  send conn lines.(0);
  ignore (input_line conn.ic);
  { server; listener; conn; lines; rows; stored; query_s; timing }

let teardown st =
  close_out_noerr st.conn.oc;
  close_in_noerr st.conn.ic;
  Tcp.shutdown st.listener;
  Server.stop st.server

(* The wire codec on the workload's own lines and replies, timed: the
   server's parse of each request and its formatting of each reply.
   Run between phases, so the closed loop itself carries no extra
   client-side work. *)
let codec spans st replies =
  let ( let* ) = Result.bind in
  Check.all_rows
    (fun li ->
      let parsed =
        Spans.time spans "parse" (fun () -> Tcp.parse_request st.lines.(li))
      in
      let* () =
        if parsed = st.rows.(li) then Ok ()
        else Error "Tcp.parse_request disagrees with the rendered rows"
      in
      let* indices, values = Check.parse_reply replies.(li) in
      let response =
        {
          Server.r_values = values;
          r_indices = indices;
          r_scores = None;
          r_batch_seq = 0;
          r_latency_s = 0.;
        }
      in
      let formatted =
        Spans.time spans "format" (fun () -> Tcp.format_response response)
      in
      if formatted = replies.(li) then Ok ()
      else Error "Tcp.format_response does not reproduce the reply line")
    0 requests

(* One round: every line in order, each sent once its predecessor's
   reply is in and checked. *)
let round ~host ~replies st t =
  for li = 0 to requests - 1 do
    attempt t (fun () ->
        let t0 = now () in
        send st.conn st.lines.(li);
        let reply = input_line st.conn.ic in
        replies.(li) <- reply;
        (now () -. t0, fun () -> Check.reply ~tol:0. host.(li) reply))
  done

let run (o : opts) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st, setup_s =
    repeated_setup ~setup:(setup ~seed:o.seed ~traced:o.trace) ~teardown ()
  in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let host =
    Array.map
      (fun r -> Check.distances Check.hamming ~queries:r ~stored:st.stored)
      st.rows
  in
  let round = round ~host in
  let replies = Array.make requests "" in
  if not o.trace then begin
    let t = tally () in
    phase ~min_rounds:2 t ~seconds:o.seconds (fun _ -> round ~replies st t);
    result_of [ t ] (end_to_end t ~setup_s)
  end
  else begin
    let half = o.seconds /. 2. in
    let u = tally () in
    phase ~min_rounds:2 u ~seconds:half (fun _ -> round ~replies st u);
    let t = tally () in
    let gc0 = gc_snapshot () in
    Atomic.set st.timing true;
    phase ~min_rounds:2 t ~seconds:half (fun _ -> round ~replies st t);
    Atomic.set st.timing false;
    let gc = gc_metrics gc0 ~ops:t.attempted in
    let spans = Spans.create () in
    for _ = 1 to 3 do
      match codec spans st replies with
      | Ok () -> ()
      | Error msg ->
          t.rejected <- t.rejected + 1;
          complain "codec check failed" msg
    done;
    Server.drain st.server;
    let s = Server.stats st.server in
    let ops = float_of_int (max 1 t.n) in
    let session_ms = 1e3 *. !(st.query_s) /. ops in
    let parse_ms = Spans.ms_per_call spans "parse"
    and format_ms = Spans.ms_per_call spans "format" in
    let rtt_ms = 1e3 *. Array.fold_left ( +. ) 0. (op_times t) /. ops in
    result_of [ u; t ]
      ([
         ("session.query_ms", session_ms);
         ("tcp.parse_ms", parse_ms);
         ("tcp.format_ms", format_ms);
         ("tcp.other_ms", rtt_ms -. parse_ms -. format_ms -. session_ms);
         ("server.lat_ms_p50", 1e3 *. s.Server.lat_p50_s);
         ("server.batch_fill", s.Server.batch_fill);
         ("trace.overhead_pct", overhead_pct ~untraced:u ~traced:t);
       ]
      @ gc)
  end
