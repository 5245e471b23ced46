(* The serving benchmark.

     tlbench --workload hot-zipf|distinct-sweep|reload-open --seed N
             --seconds S --trace 0|1 [--root DIR]
     tlbench --self-test [--seed N] [--root DIR]

   One run generates its inputs from the seed, starts `treelattice serve
   --listen` as a child process, drives it from this process over one
   loopback TCP connection, checks every answer bit for bit against an
   in-process reference registry, and prints its metrics as the last line
   of standard output.  With --trace 1 it then replays the same batches
   through the library layers in this process and prints per-layer
   metrics instead of end-to-end ones.  See README.md for the metrics and
   why each workload exists. *)

module Stats = Tl_util.Stats
module Error_metric = Tl_workload.Error_metric

let now_ns = Wire.now_ns

(* Closed loops measure whole rounds of a fixed query count: 256 hot
   batches (one pass over the zipf table, 16384 queries) or 128 sweep
   batches (2048 queries). *)
let hot_round = 256
let sweep_round = 128
let min_rounds = 5
let setups = 9

(* A run may not outlive this, whatever the server does. *)
let run_budget_s = 165.0

(* --- answer checking ------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  errors : (int * int, float) Hashtbl.t;  (** (pool index, version) -> error % *)
  mutable problems : string list;
}

(* One request: its pool indices and its wire text. *)
type req = { idxs : int array; text : string }

type ctx = {
  inputs : Inputs.t;
  expected : string option array array;
  traffic : req array;  (** [inputs.batches] *)
  accuracy : req array;  (** [inputs.accuracy] *)
  probe : req;
  tally : tally;
  mutable reloads_sent : int;
  deadline : int;
}

(* Keep the first few problems: enough to diagnose, few enough to print. *)
let problem ctx msg =
  if List.length ctx.tally.problems < 5 then ctx.tally.problems <- msg :: ctx.tally.problems

(* Epoch -> document version.  nasa starts at epoch 1 and xmark at 2; the
   k-th reload installs epoch 2+k, the alternate document for odd k and
   the startup one for even k. *)
let version_of ctx dataset epoch =
  match dataset with
  | "xmark" -> if epoch = 2 then Some 0 else None
  | _ ->
    if epoch = 1 then Some 0
    else if epoch >= 3 && epoch - 2 <= ctx.reloads_sent then Some ((epoch - 2) mod 2)
    else None

(* Check one answered batch; returns the nasa epoch and version it was
   served from (-1 when it holds no nasa query). *)
let check ctx idxs lines =
  let n = Array.length idxs in
  ctx.tally.attempted <- ctx.tally.attempted + n;
  let nasa = ref (-1, -1) in
  let fail msg =
    ctx.tally.failed <- ctx.tally.failed + 1;
    problem ctx msg
  in
  if List.length lines <> n then begin
    ctx.tally.failed <- ctx.tally.failed + n;
    problem ctx (Printf.sprintf "%d answer lines for %d queries" (List.length lines) n)
  end
  else
    List.iteri
      (fun i line ->
        let idx = idxs.(i) in
        let q = ctx.inputs.pool.(idx) in
        match String.split_on_char '\t' line with
        | [ est; epoch; dataset; scheme ] -> (
          let epoch = Option.value (int_of_string_opt epoch) ~default:0 in
          match version_of ctx q.dataset epoch with
          | Some v
            when dataset = q.dataset && scheme = Replay.scheme_name
                 && ctx.expected.(v).(idx) = Some est ->
            if dataset = "nasa" then begin
              if fst !nasa >= 0 && fst !nasa <> epoch then fail "one batch served from two epochs";
              nasa := (epoch, v)
            end;
            if q.positive then
              Hashtbl.replace ctx.tally.errors (idx, v)
                (Error_metric.error_percent ~sanity:q.sanity.(v) ~truth:q.truth.(v)
                   ~estimate:(float_of_string est))
          | _ -> fail (Printf.sprintf "wrong answer %S to %S" line (Inputs.line ctx.inputs idx)))
        | _ -> fail (Printf.sprintf "answer %S to %S" line (Inputs.line ctx.inputs idx)))
      lines;
  !nasa

(* --- one exchange -------------------------------------------------------------- *)

type record = {
  req : req;
  due : int;
  sent : int;
  finished : int;
  epoch : int;
  version : int;
  round : int;  (** the measured round it belongs to; -1 outside the window *)
}

let request inputs idxs =
  { idxs; text = String.concat "" (Array.to_list (Array.map (fun i -> Inputs.line inputs i ^ "\n") idxs)) ^ "\n" }

let exchange ctx fd r log req ~due ~round =
  let sent = now_ns () in
  let lines =
    try
      Wire.write_all fd req.text;
      Wire.read_answer r
    with Wire.Failed _ as e ->
      ctx.tally.attempted <- ctx.tally.attempted + Array.length req.idxs;
      ctx.tally.failed <- ctx.tally.failed + Array.length req.idxs;
      raise e
  in
  let finished = now_ns () in
  let epoch, version = check ctx req.idxs lines in
  let record = { req; due; sent; finished; epoch; version; round } in
  log := record :: !log;
  record

(* --- set-up ------------------------------------------------------------------- *)

type serving = { server : Wire.server; fd : Unix.file_descr; reader : Wire.reader }

let spawn ctx ~cli ~dir ~tag =
  let t0 = now_ns () in
  let server =
    Wire.spawn ~cli ~dir ~tag ~datasets:[ ("nasa", ctx.inputs.nasa); ("xmark", ctx.inputs.xmark) ]
  in
  match Wire.connect server.query_port with
  | fd -> ({ server; fd; reader = Wire.reader fd }, t0)
  | exception (Wire.Failed _ as e) ->
    ignore (Wire.stop server);
    raise e

let close_conn s = try Unix.close s.fd with Unix.Unix_error _ -> ()

let shutdown ctx s =
  close_conn s;
  if not (Wire.stop s.server) then problem ctx "serve did not exit after its stdin closed"

(* --- results ---------------------------------------------------------------------- *)

(* A stretch of the measured window: a closed loop's fixed-size round, or
   the open loop's whole schedule. *)
type round = { queries : int; ns : int; cpu_ms : float }

type live = {
  log : record list;  (** every exchange of the serving instance, in order *)
  setup_s : float array;
  rounds : round array;
  hwm_mb : float;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
  reload_ms : float array;
}

let measured log = List.filter (fun r -> r.round >= 0) log

let queries_of records = List.fold_left (fun acc r -> acc + Array.length r.req.idxs) 0 records

let answer_accuracy ctx s log =
  Array.iter (fun req -> ignore (exchange ctx s.fd s.reader log req ~due:(now_ns ()) ~round:(-1))) ctx.accuracy

(* [warm] unmeasured batches, then whole rounds of [round] batches until
   [seconds] have passed (at least [min_rounds]); the batches continue the
   traffic cyclically.  [between] runs before each round with the share of
   [seconds] gone, outside the round's clocks. *)
let closed_loop ctx s log ~warm ~round ~seconds ~between =
  let nb = Array.length ctx.traffic in
  let next = ref 0 and last = ref (now_ns ()) in
  let one round =
    let r = exchange ctx s.fd s.reader log ctx.traffic.(!next mod nb) ~due:!last ~round in
    incr next;
    last := r.finished
  in
  for _ = 1 to warm do
    one (-1)
  done;
  let before = Wire.scrape s.server in
  let t0 = now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let rec rounds acc =
    let k = List.length acc in
    if k >= min_rounds && now_ns () >= stop then Array.of_list (List.rev acc)
    else begin
      if now_ns () > ctx.deadline then Wire.failf "run budget exhausted";
      between (float_of_int (now_ns () - t0) /. float_of_int (stop - t0));
      let cpu0 = Wire.cpu_ms s.server and q0 = ctx.tally.attempted in
      let r0 = now_ns () in
      last := r0;
      for _ = 1 to round do
        one k
      done;
      let ns = now_ns () - r0 in
      rounds ({ queries = ctx.tally.attempted - q0; ns; cpu_ms = Wire.cpu_ms s.server -. cpu0 } :: acc)
    end
  in
  let rounds = rounds [] in
  let after = Wire.scrape s.server in
  let hwm_mb = Wire.hwm_mb s.server.pid in
  answer_accuracy ctx s log;
  (rounds, hwm_mb, before, after, [||])

(* The open loop: hot batches due on a fixed-rate schedule, written
   without waiting for earlier answers (one connection, pipelined), and
   reload lines written to serve's stdin on a fixed cadence.  A batch's latency
   runs from when it was due, so a stall charges every batch queued
   behind it. *)
let open_loop ctx s log =
  let nb = Array.length ctx.traffic in
  let last = ref (now_ns ()) in
  Array.iter (fun req -> last := (exchange ctx s.fd s.reader log req ~due:!last ~round:(-1)).finished) ctx.traffic;
  answer_accuracy ctx s log;
  let before = Wire.scrape s.server and cpu0 = Wire.cpu_ms s.server in
  let arrivals = ctx.inputs.arrivals and reloads = ctx.inputs.reloads in
  let n = Array.length arrivals and m = Array.length reloads in
  let t0 = now_ns () + 1_000_000 in
  let at offset = t0 + int_of_float (offset *. 1e9) in
  let written = Array.make m 0 and visible = Array.make m (-1) in
  let inflight = Queue.create () in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  let answer = ref [] in
  let i = ref 0 and j = ref 0 in
  let progress = ref (now_ns ()) in
  Unix.set_nonblock s.fd;
  let complete now =
    let req, due, sent = Queue.pop inflight in
    let epoch, version = check ctx req.idxs (List.rev !answer) in
    answer := [];
    log := { req; due; sent; finished = now; epoch; version; round = 0 } :: !log;
    if epoch >= 3 && epoch - 2 <= m && visible.(epoch - 3) < 0 then visible.(epoch - 3) <- now
  in
  while !i < n || not (Queue.is_empty inflight) do
    let now = now_ns () in
    if now > ctx.deadline then Wire.failf "run budget exhausted";
    while !i < n && at arrivals.(!i) <= now do
      let req = ctx.traffic.(!i mod nb) in
      Buffer.add_string out req.text;
      Queue.push (req, at arrivals.(!i), now) inflight;
      incr i
    done;
    while !j < m && at reloads.(!j) <= now do
      ctx.reloads_sent <- !j + 1;
      written.(!j) <- now_ns ();
      Wire.control s.server
        ("reload nasa " ^ if !j mod 2 = 0 then ctx.inputs.nasa_alt else ctx.inputs.nasa);
      incr j
    done;
    if Buffer.length out > !out_off then begin
      match
        Unix.write_substring s.fd (Buffer.contents out) !out_off (Buffer.length out - !out_off)
      with
      | k ->
        out_off := !out_off + k;
        if !out_off = Buffer.length out then begin
          Buffer.clear out;
          out_off := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> Wire.failf "send: %s" (Unix.error_message e)
    end;
    let next_due =
      min
        (if !i < n then at arrivals.(!i) else max_int)
        (if !j < m then at reloads.(!j) else max_int)
    in
    let timeout =
      if next_due = max_int then 0.05 else Float.max 0.0 (float_of_int (next_due - now_ns ()) /. 1e9)
    in
    let writing = if Buffer.length out > !out_off then [ s.fd ] else [] in
    match Unix.select [ s.fd ] writing [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if readable <> [] then begin
        if not (Wire.fill s.reader) then Wire.failf "server closed the connection";
        progress := now_ns ();
        let rec drain () =
          match Wire.take_line s.reader with
          | None -> ()
          | Some "" ->
            if Queue.is_empty inflight then Wire.failf "unrequested answer";
            complete (now_ns ());
            drain ()
          | Some l when String.starts_with ~prefix:"busy" l -> Wire.failf "server shed the connection"
          | Some l ->
            answer := l :: !answer;
            drain ()
        in
        drain ()
      end
      else if (not (Queue.is_empty inflight)) && now_ns () - !progress > int_of_float (Wire.stall_s *. 1e9)
      then Wire.failf "server stalled for %.0f s" Wire.stall_s
  done;
  Unix.clear_nonblock s.fd;
  let window_ns = now_ns () - t0 in
  let cpu_ms = Wire.cpu_ms s.server -. cpu0 and after = Wire.scrape s.server in
  (* a reload written near the end may land after the schedule: probe
     until it answers (outside the measured window) *)
  let rec settle () =
    if Array.exists (fun v -> v < 0) visible && now_ns () < ctx.deadline then begin
      let r = exchange ctx s.fd s.reader log ctx.probe ~due:(now_ns ()) ~round:(-1) in
      if r.epoch >= 3 && r.epoch - 2 <= m && visible.(r.epoch - 3) < 0 then
        visible.(r.epoch - 3) <- r.finished;
      Unix.sleepf 0.001;
      settle ()
    end
  in
  settle ();
  Array.iteri
    (fun k v -> if v < 0 then problem ctx (Printf.sprintf "reload %d never answered with its epoch" (k + 1)))
    visible;
  let reload_ms =
    Array.of_list
      (List.filter_map
         (fun k -> if visible.(k) < 0 then None else Some (float_of_int (visible.(k) - written.(k)) /. 1e6))
         (List.init m Fun.id))
  in
  let hwm_mb = Wire.hwm_mb s.server.pid in
  let window = { queries = queries_of (measured !log); ns = window_ns; cpu_ms } in
  ([| window |], hwm_mb, before, after, reload_ms)

(* One start of a server that only answers the probe query. *)
let time_setup ctx ~cli ~dir k =
  let s, t0 = spawn ctx ~cli ~dir ~tag:(Printf.sprintf "setup%d" k) in
  Fun.protect ~finally:(fun () -> shutdown ctx s) @@ fun () ->
  let r = exchange ctx s.fd s.reader (ref []) ctx.probe ~due:t0 ~round:(-1) in
  float_of_int (r.finished - t0) /. 1e9

(* Start the server [setups] times, so that the set-up median samples the
   host over the whole run.  One start serves the workload.  A closed loop
   makes the other starts between its rounds, evenly over its window,
   while the serving instance idles; the open loop keeps its schedule, so
   there they come half before it and half after. *)
let live ctx ~cli ~dir ~seconds =
  let extra = setups - 1 in
  let times = ref [] in
  let start () = times := time_setup ctx ~cli ~dir (List.length !times) :: !times in
  let between share =
    let k = List.length !times in
    if k < extra && share >= float_of_int k /. float_of_int extra then start ()
  in
  if ctx.inputs.workload = Inputs.Reload_open then
    for _ = 1 to extra / 2 do
      start ()
    done;
  let s, t0 = spawn ctx ~cli ~dir ~tag:"serve" in
  let log = ref [] in
  let serving_setup, (rounds, hwm_mb, before, after, reload_ms) =
    Fun.protect ~finally:(fun () -> shutdown ctx s) @@ fun () ->
    let r = exchange ctx s.fd s.reader log ctx.probe ~due:t0 ~round:(-1) in
    ( float_of_int (r.finished - t0) /. 1e9,
      match ctx.inputs.workload with
      | Inputs.Hot_zipf -> closed_loop ctx s log ~warm:hot_round ~round:hot_round ~seconds ~between
      | Inputs.Distinct_sweep ->
        closed_loop ctx s log ~warm:(Array.length ctx.traffic) ~round:sweep_round ~seconds ~between
      | Inputs.Reload_open -> open_loop ctx s log )
  in
  while List.length !times < extra do
    start ()
  done;
  { log = List.rev !log; setup_s = Array.of_list (serving_setup :: !times); rounds; hwm_mb; before; after; reload_ms }

(* --- metrics ------------------------------------------------------------------------ *)

let host_probe_ms () =
  let t0 = now_ns () in
  let x = ref 0x9e3779b9 in
  for i = 1 to 30_000_000 do
    x := (!x lxor (!x lsl 13)) lxor (!x lsr 7) + i
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now_ns () - t0) /. 1e6

(* Random reads over 32 MB: moves with memory-bandwidth contention the
   CPU loop above does not see. *)
let memory_probe_ms () =
  let a = Array.make (4 * 1024 * 1024) 1 in
  let t0 = now_ns () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 4_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + a.(!x land ((4 * 1024 * 1024) - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. 1e6

let delta live name = Wire.sample live.after name -. Wire.sample live.before name

let ms ns = float_of_int ns /. 1e6

let pct xs p = if Array.length xs = 0 then nan else Stats.percentile xs p

let mean xs = if Array.length xs = 0 then nan else Stats.mean xs

(* The paper's average error percent with its sanity bound, over every
   positive the run answered. *)
let err_mean_pct t = mean (Array.of_list (Hashtbl.fold (fun _ e acc -> e :: acc) t.errors []))

(* Per measured batch of the rounds [keep] selects, in ms; the open loop
   times a batch from when it was due. *)
let latencies ctx live keep =
  let start r = if ctx.inputs.workload = Inputs.Reload_open then r.due else r.sent in
  Array.of_list (List.filter_map (fun r -> if keep r.round then Some (ms (r.finished - start r)) else None) (measured live.log))

let round_qps r = float_of_int r.queries *. 1e9 /. float_of_int r.ns

(* The quiet rounds: the fastest quarter of a closed loop's rounds (at
   least one), which is all of the open loop's single window.  The host's
   neighbours slow whole stretches of a run (the CPU probe moves by up to
   30% within minutes); a slower program slows every round. *)
let quiet live =
  let n = Array.length live.rounds in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare (round_qps live.rounds.(b)) (round_qps live.rounds.(a))) order;
  let keep = Array.make n false in
  Array.iteri (fun i k -> if i < max 1 (n / 4) then keep.(k) <- true) order;
  fun k -> k >= 0 && keep.(k)

let end_to_end ctx live =
  let keep = quiet live in
  let sum f =
    let t = ref 0.0 in
    Array.iteri (fun k r -> if keep k then t := !t +. f r) live.rounds;
    !t
  in
  let queries = sum (fun r -> float_of_int r.queries) in
  let lat = latencies ctx live keep in
  let qps = queries *. 1e9 /. sum (fun r -> float_of_int r.ns) in
  let t = ctx.tally in
  let errs = Hashtbl.fold (fun _ e acc -> e :: acc) t.errors [] |> Array.of_list in
  [
    ("qps", qps, "1/s");
    ("lat_p50_ms", pct lat 50.0, "ms");
    ("ok_ratio", float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted), "ratio");
    ("err_capped_pct", mean (Array.map (Float.min 100.0) errs), "%");
    ("setup_s", Stats.median live.setup_s, "s");
    ("rss_peak_mb", live.hwm_mb, "MB");
    (* summed over the quiet rounds: /proc counts in 10 ms ticks, too
       coarse for one round *)
    ("cpu_ms_per_kq", sum (fun r -> r.cpu_ms) /. (queries /. 1000.0), "ms");
  ]

(* The traced run: replay the serving instance's batches in this process
   and derive the per-layer metrics.  The compile share is measured on the
   first [compile_slice] measured batches. *)
let compile_slice = 512

let per_layer ctx live regs probe_ms =
  let st = Replay.start regs ctx.inputs in
  (* start the replay from a compact heap, as the server starts from a
     freshly loaded one *)
  Gc.compact ();
  let last_epoch = ref 1 and last_version = ref 0 in
  let batches =
    List.map
      (fun r ->
        if r.epoch >= 0 then begin
          last_epoch := r.epoch;
          last_version := r.version
        end;
        { Replay.idxs = r.req.idxs; epoch = !last_epoch; version = !last_version; measured = r.round >= 0 })
      live.log
  in
  let totals = Replay.zero () in
  let hits0 = ref 0 and misses0 = ref 0 and counted = ref false in
  List.iter
    (fun (b : Replay.batch) ->
      if b.measured && not !counted then begin
        let h, m = Replay.cache_counts st in
        hits0 := h;
        misses0 := m;
        counted := true
      end;
      if b.measured then begin
        let groups = Replay.serve ~totals st b in
        totals.distinct <- totals.distinct + Replay.distinct groups
      end
      else if not !counted then ignore (Replay.serve st b))
    batches;
  let hits1, misses1 = Replay.cache_counts st in
  let hits = hits1 - !hits0 and misses = misses1 - !misses0 in
  let cache_size =
    List.fold_left (fun acc b -> acc + (Tl_serve.Engine.stats (Tl_serve.Registry.engine b)).size) 0
      (Replay.current_bundles st)
  in
  let live_compiles = delta live "tl_plan_compiles" in
  if ctx.inputs.workload <> Inputs.Reload_open && int_of_float live_compiles <> misses then
    problem ctx
      (Printf.sprintf "replay compiled %d plans, the server %.0f" misses live_compiles);
  let compile_us, eval_us, slots = Replay.plans st batches in
  let measured_batches = List.filter (fun (b : Replay.batch) -> b.measured) batches in
  let slice = List.filteri (fun i _ -> i < (if ctx.inputs.workload = Inputs.Distinct_sweep then 64 else 256)) measured_batches in
  let compile_pct = Replay.compile_share st (List.filteri (fun i _ -> i < compile_slice) measured_batches) in
  let audit_pct = Replay.audit_overhead st slice in
  let trace_pct = Replay.trace_overhead st slice in
  let layers = Replay.setup_layers [ ("nasa", ctx.inputs.nasa); ("xmark", ctx.inputs.xmark) ] in
  let entries =
    List.fold_left (fun acc b -> acc + Tl_lattice.Summary.entries (Tl_serve.Registry.summary b)) 0
      (Tl_serve.Registry.list regs.(0))
  in
  let m = Array.of_list (measured live.log) in
  let rtt_us = mean (Array.map (fun r -> float_of_int (r.finished - r.sent) /. 1e3) m) in
  let late = Array.map (fun r -> ms (r.sent - r.due)) m in
  let nb = float_of_int (max 1 totals.batches) and nq = float_of_int (max 1 totals.queries) in
  let parse_us = float_of_int totals.parse_ns /. 1e3 in
  let batch_us = float_of_int totals.batch_ns /. 1e3 in
  let inproc_us = float_of_int (totals.parse_ns + totals.batch_ns + totals.render_ns) /. 1e3 in
  let request_us =
    delta live "tl_server_request_ns_sum" /. Float.max 1.0 (delta live "tl_server_request_ns_count") /. 1e3
  in
  [
    ("estimator.plan_compile_us", compile_us, "us");
    ("estimator.plan_slots", slots, "count");
    ("estimator.plan_eval_us", eval_us, "us");
    ("estimator.compile_share_pct", compile_pct, "%");
    ("plan_cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
    ("plan_cache.compiles_per_kq", float_of_int misses *. 1000.0 /. nq, "1/kq");
    ("plan_cache.size", float_of_int cache_size, "count");
    ("registry.parse_query_us", parse_us /. nq, "us");
    ("registry.batch_us", batch_us /. nb, "us");
    ("engine.dedupe_ratio", float_of_int totals.queries /. float_of_int (max 1 totals.distinct), "ratio");
    ("audit.overhead_pct", audit_pct, "%");
    ("server.request_us", request_us, "us");
    ("server.residual_us", request_us -. ((parse_us +. batch_us) /. nb), "us");
    ("server.plan_compiles", live_compiles, "count");
    ("server.plan_cache_misses", delta live "tl_plan_cache_misses", "count");
    ("server.shed_total", delta live "tl_server_shed_total", "count");
    ("wire.client_us", rtt_us -. request_us, "us");
    ("xml_dom.parse_ms", layers.(0), "ms");
    ("data_tree.of_xml_ms", layers.(1), "ms");
    ("summary.build_ms", layers.(2), "ms");
    ("registry.swap_ms", layers.(3), "ms");
    ("summary.entries", float_of_int entries, "count");
    ("trace.inproc_share", inproc_us /. nb /. rtt_us, "ratio");
    ("trace.overhead_pct", trace_pct, "%");
    ("client.late_p99_ms", pct late 99.0, "ms");
    ("host.probe_ms", probe_ms, "ms");
  ]

(* --- output ---------------------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v) (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " ms)

(* --- main -------------------------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path

let run ~root ~workload ~seed ~seconds ~trace =
  let started = now_ns () in
  let probe_before = host_probe_ms () and memory_before = memory_probe_ms () in
  let cli = Filename.concat root "_build/default/bin/treelattice_cli.exe" in
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  let dir = Filename.concat root ("perfbench/_work/" ^ Inputs.workload_name workload) in
  fresh_dir dir;
  let t_inputs = now_ns () in
  let inputs = Inputs.generate ~dir ~workload ~seed ~seconds in
  let t_reference = now_ns () in
  let regs = Replay.registries inputs in
  let expected = Replay.expected regs inputs in
  let capacity = (Tl_serve.Engine.stats (Tl_serve.Registry.engine (Replay.bundle regs 0 "nasa"))).capacity in
  let inputs_s = float_of_int (t_reference - t_inputs) /. 1e9 in
  let reference_s = float_of_int (now_ns () - t_reference) /. 1e9 in
  let ctx =
    {
      inputs;
      expected;
      traffic = Array.map (request inputs) inputs.batches;
      accuracy = Array.map (request inputs) inputs.accuracy;
      probe = request inputs [| inputs.probe |];
      tally = { attempted = 0; failed = 0; errors = Hashtbl.create 1024; problems = [] };
      reloads_sent = 0;
      deadline = started + int_of_float (run_budget_s *. 1e9);
    }
  in
  (* the reference registries are garbage now: keep the client's heap
     small while it measures *)
  Gc.compact ();
  let live =
    try Some (live ctx ~cli ~dir ~seconds)
    with Wire.Failed msg ->
      problem ctx msg;
      None
  in
  let probe_after = host_probe_ms () and memory_after = memory_probe_ms () in
  (* every measured batch, for a closer look: offsets from the first due
     time, in ms *)
  Option.iter
    (fun l ->
      match measured l.log with
      | [] -> ()
      | first :: _ as m ->
        Out_channel.with_open_bin (Filename.concat dir "batches.tsv") (fun oc ->
            output_string oc "due_ms\tsent_ms\tfinished_ms\tepoch\n";
            List.iter
              (fun r ->
                Printf.fprintf oc "%.3f\t%.3f\t%.3f\t%d\n" (ms (r.due - first.due)) (ms (r.sent - first.due))
                  (ms (r.finished - first.due)) r.epoch)
              m))
    live;
  let metrics =
    match live with
    | None -> []
    | Some live ->
      if trace then per_layer ctx live (Replay.registries inputs) probe_before
      else end_to_end ctx live
  in
  let t = ctx.tally in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then problem ctx "a metric is not a finite number";
  let correct = live <> None && t.failed = 0 && t.attempted > 0 && t.problems = [] && finite in
  let diag =
    [
      ("workload", json_string (Inputs.workload_name workload));
      ("seed", string_of_int seed);
      ( "cores",
        string_of_int
          (List.length
             (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' (Wire.read_file "/proc/cpuinfo")))) );
      (* run.py pins the client and the servers to one of them *)
      ("cpus_used", string_of_int (Domain.recommended_domain_count ()));
      ("serve_flags", json_string (String.concat " " Wire.serve_flags));
      ( "documents",
        "{"
        ^ String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "%s: %d" (json_string n) c) inputs.elements)
        ^ "}" );
      ("pool", string_of_int (Array.length inputs.pool));
      ("plan_cache_capacity", string_of_int capacity);
      ("batches", string_of_int (Array.length inputs.batches));
      ("host_probe_ms_before", json_number probe_before);
      ("host_probe_ms_after", json_number probe_after);
      ("memory_probe_ms_before", json_number memory_before);
      ("memory_probe_ms_after", json_number memory_after);
      ("inputs_s", json_number inputs_s);
      ("reference_s", json_number reference_s);
      ("run_s", json_number (float_of_int (now_ns () - started) /. 1e9));
      ( "client_rss_peak_mb",
        json_number (Wire.hwm_mb (Unix.getpid ())) );
      ( "problems",
        "[" ^ String.concat ", " (List.map json_string (List.rev t.problems)) ^ "]" );
    ]
    @
    match live with
    | None -> []
    | Some l ->
      [
        ("measured_batches", string_of_int (List.length (measured l.log)));
        ( "setup_s_each",
          "[" ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") l.setup_s)) ^ "]" );
        ("err_mean_pct", json_number (err_mean_pct t));
        ("err_positives", string_of_int (Hashtbl.length t.errors));
        ( "round_qps",
          "[" ^ String.concat ", " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.0f" (round_qps r)) l.rounds)) ^ "]" );
        ( "quiet_rounds",
          let keep = quiet l in
          string_of_int (List.length (List.filter keep (List.init (Array.length l.rounds) Fun.id))) );
        ( "lat_ms",
          (* every measured batch; a percentile only with >= 10 samples beyond it *)
          let lat = latencies ctx l (fun k -> k >= 0) in
          let n = Array.length lat in
          let tail p = if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then json_number (pct lat p) else "null" in
          Printf.sprintf "{\"p90\": %s, \"p99\": %s, \"p999\": %s, \"max\": %s, \"samples\": %d}" (tail 90.0)
            (tail 99.0) (tail 99.9) (json_number (pct lat 100.0)) n );
        ("measured_queries", string_of_int (queries_of (measured l.log)));
        ("reloads", string_of_int (Array.length l.reload_ms));
        ("reload_ms", json_number (pct l.reload_ms 50.0));
        ( "reload_ms_each",
          "[" ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.1f") l.reload_ms)) ^ "]" );
        ("tl_plan_compiles", json_number (delta l "tl_plan_compiles"));
        ("tl_plan_cache_misses", json_number (delta l "tl_plan_cache_misses"));
        ("tl_server_request_ns_sum", json_number (delta l "tl_server_request_ns_sum"));
        ("tl_server_request_ns_count", json_number (delta l "tl_server_request_ns_count"));
        ("tl_server_shed_total", json_number (delta l "tl_server_shed_total"));
      ]
  in
  print_endline ("{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) diag) ^ "}");
  print_endline (result ~correct ~attempted:(max 1 t.attempted) ~failed:(if t.attempted = 0 then 1 else t.failed) metrics)

(* The same seed must give byte-identical inputs; another seed, different
   ones. *)
let self_test ~root ~seed =
  let base = Filename.concat root "perfbench/_work/self-test" in
  let ok = ref true in
  List.iter
    (fun workload ->
      let gen tag s =
        let dir = Filename.concat base (Printf.sprintf "%s-%s" (Inputs.workload_name workload) tag) in
        fresh_dir dir;
        let inputs = Inputs.generate ~dir ~workload ~seed:s ~seconds:10.0 in
        Inputs.write_manifest ~dir inputs;
        List.map Wire.read_file (Inputs.files ~dir)
      in
      let a = gen "a" seed and b = gen "b" seed and c = gen "c" (seed + 1) in
      let same = a = b and differs = List.for_all2 ( <> ) a c in
      Printf.printf "%s: same seed identical %b, next seed differs in every file %b\n%!"
        (Inputs.workload_name workload) same differs;
      if not (same && differs) then ok := false)
    [ Inputs.Hot_zipf; Inputs.Distinct_sweep; Inputs.Reload_open ];
  rm_rf base;
  if not !ok then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let root = ref "." and self = ref false in
  let usage = "tlbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR] | --self-test" in
  Arg.parse
    [
      ( "--workload",
        Arg.String
          (fun w ->
            match Inputs.workload_of_string w with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ w))),
        "NAME hot-zipf, distinct-sweep or reload-open" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer replay instead of end-to-end metrics");
      ("--root", Arg.Set_string root, "DIR repository checkout (default .)");
      ("--self-test", Arg.Set self, " check that inputs depend on the seed alone");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then self_test ~root:!root ~seed:!seed
  else
    match !workload with
    | None ->
      prerr_endline usage;
      exit 2
    | Some workload -> run ~root:!root ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace
