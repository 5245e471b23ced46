(* The TCP query front-end.

   One acceptor thread, a bounded queue of accepted connections, and a
   fixed set of worker threads draining it.  Threads here are system
   threads, not domains: a connection spends its life blocked on socket
   I/O, which releases the runtime lock, so a small thread pool overlaps
   many slow clients while CPU-parallel evaluation stays where it already
   lives — the domain pool passed to [Registry.batch], whose maps
   serialize internally and are therefore safe to issue from any of these
   workers concurrently with the CLI's own stdin loop.

   Robustness is admission-shaped rather than buffer-shaped: when the
   queue is full the acceptor answers [busy] and closes instead of
   queueing without bound, so memory under overload is
   [workers + queue_capacity] connections, a constant chosen at startup.
   Slow clients are bounded twice — per-socket read/write timeouts (the
   [Exporter] EINTR/EAGAIN discipline) and a per-batch deadline that cuts
   a connection trickling one batch forever. *)

module Metrics = Tl_obs.Metrics
module Clock = Tl_obs.Clock
module Exporter = Tl_obs.Exporter
module Estimator = Tl_core.Estimator

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  socket_timeout : float;
  batch_deadline : float;
  json : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    socket_timeout = 5.0;
    batch_deadline = 30.0;
    json = false;
  }

type t = {
  config : config;
  registry : Registry.t;
  pool : Tl_util.Pool.t option;
  default_name : string option;
  sock : Unix.file_descr;
  bound_port : int;
  (* Admission queue.  [active] is one slot per worker holding the fd it
     is currently serving; [stop] half-closes those so in-flight batches
     finish and respond instead of being cut mid-write.  Both structures
     are guarded by [qmutex]. *)
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : Unix.file_descr Queue.t;
  active : Unix.file_descr option array;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  n_connections : int Atomic.t;
  n_queries : int Atomic.t;
  n_batches : int Atomic.t;
  n_shed : int Atomic.t;
  n_active : int Atomic.t;
  mutable acceptor : Thread.t option;
  mutable worker_threads : Thread.t list;
}

type stats = { connections : int; queries : int; batches : int; shed : int }

let stats t =
  {
    connections = Atomic.get t.n_connections;
    queries = Atomic.get t.n_queries;
    batches = Atomic.get t.n_batches;
    shed = Atomic.get t.n_shed;
  }

let port t = t.bound_port

(* --- responses ------------------------------------------------------------- *)

(* The primitive [Printf.sprintf "%.17g"] ends in, called without
   interpreting a format string on every answer. *)
external format_float : string -> float -> string = "caml_format_float"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Everything an answer line carries after its estimate.  It is the same
   for every query a dataset answers in one flush, so [serve_batch]
   builds it once per dataset. *)
let answer_tail ~json ~epoch ~dataset ~scheme =
  if json then
    Printf.sprintf ",\"epoch\":%d,\"dataset\":\"%s\",\"scheme\":\"%s\"}\n" epoch
      (json_escape dataset) (json_escape scheme)
  else Printf.sprintf "\t%d\t%s\t%s\n" epoch dataset scheme

(* The estimate prints as %.17g so a client reading it back gets the
   bit-exact float the engine computed. *)
let add_answer ~json buf estimate tail =
  if json then Buffer.add_string buf "{\"estimate\":";
  Buffer.add_string buf (format_float "%.17g" estimate);
  Buffer.add_string buf tail

let render_answer ~json buf estimate ~epoch ~dataset ~scheme =
  add_answer ~json buf estimate (answer_tail ~json ~epoch ~dataset ~scheme)

let render_error ~json buf msg =
  if json then Buffer.add_string buf (Printf.sprintf "{\"error\":\"%s\"}\n" (json_escape msg))
  else Buffer.add_string buf (Printf.sprintf "error\t%s\n" msg)

let busy_line json = if json then "{\"busy\":true}\n" else "busy\toverloaded, retry later\n"

(* --- batch evaluation ------------------------------------------------------ *)

(* One dataset's share of a flush: its bundle, pinned for the whole flush
   (a concurrent reload lands between flushes, never inside one, and
   every answer line carries the epoch it was served from), and the
   occurrences routed to it, in input order. *)
type group = {
  bundle : Registry.bundle;
  tail : string;
  mutable members : (int * Tl_twig.Twig.t) list;
}

(* What one distinct line of a flush comes to. *)
type fate = Parsed of group * Tl_twig.Twig.t * (float -> float) | Failed of string

(* Serve one flushed batch, appending one answer line per query to [buf]
   in input order.  Each dataset prefix and its bundle are resolved once
   per flush and each distinct line is routed and parsed once; every
   occurrence still goes to [Registry.batch], so audit records,
   per-dataset counters and the engine's dedupe see the batch as sent. *)
let serve_batch t buf lines =
  let t0 = Clock.now_ns () in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let json = t.config.json in
  let groups : (string, group option) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let group name =
    match Hashtbl.find_opt groups name with
    | Some g -> g
    | None ->
      let g =
        Option.map
          (fun bundle ->
            let scheme = Estimator.scheme_name (Engine.scheme (Registry.engine bundle)) in
            let tail = answer_tail ~json ~epoch:(Registry.epoch bundle) ~dataset:name ~scheme in
            let g = { bundle; tail; members = [] } in
            order := g :: !order;
            g)
          (Registry.find t.registry name)
      in
      Hashtbl.add groups name g;
      g
  in
  let default =
    lazy
      (match t.default_name with
      | Some name -> Some name
      | None -> ( match Registry.dataset_names t.registry with [] -> None | name :: _ -> Some name))
  in
  (* Same routing rule as the stdin loop: a 'NAME:' prefix that names a
     registered dataset routes there; everything else — including
     prefixes that name nothing — is a bare query for the default
     dataset. *)
  let route line =
    let prefixed =
      match String.index_opt line ':' with
      | Some i when i > 0 ->
        Option.map
          (fun g -> (g, String.trim (String.sub line (i + 1) (String.length line - i - 1))))
          (group (String.sub line 0 i))
      | _ -> None
    in
    match prefixed with
    | Some routed -> Ok routed
    | None -> (
      match Lazy.force default with
      | None -> Error "no dataset installed"
      | Some name -> (
        match group name with Some g -> Ok (g, line) | None -> Error ("unknown dataset " ^ name)))
  in
  let seen : (string, fate) Hashtbl.t = Hashtbl.create 64 in
  let fates =
    Array.map
      (fun line ->
        match Hashtbl.find_opt seen line with
        | Some fate -> fate
        | None ->
          let fate =
            match route line with
            | Error msg -> Failed msg
            | Ok (g, query) -> (
              match Registry.parse_query g.bundle query with
              | Ok (twig, transform) -> Parsed (g, twig, transform)
              | Error msg -> Failed msg)
          in
          Hashtbl.add seen line fate;
          fate)
      lines
  in
  for idx = n - 1 downto 0 do
    match fates.(idx) with
    | Parsed (g, twig, _) -> g.members <- (idx, twig) :: g.members
    | Failed _ -> ()
  done;
  let estimates = Array.make n 0.0 in
  List.iter
    (fun g ->
      if g.members <> [] then begin
        let members = Array.of_list g.members in
        let results = Registry.batch ?pool:t.pool g.bundle (Array.map snd members) in
        Array.iteri (fun i (idx, _) -> estimates.(idx) <- results.(i)) members
      end)
    (List.rev !order);
  Array.iteri
    (fun idx fate ->
      match fate with
      | Parsed (g, _, transform) -> add_answer ~json buf (transform estimates.(idx)) g.tail
      | Failed msg -> render_error ~json buf msg)
    fates;
  ignore (Atomic.fetch_and_add t.n_queries n);
  Metrics.add "server.queries" n;
  ignore (Atomic.fetch_and_add t.n_batches 1);
  Metrics.incr "server.batches";
  Metrics.observe "server.request_ns" (Clock.elapsed_ns ~since:t0)

(* --- connection handling --------------------------------------------------- *)

let max_line = 64 * 1024

module Reader = struct
  type line = Line of string | Eof | Too_long

  (* Every read asks for exactly this much.  A read happens only while at
     most [max_line] unconsumed bytes are buffered, so a buffer of
     [max_line + read_size] never needs to grow. *)
  let read_size = 16 * 1024

  (* [buf.[pos, len)] is unconsumed input; [buf.[pos, scan)] is known to
     hold no newline, so each byte is scanned once. *)
  type t = { buf : Bytes.t; mutable pos : int; mutable len : int; mutable scan : int; mutable eof : bool }

  let create () = { buf = Bytes.create (max_line + read_size); pos = 0; len = 0; scan = 0; eof = false }
  let capacity r = Bytes.length r.buf
  let buffered r = r.pos < r.len

  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

  (* [buf.[a, b)] trimmed as [String.trim] trims, copied out once. *)
  let take r a b =
    let a = ref a and b = ref b in
    while !a < !b && is_space (Bytes.unsafe_get r.buf !a) do incr a done;
    while !b > !a && is_space (Bytes.unsafe_get r.buf (!b - 1)) do decr b done;
    Bytes.sub_string r.buf !a (!b - !a)

  let rec newline r i =
    if i >= r.len then -1 else if Bytes.unsafe_get r.buf i = '\n' then i else newline r (i + 1)

  let rec next r read =
    let i = newline r r.scan in
    if i >= 0 then begin
      let start = r.pos in
      r.pos <- i + 1;
      r.scan <- i + 1;
      if i - start > max_line then Too_long else Line (take r start i)
    end
    else begin
      r.scan <- r.len;
      if r.len - r.pos > max_line then Too_long
      else if r.eof then
        if r.pos = r.len then Eof
        else begin
          (* A final line without a trailing newline still counts. *)
          let start = r.pos in
          r.pos <- r.len;
          Line (take r start r.len)
        end
      else begin
        if r.pos > 0 then begin
          Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
          r.len <- r.len - r.pos;
          r.scan <- r.len;
          r.pos <- 0
        end;
        let n = read r.buf r.len read_size in
        if n = 0 then r.eof <- true else r.len <- r.len + n;
        next r read
      end
    end
end

exception Deadline

(* One connection until end of input.  Reads are bounded three ways: the
   reader's line cap, the socket receive timeout, and the batch deadline,
   which runs from the first byte of a batch.  [EAGAIN] means the receive
   timeout expired with no bytes: an idle client between batches is fine
   and keeps waiting, one inside a batch is checked against the deadline,
   and a draining server treats the lull as end of input so the pending
   batch can be answered and the connection closed. *)
let serve_conn t fd =
  let json = t.config.json in
  let deadline_ns = int_of_float (t.config.batch_deadline *. 1e9) in
  let reader = Reader.create () in
  let batch_start = ref None in
  let rec read buf off len =
    (match !batch_start with
    | Some start when Clock.elapsed_ns ~since:start > deadline_ns -> raise Deadline
    | _ -> ());
    match Unix.read fd buf off len with
    | n ->
      if n > 0 && Option.is_none !batch_start then batch_start := Some (Clock.now_ns ());
      n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read buf off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if Atomic.get t.stopping then 0 else read buf off len
    | exception Unix.Unix_error _ -> raise Exit
  in
  (* Bytes already buffered past a flush are the next batch arriving. *)
  let restart_clock () =
    batch_start := if Reader.buffered reader then Some (Clock.now_ns ()) else None
  in
  let out = Buffer.create 4096 in
  (* One response: [fill]'s answer lines, then the blank terminator. *)
  let respond fill =
    Buffer.clear out;
    fill out;
    Buffer.add_char out '\n';
    Exporter.write_all fd (Buffer.contents out)
  in
  let refuse msg = respond (fun out -> render_error ~json out msg) in
  let pending = ref [] in
  let flush () =
    let lines = List.rev !pending in
    pending := [];
    (* An empty flush still acknowledges with the blank terminator. *)
    respond (fun out -> if lines <> [] then serve_batch t out lines);
    restart_clock ()
  in
  let rec go () =
    match Reader.next reader read with
    | Reader.Line "" ->
      flush ();
      go ()
    | Reader.Line line when line.[0] = '#' ->
      if !pending = [] then restart_clock ();
      go ()
    | Reader.Line line ->
      pending := line :: !pending;
      go ()
    | Reader.Eof -> if !pending <> [] then flush ()
    | Reader.Too_long ->
      Metrics.incr "server.rejected_total";
      refuse "line too long"
  in
  (* [Exit] is a gone client, or [write_all] giving up on a stalled one —
     the connection is dropped, the server is unaffected. *)
  try
    try go ()
    with Deadline ->
      refuse (Printf.sprintf "batch deadline (%.1fs) exceeded" t.config.batch_deadline)
  with Exit -> ()

(* --- threads --------------------------------------------------------------- *)

let set_queue_gauge t = Metrics.set_gauge "server.queue_depth" (Queue.length t.queue)

let close_quietly fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Shed one connection: best-effort busy line (a short send timeout so a
   full socket buffer cannot stall admission), then close. *)
let shed t fd =
  ignore (Atomic.fetch_and_add t.n_shed 1);
  Metrics.incr "server.shed_total";
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.2 with Unix.Unix_error _ -> ());
  (try Exporter.write_all fd (busy_line t.config.json) with Exit | Unix.Unix_error _ -> ());
  close_quietly fd

let worker_loop t wid =
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.qcond t.qmutex
    done;
    match Queue.take_opt t.queue with
    | None ->
      (* Stopping and drained. *)
      Mutex.unlock t.qmutex
    | Some fd ->
      set_queue_gauge t;
      t.active.(wid) <- Some fd;
      Mutex.unlock t.qmutex;
      Metrics.set_gauge "server.active_connections" (1 + Atomic.fetch_and_add t.n_active 1);
      (try serve_conn t fd with Unix.Unix_error _ -> ());
      Metrics.set_gauge "server.active_connections" (Atomic.fetch_and_add t.n_active (-1) - 1);
      (* Clear the active slot and close under the lock so [stop] can
         never half-close an fd number the kernel has already reused. *)
      Mutex.lock t.qmutex;
      t.active.(wid) <- None;
      close_quietly fd;
      Mutex.unlock t.qmutex;
      loop ()
  in
  loop ()

let acceptor_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept ~cloexec:true t.sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> Atomic.set t.stopping true
    | fd, _ ->
      if Atomic.get t.stopping then close_quietly fd
      else begin
        ignore (Atomic.fetch_and_add t.n_connections 1);
        Metrics.incr "server.connections";
        (* Without TCP_NODELAY, Nagle's algorithm holds a small answer
           back while an earlier one is unacknowledged; a client whose
           acknowledgements ride on its next request then waits a whole
           request interval for every answer. *)
        (try
           Unix.setsockopt fd Unix.TCP_NODELAY true;
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.socket_timeout;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.socket_timeout
         with Unix.Unix_error _ -> ());
        Mutex.lock t.qmutex;
        if Queue.length t.queue >= t.config.queue_capacity then begin
          Mutex.unlock t.qmutex;
          shed t fd
        end
        else begin
          Queue.add fd t.queue;
          set_queue_gauge t;
          Condition.signal t.qcond;
          Mutex.unlock t.qmutex
        end
      end
  done

(* --- lifecycle ------------------------------------------------------------- *)

let describe_metrics =
  lazy
    (Metrics.describe "server.connections" "TCP connections accepted by the query front-end";
     Metrics.describe "server.queries" "Queries answered over TCP (including error answers)";
     Metrics.describe "server.batches" "Query batches flushed over TCP";
     Metrics.describe "server.shed_total" "Connections shed by admission control";
     Metrics.describe "server.rejected_total" "Connections closed for a query line over the line cap";
     Metrics.describe "server.queue_depth" "Accepted connections waiting for a worker";
     Metrics.describe "server.active_connections" "Connections currently being served";
     Metrics.describe "server.request_ns" "Per-batch evaluation latency (ns)";
     (* Materialize the counter surface at zero so a scrape taken before
        the first connection (or the first shed) still exports every
        series a dashboard or alert rule may reference. *)
     Metrics.add "server.connections" 0;
     Metrics.add "server.queries" 0;
     Metrics.add "server.batches" 0;
     Metrics.add "server.shed_total" 0;
     Metrics.add "server.rejected_total" 0;
     Metrics.set_gauge "server.queue_depth" 0;
     Metrics.set_gauge "server.active_connections" 0)

let start ?(config = default_config) ?pool ?default registry =
  Lazy.force Exporter.ignore_sigpipe;
  Lazy.force describe_metrics;
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_capacity = max 1 config.queue_capacity;
      socket_timeout = Float.max 0.01 config.socket_timeout;
      batch_deadline = Float.max 0.01 config.batch_deadline;
    }
  in
  let addr = Unix.inet_addr_of_string config.host in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, config.port));
     Unix.listen sock (config.queue_capacity + config.workers)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> config.port
  in
  let t =
    {
      config;
      registry;
      pool;
      default_name = default;
      sock;
      bound_port;
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      active = Array.make config.workers None;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      n_connections = Atomic.make 0;
      n_queries = Atomic.make 0;
      n_batches = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_active = Atomic.make 0;
      acceptor = None;
      worker_threads = [];
    }
  in
  t.worker_threads <- List.init config.workers (fun wid -> Thread.create (worker_loop t) wid);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  Metrics.set_gauge "server.port" bound_port;
  Tl_obs.Log.info (fun m -> m "server listening on %s:%d" config.host bound_port);
  t

(* A blocked [accept] is not reliably woken by closing its fd, so stop
   nudges the acceptor with a throwaway loopback connection (the same
   trick the exporter uses), then drains:

   1. queued-but-unstarted connections are busy-shed — they never got a
      worker, so [busy] is the honest answer;
   2. in-flight connections are half-closed on the receive side: the
      worker's next read sees end-of-input, flushes the pending batch on
      the bundle epoch it already pinned, writes the response, and exits.

   Only then are the threads joined, so stop returns with every accepted
   connection either answered or explicitly shed. *)
let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    (try
       let nudge = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect nudge (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.bound_port))
        with Unix.Unix_error _ -> ());
       Unix.close nudge
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    let drained = ref [] in
    Mutex.lock t.qmutex;
    Queue.iter (fun fd -> drained := fd :: !drained) t.queue;
    Queue.clear t.queue;
    set_queue_gauge t;
    Array.iter
      (Option.iter (fun fd ->
           try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()))
      t.active;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmutex;
    List.iter (fun fd -> shed t fd) !drained;
    List.iter Thread.join t.worker_threads;
    t.worker_threads <- [];
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
