(** A loopback-bindable TCP query front-end with admission control.

    The server speaks the same newline-delimited protocol as the stdin
    serving loop: one [[NAME:]twig-or-xpath] query per line, a blank line
    flushes the pending batch, ['#'] lines are skipped.  Each flushed
    query answers with one line — tab-separated
    [ESTIMATE EPOCH DATASET SCHEME] (estimate printed with [%.17g] so it
    round-trips bit-exactly), or [error<TAB>message] for a line that does
    not parse — followed by one blank line terminating the batch, in
    input order.  With [config.json] each answer is instead a one-line
    JSON object ([{"estimate":..,"epoch":..,"dataset":..,"scheme":..}] or
    [{"error":..}]).

    Robustness is structural, not best-effort:

    - {b bounded admission}: one acceptor thread feeds a queue of at most
      [queue_capacity] waiting connections; when it is full the client
      gets a one-line [busy] response and a close instead of unbounded
      buffering, and [tl_server_shed_total] increments;
    - {b fixed worker pool}: [workers] system threads serve connections
      concurrently (I/O overlaps; CPU-parallel evaluation stays inside
      the shared {!Tl_util.Pool} passed to {!start}, whose maps serialize
      internally so worker threads need no extra coordination);
    - {b deadlines and timeouts}: every socket read and write is bounded
      by [socket_timeout] following the {!Tl_obs.Exporter} EINTR/EAGAIN
      discipline, and a batch that trickles in for longer than
      [batch_deadline], counted from its first byte, is answered with an
      error and cut;
    - {b bounded lines}: a connection reads into one fixed buffer of
      {!max_line} plus one read; a query line longer than {!max_line} is
      answered with one [error<TAB>line too long] line (or its JSON form)
      and the connection closes;
    - {b graceful drain}: {!stop} stops accepting, busy-sheds the
      queued-but-unstarted connections, half-closes the receive side of
      every in-flight connection so its current batch finishes {e on the
      epoch it started with} and its response is written, then joins all
      threads.

    Hot reload keeps working mid-connection: each flush pins the routed
    dataset's current bundle for the whole batch, so a concurrent
    {!Registry.swap} is picked up between batches and every response line
    carries the epoch it was served from.

    Metrics: [tl_server_connections], [tl_server_queries_total],
    [tl_server_batches_total], [tl_server_shed_total],
    [tl_server_rejected_total] (connections closed for an over-long line),
    [tl_server_queue_depth] / [tl_server_active_connections] gauges, and
    the [tl_server_request_ns] per-batch latency histogram. *)

type config = {
  host : string;  (** bind address (default loopback) *)
  port : int;  (** 0 = ephemeral, read back with {!port} *)
  workers : int;  (** serving threads (clamped to [>= 1]) *)
  queue_capacity : int;  (** admission-queue bound (clamped to [>= 1]) *)
  socket_timeout : float;  (** per-socket read/write timeout, seconds *)
  batch_deadline : float;  (** max seconds one batch may take to arrive *)
  json : bool;  (** answer with JSON objects instead of tab-separated text *)
}

val default_config : config
(** Loopback, ephemeral port, 4 workers, queue of 64, 5 s socket timeout,
    30 s batch deadline, text protocol. *)

type t

val start :
  ?config:config -> ?pool:Tl_util.Pool.t -> ?default:string -> Registry.t -> t
(** Bind, spawn the acceptor and worker threads, and start serving
    queries against [registry].  Queries with a [NAME:] prefix naming a
    registered dataset route to it; everything else routes to [default]
    (when given) or the registry's first-installed dataset.  Raises
    [Unix.Unix_error] when the bind fails.  The optional [pool] is used
    for batch evaluation exactly as in {!Registry.batch}. *)

val port : t -> int
(** The actual bound port — useful with [port = 0]. *)

type stats = { connections : int; queries : int; batches : int; shed : int }

val stats : t -> stats
(** Live totals since {!start}: accepted connections, queries answered
    (including [error] answers), batches flushed, and connections shed by
    admission control.  The same totals back the [tl_server_*] metrics;
    this accessor exists so tests need not scrape. *)

val stop : t -> unit
(** Graceful drain as described above.  Blocks until every worker has
    finished its in-flight batch and exited.  Idempotent. *)

(** {2 Wire pieces}

    Exposed so tests can check them without a socket. *)

val max_line : int
(** The longest query line the server accepts, in bytes, not counting
    the newline: 64 KiB. *)

val render_answer :
  json:bool -> Buffer.t -> float -> epoch:int -> dataset:string -> scheme:string -> unit
(** Append one answer line exactly as the server writes it: the estimate
    as [Printf.sprintf "%.17g"] prints it, then the epoch, dataset and
    scheme, tab-separated or as one JSON object. *)

(** The per-connection line reader: one fixed buffer, each byte scanned
    for a newline once, one allocation per returned line. *)
module Reader : sig
  type t

  type line =
    | Line of string  (** the next line, trimmed as [String.trim] trims *)
    | Eof  (** end of input with nothing buffered *)
    | Too_long  (** a line over {!max_line} bytes *)

  val create : unit -> t

  val next : t -> (Bytes.t -> int -> int -> int) -> line
  (** [next r read] returns the next line.  It calls [read buf off len]
      (which follows [Unix.read]: it fills [buf.[off, off + len)] and
      returns the count, 0 meaning end of input) only when no complete
      line is buffered and at most {!max_line} bytes are.  A final line
      without a newline is returned at end of input.  After [Too_long]
      the reader's state is unspecified. *)

  val capacity : t -> int
  (** The fixed buffer size: {!max_line} plus one read. *)

  val buffered : t -> bool
  (** Whether unconsumed bytes are buffered. *)
end
