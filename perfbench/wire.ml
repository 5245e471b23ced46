(* The out-of-process side: a `treelattice serve` child, loopback TCP
   connections to it, its /metrics endpoint, and its /proc accounting.

   Every wait here has a deadline, so a dead or hung server turns into a
   [Failed] exception instead of a hung benchmark. *)

let now_ns = Tl_util.Mono_clock.now_ns

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* How long one exchange may make no progress before the server counts as
   hung. *)
let stall_s = 10.0

type server = {
  pid : int;
  control : Unix.file_descr;  (** write end of the child's stdin *)
  query_port : int;
  http_port : int;
  log : string;
  mutable reaped : bool;
}

let serve_flags = [ "-k"; "4"; "--scheme"; "voting"; "-j"; "1"; "--listen"; "0" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let exited s =
  s.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let rec read_port s path deadline =
  match read_file path with
  | text when String.length text > 0 && text.[String.length text - 1] = '\n' ->
    int_of_string (String.trim text)
  | _ | (exception Sys_error _) ->
    if exited s then begin
      s.reaped <- true;
      failf "serve exited during start-up (see %s)" s.log
    end;
    if now_ns () > deadline then failf "serve did not start listening (see %s)" s.log;
    Unix.sleepf 0.001;
    read_port s path deadline

let control s line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write s.control b off (Bytes.length b - off))
  in
  try go 0 with Unix.Unix_error (e, _, _) -> failf "control line: %s" (Unix.error_message e)

(* Close stdin, which drains and stops the server; kill it if it has not
   exited within the stall budget.  Returns whether it exited by itself. *)
let stop s =
  (try Unix.close s.control with Unix.Unix_error _ -> ());
  let deadline = now_ns () + int_of_float (stall_s *. 1e9) in
  let rec wait () =
    if exited s then true
    else if now_ns () > deadline then begin
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
      false
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  let clean = wait () in
  s.reaped <- true;
  clean

(* Spawn the server and wait until both ports are published. *)
let spawn ~cli ~dir ~tag ~datasets =
  let file name = Filename.concat dir (Printf.sprintf "%s.%s" tag name) in
  let qport = file "qport" and hport = file "hport" and log = file "log" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ qport; hport ];
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [ cli; "serve" ]
    @ List.concat_map (fun (name, path) -> [ "--dataset"; name ^ "=" ^ path ]) datasets
    @ serve_flags
    @ [ "--server-port-file"; qport; "--port-file"; hport ]
  in
  let pid = Unix.create_process cli (Array.of_list args) r null err in
  List.iter Unix.close [ r; null; err ];
  let s = { pid; control = w; query_port = 0; http_port = 0; log; reaped = false } in
  let deadline = now_ns () + 60_000_000_000 in
  match (read_port s qport deadline, read_port s hport deadline) with
  | query_port, http_port -> { s with query_port; http_port }
  | exception (Failed _ as e) ->
    ignore (stop s);
    raise e

(* --- /proc --------------------------------------------------------------------- *)

(* [f] of /proc/[pid]/[file]; a process that has gone fails the run. *)
let proc pid file f =
  match f (read_file (Printf.sprintf "/proc/%d/%s" pid file)) with
  | v -> v
  | exception (Sys_error _ | Not_found | Failure _ | Invalid_argument _ | Scanf.Scan_failure _ | End_of_file) ->
    failf "process %d is gone" pid

(* user + system CPU of the whole process, in ms (USER_HZ is 100 on Linux). *)
let cpu_ms s =
  proc s.pid "stat" @@ fun stat ->
  (* fields after the parenthesized command name, from field 3 (state) *)
  let after = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat after (String.length stat - after))) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.0

(* Peak resident set size, in MB. *)
let hwm_mb pid =
  proc pid "status" @@ fun status ->
  let line = List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status) in
  Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.0)

(* --- sockets ----------------------------------------------------------------- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     failf "connect: %s" (Unix.error_message e));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* [write_all] gives up after four send timeouts without progress *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO (stall_s /. 4.0);
  fd

let wait_readable fd deadline =
  let rec go () =
    let left = float_of_int (deadline - now_ns ()) /. 1e9 in
    if left <= 0.0 then failf "server stalled for %.0f s" stall_s;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* A blocking socket from [connect]: the server's own write discipline,
   bounded by the send timeout set there. *)
let write_all fd s =
  try Tl_obs.Exporter.write_all fd s with
  | Exit -> failf "send: the server stopped reading or closed the connection"
  | Unix.Unix_error (e, _, _) -> failf "send: %s" (Unix.error_message e)

(* Buffered line reader over a socket. *)
type reader = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int; partial : Buffer.t }

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0; partial = Buffer.create 256 }

(* A complete line from what is already buffered, without reading. *)
let take_line r =
  let rec newline i = if i >= r.len then None else if Bytes.get r.buf i = '\n' then Some i else newline (i + 1) in
  match newline r.pos with
  | Some i ->
    let line =
      if Buffer.length r.partial = 0 then Bytes.sub_string r.buf r.pos (i - r.pos)
      else begin
        Buffer.add_subbytes r.partial r.buf r.pos (i - r.pos);
        let l = Buffer.contents r.partial in
        Buffer.clear r.partial;
        l
      end
    in
    r.pos <- i + 1;
    Some line
  | None ->
    Buffer.add_subbytes r.partial r.buf r.pos (r.len - r.pos);
    r.pos <- 0;
    r.len <- 0;
    None

(* One read into an emptied buffer; [false] at end of stream. *)
let fill r =
  match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
  | 0 -> false
  | n ->
    r.pos <- 0;
    r.len <- n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error (e, _, _) -> failf "receive: %s" (Unix.error_message e)

let rec read_line r deadline =
  match take_line r with
  | Some l -> l
  | None ->
    wait_readable r.fd deadline;
    if not (fill r) then failf "server closed the connection";
    read_line r deadline

(* Read one answered batch: lines up to the blank terminator. *)
let read_answer r =
  let deadline = now_ns () + int_of_float (stall_s *. 1e9) in
  let rec go acc =
    match read_line r deadline with
    | "" -> List.rev acc
    | l when String.starts_with ~prefix:"busy" l -> failf "server shed the connection: %s" l
    | l -> go (l :: acc)
  in
  go []

(* --- /metrics ------------------------------------------------------------------ *)

let http_get port path =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" path);
  let r = reader fd in
  let out = Buffer.create 16384 in
  let deadline = now_ns () + int_of_float (stall_s *. 1e9) in
  let rec go () =
    wait_readable fd deadline;
    if fill r then begin
      Buffer.add_subbytes out r.buf 0 r.len;
      go ()
    end
  in
  go ();
  let text = Buffer.contents out in
  let rec body i =
    if i + 4 > String.length text then failf "malformed HTTP response from %s" path
    else if String.sub text i 4 = "\r\n\r\n" then String.sub text (i + 4) (String.length text - i - 4)
    else body (i + 1)
  in
  body 0

(* Unlabelled samples of the Prometheus text, by name. *)
let scrape s =
  let table = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' line with
        | [ name; value ] -> (
          match float_of_string_opt value with Some v -> Hashtbl.replace table name v | None -> ())
        | _ -> ())
    (String.split_on_char '\n' (http_get s.http_port "/metrics"));
  table

let sample table name = Option.value (Hashtbl.find_opt table name) ~default:0.0
