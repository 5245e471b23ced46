(* Tests for the TCP query front-end: protocol shape, routing, JSON mode,
   concurrent clients reproducing the sequential reference bit-for-bit,
   admission-control shedding under a tiny queue, and graceful drain. *)

module Twig = Tl_twig.Twig
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Treelattice = Tl_core.Treelattice
module Metrics = Tl_obs.Metrics
module Registry = Tl_serve.Registry
module Server = Tl_serve.Server

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with Some n -> n | None -> 0

let fig11_queries = [ "a(b(c,d))"; "a(b(c),b(d))"; "a(b,b)"; "b(c,d)"; "a(b(c,d),b)" ]

let contains ~needle hay = Tl_util.Prelude.string_contains ~needle hay

(* The reference every TCP answer must reproduce bit-for-bit. *)
let baseline summary twigs =
  Array.map (fun twig -> Estimator.estimate summary Treelattice.default_scheme twig) twigs

let registry_with_fig11 () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let t = Registry.create () in
  let bundle = Result.get_ok (Registry.install_document t ~name:"d" tree) in
  (t, tree, bundle)

let with_server ?config ?pool registry f =
  let server = Server.start ?config ?pool registry in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

(* --- a tiny test client ---------------------------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_client port f =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

let send oc s =
  output_string oc s;
  flush oc

(* Answer lines up to (and consuming) the blank batch terminator. *)
let read_batch ic =
  let rec go acc =
    match input_line ic with
    | "" -> List.rev acc
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

type answer = Ok of float * int * string * string | Err of string

let parse_answer line =
  match String.split_on_char '\t' line with
  | [ "error"; msg ] -> Err msg
  | [ est; epoch; ds; scheme ] -> Ok (float_of_string est, int_of_string epoch, ds, scheme)
  | _ -> Alcotest.failf "unparseable answer line %S" line

(* --- protocol -------------------------------------------------------------- *)

let test_protocol_basics () =
  let t, tree, bundle = registry_with_fig11 () in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected = baseline (Registry.summary bundle) twigs in
  let scheme_name = Estimator.scheme_name Treelattice.default_scheme in
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  (* Comments are skipped, bad lines answer in place, order is input
     order, and the %.17g estimate round-trips bit-exactly. *)
  send oc "# a comment\na(b(c,d))\nnot a query (((\nb(c,d)\n\n";
  (match read_batch ic with
  | [ l0; l1; l2 ] -> (
    (match parse_answer l0 with
    | Ok (est, epoch, ds, scheme) ->
      Alcotest.(check bool) "query 0 bits" true (same_float est expected.(0));
      Alcotest.(check int) "epoch" (Registry.epoch bundle) epoch;
      Alcotest.(check string) "dataset" "d" ds;
      Alcotest.(check string) "scheme" scheme_name scheme
    | Err m -> Alcotest.failf "unexpected error %S" m);
    (match parse_answer l1 with
    | Err _ -> ()
    | Ok _ -> Alcotest.fail "malformed line must answer error");
    match parse_answer l2 with
    | Ok (est, _, _, _) -> Alcotest.(check bool) "query 3 bits" true (same_float est expected.(3))
    | Err m -> Alcotest.failf "unexpected error %S" m)
  | lines -> Alcotest.failf "expected 3 answers, got %d" (List.length lines));
  (* An empty flush still acknowledges with a blank line. *)
  send oc "\n";
  Alcotest.(check (list string)) "empty flush" [] (read_batch ic);
  (* A final batch without a trailing blank line flushes on close. *)
  send oc "a(b,b)";
  Unix.shutdown _fd Unix.SHUTDOWN_SEND;
  match read_batch ic with
  | [ line ] -> (
    match parse_answer line with
    | Ok (est, _, _, _) -> Alcotest.(check bool) "eof flush bits" true (same_float est expected.(2))
    | Err m -> Alcotest.failf "unexpected error %S" m)
  | lines -> Alcotest.failf "expected 1 answer at eof, got %d" (List.length lines)

let test_routing_and_unknown_prefix () =
  let t, tree, _ = registry_with_fig11 () in
  let regular = Helpers.tree_of Helpers.regular_spec in
  let b2 = Result.get_ok (Registry.install_document t ~name:"r" regular) in
  ignore tree;
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  send oc "r:a(b)\nnosuch:a(b,b)\n\n";
  match List.map parse_answer (read_batch ic) with
  | [ Ok (_, e1, ds1, _); Ok (_, _, ds2, _) ] ->
    Alcotest.(check string) "prefix routes" "r" ds1;
    Alcotest.(check int) "routed epoch" (Registry.epoch b2) e1;
    (* A prefix naming no dataset is part of the query for the default. *)
    Alcotest.(check string) "unknown prefix falls through" "d" ds2
  | _ -> Alcotest.fail "expected two ok answers"

let test_json_mode () =
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.json = true } in
  with_server ~config t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  send oc "a(b,b)\nnot a query (((\n\n";
  match read_batch ic with
  | [ l0; l1 ] ->
    Alcotest.(check bool) "estimate field" true (contains ~needle:"\"estimate\":" l0);
    Alcotest.(check bool) "epoch field" true (contains ~needle:"\"epoch\":" l0);
    Alcotest.(check bool) "dataset field" true (contains ~needle:"\"dataset\":\"d\"" l0);
    Alcotest.(check bool) "error object" true (contains ~needle:"\"error\":" l1)
  | lines -> Alcotest.failf "expected 2 json answers, got %d" (List.length lines)

(* --- rendering --------------------------------------------------------------- *)

let float_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; Float.max_float;
            -.Float.max_float; Float.min_float; 4.9406564584124654e-324; -4.9406564584124654e-324;
            2.2250738585072009e-308; 1.0; 0.1; 120.0; 1e21; 1e-7;
          ];
        map Int64.float_of_bits ui64;
      ])

let prop_render_matches_printf =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"answer rendering = Printf %.17g, text and json" ~count:2000
       ~print:QCheck2.Print.(pair float int)
       QCheck2.Gen.(pair float_gen (int_bound 1_000_000))
    (fun (x, epoch) ->
      let render json =
        let buf = Buffer.create 64 in
        Server.render_answer ~json buf x ~epoch ~dataset:"d" ~scheme:"recursive+voting";
        Buffer.contents buf
      in
      String.equal (render false)
        (Printf.sprintf "%.17g\t%d\t%s\t%s\n" x epoch "d" "recursive+voting")
      && String.equal (render true)
           (Printf.sprintf "{\"estimate\":%.17g,\"epoch\":%d,\"dataset\":\"%s\",\"scheme\":\"%s\"}\n" x
              epoch "d" "recursive+voting"))

(* --- the line reader -------------------------------------------------------- *)

(* Lines of [text] as the reader must return them, chunking aside. *)
let reference_lines text =
  let pieces = String.split_on_char '\n' text in
  let pieces =
    match List.rev pieces with "" :: rest -> List.rev rest | _ -> pieces
  in
  List.map String.trim pieces

(* A [Unix.read] stand-in serving [text] in chunks of the given sizes,
   cycled; it records the bytes handed out and the largest read asked. *)
let scripted_read text sizes =
  let off = ref 0 and step = ref 0 and largest_ask = ref 0 in
  let read buf pos len =
    largest_ask := max !largest_ask len;
    let size = sizes.(!step mod Array.length sizes) in
    incr step;
    let n = min (min len size) (String.length text - !off) in
    Bytes.blit_string text !off buf pos n;
    off := !off + n;
    n
  in
  (read, off, largest_ask)

let drain_reader reader read =
  let rec go acc =
    match Server.Reader.next reader read with
    | Server.Reader.Line l -> go (l :: acc)
    | Server.Reader.Eof -> List.rev acc
    | Server.Reader.Too_long -> Alcotest.fail "unexpected Too_long"
  in
  go []

let prop_reader_chunking =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"reader lines independent of read boundaries" ~count:500
       ~print:QCheck2.Print.(pair string (array int))
       QCheck2.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '('; ' '; '\t'; '\r'; '\n'; '\n' ]) (int_bound 300))
        (array_size (int_range 1 5) (int_range 1 17)))
    (fun (text, sizes) ->
      let read, _, _ = scripted_read text sizes in
      drain_reader (Server.Reader.create ()) read = reference_lines text)

let test_reader_line_cap () =
  let exactly = String.make Server.max_line 'a' in
  let read, _, _ = scripted_read (exactly ^ "\nb\n") [| 1000 |] in
  let reader = Server.Reader.create () in
  Alcotest.(check (list string)) "a line of exactly max_line bytes passes" [ exactly; "b" ]
    (drain_reader reader read);
  let read, _, _ = scripted_read (exactly ^ "a\nb\n") [| 1000 |] in
  (match Server.Reader.next (Server.Reader.create ()) read with
  | Server.Reader.Too_long -> ()
  | _ -> Alcotest.fail "a line one byte over the cap must be refused");
  (* A newline-free flood: refused once the cap is passed, never having
     taken in more than the cap plus one read. *)
  let consumed = ref 0 and largest_ask = ref 0 in
  let flood buf pos len =
    largest_ask := max !largest_ask len;
    Bytes.fill buf pos len 'a';
    consumed := !consumed + len;
    len
  in
  let reader = Server.Reader.create () in
  (match Server.Reader.next reader flood with
  | Server.Reader.Too_long -> ()
  | _ -> Alcotest.fail "a newline-free flood must be refused");
  Alcotest.(check bool) "flood bytes taken within cap + one read" true
    (!consumed <= Server.max_line + !largest_ask);
  Alcotest.(check bool) "buffer within cap + one read" true
    (Server.Reader.capacity reader <= Server.max_line + !largest_ask)

(* --- reading over a socket -------------------------------------------------- *)

(* Everything the server answers on one connection, written by [write],
   read until the server closes after our end of input. *)
let transcript port write =
  with_client port @@ fun fd ic _oc ->
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  write fd;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  In_channel.input_all ic

let write_string fd s = Tl_obs.Exporter.write_all fd s

let reader_payload = "a(b(c,d))\n# comment\nnot a query (((\r\nb(c,d)\n\n  a(b,b)  \nr:a(b)\n\n"

let registry_with_two () =
  let t, tree, bundle = registry_with_fig11 () in
  ignore (Result.get_ok (Registry.install_document t ~name:"r" (Helpers.tree_of Helpers.regular_spec)));
  (t, tree, bundle)

let test_reader_byte_per_write () =
  let t, _, _ = registry_with_two () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let expected = transcript port (fun fd -> write_string fd reader_payload) in
  Alcotest.(check bool) "reference answers something" true (String.length expected > 10);
  let got =
    transcript port (fun fd ->
        String.iter (fun c -> write_string fd (String.make 1 c)) reader_payload)
  in
  Alcotest.(check string) "one byte per write" expected got

let test_reader_straddling_reads () =
  let t, _, _ = registry_with_two () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let expected = transcript port (fun fd -> write_string fd reader_payload) in
  (* Cut mid-line, mid-prefix and between '\r' and '\n', pausing so each
     piece arrives in a read of its own. *)
  let cuts = [ 3; 14; 30; 37; 47; 52; 61 ] in
  let got =
    transcript port (fun fd ->
        let last =
          List.fold_left
            (fun from cut ->
              write_string fd (String.sub reader_payload from (cut - from));
              Thread.delay 0.02;
              cut)
            0 cuts
        in
        write_string fd (String.sub reader_payload last (String.length reader_payload - last)))
  in
  Alcotest.(check string) "lines straddling reads" expected got

let test_reader_pipelined_batches () =
  let t, _, _ = registry_with_two () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let first = "a(b(c,d))\nbogus(\n\n" and second = "r:a(b)\na(b,b)\n\n" in
  let separately =
    with_client port @@ fun _fd ic oc ->
    send oc first;
    let a = read_batch ic in
    send oc second;
    a @ [ "" ] @ read_batch ic @ [ "" ]
  in
  let pipelined = transcript port (fun fd -> write_string fd (first ^ second)) in
  Alcotest.(check string) "two batches in one write" (String.concat "\n" separately ^ "\n") pipelined

let test_reader_final_line_at_eof () =
  let t, _, _ = registry_with_two () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let expected = transcript port (fun fd -> write_string fd "a(b,b)\nb(c,d)\n\n") in
  let got = transcript port (fun fd -> write_string fd "a(b,b)\nb(c,d)") in
  Alcotest.(check string) "unterminated final line" expected got

(* Parsing once per distinct line must not change any answer: a batch
   repeating good and bad lines answers each like that line alone. *)
let test_repeated_lines_answer_like_singletons () =
  let t, _, _ = registry_with_two () in
  let lines =
    [
      "a(b(c,d))"; "bogus("; "r:a(b)"; "a(b(c,d))"; "nosuch:a(b,b)"; "bogus("; "d:a(b,b)"; "r:a(b)";
      "//a[b]"; "a(b(c,d))"; "r:nope("; "//a[b]"; "r:nope(";
    ]
  in
  with_server t @@ fun server ->
  with_client (Server.port server) @@ fun _fd ic oc ->
  let alone =
    List.concat_map
      (fun line ->
        send oc (line ^ "\n\n");
        read_batch ic)
      lines
  in
  send oc (String.concat "\n" lines ^ "\n\n");
  let together = read_batch ic in
  Alcotest.(check int) "one answer per line" (List.length lines) (List.length together);
  Alcotest.(check (list string)) "answers line for line" alone together;
  Alcotest.(check bool) "errors among them" true
    (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "error") together)

(* Read answer lines with a receive timeout, so a server that never
   answers fails the test instead of hanging it. *)
let read_lines_until_close fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> List.rev acc
  in
  go []

(* A writer thread pushing [chunk] until the server stops taking it. *)
let keep_writing ?(pause = 0.0) ?(limit = max_int) fd chunk =
  Thread.create
    (fun () ->
      let rec go sent =
        if sent < limit then
          match Unix.write_substring fd chunk 0 (String.length chunk) with
          | n ->
            if pause > 0.0 then Thread.delay pause;
            go (sent + n)
          | exception Unix.Unix_error _ -> ()
      in
      go 0)
    ()

let test_overlong_line_refused () =
  let t, _, _ = registry_with_fig11 () in
  with_server t @@ fun server ->
  let port = Server.port server in
  let before = counter "server.rejected_total" in
  (* A newline-free flood, far past the cap. *)
  let fd = connect port in
  let writer = keep_writing ~limit:(16 * Server.max_line) fd (String.make 8192 'a') in
  let answer = read_lines_until_close fd in
  Thread.join writer;
  Unix.close fd;
  Alcotest.(check (list string)) "one error, then close" [ "error\tline too long"; "" ] answer;
  Alcotest.(check int) "rejection counted" (before + 1) (counter "server.rejected_total");
  (* The server keeps serving. *)
  with_client port (fun _fd ic oc ->
      send oc "a(b,b)\n\n";
      Alcotest.(check int) "next connection answers" 1 (List.length (read_batch ic)))

let test_overlong_line_refused_json () =
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.json = true } in
  with_server ~config t @@ fun server ->
  let before = counter "server.rejected_total" in
  let fd = connect (Server.port server) in
  write_string fd ("a(b,b)\n" ^ String.make (Server.max_line + 1) 'a' ^ "\n\n");
  let answer = read_lines_until_close fd in
  Unix.close fd;
  Alcotest.(check (list string)) "json error, then close" [ "{\"error\":\"line too long\"}"; "" ]
    answer;
  Alcotest.(check int) "rejection counted" (before + 1) (counter "server.rejected_total")

(* The deadline runs from a batch's first byte: one unterminated line
   trickled in slower than the deadline is cut. *)
let test_trickled_line_hits_deadline () =
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.batch_deadline = 0.5 } in
  with_server ~config t @@ fun server ->
  let fd = connect (Server.port server) in
  let writer = keep_writing ~pause:0.1 ~limit:40 fd "a" in
  let answer = read_lines_until_close fd in
  Thread.join writer;
  Unix.close fd;
  match answer with
  | [ first; "" ] ->
    Alcotest.(check string) "deadline error" "error\tbatch deadline (0.5s) exceeded" first
  | lines -> Alcotest.failf "expected one deadline error, got [%s]" (String.concat "; " lines)

(* --- concurrent clients ---------------------------------------------------- *)

(* N writer threads, each flushing several batches of known queries: the
   full multiset of served answers must equal the sequential reference —
   here checked line-by-line against the baseline, which implies the
   multiset equality, and bit-exactly. *)
let test_multiclient_matches_sequential () =
  let t, tree, bundle = registry_with_fig11 () in
  let queries = Array.of_list fig11_queries in
  let twigs = Array.map (Helpers.twig_of_string tree) queries in
  let expected = baseline (Registry.summary bundle) twigs in
  let n_clients = 8 and batches_per_client = 5 and reps = 4 in
  Tl_util.Pool.with_pool ~domains:2 @@ fun pool ->
  with_server ~pool t @@ fun server ->
  let failures = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let client cid =
    try
      with_client (Server.port server) @@ fun _fd ic oc ->
      for b = 1 to batches_per_client do
        let order =
          Array.init
            (reps * Array.length queries)
            (fun i -> (i + cid + b) mod Array.length queries)
        in
        let buf = Buffer.create 256 in
        Array.iter
          (fun qi ->
            Buffer.add_string buf queries.(qi);
            Buffer.add_char buf '\n')
          order;
        Buffer.add_char buf '\n';
        send oc (Buffer.contents buf);
        let answers = read_batch ic in
        if List.length answers <> Array.length order then Atomic.incr failures
        else
          List.iteri
            (fun i line ->
              match parse_answer line with
              | Ok (est, _, _, _) when same_float est expected.(order.(i)) ->
                Atomic.incr answered
              | _ -> Atomic.incr failures)
            answers
      done
    with _ -> Atomic.incr failures
  in
  let threads = List.init n_clients (fun cid -> Thread.create client cid) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no mismatched or lost answer" 0 (Atomic.get failures);
  Alcotest.(check int) "every line answered"
    (n_clients * batches_per_client * reps * Array.length queries)
    (Atomic.get answered);
  let stats = Server.stats server in
  Alcotest.(check int) "stats count every query" (Atomic.get answered) stats.Server.queries;
  Alcotest.(check int) "all clients accepted" n_clients stats.Server.connections;
  Alcotest.(check int) "nothing shed at this load" 0 stats.Server.shed

(* --- admission control ----------------------------------------------------- *)

let test_tiny_queue_sheds () =
  Metrics.reset ();
  let t, _, _ = registry_with_fig11 () in
  let config = { Server.default_config with Server.workers = 1; queue_capacity = 1 } in
  with_server ~config t @@ fun server ->
  let port = Server.port server in
  (* Occupy the single worker with a half-sent batch... *)
  with_client port @@ fun holder_fd holder_ic holder_oc ->
  send holder_oc "a(b,b)\n";
  Thread.delay 0.3;
  (* ...fill the queue with a second connection... *)
  let queued_fd = connect port in
  Thread.delay 0.2;
  (* ...then every further arrival must be shed with a busy line. *)
  let busy_seen = ref 0 in
  for _ = 1 to 3 do
    with_client port @@ fun _fd ic _oc ->
    match input_line ic with
    | line when String.length line >= 4 && String.sub line 0 4 = "busy" -> incr busy_seen
    | line -> Alcotest.failf "expected busy, got %S" line
    | exception End_of_file -> Alcotest.fail "shed connection closed without busy line"
  done;
  Alcotest.(check int) "every overflow connection got busy" 3 !busy_seen;
  let stats = Server.stats server in
  Alcotest.(check bool) "shed counter advanced" true (stats.Server.shed >= 3);
  Alcotest.(check int) "shed metric matches" stats.Server.shed (counter "server.shed_total");
  (* The process stays healthy: the in-flight batch still answers... *)
  send holder_oc "\n";
  Alcotest.(check int) "holder batch answered" 1 (List.length (read_batch holder_ic));
  Unix.shutdown holder_fd Unix.SHUTDOWN_SEND;
  ignore (read_batch holder_ic);
  (* ...and once the worker frees up, the queued connection serves too. *)
  let ic = Unix.in_channel_of_descr queued_fd in
  let oc = Unix.out_channel_of_descr queued_fd in
  send oc "b(c,d)\n\n";
  (match List.map parse_answer (read_batch ic) with
  | [ Ok _ ] -> ()
  | _ -> Alcotest.fail "queued connection must serve after the holder");
  (try Unix.close queued_fd with Unix.Unix_error _ -> ())

(* --- graceful drain -------------------------------------------------------- *)

let test_stop_drains_in_flight_batch () =
  let t, tree, bundle = registry_with_fig11 () in
  let twigs = Array.of_list (List.map (Helpers.twig_of_string tree) fig11_queries) in
  let expected = baseline (Registry.summary bundle) twigs in
  let server = Server.start t in
  let port = Server.port server in
  with_client port @@ fun _fd ic oc ->
  (* Two lines pending, no flush: stop must half-close the connection so
     this batch still answers on its epoch before the server exits. *)
  send oc "a(b(c,d))\nb(c,d)\n";
  Thread.delay 0.3;
  let stopper = Thread.create Server.stop server in
  (match List.map parse_answer (read_batch ic) with
  | [ Ok (e0, ep0, _, _); Ok (e1, ep1, _, _) ] ->
    Alcotest.(check bool) "drained answer 0 bits" true (same_float e0 expected.(0));
    Alcotest.(check bool) "drained answer 1 bits" true (same_float e1 expected.(3));
    Alcotest.(check int) "same epoch" ep0 ep1
  | _ -> Alcotest.fail "in-flight batch must be answered during drain");
  Thread.join stopper;
  (* Stopped means stopped: new connections are refused. *)
  (match connect port with
  | fd ->
    (* A race with kernel-accepted backlog is possible; the socket must
       at least be closed without an answer. *)
    let ic = Unix.in_channel_of_descr fd in
    (match input_line ic with
    | line -> Alcotest.failf "answer after stop: %S" line
    | exception End_of_file -> ());
    Unix.close fd
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Server.stop server

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "batching, errors, eof flush" `Quick test_protocol_basics;
          Alcotest.test_case "routing and unknown prefix" `Quick test_routing_and_unknown_prefix;
          Alcotest.test_case "json mode" `Quick test_json_mode;
        ] );
      ( "rendering", [ prop_render_matches_printf ] );
      ( "reader",
        [
          prop_reader_chunking;
          Alcotest.test_case "line cap and newline-free flood" `Quick test_reader_line_cap;
          Alcotest.test_case "one byte per write" `Quick test_reader_byte_per_write;
          Alcotest.test_case "lines straddling reads" `Quick test_reader_straddling_reads;
          Alcotest.test_case "two batches in one write" `Quick test_reader_pipelined_batches;
          Alcotest.test_case "final line without newline" `Quick test_reader_final_line_at_eof;
          Alcotest.test_case "over-long line refused" `Quick test_overlong_line_refused;
          Alcotest.test_case "over-long line refused, json" `Quick test_overlong_line_refused_json;
          Alcotest.test_case "trickled line hits deadline" `Quick test_trickled_line_hits_deadline;
        ] );
      ( "parse once",
        [
          Alcotest.test_case "repeated lines answer like singletons" `Quick
            test_repeated_lines_answer_like_singletons;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "multi-client multiset = sequential reference" `Quick
            test_multiclient_matches_sequential;
        ] );
      ( "admission",
        [ Alcotest.test_case "tiny queue sheds with busy" `Quick test_tiny_queue_sheds ] );
      ( "drain",
        [
          Alcotest.test_case "stop answers in-flight batches" `Quick
            test_stop_drains_in_flight_batch;
        ] );
    ]
