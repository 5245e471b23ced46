(* Benchmark inputs, derived from the seed alone.

   Every document, query pool, batch sequence and arrival schedule is a
   pure function of (workload, seed): the documents come from the dataset
   generators, the pools from the workload samplers, and the orders and
   schedules from one xorshift stream per purpose.  [generate] writes the
   documents under a directory and [write_manifest] the rest, so that the
   self-test can compare two generations byte for byte. *)

module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Workload = Tl_workload.Workload
module Error_metric = Tl_workload.Error_metric
module Twig_parse = Tl_twig.Twig_parse
module Match_count = Tl_twig.Match_count
module X = Tl_util.Xorshift

type workload = Hot_zipf | Distinct_sweep | Reload_open

let workload_name = function
  | Hot_zipf -> "hot-zipf"
  | Distinct_sweep -> "distinct-sweep"
  | Reload_open -> "reload-open"

let workload_of_string = function
  | "hot-zipf" -> Some Hot_zipf
  | "distinct-sweep" -> Some Distinct_sweep
  | "reload-open" -> Some Reload_open
  | _ -> None

(* --- sizing ------------------------------------------------------------- *)

let target = 40_000
let sizes = [ 3; 4; 5; 6; 7; 8 ]

(* hot traffic: 64 nasa twigs, [hot_per_size] of each size, picked at
   evenly spaced selectivity quantiles of a larger positive sample *)
let hot_per_size = [ 11; 11; 11; 11; 10; 10 ]
let hot_candidates = 400
let hot_batch = 64
let hot_batches = 256
let zipf_s = 1.0

(* distinct traffic: a fixed number of positives per (document, size),
   below what every seed's documents hold, plus zero-selectivity mutants;
   about ten times one plan cache in all *)
let distinct_positives = function
  | "nasa" -> [ 150; 550; 900; 900; 900; 900 ]
  | _ -> [ 80; 140; 220; 330; 460; 620 ]

let distinct_negatives = 300
let distinct_batch = 16

(* open loop: hot batches at a fixed rate, and a reload line to serve's
   stdin at a fixed cadence of about [reload_every] seconds *)
let open_rate = 250.0
let reload_every = 1.25

(* --- inputs --------------------------------------------------------------- *)

type query = {
  dataset : string;  (** "nasa" or "xmark" *)
  text : string;  (** twig syntax *)
  size : int;
  truth : int array;
      (** exact count per document version: 0 = the startup document, 1 =
          the alternate nasa version reload lines switch to ([-1] where not
          computed: that version never serves the query) *)
  sanity : float array;  (** the paper's sanity bound, per version *)
  positive : bool;  (** drawn by [Workload.positive]: counts toward the error metrics *)
}

type t = {
  workload : workload;
  seed : int;
  nasa : string;  (** startup nasa document *)
  nasa_alt : string;  (** the second nasa version *)
  xmark : string;
  elements : (string * int) list;  (** element count per document file *)
  pool : query array;
  probe : int;  (** a nasa query: the first-answer probe, and the open loop's reload probe *)
  batches : int array array;
      (** the traffic, as pool indices: zipf draws from the hot set, or a
          seeded walk through the whole pool cut into batches (a tail that
          does not fill a batch is left out) *)
  accuracy : int array array;  (** positives answered once, off the clock *)
  arrivals : float array;  (** open loop: due offsets, seconds *)
  reloads : float array;  (** open loop: reload-line offsets, seconds *)
}

let line t i =
  let q = t.pool.(i) in
  q.dataset ^ ":" ^ q.text

(* Independent streams for each purpose, so resizing one input never
   perturbs another. *)
let sub seed tag = X.int (X.create ((seed * 1_000_003) + tag)) 0x3fff_ffff

let write_doc ~dir name dataset seed =
  let path = Filename.concat dir (name ^ ".xml") in
  let root = dataset.Dataset.document ~target ~seed in
  let doc = { Tl_xml.Xml_dom.decl = Some [ ("version", "1.0") ]; root } in
  Tl_xml.Xml_writer.to_file ~indent:true path doc;
  (path, Tl_xml.Xml_dom.count_elements doc)

(* The benchmark's own view of a document comes from parsing the file the
   server parses. *)
let load path = Data_tree.of_xml (Tl_xml.Xml_dom.parse_file path)

let text_of tree twig =
  Twig_parse.to_string (Twig_parse.of_twig ~names:(Data_tree.label_name tree) twig)

let queries_of ~dataset ~positive tree (w : Workload.t) =
  Array.to_list
    (Array.map
       (fun (q : Workload.query) ->
         {
           dataset;
           text = text_of tree q.twig;
           size = w.size;
           truth = [| q.truth; -1 |];
           sanity = [| w.sanity; 0.0 |];
           positive;
         })
       w.queries)

(* Exact counts against the alternate nasa version, for the queries it may
   serve; the sanity bound is recomputed per size from those counts. *)
let add_alt_truth alt_tree pool ~wanted =
  let ctx = Match_count.create_ctx alt_tree in
  let intern = Data_tree.label_of_string alt_tree in
  let count q =
    match Twig_parse.parse_twig ~intern q.text with
    | Ok twig -> Match_count.selectivity ctx twig
    | Error _ -> 0 (* a tag the document lacks: nothing matches *)
  in
  Array.iteri
    (fun i q -> if q.dataset = "nasa" && wanted i then q.truth.(1) <- count q)
    pool;
  List.iter
    (fun size ->
      let group =
        List.filter (fun q -> q.size = size && q.truth.(1) >= 0) (Array.to_list pool)
      in
      if group <> [] then begin
        let bound =
          Error_metric.sanity_bound (Array.of_list (List.map (fun q -> q.truth.(1)) group))
        in
        List.iter (fun q -> q.sanity.(1) <- bound) group
      end)
    sizes

(* Stratified so that every seed's hot set has the same profile: rank r
   of the zipf draw is always the same (size, selectivity quantile)
   stratum, median quantiles hottest; only which twig fills a stratum
   depends on the seed.  The candidates not picked are returned too: the
   run answers them once, off the clock, so the error metrics average over
   about two thousand positives rather than 64. *)
let hot_pool ~seed nasa_tree =
  let ctx = Match_count.create_ctx nasa_tree in
  let strata =
    List.map2
      (fun size k ->
        let w = Workload.positive ~seed:(sub seed (100 + size)) ctx ~size ~count:hot_candidates in
        let sorted = Array.copy w.queries in
        Array.stable_sort (fun (a : Workload.query) b -> compare a.truth b.truth) sorted;
        let n = Array.length sorted in
        let at = Array.init k (fun j -> min (n - 1) (((2 * j) + 1) * n / (2 * k))) in
        let picked = Array.map (fun i -> sorted.(i)) at in
        let rest = List.filteri (fun i _ -> not (Array.mem i at)) (Array.to_list sorted) in
        let of_queries queries =
          queries_of ~dataset:"nasa" ~positive:true nasa_tree { w with queries }
        in
        (Array.of_list (of_queries picked), of_queries (Array.of_list rest)))
      sizes hot_per_size
  in
  let rest = List.concat_map snd strata and strata = List.map fst strata in
  let kmax = List.fold_left max 0 hot_per_size in
  let mid = kmax / 2 in
  (* quantile order: the median first, then alternately below and above *)
  let order = List.init kmax (fun i -> if i mod 2 = 0 then mid + (i / 2) else mid - ((i + 1) / 2)) in
  let hot =
    List.concat_map
      (fun j -> List.filter_map (fun stratum -> if j < Array.length stratum then Some stratum.(j) else None) strata)
      (List.filter (fun j -> j >= 0 && j < kmax) order)
  in
  (hot, rest)

let distinct_pool ~seed ~dataset tree =
  let ctx = Match_count.create_ctx tree in
  List.concat
    (List.map2
       (fun size count ->
         let pos = Workload.positive ~seed:(sub seed (200 + size)) ctx ~size ~count in
         let neg =
           Workload.negative ~seed:(sub seed (300 + size)) ctx ~base:pos ~count:distinct_negatives
         in
         queries_of ~dataset ~positive:true tree pos @ queries_of ~dataset ~positive:false tree neg)
       sizes (distinct_positives dataset))

let dedupe queries =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun q ->
      let key = (q.dataset, q.text) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    queries

let zipf_batches ~seed n_pool =
  let rng = X.create (sub seed 400) in
  Array.init hot_batches (fun _ ->
      Array.init hot_batch (fun _ -> X.zipf rng ~n:n_pool ~s:zipf_s - 1))

(* A constant rate with seeded jitter of up to a tenth of the period.  A
   paced schedule keeps the gap after each batch the same from seed to
   seed, which matters here: the server writes answers without
   TCP_NODELAY, so an answer can wait for the client's next request to
   acknowledge the previous one. *)
let schedule ~seed ~seconds =
  let rng = X.create (sub seed 600) in
  let period = 1.0 /. open_rate in
  Array.init (int_of_float (seconds *. open_rate)) (fun i ->
      (float_of_int i +. X.float rng 0.1) *. period)

(* At least ten reloads per run, evenly spaced, each half a period away
   from the ends of the schedule. *)
let reload_times ~seconds =
  let n = max 10 (int_of_float (seconds /. reload_every)) in
  let period = seconds /. float_of_int n in
  Array.init n (fun i -> (float_of_int i +. 0.5) *. period)

let chunks n idxs = Array.init (Array.length idxs / n) (fun b -> Array.sub idxs (b * n) n)

let generate ~dir ~workload ~seed ~seconds =
  let nasa, nasa_n = write_doc ~dir "nasa" Dataset.nasa (sub seed 1) in
  let nasa_alt, alt_n = write_doc ~dir "nasa-alt" Dataset.nasa (sub seed 2) in
  let xmark, xmark_n = write_doc ~dir "xmark" Dataset.xmark (sub seed 3) in
  let nasa_tree = load nasa in
  let pool, hot, batches =
    match workload with
    | Hot_zipf | Reload_open ->
      let hot, rest = hot_pool ~seed nasa_tree in
      let n_hot = List.length hot in
      (Array.of_list (hot @ rest), n_hot, zipf_batches ~seed n_hot)
    | Distinct_sweep ->
      (* the two documents' pools are independent: sample them on two
         domains *)
      let xmark_pool = Domain.spawn (fun () -> distinct_pool ~seed ~dataset:"xmark" (load xmark)) in
      let nasa_pool = distinct_pool ~seed ~dataset:"nasa" nasa_tree in
      let pool = Array.of_list (dedupe (nasa_pool @ Domain.join xmark_pool)) in
      let order = Array.init (Array.length pool) Fun.id in
      X.shuffle (X.create (sub seed 500)) order;
      (pool, 0, chunks distinct_batch order)
  in
  let accuracy =
    let rest = Array.length pool - hot in
    if hot = 0 then [||]
    else
      Array.init ((rest + hot_batch - 1) / hot_batch) (fun b ->
          Array.init (min hot_batch (rest - (b * hot_batch))) (fun i -> hot + (b * hot_batch) + i))
  in
  (* reloads switch the hot set between the two nasa versions; everything
     else is only served by the startup one *)
  add_alt_truth (load nasa_alt) pool ~wanted:(fun i -> i < hot);
  let arrivals, reloads =
    match workload with
    | Reload_open -> (schedule ~seed ~seconds, reload_times ~seconds)
    | Hot_zipf | Distinct_sweep -> ([||], [||])
  in
  {
    workload;
    seed;
    nasa;
    nasa_alt;
    xmark;
    elements = [ ("nasa", nasa_n); ("nasa-alt", alt_n); ("xmark", xmark_n) ];
    pool;
    probe = 0;
    batches;
    accuracy;
    arrivals;
    reloads;
  }

(* Everything that is not already a file, as text: the pool with its
   truths, the batches, and the schedule. *)
let write_manifest ~dir t =
  let oc = open_out_bin (Filename.concat dir "inputs.txt") in
  Printf.fprintf oc "workload %s seed %d\n" (workload_name t.workload) t.seed;
  List.iter (fun (name, n) -> Printf.fprintf oc "document %s %d\n" name n) t.elements;
  Array.iteri
    (fun i q ->
      Printf.fprintf oc "query %d %s %d %d %d %.17g %.17g\n" i (line t i) q.size q.truth.(0)
        q.truth.(1) q.sanity.(0) q.sanity.(1))
    t.pool;
  let batches tag =
    Array.iter (fun b ->
        output_string oc tag;
        Array.iter (Printf.fprintf oc " %d") b;
        output_char oc '\n')
  in
  batches "batch" t.batches;
  batches "accuracy" t.accuracy;
  Array.iter (Printf.fprintf oc "arrival %.17g\n") t.arrivals;
  Array.iter (Printf.fprintf oc "reload %.17g\n") t.reloads;
  close_out oc

let files ~dir = [ "nasa.xml"; "nasa-alt.xml"; "xmark.xml"; "inputs.txt" ] |> List.map (Filename.concat dir)
