module Twig = Tl_twig.Twig
module Key = Tl_twig.Twig.Key

type entry = { key : Key.t; size : int; count : int }

(* The table is keyed by the interned canonical id ({!Key.id}), so the
   estimators' lookups hash and compare ints; the canonical twig and its
   encoding ride along inside the stored {!Key.t}. *)
type t = { k : int; complete : bool; stamp : int; table : (int, entry) Hashtbl.t }

(* Every summary instance gets a process-unique stamp.  Compiled plans
   record the stamp of the summary they were built against, so the serving
   layer can assert — cheaply, on an int — that a cached plan is never
   evaluated under a different summary (see {!Tl_core.Plan_cache}). *)
let next_stamp = Atomic.make 1

let fresh_stamp () = Atomic.fetch_and_add next_stamp 1

let of_patterns ~k ~complete patterns =
  if k < 2 then invalid_arg "Summary.of_patterns: k must be >= 2";
  let table = Hashtbl.create (max 64 (List.length patterns)) in
  List.iter
    (fun (twig, count) ->
      let key = Twig.key twig in
      let size = Twig.size (Key.twig key) in
      if size > k then invalid_arg "Summary.of_patterns: pattern larger than k";
      if count < 0 then invalid_arg "Summary.of_patterns: negative count";
      Hashtbl.replace table (Key.id key) { key; size; count })
    patterns;
  { k; complete; stamp = fresh_stamp (); table }

let of_mining (result : Tl_mining.Miner.result) =
  of_patterns ~k:result.max_size ~complete:true (Tl_mining.Miner.all result)

let build ?pool ?(k = 4) tree =
  if k < 2 then invalid_arg "Summary.build: k must be >= 2";
  Tl_obs.Span.with_ "summary.build" @@ fun () ->
  let summary = of_mining (Tl_mining.Miner.mine ?pool tree ~max_size:k) in
  Tl_obs.Metrics.incr "summary.builds";
  Tl_obs.Metrics.set_gauge "summary.entries" (Hashtbl.length summary.table);
  Tl_obs.Log.info (fun m -> m "summary built: k=%d, %d pattern(s)" k (Hashtbl.length summary.table));
  summary

let k t = t.k

let stamp t = t.stamp

let is_complete t = t.complete

let find_key t key =
  match Hashtbl.find_opt t.table (Key.id key) with Some { count; _ } -> Some count | None -> None

let find t twig = find_key t (Twig.key twig)

let find_encoded t enc =
  match Twig.decode enc with exception Invalid_argument _ -> None | twig -> find t twig

let mem t twig = Hashtbl.mem t.table (Key.id (Twig.key twig))

let entries t = Hashtbl.length t.table

let patterns_per_level t =
  let counts = Array.make t.k 0 in
  Hashtbl.iter (fun _ { size; _ } -> counts.(size - 1) <- counts.(size - 1) + 1) t.table;
  counts

let fold f t acc = Hashtbl.fold (fun _ { key; count; _ } acc -> f (Key.twig key) count acc) t.table acc

let level t s =
  let collected =
    Hashtbl.fold
      (fun _ { key; size; count } acc -> if size = s then (Key.twig key, count) :: acc else acc)
      t.table []
  in
  List.sort (fun (a, _) (b, _) -> Twig.compare a b) collected

(* Heap footprint of one stored pattern: the canonical encoding string, the
   interned key block, the canonical twig's nodes (a 4-field record plus one
   cons cell per child edge), the entry record, and the hash-table bucket.
   The seed charged only [key length + 8], undercounting the Table 3 /
   fig10a/c "Utilization" columns by an order of magnitude against the
   TreeSketches byte budget. *)
let entry_bytes { key; size; count = _ } =
  let twig_nodes = size * (Tl_util.Prelude.heap_block_bytes 4 + Tl_util.Prelude.heap_block_bytes 3) in
  Tl_util.Prelude.heap_string_bytes (Key.encode key)
  + Tl_util.Prelude.heap_block_bytes 5 (* key block: id, enc, khash, twig + header *)
  + twig_nodes
  + Tl_util.Prelude.heap_block_bytes 4 (* entry record *)
  + Tl_util.Prelude.heap_block_bytes 4 (* bucket cell *)

let memory_bytes t = Hashtbl.fold (fun _ entry acc -> acc + entry_bytes entry) t.table 0

let restrict t ~keep =
  let table = Hashtbl.create (Hashtbl.length t.table) in
  let dropped = ref 0 in
  Hashtbl.iter
    (fun id ({ key; size; count } as entry) ->
      if size <= 2 || keep (Key.twig key) count then Hashtbl.replace table id entry
      else incr dropped)
    t.table;
  { k = t.k; complete = t.complete && !dropped = 0; stamp = fresh_stamp (); table }

let merge a b =
  if a.k <> b.k then invalid_arg "Summary.merge: lattice depths differ";
  let table = Hashtbl.copy a.table in
  Hashtbl.iter
    (fun id entry ->
      match Hashtbl.find_opt table id with
      | Some existing -> Hashtbl.replace table id { existing with count = existing.count + entry.count }
      | None -> Hashtbl.replace table id entry)
    b.table;
  { k = a.k; complete = a.complete && b.complete; stamp = fresh_stamp (); table }
