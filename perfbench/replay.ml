(* The in-process side: reference answers, and a replay of the live
   batches through the layers' public functions that times each layer on
   its own.

   The reference is a [Tl_serve.Registry] built from the same files with
   the same configuration as the server, so every live answer can be
   compared bit for bit with the [%.17g] text of its estimate. *)

module Registry = Tl_serve.Registry
module Engine = Tl_serve.Engine
module Estimator = Tl_core.Estimator
module Plan = Estimator.Plan
module Summary = Tl_lattice.Summary
module Twig = Tl_twig.Twig
module Stats = Tl_util.Stats

let now_ns = Tl_util.Mono_clock.now_ns
let scheme = Estimator.Recursive_voting
let scheme_name = Estimator.scheme_name scheme
let config = { Registry.default_config with Registry.scheme; k = 4 }

let load_registry datasets =
  let reg = Registry.create ~config () in
  List.iter
    (fun (name, path) ->
      match Registry.load reg name path with
      | Ok _ -> ()
      | Error msg -> failwith (Printf.sprintf "reference %s: %s" name msg))
    datasets;
  reg

(* Version 0 serves the startup documents, version 1 the alternate nasa
   document that odd-numbered reloads install. *)
let registries (inputs : Inputs.t) =
  let alt = Domain.spawn (fun () -> load_registry [ ("nasa", inputs.nasa_alt) ]) in
  let startup = load_registry [ ("nasa", inputs.nasa); ("xmark", inputs.xmark) ] in
  [| startup; Domain.join alt |]

let bundle regs version dataset = Option.get (Registry.find regs.(version) dataset)

(* Expected estimate text per version and pool index, for every query
   that version may serve. *)
let expected regs (inputs : Inputs.t) =
  let answers dataset =
    Array.init 2 (fun v ->
        Array.map
          (fun (q : Inputs.query) ->
            if q.dataset <> dataset || q.truth.(v) < 0 then None
            else
              let b = bundle regs v q.dataset in
              match Registry.parse_query b q.text with
              | Error _ -> None
              | Ok (twig, transform) ->
                Some (Printf.sprintf "%.17g" (transform (Registry.batch b [| twig |]).(0))))
          inputs.pool)
  in
  (* the registries are domain-safe; the two documents' queries compile on
     two domains *)
  let xmark = Domain.spawn (fun () -> answers "xmark") in
  let nasa = answers "nasa" in
  let xmark = Domain.join xmark in
  Array.map2 (Array.map2 (fun a b -> if a = None then b else a)) nasa xmark

(* --- replay ----------------------------------------------------------------- *)

(* One live batch as the replay sees it: its pool indices, and the nasa
   epoch and version the live answer was served from. *)
type batch = { idxs : int array; epoch : int; version : int; measured : bool }

type totals = {
  mutable parse_ns : int;
  mutable batch_ns : int;
  mutable render_ns : int;
  mutable queries : int;
  mutable batches : int;
  mutable distinct : int;
}

let zero () = { parse_ns = 0; batch_ns = 0; render_ns = 0; queries = 0; batches = 0; distinct = 0 }

type state = {
  regs : Registry.t array;
  lines : string array;
  mutable nasa_epoch : int;
  mutable nasa_version : int;
  mutable retired_hits : int;
  mutable retired_misses : int;
}

(* A fresh bundle around the same summary: a cold plan cache, as the live
   server has after start-up or a reload. *)
let refresh st version dataset =
  let b = bundle st.regs version dataset in
  let s = Engine.stats (Registry.engine b) in
  st.retired_hits <- st.retired_hits + s.hits;
  st.retired_misses <- st.retired_misses + s.misses;
  match Registry.swap st.regs.(version) dataset (Registry.summary b) with
  | Ok _ -> ()
  | Error msg -> failwith ("replay refresh: " ^ msg)

let current_bundles st =
  List.concat_map Registry.list (Array.to_list st.regs)

let cache_counts st =
  List.fold_left
    (fun (h, m) b ->
      let s = Engine.stats (Registry.engine b) in
      (h + s.hits, m + s.misses))
    (st.retired_hits, st.retired_misses) (current_bundles st)

let refresh_all st =
  refresh st 0 "nasa";
  refresh st 0 "xmark";
  refresh st 1 "nasa"

let start regs (inputs : Inputs.t) =
  let st =
    {
      regs;
      lines = Array.init (Array.length inputs.pool) (Inputs.line inputs);
      nasa_epoch = 1;
      nasa_version = 0;
      retired_hits = 0;
      retired_misses = 0;
    }
  in
  refresh_all st;
  st.retired_hits <- 0;
  st.retired_misses <- 0;
  st

(* A pool line's dataset and query text. *)
let split line =
  let i = String.index line ':' in
  (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

(* Route each line of [b] by its 'NAME:' prefix and parse it against its
   bundle: one group per dataset in order of first appearance, lines in
   input order, as [Server.serve_batch] groups them. *)
let group st (b : batch) =
  let groups = ref [] in
  Array.iter
    (fun idx ->
      let dataset, query = split st.lines.(idx) in
      let bundle = bundle st.regs (if dataset = "nasa" then b.version else 0) dataset in
      match Registry.parse_query bundle query with
      | Error msg -> failwith ("replay parse: " ^ msg)
      | Ok parsed -> (
        match List.assq_opt bundle !groups with
        | Some cell -> cell := parsed :: !cell
        | None -> groups := (bundle, ref [ parsed ]) :: !groups))
    b.idxs;
  List.rev_map (fun (bundle, cell) -> (bundle, Array.of_list (List.rev !cell))) !groups

(* Serve one batch the way the server does: group and parse, evaluate
   each dataset's group with one [Registry.batch], and render the
   answers. *)
let serve ?totals st (b : batch) =
  if b.epoch <> st.nasa_epoch then begin
    refresh st b.version "nasa";
    st.nasa_epoch <- b.epoch;
    st.nasa_version <- b.version
  end;
  let clock () = if totals = None then 0 else now_ns () in
  let t0 = clock () in
  let groups = group st b in
  let t1 = clock () in
  let results =
    List.map (fun (bundle, parsed) -> (bundle, parsed, Registry.batch bundle (Array.map fst parsed))) groups
  in
  let t2 = clock () in
  let buf = Buffer.create (64 * (Array.length b.idxs + 1)) in
  List.iter
    (fun (bundle, parsed, estimates) ->
      Array.iteri
        (fun i (_, transform) ->
          Printf.bprintf buf "%.17g\t%d\t%s\t%s\n" (transform estimates.(i)) b.epoch
            (Registry.name bundle) scheme_name)
        parsed)
    results;
  Buffer.add_char buf '\n';
  let t3 = clock () in
  Option.iter
    (fun t ->
      t.parse_ns <- t.parse_ns + (t1 - t0);
      t.batch_ns <- t.batch_ns + (t2 - t1);
      t.render_ns <- t.render_ns + (t3 - t2);
      t.queries <- t.queries + Array.length b.idxs;
      t.batches <- t.batches + 1)
    totals;
  groups

(* Distinct canonical queries per dataset group: what the engine's dedupe
   leaves to evaluate. *)
let distinct groups =
  List.fold_left
    (fun acc (_, parsed) ->
      let ids = Hashtbl.create 16 in
      Array.iter (fun (twig, _) -> Hashtbl.replace ids (Twig.Key.id (Twig.key twig)) ()) parsed;
      acc + Hashtbl.length ids)
    0 groups

(* --- layer probes -------------------------------------------------------------- *)

let time_ns f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  float_of_int (now_ns () - t0)

(* Mean compile and eval time and slot count over the distinct queries of
   the measured batches, compiled straight from the bundle's summary. *)
let plans st batches =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (b : batch) ->
      if b.measured then
        Array.iter
          (fun idx ->
            let dataset, query = split st.lines.(idx) in
            let version = if dataset = "nasa" then b.version else 0 in
            Hashtbl.replace seen (version, idx) (dataset, query))
          b.idxs)
    batches;
  let items = List.sort compare (Hashtbl.fold (fun (v, _) q acc -> (v, q) :: acc) seen []) in
  let n = List.length items in
  (* enough repetitions that a small pool is still timed over ~2000 compiles *)
  let reps = max 1 (2000 / max 1 n) in
  let compile_ns = ref 0.0 and eval_ns = ref 0.0 and slots = ref 0 in
  List.iter
    (fun (v, (ds, query)) ->
      let b = bundle st.regs v ds in
      let twig = fst (Result.get_ok (Registry.parse_query b query)) in
      let summary = Registry.summary b in
      let plan = Plan.compile summary scheme twig in
      compile_ns := !compile_ns +. (time_ns (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (Plan.compile summary scheme twig)) done) /. float_of_int reps);
      let extra = Option.map Tl_core.Adaptive.lookup (Registry.adaptive b) in
      eval_ns := !eval_ns +. (time_ns (fun () -> for _ = 1 to 20 do ignore (Sys.opaque_identity (Plan.eval ?extra plan)) done) /. 20.0);
      slots := !slots + Plan.slot_count plan)
    items;
  let nf = float_of_int (max 1 n) in
  (!compile_ns /. nf /. 1e3, !eval_ns /. nf /. 1e3, float_of_int !slots /. nf)

(* Start-up layers for each served document, median of three: XML parse,
   data-tree conversion, summary mining, and the registry swap that
   installs the result.  Summed over the documents, in ms. *)
let setup_layers datasets =
  let stage = Array.make 4 0.0 in
  List.iter
    (fun (name, path) ->
      let reg = Registry.create ~config () in
      ignore (Registry.install_document reg ~name (Inputs.load path));
      let reps =
        Array.init 3 (fun _ ->
            let t0 = now_ns () in
            let dom = Tl_xml.Xml_dom.parse_file path in
            let t1 = now_ns () in
            let tree = Tl_tree.Data_tree.of_xml dom in
            let t2 = now_ns () in
            let summary = Summary.build ~k:config.k tree in
            let t3 = now_ns () in
            ignore (Registry.swap reg name summary);
            let t4 = now_ns () in
            [| t1 - t0; t2 - t1; t3 - t2; t4 - t3 |])
      in
      for s = 0 to 3 do
        stage.(s) <- stage.(s) +. (Stats.median (Array.map (fun r -> float_of_int r.(s)) reps) /. 1e6)
      done)
    datasets;
  stage

(* The share of in-process time that plan compilation costs: each batch
   is served twice in a row by the serving bundles (a batch under a new
   nasa epoch first gets a cold bundle, as after a live reload), and the
   second serve finds every plan it needs cached.  For the batches whose first serve
   compiled, the difference in [Registry.batch] time (compiling, caching,
   evicting and collecting plans) counts; the sum is given in percent of
   the first serves' parse + batch + render time. *)
let compile_share st batches =
  let compiling = ref 0 and inproc = ref 0 in
  List.iter
    (fun b ->
      let cold = zero () and warm = zero () in
      let _, m0 = cache_counts st in
      ignore (serve ~totals:cold st b);
      let _, m1 = cache_counts st in
      ignore (serve ~totals:warm st b);
      if m1 > m0 then compiling := !compiling + cold.batch_ns - warm.batch_ns;
      inproc := !inproc + cold.parse_ns + cold.batch_ns + cold.render_ns)
    batches;
  100.0 *. float_of_int !compiling /. float_of_int (max 1 !inproc)

(* [Engine.batch] with the bundle's audit ring against without, over the
   same warm batches, alternated; the overhead in percent of the bare
   time. *)
let audit_overhead st batches =
  let groups =
    List.concat_map (fun b -> List.map (fun (bundle, parsed) -> (bundle, Array.map fst parsed)) (group st b)) batches
  in
  let pass audited () =
    List.iter
      (fun (bundle, twigs) ->
        let extra = Option.map Tl_core.Adaptive.lookup (Registry.adaptive bundle) in
        let audit = if audited then Some (Registry.audit bundle) else None in
        ignore (Engine.batch ?extra ?audit (Registry.engine bundle) twigs))
      groups
  in
  pass true ();
  let bare = Array.make 5 0.0 and audited = Array.make 5 0.0 in
  for i = 0 to 4 do
    bare.(i) <- time_ns (pass false);
    audited.(i) <- time_ns (pass true)
  done;
  100.0 *. (Stats.median audited -. Stats.median bare) /. Stats.median bare

(* The replay with its stage clocks against the same replay timed only
   as a whole: what the per-layer timing itself costs, in percent. *)
let trace_overhead st batches =
  let batches = List.map (fun b -> { b with epoch = st.nasa_epoch; version = st.nasa_version }) batches in
  let pass timed () =
    List.iter (fun b -> ignore (if timed then serve ~totals:(zero ()) st b else serve st b)) batches
  in
  pass false ();
  let plain = Array.make 5 0.0 and traced = Array.make 5 0.0 in
  for i = 0 to 4 do
    plain.(i) <- time_ns (pass false);
    traced.(i) <- time_ns (pass true)
  done;
  100.0 *. (Stats.median traced -. Stats.median plain) /. Stats.median plain
