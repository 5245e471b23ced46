module Dataset = Tl_datasets.Dataset
module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Summary = Tl_lattice.Summary
module Estimator = Tl_core.Estimator
module Derivable = Tl_core.Derivable
module Markov_path = Tl_core.Markov_path
module Synopsis = Tl_sketch.Synopsis
module Sketch_build = Tl_sketch.Sketch_build
module Sketch_estimate = Tl_sketch.Sketch_estimate
module Workload = Tl_workload.Workload
module Error_metric = Tl_workload.Error_metric
module Miner = Tl_mining.Miner
module Table = Tl_util.Table
module Timer = Tl_util.Timer
module Xorshift = Tl_util.Xorshift
module Pool = Tl_util.Pool
module Engine = Tl_serve.Engine

type config = {
  seed : int;
  target : int;
  queries_per_size : int;
  sizes : int list;
  k : int;
  table2_depth : int;
  sketch_budget : int;
  fig10b_sizes : int list;
}

let default_config =
  {
    seed = 7;
    target = 40_000;
    queries_per_size = 40;
    sizes = [ 4; 5; 6; 7; 8 ];
    k = 4;
    table2_depth = 5;
    (* The paper gives TreeSketches 50 KB against 7-23 MB documents; this
       budget is scaled down with the documents (but kept generous enough
       that the synopsis remains competitive on small queries). *)
    sketch_budget = 16 * 1024;
    fig10b_sizes = [ 4; 5; 6; 7; 8; 9 ];
  }

let quick_config =
  {
    seed = 7;
    target = 2_500;
    queries_per_size = 10;
    sizes = [ 4; 5; 6 ];
    k = 3;
    table2_depth = 4;
    sketch_budget = 2 * 1024;
    fig10b_sizes = [ 4; 5 ];
  }

type env = {
  dataset : Dataset.t;
  document : Tl_xml.Xml_dom.element;
  tree : Data_tree.t;
  ctx : Match_count.ctx;
  summary : Summary.t;
  engine : Engine.t;  (* plan-cached serving front over [summary] *)
  lattice_ms : float;
  sketch : Synopsis.t;
  sketch_ms : float;
  workloads : Workload.t list;
}

let prepare ?pool config dataset =
  Tl_obs.Span.with_ ("exp.prepare:" ^ dataset.Dataset.name) @@ fun () ->
  Tl_obs.Log.info (fun m -> m "preparing dataset %s" dataset.Dataset.name);
  let document = dataset.Dataset.document ~target:config.target ~seed:config.seed in
  let tree = Data_tree.of_element document in
  let ctx = Match_count.create_ctx tree in
  let summary, lattice_ms = Timer.time_ms (fun () -> Summary.build ?pool ~k:config.k tree) in
  let sketch, sketch_ms =
    Timer.time_ms (fun () -> Sketch_build.build ~budget_bytes:config.sketch_budget ~seed:config.seed tree)
  in
  let workloads =
    Workload.positive_sweep ~seed:config.seed ctx ~sizes:config.sizes ~count:config.queries_per_size
  in
  let engine = Engine.create summary in
  { dataset; document; tree; ctx; summary; engine; lattice_ms; sketch; sketch_ms; workloads }

(* Per-workload evaluation of every estimator: the shared raw material of
   Figs. 7, 8, and 9. *)
type estimator_run = { est_name : string; run_pairs : (int * float) array; avg_ms : float }

type evaluation = { wl : Workload.t; runs : estimator_run list }

type suite = {
  config : config;
  suite_envs : env list;
  eval_cache : (string, evaluation list) Hashtbl.t;
  pool : Pool.t option;
}

let make_suite ?pool ?(datasets = Dataset.all) config =
  {
    config;
    suite_envs = List.map (prepare ?pool config) datasets;
    eval_cache = Hashtbl.create 4;
    pool;
  }

let suite_config s = s.config

let suite_pool s = s.pool

let envs s = s.suite_envs

(* Lattice schemes run through the env's plan-cached engine: sweeps repeat
   queries across figures, and plan evaluation is bit-identical to direct
   estimation, so the figures are unchanged while repeated work amortizes. *)
let figure_estimators env =
  [
    ("recursive", fun twig -> Engine.estimate ~scheme:Recursive env.engine twig);
    ("rec+voting", fun twig -> Engine.estimate ~scheme:Recursive_voting env.engine twig);
    ("fixed-size", fun twig -> Engine.estimate ~scheme:Fixed_size env.engine twig);
    ("treesketches", fun twig -> Sketch_estimate.estimate env.sketch twig);
  ]

(* Per-query estimation is read-only over the summary and synopsis (both
   memoize per call, not per structure), so a workload fans out across the
   pool's domains; [avg_ms] stays the per-query wall-clock share of the
   whole batch either way. *)
let eval_pairs ?pool wl ~estimate =
  (* The counter is bumped inside the mapped function so parallel runs
     exercise every pool domain's metric shard. *)
  let eval q =
    Tl_obs.Metrics.incr "workload.queries_evaluated";
    (q.Workload.truth, estimate q.Workload.twig)
  in
  Tl_obs.Span.with_ "exp.eval_pairs" @@ fun () ->
  match pool with
  | None -> Array.map eval wl.Workload.queries
  | Some pool -> Pool.parallel_map pool eval wl.Workload.queries

let evaluate_env ?pool env =
  List.map
    (fun wl ->
      let runs =
        List.map
          (fun (est_name, estimate) ->
            let run_pairs, elapsed = Timer.time_ms (fun () -> eval_pairs ?pool wl ~estimate) in
            let nq = max 1 (Array.length wl.Workload.queries) in
            { est_name; run_pairs; avg_ms = elapsed /. float_of_int nq })
          (figure_estimators env)
      in
      { wl; runs })
    env.workloads

let evaluations suite env =
  let key = env.dataset.Dataset.name in
  match Hashtbl.find_opt suite.eval_cache key with
  | Some e -> e
  | None ->
    let e = evaluate_env ?pool:suite.pool env in
    Hashtbl.replace suite.eval_cache key e;
    e

(* --- Table 1 ------------------------------------------------------------ *)

let table1 suite =
  let rows =
    List.map
      (fun env ->
        let stats = Tl_tree.Tree_stats.compute env.tree in
        [
          env.dataset.Dataset.name;
          Table.int_cell stats.nodes;
          Report.kb (Tl_xml.Xml_writer.serialized_size { decl = None; root = env.document });
          Table.int_cell stats.distinct_labels;
          Table.int_cell stats.depth;
          Table.int_cell env.dataset.Dataset.paper_elements;
          Printf.sprintf "%.1f MB" env.dataset.Dataset.paper_size_mb;
        ])
      suite.suite_envs
  in
  Report.section "table1" "Dataset characteristics"
  ^ Table.render
      ~header:[ "dataset"; "elements"; "file size"; "labels"; "depth"; "paper elems"; "paper size" ]
      rows
  ^ Report.note "generated stand-ins reproduce structure at reduced scale; see DESIGN.md #3"

(* --- Table 2 ------------------------------------------------------------ *)

let table2 suite =
  let depth = suite.config.table2_depth in
  let mined =
    List.map (fun env -> (env, Miner.mine ?pool:suite.pool env.tree ~max_size:depth)) suite.suite_envs
  in
  let rows =
    List.map
      (fun level ->
        string_of_int level
        :: List.map
             (fun (_, result) -> Table.int_cell (Miner.patterns_per_level result).(level - 1))
             mined)
      (List.init depth (fun i -> i + 1))
  in
  Report.section "table2" "Number of occurring subtree patterns per level"
  ^ Table.render ~header:("level" :: List.map (fun env -> env.dataset.Dataset.name) suite.suite_envs) rows

(* --- Table 3 ------------------------------------------------------------ *)

let table3 suite =
  let rows =
    List.map
      (fun env ->
        [
          env.dataset.Dataset.name;
          Report.seconds (env.lattice_ms /. 1000.0);
          Report.seconds (env.sketch_ms /. 1000.0);
          Printf.sprintf "%.1fx" (env.sketch_ms /. Float.max 1e-9 env.lattice_ms);
          Report.kb (Summary.memory_bytes env.summary);
          Report.kb (Synopsis.memory_bytes env.sketch);
        ])
      suite.suite_envs
  in
  Report.section "table3" "Summary construction time and memory utilization"
  ^ Table.render
      ~header:
        [ "dataset"; "TreeLattice build"; "TreeSketches build"; "build ratio"; "TL memory"; "TS memory" ]
      rows

(* --- Fig. 7: average estimation error ----------------------------------- *)

let estimator_names env = List.map fst (figure_estimators env)

let fig7 suite =
  let per_env env =
    let evals = evaluations suite env in
    let rows =
      List.map
        (fun { wl; runs } ->
          Table.int_cell wl.Workload.size
          :: List.map
               (fun { run_pairs; _ } ->
                 Report.percent (Error_metric.average_percent ~sanity:wl.Workload.sanity run_pairs))
               runs)
        evals
    in
    Printf.sprintf "[%s]\n" env.dataset.Dataset.name
    ^ Table.render ~header:("size" :: estimator_names env) rows
  in
  Report.section "fig7" "Average selectivity estimation error (%) by query size"
  ^ String.concat "\n" (List.map per_env suite.suite_envs)

(* --- Fig. 8: error CDF --------------------------------------------------- *)

let fig8 suite =
  let thresholds = [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ] in
  let per_env env =
    let evals = evaluations suite env in
    (* Pool all sizes, as the figures do. *)
    let pooled =
      List.map
        (fun name ->
          let errors =
            List.concat_map
              (fun { wl; runs } ->
                let { run_pairs; _ } = List.find (fun r -> String.equal r.est_name name) runs in
                Array.to_list
                  (Array.map
                     (fun (truth, estimate) ->
                       Error_metric.error_percent ~sanity:wl.Workload.sanity ~truth ~estimate)
                     run_pairs))
              evals
          in
          (name, Array.of_list errors))
        (estimator_names env)
    in
    let rows =
      List.map
        (fun threshold ->
          Printf.sprintf "<= %.0f%%" threshold
          :: List.map
               (fun (_, errors) -> Report.percent (100.0 *. Tl_util.Stats.cdf_at errors threshold))
               pooled)
        thresholds
    in
    Printf.sprintf "[%s] cumulative fraction of queries within error bound\n" env.dataset.Dataset.name
    ^ Table.render ~header:("error bound" :: List.map fst pooled) rows
  in
  Report.section "fig8" "Error distribution (CDF)"
  ^ String.concat "\n" (List.map per_env suite.suite_envs)

(* --- Fig. 9: response time ----------------------------------------------- *)

let fig9 suite =
  let per_env env =
    let evals = evaluations suite env in
    let rows =
      List.map
        (fun { wl; runs } ->
          Table.int_cell wl.Workload.size :: List.map (fun { avg_ms; _ } -> Report.ms avg_ms) runs)
        evals
    in
    Printf.sprintf "[%s]\n" env.dataset.Dataset.name
    ^ Table.render ~header:("size" :: estimator_names env) rows
  in
  Report.section "fig9" "Average estimation response time by query size"
  ^ String.concat "\n" (List.map per_env suite.suite_envs)

(* --- Fig. 10(a): 0-derivable pruning saves space -------------------------- *)

let fig10a suite =
  let rows =
    List.map
      (fun env ->
        let before, after = Derivable.savings env.summary ~delta:0.0 in
        [
          env.dataset.Dataset.name;
          Report.kb before;
          Report.kb after;
          Report.percent (100.0 *. (1.0 -. (float_of_int after /. float_of_int (max 1 before))));
        ])
      suite.suite_envs
  in
  Report.section "fig10a" "Lattice size with and without 0-derivable patterns"
  ^ Table.render ~header:[ "dataset"; "full lattice"; "pruned"; "savings" ] rows

(* --- Fig. 10(b): deeper pruned lattice (OPT) on Nasa ---------------------- *)

let fig10b suite =
  match List.find_opt (fun env -> env.dataset.Dataset.name = "nasa") suite.suite_envs with
  | None -> Report.section "fig10b" "OPT lattice accuracy (Nasa)" ^ "  (nasa not in suite)\n"
  | Some env ->
    let config = suite.config in
    (* The OPT summary: one level deeper, 0-derivable patterns pruned, which
       the paper shows fits in the space of the plain k-lattice. *)
    let deeper = Summary.build ?pool:suite.pool ~k:(config.k + 1) env.tree in
    (* Prune under the same scheme the figure estimates with, so delta = 0
       pruning is lossless (see Derivable). *)
    let opt = Derivable.prune ~scheme:Estimator.Recursive_voting deeper ~delta:0.0 in
    let workloads =
      Workload.positive_sweep ~seed:(config.seed + 31) env.ctx ~sizes:config.fig10b_sizes
        ~count:config.queries_per_size
    in
    let opt_engine = Engine.create ~scheme:Estimator.Recursive_voting opt in
    let estimators =
      [
        ("voting+OPT", fun twig -> Engine.estimate opt_engine twig);
        ("voting", fun twig -> Engine.estimate ~scheme:Recursive_voting env.engine twig);
        ("treesketches", fun twig -> Sketch_estimate.estimate env.sketch twig);
      ]
    in
    let rows =
      List.map
        (fun wl ->
          Table.int_cell wl.Workload.size
          :: List.map
               (fun (_, estimate) ->
                 let pairs = eval_pairs ?pool:suite.pool wl ~estimate in
                 Report.percent (Error_metric.average_percent ~sanity:wl.Workload.sanity pairs))
               estimators)
        workloads
    in
    Report.section "fig10b" "OPT (pruned deeper lattice) accuracy on Nasa"
    ^ Table.render ~header:("size" :: List.map fst estimators) rows
    ^ Report.note
        (Printf.sprintf "plain %d-lattice: %s; %d-lattice pruned to OPT: %s" config.k
           (Report.kb (Summary.memory_bytes env.summary))
           (config.k + 1)
           (Report.kb (Summary.memory_bytes opt)))

(* --- Fig. 10(c)/(d): delta sweep on IMDB ---------------------------------- *)

let delta_sweep = [ 0.0; 0.10; 0.20; 0.30 ]

let imdb_env suite = List.find_opt (fun env -> env.dataset.Dataset.name = "imdb") suite.suite_envs

let fig10c suite =
  match imdb_env suite with
  | None -> Report.section "fig10c" "Summary size vs delta (IMDB)" ^ "  (imdb not in suite)\n"
  | Some env ->
    let rows =
      List.map
        (fun delta ->
          let pruned = Derivable.prune ~scheme:Estimator.Recursive_voting env.summary ~delta in
          [
            Report.percent (100.0 *. delta);
            Report.kb (Summary.memory_bytes pruned);
            Table.int_cell (Summary.entries pruned);
          ])
        delta_sweep
    in
    Report.section "fig10c" "Summary size vs delta-derivable pruning (IMDB)"
    ^ Table.render ~header:[ "delta"; "summary size"; "patterns kept" ] rows

let fig10d suite =
  match imdb_env suite with
  | None -> Report.section "fig10d" "Estimation quality vs delta (IMDB)" ^ "  (imdb not in suite)\n"
  | Some env ->
    let pruned =
      List.map
        (fun delta ->
          let summary = Derivable.prune ~scheme:Estimator.Recursive_voting env.summary ~delta in
          (delta, Engine.create ~scheme:Estimator.Recursive_voting summary))
        delta_sweep
    in
    let rows =
      List.map
        (fun wl ->
          Table.int_cell wl.Workload.size
          :: List.map
               (fun (_, engine) ->
                 let pairs =
                   eval_pairs ?pool:suite.pool wl ~estimate:(fun twig ->
                       Engine.estimate engine twig)
                 in
                 Report.percent (Error_metric.average_percent ~sanity:wl.Workload.sanity pairs))
               pruned)
        env.workloads
    in
    Report.section "fig10d" "Estimation quality vs delta-derivable pruning (IMDB)"
    ^ Table.render
        ~header:("size" :: List.map (fun (d, _) -> Report.percent (100.0 *. d)) pruned)
        rows

(* --- Negative workloads --------------------------------------------------- *)

let negative suite =
  let per_env env =
    let base =
      match env.workloads with
      | [] -> None
      | first :: _ -> Some first
    in
    match base with
    | None -> []
    | Some base ->
      let wl =
        Workload.negative ~seed:(suite.config.seed + 97) env.ctx ~base
          ~count:suite.config.queries_per_size
      in
      if Array.length wl.Workload.queries = 0 then []
      else begin
        let correct estimate =
          let hits =
            Array.fold_left
              (fun acc q -> if estimate q.Workload.twig < 0.5 then acc + 1 else acc)
              0 wl.Workload.queries
          in
          100.0 *. float_of_int hits /. float_of_int (Array.length wl.Workload.queries)
        in
        [
          env.dataset.Dataset.name
          :: Table.int_cell (Array.length wl.Workload.queries)
          :: List.map (fun (_, estimate) -> Report.percent (correct estimate)) (figure_estimators env);
        ]
      end
  in
  let rows = List.concat_map per_env suite.suite_envs in
  let header =
    match suite.suite_envs with
    | [] -> [ "dataset"; "queries" ]
    | env :: _ -> "dataset" :: "queries" :: estimator_names env
  in
  (* Deep-dive: accuracy by where the impossible label was planted. *)
  let kind_rows =
    List.concat_map
      (fun env ->
        match env.workloads with
        | [] -> []
        | base :: _ ->
          List.map
            (fun (kind, wl) ->
              let correct estimate =
                let hits =
                  Array.fold_left
                    (fun acc q -> if estimate q.Workload.twig < 0.5 then acc + 1 else acc)
                    0 wl.Workload.queries
                in
                100.0 *. float_of_int hits /. float_of_int (Array.length wl.Workload.queries)
              in
              env.dataset.Dataset.name
              :: Workload.mutation_kind_name kind
              :: Table.int_cell (Array.length wl.Workload.queries)
              :: List.map (fun (_, est) -> Report.percent (correct est)) (figure_estimators env))
            (Workload.negative_by_kind ~seed:(suite.config.seed + 101) env.ctx ~base
               ~count:(max 5 (suite.config.queries_per_size / 2))))
      suite.suite_envs
  in
  let kind_header =
    match suite.suite_envs with
    | [] -> [ "dataset"; "mutation"; "queries" ]
    | env :: _ -> "dataset" :: "mutation" :: "queries" :: estimator_names env
  in
  Report.section "neg" "Zero-selectivity workloads: fraction answered ~0"
  ^ Table.render ~header rows
  ^ "\nby mutation site:\n"
  ^ Table.render ~header:kind_header kind_rows

(* --- Lemma 4: Markov-path equivalence ------------------------------------- *)

(* Heights of every node (longest downward chain, in nodes), one reverse
   preorder pass. *)
let node_heights tree =
  let n = Data_tree.size tree in
  let heights = Array.make n 1 in
  for v = n - 1 downto 0 do
    Array.iter
      (fun c -> if heights.(c) + 1 > heights.(v) then heights.(v) <- heights.(c) + 1)
      (Data_tree.children tree v)
  done;
  heights

let sample_path rng tree heights ~length =
  (* Start only from nodes tall enough and descend through children that
     can still complete the walk, so sampling never dead-ends. *)
  let starts =
    Array.of_seq
      (Seq.filter (fun v -> heights.(v) >= length) (Seq.init (Data_tree.size tree) Fun.id))
  in
  if Array.length starts = 0 then None
  else begin
    let start = starts.(Xorshift.int rng (Array.length starts)) in
    let rec walk v acc remaining =
      if remaining = 0 then Some (List.rev acc)
      else begin
        let viable =
          Array.of_list
            (List.filter (fun c -> heights.(c) >= remaining) (Array.to_list (Data_tree.children tree v)))
        in
        if Array.length viable = 0 then None
        else begin
          let next = viable.(Xorshift.int rng (Array.length viable)) in
          walk next (Data_tree.label tree next :: acc) (remaining - 1)
        end
      end
    in
    walk start [ Data_tree.label tree start ] (length - 1)
  end

let lemma4 suite =
  let per_env env =
    let rng = Xorshift.create (suite.config.seed + 1009) in
    let heights = node_heights env.tree in
    let k = Summary.k env.summary in
    let lengths = [ k + 1; k + 2; k + 3 ] in
    let samples =
      List.concat_map
        (fun length ->
          List.filter_map
            (fun _ -> sample_path rng env.tree heights ~length)
            (List.init 8 (fun i -> i)))
        lengths
    in
    let max_gap scheme =
      List.fold_left
        (fun acc labels ->
          let markov = Markov_path.estimate env.summary labels in
          let decomposed = Estimator.estimate env.summary scheme (Twig.of_path labels) in
          let denom = Float.max 1.0 (Float.abs markov) in
          Float.max acc (Float.abs (markov -. decomposed) /. denom))
        0.0 samples
    in
    [
      env.dataset.Dataset.name;
      Table.int_cell (List.length samples);
      Printf.sprintf "%.2e" (max_gap Estimator.Recursive);
      Printf.sprintf "%.2e" (max_gap Estimator.Fixed_size);
    ]
  in
  Report.section "lemma4" "Markov-path equivalence (max relative gap vs Markov formula)"
  ^ Table.render
      ~header:[ "dataset"; "paths"; "recursive gap"; "fixed-size gap" ]
      (List.map per_env suite.suite_envs)

(* --- ablations (beyond the paper; see DESIGN.md #6) ------------------------- *)

(* Lattice-depth ablation: accuracy/space trade-off of k, the design choice
   the paper fixes at 4. *)
let ablation_k suite =
  let subjects =
    List.filter (fun env -> List.mem env.dataset.Dataset.name [ "nasa"; "xmark" ]) suite.suite_envs
  in
  let depths = [ 2; 3; 4; 5 ] in
  let per_env env =
    let size = List.fold_left max 0 suite.config.sizes in
    let wl =
      Workload.positive ~seed:(suite.config.seed + 211) env.ctx ~size
        ~count:suite.config.queries_per_size
    in
    let rows =
      List.map
        (fun k ->
          let summary, build_ms = Timer.time_ms (fun () -> Summary.build ?pool:suite.pool ~k env.tree) in
          let pairs =
            Workload.pairs wl ~estimate:(fun twig -> Estimator.estimate summary Recursive_voting twig)
          in
          [
            Table.int_cell k;
            Report.percent (Error_metric.average_percent ~sanity:wl.Workload.sanity pairs);
            Report.kb (Summary.memory_bytes summary);
            Report.seconds (build_ms /. 1000.0);
          ])
        depths
    in
    Printf.sprintf "[%s] voting estimator on size-%d queries\n" env.dataset.Dataset.name size
    ^ Table.render ~header:[ "k"; "avg error"; "summary size"; "build time" ] rows
  in
  Report.section "ablation-k" "Lattice depth ablation (k = 2..5)"
  ^ String.concat "\n" (List.map per_env subjects)

(* Pair-choice ablation: how sensitive is the recursive scheme to which
   leaf pair is removed, and how much of that spread does voting recover? *)
let ablation_pairs suite =
  let per_env env =
    let size = List.fold_left max 0 suite.config.sizes in
    let wl =
      Workload.positive ~seed:(suite.config.seed + 223) env.ctx ~size
        ~count:suite.config.queries_per_size
    in
    let spread_stats =
      Array.map
        (fun q ->
          let votes = Array.of_list (Estimator.first_level_votes env.summary q.Workload.twig) in
          let truth = float_of_int (max q.Workload.truth 1) in
          (Tl_util.Stats.maximum votes -. Tl_util.Stats.minimum votes) /. truth)
        wl.Workload.queries
    in
    let err scheme =
      let pairs = Workload.pairs wl ~estimate:(fun t -> Estimator.estimate env.summary scheme t) in
      Error_metric.average_percent ~sanity:wl.Workload.sanity pairs
    in
    [
      env.dataset.Dataset.name;
      Table.int_cell (Array.length wl.Workload.queries);
      Report.percent (100.0 *. Tl_util.Stats.mean spread_stats);
      Report.percent (100.0 *. Tl_util.Stats.maximum spread_stats);
      Report.percent (err Estimator.Recursive);
      Report.percent (err Estimator.Recursive_voting);
    ]
  in
  Report.section "ablation-pairs" "Leaf-pair choice sensitivity of recursive decomposition"
  ^ Table.render
      ~header:[ "dataset"; "queries"; "mean spread"; "max spread"; "first-pair err"; "voting err" ]
      (List.map per_env suite.suite_envs)

(* Incremental maintenance: the paper claims the approach "is incremental in
   nature" but never evaluates it.  Mine two document halves separately and
   merge, versus mining the concatenation, and compare cost and counts. *)
let incremental suite =
  let config = suite.config in
  let per_env env =
    let d = env.dataset in
    let half = config.target / 2 in
    let tree_a = Dataset.tree d ~target:half ~seed:config.seed in
    let tree_b = Dataset.tree d ~target:half ~seed:(config.seed + 1) in
    let tl, base_ms =
      Timer.time_ms (fun () -> Tl_core.Treelattice.build ?pool:suite.pool ~k:config.k tree_a)
    in
    let merged, incr_ms =
      Timer.time_ms (fun () -> Tl_core.Treelattice.add_document ?pool:suite.pool tl tree_b)
    in
    (* Cross-check: merged counts must equal the sum of per-document exact
       counts for every stored pattern. *)
    let ctx_b = Match_count.create_ctx tree_b in
    let remap =
      let names_a = Data_tree.label_names tree_a in
      fun l ->
        (* Pattern labels live in tree_a's space; find tree_b's id or any
           fresh id for tags absent from B. *)
        Option.value ~default:(-1) (Data_tree.label_of_string tree_b names_a.(l))
    in
    let ctx_a = Match_count.create_ctx tree_a in
    let mismatches = ref 0 in
    Summary.fold
      (fun twig count () ->
        let in_a = Match_count.selectivity ctx_a twig in
        let twig_b = Twig.map_labels remap twig in
        let in_b =
          if List.exists (fun l -> l < 0) (Twig.labels twig_b) then 0
          else Match_count.selectivity ctx_b (Twig.canonicalize twig_b)
        in
        if count <> in_a + in_b then incr mismatches)
      (Tl_core.Treelattice.summary merged)
      ();
    [
      d.Dataset.name;
      Table.int_cell (Summary.entries (Tl_core.Treelattice.summary merged));
      Table.int_cell !mismatches;
      Report.seconds (base_ms /. 1000.0);
      Report.seconds (incr_ms /. 1000.0);
    ]
  in
  Report.section "incr" "Incremental summary maintenance (mine half, add half)"
  ^ Table.render
      ~header:[ "dataset"; "merged patterns"; "count mismatches"; "initial build"; "incremental add" ]
      (List.map per_env suite.suite_envs)

(* Markov-table baseline on paths and twigs: the classical path estimator
   matches TreeLattice on paths of matching order (Lemma 4) and cannot see
   branching structure at all — the gap the paper's framework closes. *)
let pathcmp suite =
  let per_env env =
    let heights = node_heights env.tree in
    let rng = Xorshift.create (suite.config.seed + 409) in
    let k = Summary.k env.summary in
    let markov = Tl_paths.Markov_table.build ~order:k env.tree in
    (* Path workload: sampled occurring paths one and two steps past k. *)
    let paths =
      List.concat_map
        (fun length ->
          List.filter_map
            (fun _ -> sample_path rng env.tree heights ~length)
            (List.init 12 (fun i -> i)))
        [ k + 1; k + 2 ]
    in
    let paths = Tl_util.Prelude.list_unique ~cmp:compare paths in
    let path_pairs estimate =
      Array.of_list
        (List.map
           (fun labels ->
             (Match_count.selectivity env.ctx (Twig.of_path labels), estimate labels))
           paths)
    in
    let path_sanity =
      match paths with
      | [] -> 10.0
      | _ ->
        Error_metric.sanity_bound
          (Array.of_list (List.map (fun p -> Match_count.selectivity env.ctx (Twig.of_path p)) paths))
    in
    let markov_err =
      Error_metric.average_percent ~sanity:path_sanity
        (path_pairs (Tl_paths.Markov_table.estimate markov))
    in
    let lattice_err =
      Error_metric.average_percent ~sanity:path_sanity
        (path_pairs (fun labels -> Estimator.estimate env.summary Recursive (Twig.of_path labels)))
    in
    (* Branching twig workload, where the path table is blind: its best
       effort is the root-to-leaf path of the twig's spine. *)
    let twig_wl =
      Workload.positive ~seed:(suite.config.seed + 419) env.ctx ~size:(k + 2)
        ~count:suite.config.queries_per_size
    in
    let spine twig =
      (* Longest root-to-leaf label chain of the twig. *)
      let rec longest (t : Twig.t) =
        match t.Twig.children with
        | [] -> [ t.Twig.label ]
        | kids ->
          t.Twig.label
          :: List.fold_left
               (fun best c ->
                 let cand = longest c in
                 if List.length cand > List.length best then cand else best)
               [] kids
      in
      longest twig
    in
    let twig_err estimate =
      Error_metric.average_percent ~sanity:twig_wl.Workload.sanity (Workload.pairs twig_wl ~estimate)
    in
    [
      env.dataset.Dataset.name;
      Table.int_cell (List.length paths);
      Report.percent markov_err;
      Report.percent lattice_err;
      Report.percent (twig_err (fun t -> Tl_paths.Markov_table.estimate markov (spine t)));
      Report.percent (twig_err (fun t -> Estimator.estimate env.summary Recursive_voting t));
    ]
  in
  Report.section "pathcmp" "Markov path table vs TreeLattice (paths, then branching twigs)"
  ^ Table.render
      ~header:
        [ "dataset"; "paths"; "markov path err"; "lattice path err"; "markov twig err"; "lattice twig err" ]
      (List.map per_env suite.suite_envs)

(* Workload-adaptive estimation (future work #3): a skewed query stream
   with feedback; errors before and after the cache warms up. *)
let adaptive suite =
  let per_env env =
    let rng = Xorshift.create (suite.config.seed + 431) in
    let size = List.fold_left max 0 suite.config.sizes in
    let pool =
      Workload.positive ~seed:(suite.config.seed + 433) env.ctx ~size
        ~count:(max 8 (suite.config.queries_per_size / 2))
    in
    if Array.length pool.Workload.queries = 0 then
      [ env.dataset.Dataset.name; "0"; "-"; "-"; "-" ]
    else begin
      let frontend = Tl_core.Treelattice.of_summary env.tree env.summary in
      let adaptive = Tl_core.Adaptive.create ~capacity:64 frontend in
      let stream_length = 200 in
      let npool = Array.length pool.Workload.queries in
      let first_half_errors = ref [] in
      let second_half_errors = ref [] in
      for i = 1 to stream_length do
        (* Zipf-skewed choice: popular queries repeat, as in real workloads. *)
        let q = pool.Workload.queries.(Xorshift.zipf rng ~n:npool ~s:1.3 - 1) in
        let estimate = Tl_core.Adaptive.estimate adaptive q.Workload.twig in
        let err =
          Error_metric.error_percent ~sanity:pool.Workload.sanity ~truth:q.Workload.truth ~estimate
        in
        if i <= stream_length / 2 then first_half_errors := err :: !first_half_errors
        else second_half_errors := err :: !second_half_errors;
        (* Feedback: the query was executed, learn its true count. *)
        Tl_core.Adaptive.observe adaptive q.Workload.twig q.Workload.truth
      done;
      [
        env.dataset.Dataset.name;
        Table.int_cell stream_length;
        Report.percent (Tl_util.Stats.mean (Array.of_list !first_half_errors));
        Report.percent (Tl_util.Stats.mean (Array.of_list !second_half_errors));
        Table.int_cell (Tl_core.Adaptive.cached_patterns adaptive);
      ]
    end
  in
  Report.section "adaptive" "Workload-adaptive estimation (query feedback, skewed stream)"
  ^ Table.render
      ~header:[ "dataset"; "stream"; "err (1st half)"; "err (2nd half)"; "patterns learned" ]
      (List.map per_env suite.suite_envs)

(* Estimate-driven join ordering — the paper's first motivating application
   ("determining an optimal query plan, based on said estimates").  Naive
   preorder plans vs greedy estimator-guided plans, measured in actually
   materialized intermediate tuples. *)
let joinopt suite =
  let per_env env =
    let size = List.fold_left max 0 suite.config.sizes in
    let wl =
      Workload.positive ~seed:(suite.config.seed + 443) env.ctx ~size
        ~count:(max 8 (suite.config.queries_per_size / 2))
    in
    (* The cap bounds runaway naive plans; a truncated run is charged the
       cap (a lower bound on its real cost). *)
    let cap = 500_000 in
    let naive_total = ref 0 in
    let greedy_total = ref 0 in
    let wins = ref 0 in
    let naive_blowups = ref 0 in
    let queries = Array.length wl.Workload.queries in
    Array.iter
      (fun q ->
        let twig = q.Workload.twig in
        let naive = Tl_join.Executor.run ~cap env.tree (Tl_join.Plan.naive twig) in
        let greedy = Tl_join.Executor.run ~cap env.tree (Tl_join.Plan.greedy env.summary twig) in
        if (not naive.Tl_join.Executor.truncated) && not greedy.Tl_join.Executor.truncated then
          assert (naive.Tl_join.Executor.result_count = greedy.Tl_join.Executor.result_count);
        if naive.Tl_join.Executor.truncated then incr naive_blowups;
        naive_total := !naive_total + naive.Tl_join.Executor.tuples_materialized;
        greedy_total := !greedy_total + greedy.Tl_join.Executor.tuples_materialized;
        if greedy.Tl_join.Executor.tuples_materialized < naive.Tl_join.Executor.tuples_materialized
        then incr wins)
      wl.Workload.queries;
    [
      env.dataset.Dataset.name;
      Table.int_cell queries;
      Table.int_cell !naive_total;
      Table.int_cell !greedy_total;
      Printf.sprintf "%.2fx"
        (float_of_int !naive_total /. Float.max 1.0 (float_of_int !greedy_total));
      Printf.sprintf "%d/%d" !wins queries;
      Table.int_cell !naive_blowups;
    ]
  in
  Report.section "joinopt" "Estimate-guided join ordering vs naive plans (intermediate tuples)"
  ^ Table.render
      ~header:
        [ "dataset"; "queries"; "naive tuples"; "guided tuples"; "reduction"; "strict wins"; "naive blowups" ]
      (List.map per_env suite.suite_envs)

(* --- registry -------------------------------------------------------------- *)

let all_experiments =
  [
    ("table1", "Dataset characteristics", table1);
    ("table2", "Subtree patterns per level", table2);
    ("table3", "Summary construction time and memory", table3);
    ("fig7", "Average estimation error", fig7);
    ("fig8", "Error distribution (CDF)", fig8);
    ("fig9", "Average response time", fig9);
    ("fig10a", "0-derivable pruning savings", fig10a);
    ("fig10b", "OPT lattice accuracy (Nasa)", fig10b);
    ("fig10c", "Summary size vs delta (IMDB)", fig10c);
    ("fig10d", "Estimation quality vs delta (IMDB)", fig10d);
    ("neg", "Zero-selectivity workloads", negative);
    ("lemma4", "Markov-path equivalence", lemma4);
    ("ablation-k", "Lattice depth ablation", ablation_k);
    ("ablation-pairs", "Leaf-pair sensitivity ablation", ablation_pairs);
    ("incr", "Incremental maintenance", incremental);
    ("pathcmp", "Markov path table vs TreeLattice", pathcmp);
    ("adaptive", "Workload-adaptive estimation", adaptive);
    ("joinopt", "Estimate-guided join ordering", joinopt);
  ]

let run_one id driver suite =
  Tl_obs.Span.with_ ("exp.run:" ^ id) @@ fun () ->
  Tl_obs.Metrics.incr "experiments.runs";
  Tl_obs.Log.info (fun m -> m "running experiment %s" id);
  driver suite

let run suite id =
  Option.map (fun (eid, _, driver) -> run_one eid driver suite)
    (List.find_opt (fun (eid, _, _) -> String.equal eid id) all_experiments)

let run_all suite =
  String.concat "" (List.map (fun (eid, _, driver) -> run_one eid driver suite) all_experiments)
