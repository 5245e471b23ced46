(* Tests for the level-wise lattice miner. *)

module Miner = Tl_mining.Miner
module Twig = Tl_twig.Twig
module Match_count = Tl_twig.Match_count
module Twig_enum = Tl_twig.Twig_enum
module Data_tree = Tl_tree.Data_tree
module TB = Tl_tree.Tree_builder
module Dataset = Tl_datasets.Dataset

let mine tree k = Miner.mine tree ~max_size:k

let as_pairs result =
  List.sort compare (List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.all result))

let test_level1_is_label_histogram () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let result = mine tree 1 in
  let expected =
    List.init (Data_tree.label_count tree) (fun l ->
        (Twig.encode (Twig.leaf l), Array.length (Data_tree.nodes_with_label tree l)))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "level 1 = label counts" expected (as_pairs result)

let test_matches_oracle_on_shop () =
  let tree = Helpers.tree_of Helpers.shop_spec in
  let mined = as_pairs (mine tree 4) in
  let oracle =
    Twig_enum.selectivities tree ~max_size:4
    |> List.map (fun (tw, c) -> (Twig.encode tw, c))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) "miner = oracle" oracle mined

let test_levels_partition_by_size () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 4 in
  for s = 1 to 4 do
    List.iter
      (fun (tw, count) ->
        Alcotest.(check int) "size matches level" s (Twig.size tw);
        Alcotest.(check bool) "positive count" true (count > 0))
      (Miner.level result s)
  done;
  Alcotest.(check (list (pair string int))) "out of range level empty" []
    (List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.level result 5))

let test_patterns_per_level_and_total () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 3 in
  let counts = Miner.patterns_per_level result in
  Alcotest.(check int) "three levels" 3 (Array.length counts);
  (* Labels: a, b, c, d. *)
  Alcotest.(check int) "level 1" 4 counts.(0);
  (* Edges: a-b, b-c, b-d. *)
  Alcotest.(check int) "level 2" 3 counts.(1);
  Alcotest.(check int) "total = sum" (Array.fold_left ( + ) 0 counts) (Miner.total_patterns result)

let test_level3_exact_set () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let result = mine tree 3 in
  let name l = Data_tree.label_name tree l in
  let rendered = List.map (fun (tw, c) -> (Twig.pp ~names:name tw, c)) (Miner.level result 3) in
  (* Size-3 patterns: a(b,b), a(b(c)), a(b(d)), b(c,c), b(c,d), b(d,d). *)
  let expected =
    [ ("a(b,b)", 12); ("a(b(c))", 13); ("a(b(d))", 4); ("b(c,c)", 36); ("b(c,d)", 4); ("b(d,d)", 12) ]
  in
  Alcotest.(check (list (pair string int))) "level 3 patterns" (List.sort compare expected)
    (List.sort compare rendered)

let test_counts_are_match_counts () =
  let tree = Helpers.tree_of Helpers.fig11_spec in
  let ctx = Match_count.create_ctx tree in
  let result = mine tree 4 in
  List.iter
    (fun (tw, count) ->
      Alcotest.(check int) (Twig.encode tw) (Match_count.selectivity ctx tw) count)
    (Miner.all result)

let test_single_node_tree () =
  let tree = TB.build (TB.leaf "only") in
  let result = mine tree 4 in
  Alcotest.(check int) "one pattern" 1 (Miner.total_patterns result);
  Alcotest.(check (array int)) "levels" [| 1; 0; 0; 0 |] (Miner.patterns_per_level result)

let test_invalid_max_size () =
  let tree = TB.build (TB.leaf "x") in
  Alcotest.check_raises "max_size >= 1" (Invalid_argument "Miner.mine: max_size must be >= 1")
    (fun () -> ignore (mine tree 0))

let test_deterministic () =
  let tree = Helpers.tree_of Helpers.regular_spec in
  Alcotest.(check (list (pair string int))) "same result twice" (as_pairs (mine tree 4))
    (as_pairs (mine tree 4))

(* The central property: the miner finds exactly the occurring patterns with
   exact counts, cross-checked against brute-force subset enumeration. *)
let prop_miner_equals_oracle =
  Helpers.qcheck_case ~name:"miner = enumeration oracle on random trees" ~count:40
    (Helpers.tree_gen ~max_nodes:14)
    (fun tree ->
      let mined = as_pairs (mine tree 4) in
      let oracle =
        Twig_enum.selectivities tree ~max_size:4
        |> List.map (fun (tw, c) -> (Twig.encode tw, c))
        |> List.sort compare
      in
      mined = oracle)

(* Few labels and wide fan-out: the root sibling groups of mined patterns
   hold 2-4 same-labeled children, so counting goes through the
   permanent DP rather than the single-child sum. *)
let wide_tree_gen =
  let open QCheck2.Gen in
  let label = map (fun i -> Helpers.alphabet.(i)) (int_bound 1) in
  let rec build budget =
    let* l = label in
    if budget <= 1 then return (TB.leaf l)
    else
      let* nkids = int_range 1 (min 6 (budget - 1)) in
      let* kids = flatten_l (List.init nkids (fun _ -> build ((budget - 1) / nkids))) in
      return (TB.node l kids)
  in
  map TB.build (int_range 8 16 >>= build)

let prop_wide_miner_equals_oracle_k5 =
  Helpers.qcheck_case ~name:"miner = enumeration oracle on wide few-label trees, k=5" ~count:40
    wide_tree_gen
    (fun tree ->
      let mined = mine tree 5 in
      let oracle =
        Twig_enum.selectivities tree ~max_size:5
        |> List.map (fun (tw, c) -> (Twig.encode tw, c))
        |> List.sort compare
      in
      let wide_group =
        List.exists
          (fun (tw, _) ->
            let ix = Twig.index tw in
            let root_kids = List.map (fun c -> ix.Twig.node_labels.(c)) ix.Twig.kids.(0) in
            List.length root_kids > List.length (List.sort_uniq compare root_kids))
          (Miner.all mined)
      in
      QCheck2.assume wide_group;
      as_pairs mined = oracle)

(* Counting across a domain pool must not change anything: same patterns,
   same counts, same order, level by level. *)
let prop_parallel_mine_equals_sequential =
  Helpers.qcheck_case ~name:"mine ?pool = sequential mine level-by-level" ~count:40
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      Tl_util.Pool.with_pool ~domains:3 (fun pool ->
          let sequential = mine tree 4 in
          let parallel = Miner.mine ~pool tree ~max_size:4 in
          List.for_all
            (fun s ->
              let encoded result =
                List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.level result s)
              in
              encoded sequential = encoded parallel)
            [ 1; 2; 3; 4 ]))

(* Random trees are far below the pool's work floor, so this runs on
   generated documents whose top levels take the parallel path: the work
   of a level's batch is at least the root-label occurrences summed over
   the patterns it keeps. *)
let test_parallel_mine_k5 () =
  Tl_util.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun (dataset, target, seed) ->
          let tree = Dataset.tree dataset ~target ~seed in
          let sequential = mine tree 5 in
          let parallel = Miner.mine ~pool tree ~max_size:5 in
          let work =
            List.fold_left
              (fun acc (tw, _) -> acc + Array.length (Data_tree.nodes_with_label tree tw.Twig.label))
              0 (Miner.level sequential 5)
          in
          Alcotest.(check bool) "level 5 runs in parallel" true (work >= Miner.parallel_work_budget);
          for s = 1 to 5 do
            let encoded result = List.map (fun (tw, c) -> (Twig.encode tw, c)) (Miner.level result s) in
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "%s seed %d level %d" dataset.Dataset.name seed s)
              (encoded sequential) (encoded parallel)
          done)
        [ (Dataset.nasa, 6000, 1); (Dataset.nasa, 6000, 2); (Dataset.xmark, 12000, 1) ])

(* Generated documents: every mined count is the exact count of the
   independent top-down matcher, sibling-heavy patterns included. *)
let check_dataset_counts dataset ~k ~must_include =
  let tree = Dataset.tree dataset ~target:2000 ~seed:5 in
  let ctx = Match_count.create_ctx tree in
  let result = mine tree k in
  let name l = Data_tree.label_name tree l in
  List.iter
    (fun (tw, count) ->
      Alcotest.(check int) (Twig.pp ~names:name tw) (Match_count.selectivity ctx tw) count)
    (Miner.all result);
  let mined = List.map (fun (tw, _) -> Twig.pp ~names:name tw) (Miner.all result) in
  List.iter
    (fun pattern -> Alcotest.(check bool) (pattern ^ " mined") true (List.mem pattern mined))
    must_include

let test_nasa_counts_exact () = check_dataset_counts Dataset.nasa ~k:4 ~must_include:[]

let test_xmark_counts_exact () =
  check_dataset_counts Dataset.xmark ~k:4
    ~must_include:[ "people(person,person)"; "people(person,person,person)" ]

let prop_downward_closure_of_result =
  Helpers.qcheck_case ~name:"every mined pattern's sub-patterns are mined" ~count:40
    (Helpers.tree_gen ~max_nodes:16)
    (fun tree ->
      let result = mine tree 4 in
      let present = Hashtbl.create 64 in
      List.iter (fun (tw, _) -> Hashtbl.replace present (Twig.encode tw) ()) (Miner.all result);
      List.for_all
        (fun (tw, _) ->
          let ix = Twig.index tw in
          List.for_all
            (fun i -> Hashtbl.mem present (Twig.encode (Twig.remove ix i)))
            (Twig.degree_one ix))
        (Miner.all result))

let () =
  Alcotest.run "mining"
    [
      ( "miner",
        [
          Alcotest.test_case "level 1 labels" `Quick test_level1_is_label_histogram;
          Alcotest.test_case "oracle on shop" `Quick test_matches_oracle_on_shop;
          Alcotest.test_case "levels partition" `Quick test_levels_partition_by_size;
          Alcotest.test_case "per-level counts" `Quick test_patterns_per_level_and_total;
          Alcotest.test_case "level 3 exact set" `Quick test_level3_exact_set;
          Alcotest.test_case "counts are match counts" `Quick test_counts_are_match_counts;
          Alcotest.test_case "single node" `Quick test_single_node_tree;
          Alcotest.test_case "invalid max size" `Quick test_invalid_max_size;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          prop_miner_equals_oracle;
          prop_parallel_mine_equals_sequential;
          prop_wide_miner_equals_oracle_k5;
          Alcotest.test_case "mine ?pool = sequential at k=5, 3 domains" `Quick test_parallel_mine_k5;
          Alcotest.test_case "nasa counts = Match_count" `Quick test_nasa_counts_exact;
          Alcotest.test_case "xmark counts = Match_count" `Quick test_xmark_counts_exact;
          prop_downward_closure_of_result;
        ] );
    ]
