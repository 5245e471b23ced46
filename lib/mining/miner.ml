module Data_tree = Tl_tree.Data_tree
module Twig = Tl_twig.Twig

type twig_count = Twig.t * int

type result = { max_size : int; levels : twig_count list array }

(* Downward closure: a candidate can only occur if every sub-twig obtained
   by dropping one degree-1 node occurred at the previous level. *)
let sub_twigs_occur prev_level candidate =
  let ix = Twig.index candidate in
  List.for_all
    (fun i -> Hashtbl.mem prev_level (Twig.Key.id (Twig.key (Twig.remove ix i))))
    (Twig.degree_one ix)

(* --- bottom-up counting ---------------------------------------------------

   Nodes carrying label [l] are addressed by their rank in
   [Data_tree.nodes_with_label tree l].  A pattern's count vector holds, at
   rank [i], the number of matches whose root maps to the [i]-th node of the
   root label — exactly [Match_count.selectivity_rooted] there.  A
   candidate's vector is one level of Match_count's sibling-group DP over
   the vectors of its root's child subtrees, all of which are smaller
   patterns counted at a lower level; a leaf's vector is all ones, so it is
   never stored.  Sums and products are OCaml [int] arithmetic, i.e. exact
   modulo 2^63 whatever the evaluation order, so every count equals
   Match_count's bit for bit, wrapped sibling-heavy counts included. *)

(* Children of the nodes of one (parent label, child label) pair: the
   children of the parent-rank-[i] node carrying the child label have
   child-label ranks [ranks.(offsets.(i)) .. ranks.(offsets.(i + 1) - 1)]. *)
type csr = { offsets : int array; ranks : int array }

(* Keys here (label pairs, twig ids) are small non-negative ints; hashing
   them as themselves keeps the per-edge lookups of [build_edges] off the
   generic hash. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash key = key
end)

type member = Ones | Vec of int array

(* One sibling group of a candidate's root: the data edges it reads and the
   count vectors of its (same-labeled) query children. *)
type group = { edges : csr; members : member array }

type ctx = {
  tree : Data_tree.t;
  nlabels : int;
  edges : csr Int_tbl.t;  (* key [lp * nlabels + lc] *)
  vectors : int array Int_tbl.t;  (* twig key id -> count vector *)
}

let build_edges tree nlabels =
  let n = Data_tree.size tree in
  let rank = Array.make n 0 in
  for l = 0 to nlabels - 1 do
    Array.iteri (fun i v -> rank.(v) <- i) (Data_tree.nodes_with_label tree l)
  done;
  let pair v w = (Data_tree.label tree v * nlabels) + Data_tree.label tree w in
  (* Pass 1: per-parent child counts, shifted by one for the prefix sum. *)
  let counts = Int_tbl.create 64 in
  for v = 0 to n - 1 do
    let kids = Data_tree.children tree v in
    for j = 0 to Array.length kids - 1 do
      let key = pair v kids.(j) in
      let offsets =
        try Int_tbl.find counts key
        with Not_found ->
          let rows = Array.length (Data_tree.nodes_with_label tree (Data_tree.label tree v)) in
          let offsets = Array.make (rows + 1) 0 in
          Int_tbl.replace counts key offsets;
          offsets
      in
      offsets.(rank.(v) + 1) <- offsets.(rank.(v) + 1) + 1
    done
  done;
  (* Pass 2: prefix sums, then scatter child ranks behind per-row cursors. *)
  let filling = Int_tbl.create (Int_tbl.length counts) in
  Int_tbl.iter
    (fun key offsets ->
      let rows = Array.length offsets - 1 in
      for i = 1 to rows do
        offsets.(i) <- offsets.(i) + offsets.(i - 1)
      done;
      Int_tbl.replace filling key ({ offsets; ranks = Array.make offsets.(rows) 0 }, Array.sub offsets 0 rows))
    counts;
  for v = 0 to n - 1 do
    let kids = Data_tree.children tree v in
    for j = 0 to Array.length kids - 1 do
      let w = kids.(j) in
      let { ranks; _ }, cursor = Int_tbl.find filling (pair v w) in
      ranks.(cursor.(rank.(v))) <- rank.(w);
      cursor.(rank.(v)) <- cursor.(rank.(v)) + 1
    done
  done;
  let edges = Int_tbl.create (Int_tbl.length filling) in
  Int_tbl.iter (fun key (csr, _) -> Int_tbl.replace edges key csr) filling;
  edges

let create_ctx tree =
  let nlabels = Data_tree.label_count tree in
  { tree; nlabels; edges = build_edges tree nlabels; vectors = Int_tbl.create 256 }

(* Weighted count of injective assignments of the group's query children to
   the [edges]-children of parent rank [i]: the permanent DP of
   [Match_count.group_count], reading each child's count from the member
   vectors.  [ways] is scratch of at least [2^m] cells. *)
let group_count ways { edges = { offsets; ranks }; members } i =
  let lo = offsets.(i) and hi = offsets.(i + 1) in
  let m = Array.length members in
  if m = 1 then begin
    match members.(0) with
    | Ones -> hi - lo
    | Vec vec ->
      let acc = ref 0 in
      for j = lo to hi - 1 do
        acc := !acc + vec.(ranks.(j))
      done;
      !acc
  end
  else begin
    let full = (1 lsl m) - 1 in
    Array.fill ways 0 (full + 1) 0;
    ways.(0) <- 1;
    for j = lo to hi - 1 do
      let w = ranks.(j) in
      (* Descending mask order: reads of strictly smaller masks see the
         pre-update values, so each data child is used at most once. *)
      for mask = full downto 1 do
        let acc = ref ways.(mask) in
        for q = 0 to m - 1 do
          if mask land (1 lsl q) <> 0 then begin
            let sub = match members.(q) with Ones -> 1 | Vec vec -> vec.(w) in
            if sub <> 0 then acc := !acc + (ways.(mask lxor (1 lsl q)) * sub)
          end
        done;
        ways.(mask) <- !acc
      done
    done;
    ways.(full)
  end

let count_at ways groups i =
  let count = ref 1 in
  let gi = ref 0 in
  let ngroups = Array.length groups in
  while !count <> 0 && !gi < ngroups do
    count := !count * group_count ways groups.(!gi) i;
    incr gi
  done;
  !count

(* A resolved candidate: its root label's occurrence count and its sibling
   groups, or [None] when some root edge never occurs (count 0). *)
type spec = { occurrences : int; groups : group array option }

(* Sibling groups of [twig]'s root, resolving each child subtree's vector
   through [vector] (leaves are [Ones]). *)
let resolve ctx vector twig =
  let ix = Twig.index twig in
  let root_label = ix.Twig.node_labels.(0) in
  let by_label = ref [] in
  List.iter
    (fun c ->
      let l = ix.Twig.node_labels.(c) in
      let sub = ix.Twig.subtrees.(c) in
      let member = if Twig.Key.size (Twig.key sub) = 1 then Ones else Vec (vector sub) in
      match List.assoc_opt l !by_label with
      | Some members -> members := member :: !members
      | None -> by_label := (l, ref [ member ]) :: !by_label)
    ix.Twig.kids.(0);
  let occurrences = Array.length (Data_tree.nodes_with_label ctx.tree root_label) in
  let groups =
    List.fold_left
      (fun acc (l, members) ->
        match (acc, Int_tbl.find_opt ctx.edges ((root_label * ctx.nlabels) + l)) with
        | Some groups, Some edges -> Some ({ edges; members = Array.of_list (List.rev !members) } :: groups)
        | _ -> None)
      (Some []) !by_label
  in
  { occurrences; groups = Option.map Array.of_list groups }

let scratch max_size = Array.make (1 lsl max 1 (max_size - 1)) 0

let count_vector ways spec =
  match spec.groups with
  | None -> Array.make spec.occurrences 0
  | Some groups -> Array.init spec.occurrences (count_at ways groups)

let count_total ways spec =
  match spec.groups with
  | None -> 0
  | Some groups ->
    let total = ref 0 in
    for i = 0 to spec.occurrences - 1 do
      total := !total + count_at ways groups i
    done;
    !total

(* The vector of a non-leaf pattern.  Kept patterns below the top level
   are stored as they are counted; any other child subtree (one whose
   count wrapped to [<= 0] and was dropped) is computed here, on the
   caller's domain, before a level's parallel map starts. *)
let rec vector ctx ways twig =
  let id = Twig.Key.id (Twig.key twig) in
  match Int_tbl.find_opt ctx.vectors id with
  | Some vec -> vec
  | None ->
    let vec = count_vector ways (resolve ctx (vector ctx ways) twig) in
    Int_tbl.replace ctx.vectors id vec;
    vec

(* Candidates of one level are independent: with a pool they are counted
   across its domains (each with private DP scratch) while the stored
   lower-level vectors are only read, and results come back in input
   order, so the final per-level sort sees exactly the sequential result.

   Counting one candidate costs time proportional to its root label's
   occurrences (one DP level per occurrence), so a batch's work is the sum
   of those.  Below [parallel_work_budget] of it — about 2 ms of counting
   on a 2-core host, where 25k occurrences still ran slower on two domains
   than on one and 35k ran twice as fast — the fan-out overhead (helper
   wake-up, chunk-cursor contention, end-of-map rendezvous, cross-domain GC
   rendezvous) outweighs the counting itself, so such batches stay on the
   sequential path (identical results either way; the parallel-build
   bench asserts it). *)
let parallel_work_budget = 50_000

let count_batch ?pool ~max_size ~keep_vectors specs =
  let count ways spec =
    if keep_vectors then begin
      let vec = count_vector ways spec in
      (Array.fold_left ( + ) 0 vec, Some vec)
    end
    else (count_total ways spec, None)
  in
  let work = Array.fold_left (fun acc spec -> acc + spec.occurrences) 0 specs in
  match pool with
  | Some pool when work >= parallel_work_budget ->
    Tl_util.Pool.parallel_chunked_map pool
      ~cost:(fun spec -> spec.occurrences)
      ~init:(fun () -> scratch max_size)
      count specs
  | _ ->
    let ways = scratch max_size in
    Array.map (count ways) specs

let mine ?pool tree ~max_size =
  if max_size < 1 then invalid_arg "Miner.mine: max_size must be >= 1";
  Tl_obs.Span.with_ "miner.mine" @@ fun () ->
  let levels = Array.make (max_size + 1) [] in
  (* Level 1: one pattern per occurring label. *)
  let nlabels = Data_tree.label_count tree in
  let level1 = ref [] in
  for l = nlabels - 1 downto 0 do
    let occurrences = Array.length (Data_tree.nodes_with_label tree l) in
    if occurrences > 0 then level1 := (Twig.leaf l, occurrences) :: !level1
  done;
  levels.(1) <- !level1;
  (* Child labels that can extend a node labeled [lp]. *)
  let extensions = Array.make nlabels [] in
  List.iter
    (fun (lp, lc) -> extensions.(lp) <- lc :: extensions.(lp))
    (Data_tree.edge_label_pairs tree);
  Array.iteri (fun lp kids -> extensions.(lp) <- List.sort_uniq compare kids) extensions;
  let ctx = lazy (create_ctx tree) in
  let ways = scratch max_size in
  (* Levels 2..max_size by rightmost-style extension of every node.  Dedup
     tables key on interned canonical ids — candidate generation is the one
     place the miner used to build (and hash) an encoding string per
     candidate per extension site. *)
  let prev_table : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let reset_prev level =
    Hashtbl.reset prev_table;
    List.iter (fun (t, _) -> Hashtbl.replace prev_table (Twig.Key.id (Twig.key t)) ()) level
  in
  let rec grow_level s =
    if s <= max_size then begin
      Tl_obs.Span.with_ "miner.level" (fun () ->
          let ctx = Lazy.force ctx in
          reset_prev levels.(s - 1);
          let candidates = Hashtbl.create 256 in
          List.iter
            (fun (pattern, _) ->
              let ix = Twig.index pattern in
              Array.iteri
                (fun i lp ->
                  List.iter
                    (fun lc ->
                      let candidate = Twig.grow ix i lc in
                      let key = Twig.Key.id (Twig.key candidate) in
                      if not (Hashtbl.mem candidates key) then Hashtbl.replace candidates key candidate)
                    extensions.(lp))
                ix.Twig.node_labels)
            levels.(s - 1);
          let survivors =
            Array.of_list
              (Hashtbl.fold
                 (fun _ candidate acc ->
                   if s = 2 || sub_twigs_occur prev_table candidate then candidate :: acc else acc)
                 candidates [])
          in
          Tl_obs.Metrics.add "miner.candidates_generated" (Hashtbl.length candidates);
          Tl_obs.Metrics.add "miner.candidates_counted" (Array.length survivors);
          let specs = Array.map (resolve ctx (vector ctx ways)) survivors in
          let keep_vectors = s < max_size in
          let counts = count_batch ?pool ~max_size ~keep_vectors specs in
          let counted = ref [] in
          for i = Array.length survivors - 1 downto 0 do
            let count, vec = counts.(i) in
            if count > 0 then begin
              counted := (survivors.(i), count) :: !counted;
              Option.iter (Int_tbl.replace ctx.vectors (Twig.Key.id (Twig.key survivors.(i)))) vec
            end
          done;
          let counted = !counted in
          Tl_obs.Metrics.add "miner.patterns_kept" (List.length counted);
          Tl_obs.Metrics.observe "miner.level_patterns" (List.length counted);
          levels.(s) <- List.sort (fun (a, _) (b, _) -> Twig.compare a b) counted);
      grow_level (s + 1)
    end
  in
  grow_level 2;
  levels.(1) <- List.sort (fun (a, _) (b, _) -> Twig.compare a b) levels.(1);
  Tl_obs.Log.debug (fun m ->
      m "mined %d pattern(s) across %d level(s)"
        (Array.fold_left (fun acc l -> acc + List.length l) 0 levels)
        max_size);
  { max_size; levels }

let all r = List.concat (Array.to_list r.levels)

let level r s = if s < 1 || s > r.max_size then [] else r.levels.(s)

let patterns_per_level r = Array.init r.max_size (fun i -> List.length r.levels.(i + 1))

let total_patterns r = Array.fold_left (fun acc l -> acc + List.length l) 0 r.levels
