(** Exact twig selectivity — the number of matches of Definition 1.

    A match of twig [Q] in data tree [T] is a 1-1 mapping from [Q]'s nodes
    to [T]'s nodes preserving labels and parent-child edges.  The count is
    computed by a memoized top-down dynamic program: for data node [v] and
    query node [q] with equal labels, the number of matches of [q]'s subtree
    rooted at [v] is the product, over [q]'s child sibling groups that share
    a label, of the number of weighted injective assignments of that group
    into [v]'s equally-labeled children (a permanent, evaluated by a
    subset-mask DP — sibling groups are at most twig-width wide, so the mask
    stays tiny).  Starting from the nodes carrying the root label and
    recursing only through label-matching edges keeps counting cheap even
    for patterns containing very frequent leaf labels.

    This engine provides the ground truth for every experiment and is the
    independent oracle the lattice miner ({!Tl_mining.Miner}), which
    counts bottom-up one DP level at a time, is tested against. *)

type ctx
(** Reusable counting context over one data tree (holds the DP buffer, so
    repeated counting does not reallocate).  Single-domain mutable state:
    never share one across domains. *)

val create_ctx : Tl_tree.Data_tree.t -> ctx

val tree : ctx -> Tl_tree.Data_tree.t

val selectivity : ctx -> Twig.t -> int
(** Number of matches of the twig in the whole document. *)

val selectivity_rooted : ctx -> Twig.t -> Tl_tree.Data_tree.node -> int
(** Matches whose root maps to the given data node. *)

val count : Tl_tree.Data_tree.t -> Twig.t -> int
(** One-shot convenience: [selectivity (create_ctx tree) twig]. *)
