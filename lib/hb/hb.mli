(** The hB-tree instance of the Pi-tree (paper section 2.2.3, Figure 2;
    Lomet & Salzberg, TODS 1990) — a multiattribute point index.

    Nodes are responsible for {e holey bricks}: an axis-aligned box minus
    boxes extracted by splits. Each node carries an intra-node kd-tree whose
    leaves route a point to the node itself ([Here]), to a {e sibling} that
    space was delegated to (the Pi-tree side pointer replacing the hB
    "external" markers, exactly as section 2.2.3 prescribes), or — in index
    nodes — to a {e child}.

    Structure changes follow the Pi-tree protocol: a data-node split
    extracts a sub-brick holding 1/3-2/3 of the content into a new sibling
    in one atomic action; the index term describing it is posted in a
    {e separate} atomic action, re-discovered lazily after a crash via the
    sibling marker. Posting a term whose brick straddles an existing
    parent partition {b clips} it (section 3.2.2): the child appears under
    both sides. An index-node split by a hyperplane keeps one kd-root child
    pointing at the new sibling (the adjustment this paper makes to the
    hB-tree), and children referenced on both sides are {b marked
    multi-parent} (section 3.3) — such nodes are never consolidated.

    This engine runs CNS (no consolidation of non-empty nodes) and
    auto-commits each operation; the full lock/move-lock protocol is
    exercised by the B-link engine. *)

type t

val create : Pitree_env.Env.t -> name:string -> dims:int -> t
val open_existing : Pitree_env.Env.t -> name:string -> t option
val env : t -> Pitree_env.Env.t
val dims : t -> int

val insert :
  ?txn:Pitree_txn.Txn.t -> t -> point:float array -> value:string -> unit
(** Pass [?txn] to join a caller-managed transaction (the caller commits).
    Without it, and with [Env.config.combine] on, the insert routes
    through the hot-key combining funnel: concurrent writers hashing to
    the same slot share one transaction and one WAL flush enrollment; a
    batch that cannot complete hands the request back to the ordinary
    autocommit path. *)

val delete : ?txn:Pitree_txn.Txn.t -> t -> float array -> bool
(** Delete the record at [point]; [false] if absent. With [?txn] the
    delete joins the caller's transaction (the caller commits). *)

val find : ?txn:Pitree_txn.Txn.t -> t -> float array -> string option
(** Reads take no locks; [txn] only says the read runs inside that
    transaction, which then runs queued completions at its commit or
    abort instead of this read at its exit. *)

val query :
  t -> low:float array -> high:float array -> init:'a ->
  f:('a -> float array -> string -> 'a) -> 'a
(** Fold over the points inside the half-open box [low, high). *)

val count : t -> int

val verify : t -> Pitree_core.Wellformed.report
(** Generic Pi-tree well-formedness over holey-brick subspaces (sampled
    containment; exact for the unit-cube workloads of the tests). *)

type stats = {
  inserts : int;
  searches : int;
  data_splits : int;
  index_splits : int;
  root_splits : int;
  side_traversals : int;
  postings_completed : int;
  clipped_postings : int;  (** postings whose brick straddled a partition *)
  multi_parent_marks : int;
  consolidations : int;
      (** empty data nodes folded back into their containing sibling —
          only when single-parent, per the section 3.3 constraints *)
  consolidations_skipped : int;
}

val stats : t -> stats
