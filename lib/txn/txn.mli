(** Transaction descriptors.

    Two kinds, with identical logging machinery but different commit
    durability and different relationships to structure changes:

    - [User]: a database transaction. Commit forces the log. Its database
      locks are held to commit/abort (strict two-phase).
    - [System]: one of the paper's independent {e atomic actions} — a node
      split, an index-term posting, a node consolidation. Its commit is
      relatively durable (no log force, section 4.3.1); its locks are
      two-phase but released at the end of the action. *)

type kind = User | System

type state = Active | Committed | Aborted

type si = {
  read_ts : int;
      (** snapshot read timestamp: the allocator watermark at
          [begin_snapshot]. Reads inside this transaction observe the
          version store as of this time. *)
  snap : Snapshot.t;
      (** the allocator the snapshot is pinned against; compared by
          physical identity to detect snapshots that straddle a crash *)
  writes : (int * string, string option) Hashtbl.t;
      (** buffered writes, [(tree, key) -> value or tombstone]; installed
          into the version store only at commit, all stamped with one
          commit timestamp *)
  mutable si_reads : int;
  mutable released : bool;  (** snapshot pin already dropped *)
}
(** Snapshot-isolation state carried by a transaction opened with
    {!Mvcc.begin_snapshot}. *)

type t = {
  id : int;
  kind : kind;
  mutable first_lsn : Pitree_wal.Lsn.t;
      (** the LSN of the transaction's first record ([Lsn.null] until it
          logs one; no Begin record exists) — rollback never needs
          anything older, so log truncation must keep every record at or
          above the oldest live transaction's [first_lsn] *)
  mutable last_lsn : Pitree_wal.Lsn.t;
  mutable state : state;
  mutable updated_nodes : (int * int) list;
      (** (tree, page) pairs whose records this transaction updated; consulted
          by the split logic to decide whether a leaf split can run as an
          independent atomic action (section 4.2.1). *)
  mutable on_commit : (unit -> unit) list;
      (** callbacks run after a successful commit — e.g. scheduling the
          index-term posting for a split performed inside this transaction
          (section 4.2.2: posting may not occur unless/until T commits). *)
  mutable tracked_ts : int list;
      (** version timestamps this transaction allocated from the
          {!Snapshot} allocator; retired by {!Txn_mgr} at commit/abort so
          the snapshot watermark can advance *)
  mutable si : si option;  (** snapshot-isolation state, if any *)
}

val track_ts : t -> int -> unit
(** Record an allocated version timestamp for retirement at end of
    transaction. *)

val is_active : t -> bool

val add_on_commit : t -> (unit -> unit) -> unit
val pp : Format.formatter -> t -> unit
