(** The transaction manager: ties transactions to the log, the buffer pool
    and the lock manager.

    {!update} is the single gate through which all page changes flow: it
    appends the Update record, applies the operation to the in-buffer page,
    stamps the page LSN (advancing the node's state identifier) and marks
    the frame dirty — the WAL protocol by construction. The caller must hold
    the frame's X latch. *)

type t

val create :
  ?first_id:int ->
  ?ts_floor:int ->
  log:Pitree_wal.Log_manager.t ->
  pool:Pitree_storage.Buffer_pool.t ->
  locks:Pitree_lock.Lock_manager.t ->
  unit ->
  t
(** [first_id] (default 1) seeds the transaction-id counter; after recovery
    it must exceed every id present in the log. [ts_floor] (default 0)
    seeds the commit-timestamp allocator; after recovery it must be at
    least the largest [Commit_ts] in the log (tree clocks recovered later
    raise it further via {!Snapshot.observe_floor}). *)

val log : t -> Pitree_wal.Log_manager.t
val pool : t -> Pitree_storage.Buffer_pool.t
val locks : t -> Pitree_lock.Lock_manager.t

val snapshots : t -> Snapshot.t
(** The commit-timestamp allocator. Transactions retire their
    [tracked_ts] here at commit/abort. *)

val wal_stats : t -> Pitree_wal.Log_manager.stats
(** The log's group-commit record: forces (real fsyncs), flush batching and
    commit-wait latency (time blocked in the force pipeline). *)

val begin_txn : t -> Txn.kind -> Txn.t

val append : t -> Txn.t -> Pitree_wal.Log_record.body -> Pitree_wal.Lsn.t
(** Append a record that changes no page, such as [Commit_ts], as the
    transaction's next record. *)

val update :
  ?lundo:Pitree_wal.Log_record.lundo ->
  t -> Txn.t -> Pitree_storage.Buffer_pool.frame -> Pitree_wal.Page_op.t ->
  Pitree_wal.Lsn.t
(** Logged page write (see module doc). Returns the record's LSN, which is
    now also the page's LSN. [lundo] attaches a logical-undo descriptor
    (non-page-oriented UNDO; see {!Pitree_wal.Logical}). *)

val move :
  t -> Txn.t -> (Pitree_storage.Buffer_pool.frame * Pitree_wal.Page_op.t) list ->
  Pitree_wal.Lsn.t
(** One logged structure change over several pages: marks every frame
    dirty, applies the parts in list order, appends one
    {!Pitree_wal.Log_record.Move} and stamps every page with its LSN,
    which it returns. A frame may appear in several parts. Empty cell runs
    are dropped first; a change left with one part is logged as a plain
    {!update}, one left with none logs nothing and returns
    [Lsn.null]. The caller holds every frame's X latch. If a part raises,
    the parts applied before it are undone and nothing is logged. *)

val commit : ?commits:int -> ?hook:bool -> t -> Txn.t -> unit
(** Appends one Commit (no End follows). Forces the log for [User]
    transactions only, even one that wrote nothing — a [System] commit is
    relatively durable. Releases the transaction's
    locks. [commits] (default 1) is how many logical user commits this
    transaction carries — a combined write batch commits once for N puts —
    and is only forwarded to [Log_manager.flush]'s accounting. A [User]
    commit ends by running the user-commit hook ({!set_on_user_commit});
    [~hook:false] skips it, for a caller that commits inside a critical
    section of its own and calls {!after_user_commit} once it has left. *)

val after_user_commit : t -> unit
(** Run the user-commit hook, if one is set. *)

val abort : t -> Txn.t -> unit
(** Appends Abort, undoes all the transaction's updates (writing CLRs),
    appends End, releases locks, then runs the user-abort hook
    ({!set_on_user_abort}) for a [User] transaction. *)

val begin_checkpoint : t -> Pitree_wal.Lsn.t * (int * Pitree_wal.Lsn.t) list
(** Open a fuzzy checkpoint: append the [Begin_checkpoint] fence record
    and snapshot the active-transaction table — (txn id, last LSN) of
    every live transaction that has logged a record — in one critical
    section, so the snapshot is exactly consistent as of the fence's LSN
    (every lifecycle append shares the same mutex). Waits until no live
    abort is writing CLRs. Returns the fence LSN and the table, destined
    for the matching [End_checkpoint]. *)

val set_on_user_commit : t -> (unit -> unit) -> unit
(** [f] runs after each user-transaction commit completes (commit record
    forced, locks released, deferred work run), in the committing thread:
    [Env] runs queued completions and the checkpointer's log-growth
    trigger here. Exceptions propagate to the committer, whose
    transaction is already committed. *)

val set_on_user_abort : t -> (unit -> unit) -> unit
(** [f] runs after each user-transaction abort completes (updates undone,
    locks released), in the aborting thread. Exceptions propagate. *)

val active : t -> (int * Pitree_wal.Lsn.t) list
(** Live transactions and their last LSNs (informational; checkpoints use
    {!begin_checkpoint}). *)

val active_count : t -> int

val oldest_first_lsn : t -> Pitree_wal.Lsn.t option
(** The oldest [first_lsn] among live transactions that have logged a
    record ([None] if none has) — the lower bound on what rollback could
    still need; log truncation must not pass it. *)

val crash : t -> unit
(** Forget all volatile transaction state (part of simulated power
    failure). *)
