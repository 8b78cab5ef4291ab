(** The database environment: disk, buffer pool, log, lock manager,
    transaction manager, page allocator, catalog and the completion queue,
    with a crash/recover lifecycle.

    One [Env.t] hosts any number of index trees (B-link, TSB, hB, baselines)
    sharing the same substrate — as in the paper, where the access method
    sits inside a full DBMS.

    {2 Crash model}

    [crash] models a power failure: the buffer pool, lock table, live
    transactions and pending completion tasks vanish; the durable state is
    exactly the flushed pages plus the flushed log prefix. [recover] then
    runs restart recovery (analysis/redo/undo). Structure changes interrupted
    between atomic actions are NOT completed by recovery — they are completed
    lazily when later traversals stumble on them (paper section 5.1), which
    is the behaviour experiment E5 measures. *)

type config = {
  page_size : int;
  pool_capacity : int;
  page_oriented_undo : bool;
      (** when true, leaf-node record moves require move locks and may need
          to run inside the updating transaction (section 4.2) *)
  consolidation : bool;
      (** CP invariant (consolidation possible) vs CNS (section 5.2) *)
  log_path : string option;
      (** back the write-ahead log with an append-only file, making the
          database recoverable across process restarts (pair it with
          [Pitree_storage.Disk.file]); [None] keeps the log in memory *)
  wal_group_commit : bool;
      (** batched log-force pipeline (default [true]); [false] keeps the
          serial one-fsync-per-commit path as a measurable baseline *)
  pool_shards : int option;
      (** buffer-pool shard count override ([Some 1] = legacy single-mutex
          pool; [None]: domain count, see [Buffer_pool.create]); survives
          crash/recover cycles *)
  pool_pin_attempts : int option;
      (** bound on the pool's full-shard retry ladder before
          [Pool_exhausted] ([None]: Buffer_pool's default, 20); survives
          crash/recover cycles *)
  pool_backoff_seed : int option;
      (** seed for the pool's backoff jitter ([None]: 0) — pin retries and
          disk-op retries scale each wait by a seeded factor in [0.5, 1.5)
          so fault-plan storms degrade without stampeding *)
  ckpt_log_bytes : int option;
      (** take a fuzzy checkpoint (on the committing thread) whenever the
          log has grown by this many bytes since the last one *)
  ckpt_interval_s : float option;
      (** run a background thread taking a fuzzy checkpoint every this many
          seconds *)
  olc_reads : bool;
      (** searches and range scans descend latch-free, validating against
          per-node version words (optimistic latch coupling) and falling
          back to the S-latched path after bounded retries; [false]
          restores the always-latched read path (baselines, bisection) *)
  combine : bool;
      (** non-transactional puts funnel through the hot-key combining layer
          ([Pitree_combine.Combine]): concurrent writers to the same
          publication slot are batched by an elected leader into one
          descent, one X latch and one log batch with a single durability
          enrollment; [false] restores one descent per write (baselines,
          [--no-combine]) *)
  combine_slots : int;
      (** publication slots per engine, rounded up to a power of two *)
  combine_window_us : int;
      (** how long a hot slot's leader holds the election open so a write
          storm can pile into its batch; [0] (default) applies immediately;
          ignored under the deterministic scheduler *)
  si_txns : bool;
      (** snapshot-isolation MVCC ({!Pitree_txn.Mvcc}): TSB version
          timestamps come from the transaction manager's commit-ts
          allocator instead of per-tree clocks — making
          [Mvcc.begin_snapshot] reads consistent cuts — and the TSB gc
          horizon is clamped to
          [min (oldest live snapshot - 1) (checkpoint watermark)];
          [false] (default) keeps per-tree clocks and unclamped gc *)
}

val default_config : config
(** 4 KiB pages, 4096-frame pool, CP invariant, in-memory log with group
    commit, automatic shard count, no automatic checkpoints. Override with
    record update syntax: [{ default_config with log_path = Some p }]. *)

type t

val create : ?disk:Pitree_storage.Disk.t -> config -> t
(** Fresh database: formats the meta page, takes an initial checkpoint and
    starts the interval checkpointer if [cfg.ckpt_interval_s] is set.
    [disk] defaults to a new crash-faithful in-memory disk; everything
    else — log file, group commit, pool shards, checkpoint triggers — comes
    from the config record. *)

val open_from : ?disk:Pitree_storage.Disk.t -> config -> t
(** Reattach to a database persisted by a previous process: the log is
    reloaded from [cfg.log_path] (required — raises [Invalid_argument] if
    [None]) and the environment starts in the crashed state — call
    {!recover} (which replays the log against [disk]) before use. *)

val config : t -> config
val pool : t -> Pitree_storage.Buffer_pool.t
val log : t -> Pitree_wal.Log_manager.t
val locks : t -> Pitree_lock.Lock_manager.t
val txns : t -> Pitree_txn.Txn_mgr.t

val crash : t -> unit
(** Simulated power failure (see module doc). The environment is unusable
    until {!recover}. *)

val recover : t -> Pitree_wal.Recovery.report
(** Restart: rebuild volatile state, run recovery (analysis starts from the
    last complete checkpoint, so the report's [analyzed]/[redone] are
    bounded by the work since it, not by total history) and restart the
    automatic checkpoint triggers. *)

val checkpoint : t -> unit
(** Take a checkpoint and truncate the log below the new redo point.

    The ARIES fuzzy protocol: log a [Begin_checkpoint] fence with an exact
    snapshot of the active-transaction table, write dirty pages back, log
    an [End_checkpoint] carrying the dirty-page table (page id, rec_lsn)
    and the snapshot, force it, publish the master record, truncate.
    Write-back ([Buffer_pool.write_back]) flushes one page at a time under
    that page's S latch, so it is safe under concurrent writers, never
    captures an in-flux page, and stalls readers for at most one page
    write. Every page dirty when the sweep lists it leaves the sweep
    clean, so at a quiescent call site ({!close}, a freshly created
    environment) the pool ends fully clean.

    Crash points [ckpt.begin.logged], [ckpt.end.logged] and
    [ckpt.truncated] fire at the protocol's three commit instants. *)

val close : t -> unit
(** Clean shutdown: stop the checkpointer thread, checkpoint and release
    the disk. *)

(** {2 Page allocation}

    Allocation updates the meta page (our space-management information) and
    is fully logged inside the caller's transaction, so an aborted action
    releases its pages. Per section 4.1.1, space-management information is
    latched {e last}: call these while holding whatever node latches the
    structure change needs, never acquire node latches afterwards. *)

val alloc_page :
  t -> Pitree_txn.Txn.t -> kind:Pitree_storage.Page.kind -> level:int ->
  Pitree_storage.Buffer_pool.frame
(** Returns the new page's frame, pinned and already formatted (logged).
    No other thread can reach the page until the caller links it into a
    tree, so it needs no latch yet. Caller unpins. *)

val dealloc_page : t -> Pitree_txn.Txn.t -> Pitree_storage.Buffer_pool.frame -> unit
(** Reformat the page as free (a logged node update — its state identifier
    changes, per section 5.2.2 strategy (b)) and push it on the free list.
    Caller holds the frame's X latch and has already removed every pointer
    to the page.

    The free list is threaded through the Meta page: meta [aux_ptr] is the
    head, each free page's cell 0 the next link. {!alloc_page} pops it
    before extending the file, so deletion/merge gives pages back for real.
    Crash points [free.reused] (alloc pop) and [free.pushed] (dealloc push)
    fire at the two free-list instants. *)

val allocated_extent : t -> int
(** Pages ever formatted on this disk, excluding the reserved and meta
    pages — the file's high-water extent. Monotone: reuse from the free
    list does not grow it. *)

val free_list_length : t -> int
(** Length of the free list (walked under the meta latch; for harnesses
    and benches, not hot paths). *)

(** {2 Catalog} *)

val create_tree :
  t -> name:string -> kind:Pitree_storage.Page.kind -> level:int -> int
(** Allocate an (immovable) root page and register [name]. Returns the root
    page id, which doubles as the tree id. The root is never moved or
    de-allocated (section 5.2.2), so this id is stable for the database's
    lifetime. *)

val find_tree : t -> name:string -> int option
val list_trees : t -> (string * int) list

(** {2 Completion queue}

    Pending structure-change completions (index-term postings, node
    consolidations) discovered during normal processing. Volatile by design:
    a crash empties it, and the work is re-discovered by later traversals.

    The queue runs itself: every user-transaction commit and abort ends
    with {!drain_some}, once the transaction has released its locks (and
    a commit's record is forced), so a completion never runs under a
    latch or a lock of the thread that runs it. A snapshot-isolation
    write commit runs it after leaving [Mvcc]'s commit section, and a
    read made outside any transaction runs it at its exit. The engines
    drain nowhere else; {!drain} is for callers that want a settled
    tree. *)

val schedule : t -> (unit -> unit) -> unit
(** Queue a completion task. The task must run as its own atomic
    action(s), take no lock it would wait for, and tolerate finding its
    work already done. *)

val drain : t -> int
(** Run pending completion tasks until the queue is empty, including tasks
    that the ones run schedule; returns how many ran. For callers that
    want a settled tree (tests, the simulator, harness checkpoints, a
    benchmark's preload). Tasks run outside any latch. A task raising
    [Crash_point.Crash_requested] propagates (the rest stay queued, then
    are lost to the crash, as intended). Safe to call from several
    threads at once. *)

val drain_budget : int
(** How many tasks {!drain_some} runs at most. *)

val drain_some : t -> int
(** Run at most {!drain_budget} pending tasks; returns how many ran. An
    empty queue costs one atomic read. Exceptions propagate as in
    {!drain}; after a commit, an interrupted drain leaves that commit in
    doubt to its caller (the commit is durable, its acknowledgment was
    lost). *)

val pending : t -> int
(** Tasks queued and not yet started. *)

(** {2 Statistics} *)

type stats = {
  pages_allocated : int;
  pages_freed : int;  (** pages deallocated onto the free list *)
  pages_reused : int;  (** allocations served by popping the free list *)
  completions_run : int;
  checkpoints : int;  (** completed checkpoints, any mode or trigger *)
  ckpt_pages_written : int;  (** dirty pages written back by checkpoints *)
  ckpt_records_truncated : int;  (** log records discarded by truncation *)
  ckpt_bytes_truncated : int;  (** log bytes discarded by truncation *)
  page_images : int;
      (** full-page images logged: first clean→dirty transition of a page
          with history after each checkpoint's Begin *)
  page_images_skipped : int;
      (** clean→dirty transitions that logged no image because the page
          already had one at or above the latest Begin *)
  page_image_bytes : int;
      (** encoded log bytes of those images: each is compacted before it is
          logged and its free space left out of the frame, so this stays
          below [page_images * page_size] *)
}

val stats : t -> stats
