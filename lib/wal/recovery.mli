(** Crash recovery and transaction rollback.

    ARIES-style analysis, redo and undo — analysis and redo in one forward
    scan of the log, undo in a backward one — specialized to the paper's
    needs:

    - {b Atomic actions take no special measures} (paper innovation 4): an
      atomic action whose Commit record is durable is a winner; one that is
      not is a loser and is rolled back whole, restoring the tree to the
      well-formed state between atomic actions. No structure-change-specific
      logic exists here at all.
    - Undo is page-oriented: every undo step re-applies the inverse page
      operation to the original page and is logged as a CLR whose
      [undo_next] backchains past it, so repeated crashes during recovery
      never undo twice.

    {!rollback} is the same walk used by live transaction abort. *)

type report = {
  analyzed : int;      (** records scanned by analysis *)
  redone : int;        (** page operations re-applied *)
  skipped : int;       (** redo skipped because the page was already current *)
  loser_txns : int list;  (** transactions rolled back *)
  clrs_written : int;
  torn_pages : int;
      (** pages whose durable image failed checksum verification (torn
          write or bit rot) and were rebuilt purely from redo history *)
  retried_reads : int;
      (** disk reads the buffer pool re-issued during this restart to
          absorb transient errors *)
  max_commit_ts : int;
      (** largest [Commit_ts] timestamp seen during analysis (0 if none);
          seeds the rebuilt {!Pitree_txn.Snapshot} allocator *)
}

val pp_report : Format.formatter -> report -> unit

val run : log:Log_manager.t -> pool:Pitree_storage.Buffer_pool.t -> report
(** Bring the database to a consistent state after [Log_manager.crash] /
    [Buffer_pool.crash]. On return, all effects of winners are in the
    buffer pool and all losers are fully undone (with CLRs and End records
    in the log, which is flushed). *)

val rollback :
  ?prev:Lsn.t ->
  log:Log_manager.t ->
  pool:Pitree_storage.Buffer_pool.t ->
  txn:int ->
  from_lsn:Lsn.t ->
  unit ->
  Lsn.t
(** [rollback ~log ~pool ~txn ~from_lsn ()] undoes [txn]'s updates starting
    at its most recent record [from_lsn], writing CLRs backchained from
    [?prev] (default [from_lsn], normally the Abort record's LSN). Returns
    the LSN of the last CLR written ([Lsn.null] if none). The caller is
    responsible for the surrounding Abort/End records. Pages touched are
    pinned, X-latched and unlatched internally. *)
