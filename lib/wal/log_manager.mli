(** The log manager: an append-only record store with an explicit
    durability boundary.

    Records are stored encoded, as CRC-framed records back to back. Only
    the volatile tail ([flushed_lsn], last_lsn] is held in memory; a
    file-backed log keeps every durable record in its file alone, with one
    offset per retained record in memory, and reads it back from there
    ({!read} one frame at a time, {!iter_from} in large blocks). The
    in-memory log keeps the same frames in an in-memory byte store. The
    tail is lost by {!crash}, which models exactly what a power failure
    preserves.
    User-transaction commits force the log; atomic-action commits do not
    (relative durability, section 4.3.1) — the force counter feeds
    experiment E10.

    {2 Group commit}

    {!flush} is a group-commit pipeline rather than a
    mutex-across-fsync: a committer enrolls its LSN and blocks until the
    durability horizon covers it. The first enrolled committer with no
    flush in flight becomes the {e leader}: it snapshots every request
    accumulated so far, performs one sequential write and one [fsync] for
    the whole batch with the manager unlocked, publishes the new horizon
    and wakes every covered waiter. Committers arriving while the leader is
    in the write path accumulate for the next leader — N concurrent
    committers share O(1) fsyncs instead of serializing on one each.
    Crash semantics are unchanged: {!flush} returns only after the
    requested LSN is durable, so an acknowledged commit survives a crash at
    any instant, including the window between the batch write and the
    waiter wakeup (crash point ["wal.group.synced"], registered at module
    initialization).

    LSNs are 1-based and dense: record [n] is the [n]-th append. *)

type t

val create : ?path:string -> ?group_commit:bool -> unit -> t
(** In-memory by default. With [path], the durable prefix is backed by an
    append-only file: [flush] writes and fsyncs, restart ({!create} on the
    same path) reloads the prefix (discarding a torn tail), and the redo
    point persists in a [path ^ ".ckpt"] sidecar — so recovery works across
    process restarts, not just simulated crashes. [group_commit] (default
    true) selects the batched force pipeline; [false] reproduces the
    serial hold-the-mutex-across-fsync path, kept as the measured baseline
    for the group-commit benchmark. *)

val append : t -> prev:Lsn.t -> txn:int -> Log_record.body -> Lsn.t
(** Assigns the next LSN, encodes and stores the record. Short critical
    section; never does IO. *)

val append_frame : t -> prev:Lsn.t -> txn:int -> Log_record.body -> Lsn.t * int
(** {!append}, also returning the record's encoded frame length. *)

val flush : ?commits:int -> t -> Lsn.t -> unit
(** Make everything up to [lsn] durable (group commit, see above). No-op if
    already durable. Returns only once durability covers [lsn]. [commits]
    (default 1) is how many logical commits this single enrollment covers —
    a combined write batch commits once for N user puts — and only feeds
    the [logical_commits] counter. *)

val flush_all : t -> unit

val last_lsn : t -> Lsn.t
val flushed_lsn : t -> Lsn.t

val read : t -> Lsn.t -> Log_record.t
(** Raises [Invalid_argument] for an LSN that was never appended. *)

val iter_from : t -> Lsn.t -> (Log_record.t -> unit) -> unit
(** [iter_from t lsn f] applies [f] to records [lsn], [lsn+1], ... in order. *)

val iter_frames : t -> Lsn.t -> (string -> pos:int -> unit) -> unit
(** {!iter_from} without the decode: [f s ~pos] gets each frame where it
    sits in the scan block, to decode itself (its CRC already checked).
    [s] is valid only until [f] returns. *)

val redo_start : t -> Lsn.t
(** The redo floor: the lowest LSN recovery's redo pass may need
    (min rec_lsn over the last checkpoint's dirty-page table, or the first
    retained LSN when no checkpoint has completed). *)

val checkpoint_lsn : t -> Lsn.t
(** LSN of the last complete checkpoint's [End_checkpoint] record
    ([Lsn.null] if none) — where recovery's analysis pass finds its
    seed. This is the ARIES master record; for a file-backed log it is
    persisted (together with the redo floor) in the [path ^ ".ckpt"]
    sidecar. *)

val set_checkpoint : t -> lsn:Lsn.t -> redo:Lsn.t -> unit
(** Publish a completed checkpoint: [lsn] is its (already durable)
    [End_checkpoint] record, [redo] the new redo floor. Persists the
    master record before returning. *)

val truncate : t -> keep_from:Lsn.t -> int
(** Discard records with LSN below [keep_from] and reclaim their space,
    clamped so that nothing undurable or at/after the redo floor is lost,
    and so that the last durable record survives (a reopened log takes its
    LSN sequence from the first surviving frame, so it never restarts);
    the caller must also keep everything the oldest active transaction
    could still undo (see [Txn_mgr.oldest_first_lsn]). Returns the number
    of records discarded. Reading a truncated LSN raises
    [Invalid_argument]. A file-backed log physically rewrites its file
    (write surviving window to a temporary file, fsync, rename), so the
    file shrinks; a crash mid-rewrite leaves a complete old or new file. *)

val first_lsn : t -> Lsn.t
(** Lowest LSN still readable (1 until a truncation discards a prefix). *)

val file_bytes : t -> int option
(** Current size in bytes of the backing file's durable prefix ([None]
    for an in-memory log). Shrinks when {!truncate} reclaims space. *)

val max_txn_id : t -> int
(** Highest transaction id ever appended (tracked across truncation). *)

val crash : t -> t
(** A new manager holding only the durable prefix (the volatile tail is
    discarded), preserving the checkpoint master record if it is still
    durable. For a file-backed log this literally reopens the file. The
    old manager must not be used afterwards. *)

type stats = {
  appends : int;
  forces : int;
      (** real fsyncs only — an in-memory log or an empty batch advances
          durability without counting a force (the §4.3.1 counter must not
          be skewed by no-op flushes) *)
  flushes : int;  (** durability-advance events, including in-memory ones *)
  flush_requests : int;
      (** flush calls that found undurable records and had to wait *)
  logical_commits : int;
      (** logical commits covered by those requests ([flush ~commits]) —
          [logical_commits / flush_requests] is the write-combining fan-in
          stacked on top of group commit's [batch_mean] *)
  bytes : int;  (** encoded bytes ever appended *)
  resident_bytes : int;
      (** encoded bytes held in memory: the volatile tail, plus the durable
          frames when the log has no file *)
  batch_mean : float;  (** mean flush requests coalesced per flush event *)
  batch_p99 : int;
  batch_max : int;
  wait_mean_ns : float;  (** time a committer spent blocked in {!flush} *)
  wait_p50_ns : int;
  wait_p99_ns : int;
  truncations : int;  (** truncate calls that discarded at least one record *)
  truncated_records : int;
  truncated_bytes : int;  (** encoded bytes reclaimed by truncation *)
  kind_appends : (string * int) list;
      (** frames counted in [bytes], per record kind
          ({!Log_record.kinds}: update, move, clr, image, commit, other) *)
  kind_bytes : (string * int) list;
      (** their encoded bytes, per kind; they sum to [bytes] *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
