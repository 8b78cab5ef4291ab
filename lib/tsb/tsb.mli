(** The TSB-tree (Time-Split B-tree) instance of the Pi-tree
    (paper section 2.2.2, Figure 1; Lomet & Salzberg, SIGMOD '89).

    A multiversion index: every write creates a new {e version} stamped with
    a monotonically increasing tree time; reads can ask for the current
    value or the value {e as of} any past time.

    Structure, exactly as in Figure 1:
    - {b current nodes} form a B-link tree over (key, time) composites and
      are responsible for their key range at {e all} times — recent versions
      directly, older ones through their {b history sibling pointer};
    - a {b time split} moves the node's full contents into a fresh history
      node (prepended to the history chain) and retains only the newest
      version of each key; history nodes are immutable and never split
      again;
    - a {b key split} is the ordinary B-link split (always on a key
      boundary, so one key's versions never straddle current nodes); the
      new current node receives {e copies of the old history pointer and
      the old key pointer}, making it responsible for the entire history of
      its key space.

    Concurrency and recovery follow the same Pi-tree protocol as the B-link
    engine: splits are independent atomic actions; index-term posting for
    key splits is a separate, lazily-completable atomic action; time splits
    change no parent, so they complete in one action. The engine runs under
    the CNS invariant — traversals never meet a consolidation — which the
    quiesced {!gc} maintenance pass preserves by draining expired history
    and merging emptied leaves only while writers are stopped. *)

type t

val create : Pitree_env.Env.t -> name:string -> t
val open_existing : Pitree_env.Env.t -> name:string -> t option
val env : t -> Pitree_env.Env.t

val tree_id : t -> int
(** Root page id — the identifier {!Pitree_txn.Mvcc} keys this tree's
    version-store vtable and buffered SI writes by. *)

(** {2 Writes} — each returns the version's timestamp. *)

val put : ?txn:Pitree_txn.Txn.t -> t -> key:string -> value:string -> int
(** Without [?txn] and with [Env.config.combine] on, the put routes
    through the hot-key combining funnel: concurrent writers hashing to
    the same slot share one transaction and one WAL flush enrollment,
    and each gets back the timestamp the leader's batch assigned to it.
    A batch that cannot complete (lock cycle, split pressure) hands the
    request back to the ordinary one-put-one-txn path. *)

val remove : ?txn:Pitree_txn.Txn.t -> t -> string -> int
(** Writes a deletion tombstone (the key's history remains queryable). *)

val now : t -> int
(** The latest timestamp issued. *)

(** {2 Reads} *)

val get : ?txn:Pitree_txn.Txn.t -> t -> string -> string option
(** Current value ([None] if never written or tombstoned). Reads take no
    locks; [txn] only says the read runs inside that transaction, which
    then runs queued completions at its commit or abort instead of this
    read at its exit. *)

val get_asof :
  ?txn:Pitree_txn.Txn.t -> t -> string -> time:int -> string option
(** The value visible at [time] (inclusive); [txn] as in {!get}. *)

val history : t -> string -> (int * string option) list
(** All versions of a key, oldest first; [None] marks a tombstone.
    Versions in history slices drained by {!gc} are gone. *)

val range_asof :
  t -> time:int -> ?low:string -> ?high:string -> init:'a ->
  f:('a -> string -> string -> 'a) -> 'a
(** Snapshot scan: fold over the keys with a live value as of [time]. *)

(** {2 Garbage collection}

    The TSB-tree retains every version forever by default. A GC horizon
    bounds that: [set_horizon t h] declares that no future read will ask
    for a time at or below [h], and {!gc} reclaims what such reads can no
    longer reach — fully-expired history-chain tails are cut and their
    nodes freed onto the environment free list; version runs ending in a
    sufficiently old tombstone are purged from drained current leaves;
    leaves left empty with no history are merged into their containing
    (left) sibling and freed, the inverse of a key split. Every step is
    its own atomic action, so a crash anywhere leaves a searchable,
    recoverable tree (crash points [tsb.drain.cut], [tsb.drain.freed],
    [tsb.merge.unlinked], [tsb.merge.freed]).

    [gc] is a maintenance pass: callers must quiesce writers on this tree
    while it runs (concurrent readers are safe). *)

val set_horizon : t -> int -> unit
(** Raise the GC horizon (monotone; lowering is ignored). *)

val horizon : t -> int

val gc : t -> int
(** Drain, purge and merge per the module contract above; returns the
    number of pages freed. *)

(** {2 Inspection} *)

val verify : t -> Pitree_core.Wellformed.report
(** Well-formedness of the current-node B-link structure over the composite
    key space, plus history-chain sanity (time slices ordered and
    contiguous). Chain defects are reported as condition-2 errors. *)

type stats = {
  puts : int;
  time_splits : int;
  key_splits : int;
  root_splits : int;
  history_nodes : int;  (** created since open *)
  side_traversals : int;
  postings_completed : int;
  history_nodes_freed : int;  (** chain-tail nodes freed by {!gc} *)
  tombstones_purged : int;  (** entries dropped from drained leaves by {!gc} *)
  merges : int;  (** empty leaves merged away (and freed) by {!gc} *)
}

val stats : t -> stats
