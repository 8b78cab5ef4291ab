type kind = User | System

type state = Active | Committed | Aborted

type si = {
  read_ts : int;
  snap : Snapshot.t;  (* allocator the snapshot is pinned against *)
  writes : (int * string, string option) Hashtbl.t;
      (* (tree, key) -> value or tombstone; last write wins *)
  mutable si_reads : int;
  mutable released : bool;  (* snapshot pin dropped *)
}

type t = {
  id : int;
  kind : kind;
  mutable first_lsn : Pitree_wal.Lsn.t;  (* first record; null until one *)
  mutable last_lsn : Pitree_wal.Lsn.t;
  mutable state : state;
  mutable updated_nodes : (int * int) list;
  mutable on_commit : (unit -> unit) list;
  mutable tracked_ts : int list;
  mutable si : si option;
}

let track_ts t ts = t.tracked_ts <- ts :: t.tracked_ts

let is_active t = t.state = Active

let add_on_commit t f = t.on_commit <- f :: t.on_commit

let pp ppf t =
  Fmt.pf ppf "txn#%d(%s,%s)" t.id
    (match t.kind with User -> "user" | System -> "sys")
    (match t.state with Active -> "active" | Committed -> "committed" | Aborted -> "aborted")
