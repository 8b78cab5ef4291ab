module Lsn = Pitree_wal.Lsn
module Log_manager = Pitree_wal.Log_manager
module Log_record = Pitree_wal.Log_record
module Page_op = Pitree_wal.Page_op
module Recovery = Pitree_wal.Recovery
module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Lock_manager = Pitree_lock.Lock_manager

(* Concurrency discipline for fuzzy checkpoints: every transaction
   lifecycle append (Update, Commit_ts, Commit, Abort, End) and the
   matching [first_lsn]/[last_lsn]/live-table/state update happen inside
   one [t.mu] critical section, and [begin_checkpoint] appends its
   Begin_checkpoint fence and snapshots the active-transaction table in
   one such section too. Mutex order therefore matches LSN order for these
   records, so the snapshot is exactly the transaction state as of the
   fence's LSN. No Begin record is logged: a transaction starts at its
   first record, so one that has logged nothing has nothing to undo and is
   left out of the snapshot. A commit appends one Commit (no End follows)
   and leaves the live table in the same section, so the snapshot never
   lists a committed transaction. CLRs written during a live abort are the
   one exception (they are appended by the rollback walk, outside [t.mu],
   without touching [last_lsn]); [begin_checkpoint] simply waits until no
   abort is in flight ([undoing] = 0), which keeps the snapshot exact
   without threading an append hook through every logical-undo handler. *)

type t = {
  log : Log_manager.t;
  pool : Buffer_pool.t;
  locks : Lock_manager.t;
  mu : Mutex.t;
  undo_done : Condition.t;  (* signalled when [undoing] drops to zero *)
  mutable next_id : int;
  live : (int, Txn.t) Hashtbl.t;
  mutable undoing : int;  (* live aborts currently writing CLRs *)
  mutable on_user_commit : (unit -> unit) option;
  mutable on_user_abort : (unit -> unit) option;
  snap : Snapshot.t;  (* commit-timestamp allocator (si_txns) *)
}

let create ?(first_id = 1) ?(ts_floor = 0) ~log ~pool ~locks () =
  {
    log;
    pool;
    locks;
    mu = Mutex.create ();
    undo_done = Condition.create ();
    next_id = first_id;
    live = Hashtbl.create 64;
    undoing = 0;
    on_user_commit = None;
    on_user_abort = None;
    snap = Snapshot.create ~floor:ts_floor ();
  }

let log t = t.log
let pool t = t.pool
let locks t = t.locks
let snapshots t = t.snap
let wal_stats t = Log_manager.stats t.log

let set_on_user_commit t f = t.on_user_commit <- Some f
let set_on_user_abort t f = t.on_user_abort <- Some f

let after_user_commit t =
  match t.on_user_commit with Some f -> f () | None -> ()

let begin_txn t kind =
  Mutex.lock t.mu;
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn =
    {
      Txn.id;
      kind;
      first_lsn = Lsn.null;
      last_lsn = Lsn.null;
      state = Txn.Active;
      updated_nodes = [];
      on_commit = [];
      tracked_ts = [];
      si = None;
    }
  in
  Hashtbl.replace t.live id txn;
  Mutex.unlock t.mu;
  txn

(* Append [body] as [txn]'s next record. The caller holds [t.mu]. *)
let append_locked t txn body =
  let lsn = Log_manager.append t.log ~prev:txn.Txn.last_lsn ~txn:txn.Txn.id body in
  if Lsn.is_null txn.Txn.first_lsn then txn.Txn.first_lsn <- lsn;
  txn.Txn.last_lsn <- lsn;
  lsn

let append t txn body =
  Mutex.lock t.mu;
  let lsn = append_locked t txn body in
  Mutex.unlock t.mu;
  lsn

let update ?lundo t txn fr op =
  assert (Txn.is_active txn);
  let pid = Page.id fr.Buffer_pool.page in
  (* Dirty first: the clean→dirty transition must capture the page's
     pre-update state — both rec_lsn and (when full-page writes are wired)
     the logged page image, which must precede in the log every record it
     covers. Then apply before logging the update record: a failing
     operation (e.g. Page_full from an engine bug) must leave the update
     unlogged, or rollback would try to undo an op that never happened
     (the page ends merely marked dirty-but-unchanged, which is harmless).
     This does not violate WAL: the caller holds the page pinned and
     X-latched, so the page cannot reach disk between the in-buffer change
     and the append below. *)
  Buffer_pool.mark_dirty fr;
  Page_op.redo fr.Buffer_pool.page op;
  Mutex.lock t.mu;
  let lsn = append_locked t txn (Log_record.Update { page = pid; op; lundo }) in
  Mutex.unlock t.mu;
  Page.set_lsn fr.Buffer_pool.page lsn;
  lsn

let move t txn parts =
  match List.filter (fun (_, op) -> not (Page_op.is_noop op)) parts with
  | [] -> Lsn.null
  | [ (fr, op) ] -> update t txn fr op
  | parts ->
      assert (Txn.is_active txn);
      (* As in [update]: dirty every page first, then apply; a part that
         raises undoes the parts applied before it, so nothing unlogged
         stays behind. *)
      List.iter (fun (fr, _) -> Buffer_pool.mark_dirty fr) parts;
      let rec apply done_ = function
        | [] -> ()
        | ((fr, op) as part) :: rest -> (
            match Page_op.redo fr.Buffer_pool.page op with
            | () -> apply (part :: done_) rest
            | exception e ->
                List.iter
                  (fun (fr, op) -> Page_op.redo fr.Buffer_pool.page (Page_op.invert op))
                  done_;
                raise e)
      in
      apply [] parts;
      let body =
        Log_record.Move
          {
            parts =
              List.map
                (fun (fr, op) -> { Log_record.page = Page.id fr.Buffer_pool.page; op })
                parts;
          }
      in
      Mutex.lock t.mu;
      let lsn = append_locked t txn body in
      Mutex.unlock t.mu;
      List.iter (fun (fr, _) -> Page.set_lsn fr.Buffer_pool.page lsn) parts;
      lsn

let commit ?(commits = 1) ?(hook = true) t txn =
  assert (Txn.is_active txn);
  Mutex.lock t.mu;
  let commit_lsn = append_locked t txn Log_record.Commit in
  (* Committed the moment the record exists, and out of the live table in
     the same section, so no checkpoint snapshot lists a committed
     transaction. Env forces the whole log tail before it truncates, so
     this Commit is durable before the transaction's records can go. *)
  txn.Txn.state <- Txn.Committed;
  Hashtbl.remove t.live txn.Txn.id;
  Mutex.unlock t.mu;
  (* Relative durability (section 4.3.1): an atomic action's commit record
     is NOT forced; it becomes durable with the next user-transaction commit
     that shares the log. A user commit is forced even when the
     transaction wrote nothing: its Commit then has a null [prev], and the
     force still carries earlier atomic actions to disk. *)
  (match txn.Txn.kind with
  | Txn.User -> Log_manager.flush ~commits t.log commit_lsn
  | Txn.System -> ());
  Lock_manager.release_all t.locks ~owner:txn.Txn.id;
  (* The transaction's version timestamps become part of the retired
     prefix only now, after the commit record exists (and, for User
     transactions, is durable): a snapshot pinned at the watermark can
     never observe an uncommitted version. *)
  Snapshot.retire_all t.snap txn.Txn.tracked_ts;
  txn.Txn.tracked_ts <- [];
  (* Deferred work that was contingent on commit (e.g. scheduling the
     posting of an index term for an in-transaction leaf split). *)
  List.iter (fun f -> f ()) (List.rev txn.Txn.on_commit);
  txn.Txn.on_commit <- [];
  if hook && txn.Txn.kind = Txn.User then after_user_commit t

let abort t txn =
  assert (Txn.is_active txn);
  let from_lsn = txn.Txn.last_lsn in
  Mutex.lock t.mu;
  t.undoing <- t.undoing + 1;
  let abort_lsn = append_locked t txn Log_record.Abort in
  Mutex.unlock t.mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.mu;
      t.undoing <- t.undoing - 1;
      if t.undoing = 0 then Condition.broadcast t.undo_done;
      Mutex.unlock t.mu)
    (fun () ->
      let last_clr =
        Recovery.rollback ~prev:abort_lsn ~log:t.log ~pool:t.pool ~txn:txn.Txn.id
          ~from_lsn ()
      in
      Mutex.lock t.mu;
      if not (Lsn.is_null last_clr) then txn.Txn.last_lsn <- last_clr;
      ignore (append_locked t txn Log_record.End);
      txn.Txn.state <- Txn.Aborted;
      Hashtbl.remove t.live txn.Txn.id;
      Mutex.unlock t.mu);
  Lock_manager.release_all t.locks ~owner:txn.Txn.id;
  (* Retire only after the undo walk removed the versions: the watermark
     must never cover a timestamp whose (now aborted) version is still in
     the tree. *)
  Snapshot.retire_all t.snap txn.Txn.tracked_ts;
  txn.Txn.tracked_ts <- [];
  match (txn.Txn.kind, t.on_user_abort) with
  | Txn.User, Some f -> f ()
  | _ -> ()

let begin_checkpoint t =
  Mutex.lock t.mu;
  (* A live abort writes CLRs outside [t.mu] without advancing [last_lsn];
     snapshotting mid-abort would seed recovery with a stale entry and
     double-undo. Aborts are rare and bounded; wait them out. Aborts that
     begin after the fence below are fine — all their records carry LSNs
     above it, so analysis sees them. *)
  while t.undoing > 0 do
    Condition.wait t.undo_done t.mu
  done;
  let lsn =
    Log_manager.append t.log ~prev:Lsn.null ~txn:0 Log_record.Begin_checkpoint
  in
  let att =
    Hashtbl.fold
      (fun id txn acc ->
        if Lsn.is_null txn.Txn.first_lsn then acc else (id, txn.Txn.last_lsn) :: acc)
      t.live []
  in
  Mutex.unlock t.mu;
  (lsn, att)

let active t =
  Mutex.lock t.mu;
  let l =
    Hashtbl.fold (fun id txn acc -> (id, txn.Txn.last_lsn) :: acc) t.live []
  in
  Mutex.unlock t.mu;
  l

let oldest_first_lsn t =
  Mutex.lock t.mu;
  let v =
    Hashtbl.fold
      (fun _ txn acc ->
        if Lsn.is_null txn.Txn.first_lsn then acc else min acc txn.Txn.first_lsn)
      t.live max_int
  in
  Mutex.unlock t.mu;
  if v = max_int then None else Some v

let active_count t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.live in
  Mutex.unlock t.mu;
  n

let crash t =
  Mutex.lock t.mu;
  Hashtbl.reset t.live;
  t.undoing <- 0;
  Condition.broadcast t.undo_done;
  Mutex.unlock t.mu
