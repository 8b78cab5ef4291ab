(* Snapshot-isolation transactions over the version store.

   A transaction opened with [begin_snapshot] pins the allocator watermark
   as its read timestamp; every Engine.S read inside it is an as-of read at
   that time (no lock-manager calls, no latch waits on the OLC path).
   Writes are buffered in the transaction — the version store holds nothing
   uncommitted from an SI transaction — and installed at commit, all
   stamped with ONE freshly allocated commit timestamp, after a
   first-committer-wins check: if any written key has a version newer than
   the snapshot, the transaction aborts with [Write_conflict].

   The single-timestamp-per-transaction rule is what makes the watermark a
   consistent cut: a snapshot can never see half of a transaction's write
   set, because the whole set shares one timestamp and that timestamp is
   retired (making it visible below the watermark) only after the commit
   record is logged.

   Commit order per SI writer:
     FCW validate -> allocate ts -> install versions -> Commit_ts record ->
     Commit record (Txn_mgr.commit) -> retire ts.
   The whole sequence runs under a per-allocator commit section, so
   first-committer-wins is decided against a stable set of committed
   versions. Readers are unaffected — they never take the section. The
   user-commit hook (queued completions, the checkpoint trigger) runs
   after the section is left.

   This layer deliberately knows nothing about any particular engine: trees
   register an [ops] vtable (from Tsb.attach) keyed by root page id. *)

module Log_record = Pitree_wal.Log_record
module Crash_point = Pitree_util.Crash_point
module Sched_hook = Pitree_util.Sched_hook

let () =
  List.iter Crash_point.register
    [ "mvcc.commit.validated"; "mvcc.commit.allocated"; "mvcc.commit.logged" ]

exception Write_conflict of { txn : int; key : string }
exception Stale_snapshot

type ops = {
  newest : string -> int option;
      (* newest version timestamp of [key] (tombstones count), any time *)
  apply : Txn.t -> time:int -> key:string -> value:string option -> unit;
      (* install a committed version ([None] = tombstone) at [time] *)
}

(* Per-tree vtables, registered by the engines at attach time. Keyed by
   root page id — the same id Engine.S writes carry. *)
let registry : (int, ops) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()

let register_tree tree ops =
  Mutex.lock registry_mu;
  Hashtbl.replace registry tree ops;
  Mutex.unlock registry_mu

let ops_for tree =
  Mutex.lock registry_mu;
  let o = Hashtbl.find_opt registry tree in
  Mutex.unlock registry_mu;
  match o with
  | Some o -> o
  | None ->
      failwith
        (Printf.sprintf
           "Mvcc: tree %d has no registered version-store ops (SI writes \
            need a TSB tree)"
           tree)

(* --- injected bugs (CI oracle validation) ------------------------------ *)

module Testing = struct
  type bug = No_bug | Stale_snapshot_read | Lost_first_committer

  let armed = Atomic.make No_bug
  let arm b = Atomic.set armed b
  let current () = Atomic.get armed

  let of_name = function
    | "stale-snapshot-read" -> Some Stale_snapshot_read
    | "lost-first-committer" -> Some Lost_first_committer
    | _ -> None
end

(* --- stats ------------------------------------------------------------- *)

type stats = {
  begun : int;  (* snapshots opened *)
  committed : int;  (* SI commits (incl. read-only) *)
  conflicts : int;  (* first-committer-wins aborts *)
  aborted : int;  (* all SI aborts (conflicts included) *)
  si_reads : int;  (* reads served from a snapshot *)
  stale_aborts : int;  (* snapshots that straddled a crash *)
}

let c_begun = Atomic.make 0
let c_committed = Atomic.make 0
let c_conflicts = Atomic.make 0
let c_aborted = Atomic.make 0
let c_si_reads = Atomic.make 0
let c_stale = Atomic.make 0

let stats () =
  {
    begun = Atomic.get c_begun;
    committed = Atomic.get c_committed;
    conflicts = Atomic.get c_conflicts;
    aborted = Atomic.get c_aborted;
    si_reads = Atomic.get c_si_reads;
    stale_aborts = Atomic.get c_stale;
  }

let sub_stats a b =
  {
    begun = a.begun - b.begun;
    committed = a.committed - b.committed;
    conflicts = a.conflicts - b.conflicts;
    aborted = a.aborted - b.aborted;
    si_reads = a.si_reads - b.si_reads;
    stale_aborts = a.stale_aborts - b.stale_aborts;
  }

let pp_stats ppf s =
  Fmt.pf ppf "begun=%d committed=%d conflicts=%d aborted=%d si_reads=%d stale=%d"
    s.begun s.committed s.conflicts s.aborted s.si_reads s.stale_aborts

(* --- snapshot lifecycle ------------------------------------------------ *)

let begin_snapshot mgr =
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  let snap = Txn_mgr.snapshots mgr in
  let read_ts = Snapshot.begin_snapshot snap in
  txn.Txn.si <-
    Some
      {
        Txn.read_ts;
        snap;
        writes = Hashtbl.create 8;
        si_reads = 0;
        released = false;
      };
  Atomic.incr c_begun;
  txn

let si_of txn = txn.Txn.si

let release si =
  if not si.Txn.released then begin
    si.Txn.released <- true;
    Snapshot.release_snapshot si.Txn.snap si.Txn.read_ts
  end

(* A snapshot that survived a crash+recover holds a pin on the discarded
   allocator: detect by physical identity against the manager's current
   one and abort the transaction cleanly. *)
let check_current mgr si =
  if not (si.Txn.snap == Txn_mgr.snapshots mgr) then begin
    release si;
    Atomic.incr c_stale;
    Atomic.incr c_aborted;
    raise Stale_snapshot
  end

(* Read timestamp the engines must use. The injected stale-snapshot-read
   bug makes readers observe the newest committed state instead of their
   snapshot — exactly the violation the sim's SI oracle must catch. *)
let read_time si =
  match Testing.current () with
  | Testing.Stale_snapshot_read -> max_int
  | _ -> si.Txn.read_ts

let note_read si =
  si.Txn.si_reads <- si.Txn.si_reads + 1;
  Atomic.incr c_si_reads

let buffered si ~tree ~key = Hashtbl.find_opt si.Txn.writes (tree, key)

let buffer_write si ~tree ~key value =
  Hashtbl.replace si.Txn.writes (tree, key) value

let writes_for si ~tree =
  Hashtbl.fold
    (fun (tr, key) v acc -> if tr = tree then (key, v) :: acc else acc)
    si.Txn.writes []

(* --- commit ------------------------------------------------------------ *)

(* Serialize SI committers against each other (per allocator) so the FCW
   check and the version installs form one atomic step. Sim-aware: under
   the cooperative scheduler a bare [Mutex.lock] would wedge the single
   scheduler thread, so fibers spin through [Sched_hook.wait] instead
   (same idiom as the lock manager's sim path). *)
let commit_section snap f =
  let mu = Snapshot.commit_mu snap and busy = Snapshot.commit_busy snap in
  (if Sched_hook.active () then begin
     let rec acquire () =
       if not (Mutex.try_lock mu) then begin
         Sched_hook.wait Sched_hook.Cond "mvcc.commit" (fun () ->
             not (Atomic.get busy));
         acquire ()
       end
     in
     acquire ()
   end
   else Mutex.lock mu);
  Atomic.set busy true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set busy false;
      Mutex.unlock mu)
    f

let abort mgr txn =
  (match txn.Txn.si with
  | Some si ->
      release si;
      Atomic.incr c_aborted
  | None -> ());
  if Txn.is_active txn then Txn_mgr.abort mgr txn

let commit mgr txn =
  match txn.Txn.si with
  | None ->
      Txn_mgr.commit mgr txn;
      None
  | Some si -> (
      check_current mgr si;
      let writes =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) si.Txn.writes []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      if writes = [] then begin
        (* Read-only: nothing to validate, no commit timestamp needed. *)
        Txn_mgr.commit mgr txn;
        release si;
        Atomic.incr c_committed;
        None
      end
      else
        let snap = si.Txn.snap in
        match
          commit_section snap (fun () ->
              (* First committer wins: any committed version of a written
                 key newer than the snapshot means someone else got there
                 first. (Conservative: an uncommitted autocommit writer's
                 version also trips this — a spurious but safe abort.) *)
              if Testing.current () <> Testing.Lost_first_committer then
                List.iter
                  (fun ((tree, key), _) ->
                    match (ops_for tree).newest key with
                    | Some ts when ts > si.Txn.read_ts ->
                        raise (Write_conflict { txn = txn.Txn.id; key })
                    | _ -> ())
                  writes;
              Crash_point.hit "mvcc.commit.validated";
              let ts = Snapshot.allocate snap in
              Txn.track_ts txn ts;
              (* Crash here: the timestamp is allocated but no Commit_ts
                 record exists — recovery must still move the allocator
                 past it via the recovered tree clocks. *)
              Crash_point.hit "mvcc.commit.allocated";
              List.iter
                (fun ((tree, key), value) ->
                  (ops_for tree).apply txn ~time:ts ~key ~value)
                writes;
              ignore (Txn_mgr.append mgr txn (Log_record.Commit_ts { ts }));
              Crash_point.hit "mvcc.commit.logged";
              (* The user-commit hook runs queued completions, which take
                 latches: run it after leaving the section. *)
              Txn_mgr.commit ~hook:false mgr txn;
              ts)
        with
        | ts ->
            release si;
            Atomic.incr c_committed;
            Txn_mgr.after_user_commit mgr;
            Some ts
        | exception (Crash_point.Crash_requested _ as e) ->
            (* Simulated power failure mid-commit: leave the transaction
               dangling for recovery to roll back. *)
            release si;
            raise e
        | exception e ->
            (match e with
            | Write_conflict _ -> Atomic.incr c_conflicts
            | _ -> ());
            Atomic.incr c_aborted;
            if Txn.is_active txn then Txn_mgr.abort mgr txn;
            release si;
            raise e)
