(* Unit tests for pitree.txn: transactions, atomic actions, relative
   durability (section 4.3.1), crash points. *)

module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Lsn = Pitree_wal.Lsn
module Log_manager = Pitree_wal.Log_manager
module Log_record = Pitree_wal.Log_record
module Page_op = Pitree_wal.Page_op
module Lock_manager = Pitree_lock.Lock_manager
module Lock_mode = Pitree_lock.Lock_mode
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Crash_point = Pitree_util.Crash_point

let setup () =
  let disk = Disk.in_memory ~page_size:256 in
  let log = Log_manager.create () in
  let pool =
    Buffer_pool.create ~capacity:32 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let locks = Lock_manager.create () in
  (log, pool, Txn_mgr.create ~log ~pool ~locks ())

let fresh_page mgr txn pool pid =
  let fr = Buffer_pool.pin_new pool pid in
  ignore (Txn_mgr.update mgr txn fr (Page_op.Format { kind = Page.Data; level = 0 }));
  fr

let test_commit_forces_user_log () =
  let log, pool, mgr = setup () in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  let fr = fresh_page mgr txn pool 5 in
  ignore (Txn_mgr.update mgr txn fr (Page_op.Insert_slot { slot = 0; cell = "x" }));
  Buffer_pool.unpin pool fr;
  Alcotest.(check int) "nothing durable before commit" 0 (Log_manager.flushed_lsn log);
  Txn_mgr.commit mgr txn;
  Alcotest.(check bool) "user commit forced the log" true
    (Log_manager.flushed_lsn log >= 3)

let test_system_commit_not_forced () =
  (* Relative durability: atomic-action commits do not force. *)
  let log, pool, mgr = setup () in
  let txn = Txn_mgr.begin_txn mgr Txn.System in
  let fr = fresh_page mgr txn pool 5 in
  Buffer_pool.unpin pool fr;
  Txn_mgr.commit mgr txn;
  Alcotest.(check int) "no force on system commit" 0 (Log_manager.flushed_lsn log);
  (* The next user commit makes it durable. *)
  let u = Txn_mgr.begin_txn mgr Txn.User in
  Txn_mgr.commit mgr u;
  Alcotest.(check bool) "carried to durability by user commit" true
    (Log_manager.flushed_lsn log >= Log_manager.last_lsn log - 1)

(* Every record appended after [from], as (prev, body) in LSN order. *)
let records_since log from =
  let l = ref [] in
  Log_manager.iter_from log (from + 1) (fun r ->
      l := (r.Log_record.prev, r.Log_record.body) :: !l);
  List.rev !l

let kind_of = function
  | Log_record.Begin _ -> "begin"
  | Log_record.Update _ -> "update"
  | Log_record.Commit -> "commit"
  | Log_record.End -> "end"
  | Log_record.Abort -> "abort"
  | _ -> "other"

(* No Begin or End brackets: a writing transaction starts at its first
   update, whose [prev] is null, and a commit appends exactly one Commit. *)
let test_commit_logs_updates_and_one_commit () =
  let log, pool, mgr = setup () in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Alcotest.(check int) "begin appends nothing" 0 (Log_manager.last_lsn log);
  Alcotest.(check bool) "no first record yet" true (Lsn.is_null txn.Txn.first_lsn);
  let fr = fresh_page mgr txn pool 5 in
  ignore (Txn_mgr.update mgr txn fr (Page_op.Insert_slot { slot = 0; cell = "x" }));
  Buffer_pool.unpin pool fr;
  Alcotest.(check int) "first record sets first_lsn" 1 txn.Txn.first_lsn;
  Txn_mgr.commit mgr txn;
  let recs = records_since log 0 in
  Alcotest.(check (list string)) "updates then one commit"
    [ "update"; "update"; "commit" ]
    (List.map (fun (_, b) -> kind_of b) recs);
  Alcotest.(check (list int)) "backchain starts at null" [ 0; 1; 2 ] (List.map fst recs);
  Alcotest.(check int) "commit forced" 3 (Log_manager.flushed_lsn log);
  Alcotest.(check int) "gone from the live table" 0 (Txn_mgr.active_count mgr)

(* A user transaction that wrote nothing still logs one Commit and forces
   it; an atomic action that logged nothing logs one unforced Commit. *)
let test_empty_commits () =
  let log, _pool, mgr = setup () in
  let a = Txn_mgr.begin_txn mgr Txn.System in
  Txn_mgr.commit mgr a;
  Alcotest.(check (list string)) "empty action: one commit" [ "commit" ]
    (List.map (fun (_, b) -> kind_of b) (records_since log 0));
  Alcotest.(check int) "empty action: not forced" 0 (Log_manager.flushed_lsn log);
  let u = Txn_mgr.begin_txn mgr Txn.User in
  Txn_mgr.commit mgr u;
  let recs = records_since log 1 in
  Alcotest.(check (list string)) "empty user commit: one commit" [ "commit" ]
    (List.map (fun (_, b) -> kind_of b) recs);
  Alcotest.(check (list int)) "its prev is null" [ 0 ] (List.map fst recs);
  Alcotest.(check int) "empty user commit: forced" 2 (Log_manager.flushed_lsn log)

let test_abort_undoes () =
  let _log, pool, mgr = setup () in
  (* Committed base state. *)
  let t0 = Txn_mgr.begin_txn mgr Txn.User in
  let fr = fresh_page mgr t0 pool 5 in
  ignore (Txn_mgr.update mgr t0 fr (Page_op.Insert_slot { slot = 0; cell = "base" }));
  Txn_mgr.commit mgr t0;
  (* Aborted txn mutates then rolls back. *)
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  ignore (Txn_mgr.update mgr t1 fr (Page_op.Insert_slot { slot = 1; cell = "doomed" }));
  ignore
    (Txn_mgr.update mgr t1 fr
       (Page_op.Replace_slot { slot = 0; old_cell = "base"; new_cell = "overwr" }));
  Txn_mgr.abort mgr t1;
  Alcotest.(check int) "one cell" 1 (Page.slot_count fr.Buffer_pool.page);
  Alcotest.(check string) "restored" "base" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool fr

let test_abort_releases_locks () =
  let _log, pool, mgr = setup () in
  ignore pool;
  let locks = Txn_mgr.locks mgr in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  Lock_manager.acquire locks ~owner:t1.Txn.id
    (Lock_manager.Record { tree = 1; key = "k" })
    Lock_mode.X;
  Txn_mgr.abort mgr t1;
  Alcotest.(check bool) "lock released by abort" true
    (Lock_manager.try_acquire locks ~owner:999
       (Lock_manager.Record { tree = 1; key = "k" })
       Lock_mode.X)

let test_atomic_action_commits () =
  let _log, pool, mgr = setup () in
  let v =
    Atomic_action.run mgr (fun txn ->
        let fr = fresh_page mgr txn pool 7 in
        ignore (Txn_mgr.update mgr txn fr (Page_op.Insert_slot { slot = 0; cell = "aa" }));
        Buffer_pool.unpin pool fr;
        42)
  in
  Alcotest.(check int) "returns value" 42 v;
  let fr = Buffer_pool.pin pool 7 in
  Alcotest.(check string) "effect persisted" "aa" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool fr

let test_atomic_action_aborts_on_exn () =
  let _log, pool, mgr = setup () in
  (* Page must exist beforehand so we can observe the rollback. *)
  let t0 = Txn_mgr.begin_txn mgr Txn.User in
  let fr = fresh_page mgr t0 pool 7 in
  Txn_mgr.commit mgr t0;
  (match
     Atomic_action.run mgr (fun txn ->
         ignore (Txn_mgr.update mgr txn fr (Page_op.Insert_slot { slot = 0; cell = "zz" }));
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected exception");
  Alcotest.(check int) "rolled back" 0 (Page.slot_count fr.Buffer_pool.page);
  Alcotest.(check int) "no live txns" 0 (Txn_mgr.active_count mgr);
  Buffer_pool.unpin pool fr

let test_on_commit_callbacks () =
  let _log, _pool, mgr = setup () in
  let fired = ref [] in
  let t = Txn_mgr.begin_txn mgr Txn.User in
  Txn.add_on_commit t (fun () -> fired := 1 :: !fired);
  Txn.add_on_commit t (fun () -> fired := 2 :: !fired);
  Alcotest.(check (list int)) "not before commit" [] !fired;
  Txn_mgr.commit mgr t;
  Alcotest.(check (list int)) "in order after commit" [ 2; 1 ] !fired;
  (* Aborted transactions never fire them. *)
  let t2 = Txn_mgr.begin_txn mgr Txn.User in
  Txn.add_on_commit t2 (fun () -> fired := 3 :: !fired);
  Txn_mgr.abort mgr t2;
  Alcotest.(check (list int)) "abort drops callbacks" [ 2; 1 ] !fired

let test_active_tracking () =
  let _log, _pool, mgr = setup () in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  let t2 = Txn_mgr.begin_txn mgr Txn.System in
  Alcotest.(check int) "two active" 2 (Txn_mgr.active_count mgr);
  Alcotest.(check bool) "listed with lsns" true
    (List.length (Txn_mgr.active mgr) = 2);
  Txn_mgr.commit mgr t1;
  Txn_mgr.abort mgr t2;
  Alcotest.(check int) "none active" 0 (Txn_mgr.active_count mgr)

let test_crash_points () =
  Crash_point.disarm_all ();
  Crash_point.reset_counts ();
  Crash_point.hit "p";
  Alcotest.(check int) "counted" 1 (Crash_point.hit_count "p");
  Crash_point.arm "p" ~after:2;
  Crash_point.hit "p";
  Crash_point.hit "p";
  Alcotest.(check bool) "fires on third" true
    (match Crash_point.hit "p" with
    | exception Crash_point.Crash_requested "p" -> true
    | _ -> false);
  (* One-shot: disarmed after firing. *)
  Crash_point.hit "p";
  Crash_point.disarm_all ()

let suites =
  [
    ( "txn.durability",
      [
        Alcotest.test_case "user commit forces" `Quick test_commit_forces_user_log;
        Alcotest.test_case "system commit relative" `Quick test_system_commit_not_forced;
        Alcotest.test_case "commit logs updates and one commit" `Quick
          test_commit_logs_updates_and_one_commit;
        Alcotest.test_case "empty commits" `Quick test_empty_commits;
      ] );
    ( "txn.lifecycle",
      [
        Alcotest.test_case "abort undoes" `Quick test_abort_undoes;
        Alcotest.test_case "abort releases locks" `Quick test_abort_releases_locks;
        Alcotest.test_case "atomic action commits" `Quick test_atomic_action_commits;
        Alcotest.test_case "atomic action aborts on exn" `Quick
          test_atomic_action_aborts_on_exn;
        Alcotest.test_case "on-commit callbacks" `Quick test_on_commit_callbacks;
        Alcotest.test_case "active tracking" `Quick test_active_tracking;
        Alcotest.test_case "crash points" `Quick test_crash_points;
      ] );
  ]
