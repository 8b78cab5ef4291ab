(* Group commit: a multi-domain user-commit storm against a file-backed
   WAL. Checks the two contractual properties of the pipeline:

   (a) durability of acknowledgment — every commit that RETURNED before the
       power failure survives recovery (no flush_all before the crash: the
       group-commit path itself must have made the records durable);
   (b) batching — under >= 4 concurrent committers the number of real
       fsyncs is strictly less than the number of committed transactions.

   Plus the classic lost-acknowledgment window: a crash injected between
   the batch fsync and the waiter wakeup ("wal.group.synced") must leave
   the committed-but-unacknowledged transaction durable. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Log_manager = Pitree_wal.Log_manager
module Crash_point = Pitree_util.Crash_point
module Wellformed = Pitree_core.Wellformed

let cfg =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation = true;
  }

let with_file_log f =
  let path = Filename.temp_file "pitree_gc" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ())
    (fun () -> f path)

let commit_one mgr t k =
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Blink.insert ~txn t ~key:k ~value:"v";
  Txn_mgr.commit mgr txn

let test_commit_storm_durability () =
  with_file_log (fun log_path ->
      let env = Env.create { cfg with Env.log_path = Some log_path } in
      let t = Blink.create env ~name:"t" in
      let mgr = Env.txns env in
      let domains = 4 and per = 150 in
      let key d i = Printf.sprintf "d%dk%04d" d i in
      let handles =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  commit_one mgr t (key d i)
                done))
      in
      List.iter Domain.join handles;
      let committed = domains * per in
      let s = Log_manager.stats (Env.log env) in
      Alcotest.(check bool)
        (Printf.sprintf "batching observed: %d forces < %d commits"
           s.Log_manager.forces committed)
        true
        (s.Log_manager.forces < committed);
      Alcotest.(check bool) "forces happened at all" true (s.Log_manager.forces > 0);
      Alcotest.(check bool) "a multi-request batch formed" true
        (s.Log_manager.batch_max > 1);
      (* Power failure with NO preceding flush_all: acknowledged commits
         must already be durable by the group-commit contract. *)
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      for d = 0 to domains - 1 do
        for i = 0 to per - 1 do
          match Blink.find t (key d i) with
          | Some "v" -> ()
          | Some other ->
              Alcotest.failf "committed %s has wrong value %s" (key d i) other
          | None -> Alcotest.failf "committed %s lost after crash" (key d i)
        done
      done;
      Alcotest.(check bool) "well-formed after recovery" true
        (Wellformed.ok (Blink.verify t)))

let test_crash_between_sync_and_wakeup () =
  with_file_log (fun log_path ->
      Crash_point.disarm_all ();
      let env = Env.create { cfg with Env.log_path = Some log_path } in
      let t = Blink.create env ~name:"t" in
      let mgr = Env.txns env in
      commit_one mgr t "acked0";
      commit_one mgr t "acked1";
      commit_one mgr t "acked2";
      Crash_point.arm "wal.group.synced" ~after:0;
      let fired =
        match commit_one mgr t "window" with
        | () -> false
        | exception Crash_point.Crash_requested _ -> true
      in
      Crash_point.disarm_all ();
      Alcotest.(check bool) "crash fired in the wakeup window" true fired;
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      (* The batch reached disk before the crash, so even the transaction
         whose committer was never woken is a winner: lost acknowledgment,
         never lost work. *)
      List.iter
        (fun k ->
          Alcotest.(check (option string)) k (Some "v") (Blink.find t k))
        [ "acked0"; "acked1"; "acked2"; "window" ];
      Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t)))

let test_waiters_all_released () =
  (* Concurrent committers on an in-memory log: nobody must wedge on the
     condition variable, and durability must cover every commit. *)
  let env = Env.create cfg in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let log = Env.log env in
  let requests_before = (Log_manager.stats log).Log_manager.flush_requests in
  let handles =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 99 do
              commit_one mgr t (Printf.sprintf "m%dk%03d" d i)
            done))
  in
  List.iter Domain.join handles;
  (* Every commit's flush returned and a Commit is its transaction's last
     record, so at most a few records appended after the chronologically
     last flush can be volatile. *)
  Alcotest.(check bool) "durable horizon covers all commits" true
    (Log_manager.flushed_lsn log >= Log_manager.last_lsn log - 4);
  let s = Log_manager.stats log in
  Alcotest.(check int) "in-memory storm: zero real fsyncs" 0 s.Log_manager.forces;
  (* A commit whose record another committer's batch already made durable
     returns without enrolling, so the storm's 400 commits make between 1
     and 400 flush requests — how many depends on the interleaving. *)
  let requests = s.Log_manager.flush_requests - requests_before in
  Alcotest.(check bool)
    (Printf.sprintf "requests were served (%d for 400 commits)" requests)
    true
    (requests >= 1 && requests <= 400)

let suites =
  [
    ( "wal.group_commit",
      [
        Alcotest.test_case "commit storm: durability + batching" `Quick
          test_commit_storm_durability;
        Alcotest.test_case "crash between batch sync and wakeup" `Quick
          test_crash_between_sync_and_wakeup;
        Alcotest.test_case "waiters all released (in-memory)" `Quick
          test_waiters_all_released;
      ] );
  ]
