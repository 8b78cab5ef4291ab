(* Crash-recovery tests: the paper's innovation 4 — "when a system crash
   occurs during the sequence of atomic actions that constitutes a complete
   Pi-tree structure change, crash recovery takes no special measures". We
   inject crashes at every named point inside and between atomic actions,
   recover, and require (a) a well-formed tree, (b) no lost committed data,
   (c) interrupted structure changes completed lazily by later traversals. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Crash_point = Pitree_util.Crash_point
module Log_manager = Pitree_wal.Log_manager

let cfg ?(page_oriented_undo = false) () =
  {
    Env.default_config with
    page_size = 256;
    pool_capacity = 4096;
    page_oriented_undo;
    consolidation = true;
  }

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "val%06d" i

let check_wf t =
  let report = Blink.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "tree not well-formed after recovery: %a" Wellformed.pp_report
      report

(* Run [load] until the armed crash point fires (or the load completes),
   then crash + recover, reattach to the tree, and validate. [committed]
   maps each key to the value that MUST be present (autocommit = every
   insert whose call returned is committed and, after its commit forced the
   log, durable). *)
let crash_and_recover env name =
  Env.crash env;
  let _report = Env.recover env in
  match Blink.open_existing env ~name with
  | Some t -> t
  | None -> Alcotest.fail "tree vanished from catalog after recovery"

let run_with_crash ~point ~after ?(page_oriented_undo = false) () =
  Crash_point.disarm_all ();
  let env = Env.create (cfg ~page_oriented_undo ()) in
  let t = Blink.create env ~name:"t" in
  let committed = Hashtbl.create 512 in
  let crashed = ref false in
  Crash_point.arm point ~after;
  (try
     for i = 0 to 799 do
       Blink.insert t ~key:(key i) ~value:(value i);
       Hashtbl.replace committed (key i) (value i)
     done
   with Crash_point.Crash_requested _ -> crashed := true);
  Crash_point.disarm_all ();
  let t = crash_and_recover env "t" in
  check_wf t;
  (* Durability: every insert that completed before the crash was committed
     with a forced log, so it must be present with the right value. *)
  Hashtbl.iter
    (fun k v ->
      match Blink.find t k with
      | Some v' when v' = v -> ()
      | Some v' -> Alcotest.failf "corrupted %s: %s" k v'
      | None -> Alcotest.failf "lost committed key %s (crash at %s)" k point)
    committed;
  (* The tree keeps working: do more inserts through the recovered state. *)
  for i = 800 to 899 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  check_wf t;
  (!crashed, t, env)

let test_crash_point point () =
  (* Crash at the first firing AND at a later firing of the point, to catch
     both young-tree and deep-tree states. *)
  List.iter
    (fun after ->
      let crashed, _, _ = run_with_crash ~point ~after () in
      if after = 0 && not crashed then
        Alcotest.failf "crash point %s never fired" point)
    [ 0; 5 ]

let test_crash_between_actions_completion () =
  (* Create the durable intermediate state deliberately: inserts inside an
     explicit transaction perform their splits as independent atomic
     actions, and nothing inside the transaction runs the posting queue.
     The transaction's commit forces the log (making the splits durable,
     by relative durability) and then runs the queue; the armed crash
     point fires in its first posting, before that posting changes a
     page. The intermediate state persists across recovery; a later
     search must detect it (side traversal) and schedule the completing
     atomic action (section 5.1). *)
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  for i = 0 to 799 do
    Blink.insert ~txn t ~key:(key i) ~value:(value i)
  done;
  Crash_point.arm "blink.post.latched" ~after:0;
  (match Pitree_txn.Txn_mgr.commit mgr txn with
  | () -> Alcotest.fail "the commit ran no posting"
  | exception Crash_point.Crash_requested _ -> ());
  Crash_point.disarm_all ();
  Alcotest.(check bool) "postings still pending" true
    (Blink.pending_postings t > 0);
  let t = crash_and_recover env "t" in
  check_wf t;
  Blink.reset_stats t;
  (* Recovery itself must not have completed the posting: it takes no
     special measures. The side pointer is still the only route, so a scan
     of all keys triggers side traversals and schedules the posting. *)
  for i = 0 to 799 do
    ignore (Blink.find t (key i))
  done;
  ignore (Env.drain env);
  let s = Blink.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "completion happened lazily (side=%d posted=%d)"
       s.Blink.side_traversals s.Blink.postings_completed)
    true
    (s.Blink.side_traversals > 0);
  check_wf t;
  (* The commit was durable before its drain began. *)
  for i = 0 to 799 do
    Alcotest.(check (option string)) (key i) (Some (value i)) (Blink.find t (key i))
  done

let test_crash_mid_action_rolls_back () =
  (* Crash INSIDE the split action (after the sibling is linked, before
     commit): recovery must roll the whole action back — all or nothing. *)
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  Crash_point.arm "blink.split.linked" ~after:3;
  let crashed = ref false in
  (try
     for i = 0 to 799 do
       Blink.insert t ~key:(key i) ~value:(value i)
     done
   with Crash_point.Crash_requested _ -> crashed := true);
  Alcotest.(check bool) "crashed mid-action" true !crashed;
  Crash_point.disarm_all ();
  (* Pretend the log tail reached disk just before the power failed, so
     recovery has real undo work to do for the interrupted action. *)
  Log_manager.flush_all (Env.log env);
  let report = (Env.crash env; Env.recover env) in
  Alcotest.(check bool) "some transaction rolled back" true
    (report.Pitree_wal.Recovery.loser_txns <> []);
  let t =
    match Blink.open_existing env ~name:"t" with
    | Some t -> t
    | None -> Alcotest.fail "tree lost"
  in
  check_wf t

let test_repeated_crashes () =
  (* Crash, recover, crash again during recovery-completed state, etc. *)
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = ref (Blink.create env ~name:"t") in
  let committed = Hashtbl.create 512 in
  let next = ref 0 in
  for round = 0 to 4 do
    Crash_point.arm "blink.split.linked" ~after:round;
    (try
       for _ = 1 to 150 do
         let i = !next in
         incr next;
         Blink.insert !t ~key:(key i) ~value:(value i);
         Hashtbl.replace committed (key i) (value i)
       done;
       Crash_point.disarm_all ()
     with Crash_point.Crash_requested _ -> ());
    Crash_point.disarm_all ();
    t := crash_and_recover env "t";
    check_wf !t
  done;
  Hashtbl.iter
    (fun k v ->
      match Blink.find !t k with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "lost %s after repeated crashes" k)
    committed

let test_crash_during_consolidation () =
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 799 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  Crash_point.arm "blink.consolidate.linked" ~after:2;
  let crashed = ref false in
  (try
     for i = 0 to 799 do
       ignore (Blink.delete t (key i));
       ignore (Env.drain (Blink.env t))
     done
   with Crash_point.Crash_requested _ -> crashed := true);
  Crash_point.disarm_all ();
  if not !crashed then Alcotest.fail "consolidation crash point never fired";
  let t = crash_and_recover env "t" in
  check_wf t;
  (* Consolidation is a single atomic action across two levels: it either
     happened entirely or not at all; either way no data may be lost. *)
  let remaining = Blink.count t in
  Alcotest.(check bool) "remaining sane" true (remaining >= 0 && remaining <= 800)

let test_crash_uncommitted_txn_rolled_back () =
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 99 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  (* Force everything committed so far to be durable, then start a txn and
     crash without committing it. *)
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  for i = 100 to 199 do
    Blink.insert ~txn t ~key:(key i) ~value:(value i)
  done;
  (* Make the uncommitted txn's updates durable-but-uncommitted, to force
     real undo work at recovery (not just lost tail). *)
  Log_manager.flush_all (Env.log env);
  let t = crash_and_recover env "t" in
  check_wf t;
  for i = 0 to 99 do
    Alcotest.(check (option string)) (key i) (Some (value i)) (Blink.find t (key i))
  done;
  for i = 100 to 199 do
    Alcotest.(check (option string))
      (Printf.sprintf "uncommitted %s rolled back" (key i))
      None (Blink.find t (key i))
  done

let test_unflushed_commits_lost_cleanly () =
  (* System-transaction commits are only relatively durable: a crash can
     lose them wholesale, but never partially. *)
  Crash_point.disarm_all ();
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 399 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  let t = crash_and_recover env "t" in
  check_wf t;
  (* Autocommit forces the log at each commit, so everything survives. *)
  Alcotest.(check int) "all committed data" 400 (Blink.count t)

let test_page_oriented_crash_matrix () =
  List.iter
    (fun point ->
      let _ = run_with_crash ~point ~after:2 ~page_oriented_undo:true () in
      ())
    [ "blink.split.linked"; "blink.split.committed"; "blink.post.updated" ]

let points =
  [
    "blink.split.linked";
    "blink.split.committed";
    "blink.root.grown";
    "blink.post.latched";
    "blink.post.updated";
    "blink.post.done";
  ]

let suites =
  [
    ( "crash.points",
      List.map
        (fun p -> Alcotest.test_case p `Quick (test_crash_point p))
        points );
    ( "crash.protocol",
      [
        Alcotest.test_case "completion after crash between actions" `Quick
          test_crash_between_actions_completion;
        Alcotest.test_case "mid-action rollback" `Quick
          test_crash_mid_action_rolls_back;
        Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
        Alcotest.test_case "crash during consolidation" `Quick
          test_crash_during_consolidation;
        Alcotest.test_case "uncommitted txn rolled back" `Quick
          test_crash_uncommitted_txn_rolled_back;
        Alcotest.test_case "clean loss of unflushed tail" `Quick
          test_unflushed_commits_lost_cleanly;
        Alcotest.test_case "page-oriented undo crash matrix" `Quick
          test_page_oriented_crash_matrix;
      ] );
  ]
