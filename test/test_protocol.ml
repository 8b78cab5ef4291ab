(* Deeper protocol tests: the section 4.2/5.x machinery under adversarial
   schedules — in-transaction splits, deferred postings, latch ordering,
   eviction pressure, checkpoints, and randomized crash fuzzing. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Latch_order = Pitree_sync.Latch_order
module Lock_manager = Pitree_lock.Lock_manager
module Lock_mode = Pitree_lock.Lock_mode
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Crash_point = Pitree_util.Crash_point
module Log_manager = Pitree_wal.Log_manager
module Rng = Pitree_util.Rng

let cfg ?(page_size = 256) ?(pool = 4096) ?(page_oriented_undo = false)
    ?(consolidation = true) () =
  { Env.default_config with page_size; pool_capacity = pool; page_oriented_undo; consolidation }

let key i = Printf.sprintf "key%06d" i

let check_wf t =
  let report = Blink.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "not well-formed: %a" Wellformed.pp_report report

(* The in-transaction split path (section 4.2.1): a transaction that has
   already updated records in a node and then overflows it must split
   INSIDE the transaction; abort undoes the split; the index term is never
   posted. *)
let test_in_txn_split_abort () =
  let env = Env.create (cfg ~page_oriented_undo:true ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  (* All updates from one txn into one leaf until it must split. *)
  let i = ref 0 in
  let s0 = Blink.stats t in
  while (Blink.stats t).Blink.leaf_splits + (Blink.stats t).Blink.root_splits
        = s0.Blink.leaf_splits + s0.Blink.root_splits do
    Blink.insert ~txn t ~key:(key !i) ~value:(String.make 24 'v');
    incr i
  done;
  (* The split happened inside the txn (it had updated this node). *)
  Txn_mgr.abort mgr txn;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "everything rolled back" 0 (Blink.count t);
  Alcotest.(check int) "no posting for the undone split" 0
    (Blink.pending_postings t)

let test_in_txn_split_commit_defers_posting () =
  let env = Env.create (cfg ~page_oriented_undo:true ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  (* Force height >= 2 first so splits post (root growth posts nothing). *)
  Txn_mgr.commit mgr txn;
  for i = 0 to 199 do
    Blink.insert t ~key:(key i) ~value:(String.make 24 'v')
  done;
  ignore (Env.drain env);
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  let base = 1_000 in
  (* The first insert updates the rightmost leaf (splitting it as an
     independent action if it is full, whose posting the drain below
     runs); the next split of that leaf is then one this txn updated. *)
  Blink.insert ~txn t ~key:(key base) ~value:(String.make 24 'w');
  ignore (Env.drain env);
  let s0 = Blink.stats t in
  let i = ref 1 in
  let target = s0.Blink.leaf_splits + 1 in
  while (Blink.stats t).Blink.leaf_splits < target do
    Blink.insert ~txn t ~key:(key (base + !i)) ~value:(String.make 24 'w');
    incr i
  done;
  (* The split of a node this txn updated ran in-transaction: its posting
     must not be scheduled before commit (section 4.2.2), and nothing
     inside the transaction runs the queue. The commit schedules the
     posting and runs it. *)
  let during = Blink.stats t in
  Alcotest.(check int) "nothing posted before commit"
    s0.Blink.postings_completed during.Blink.postings_completed;
  Alcotest.(check int) "nothing scheduled before commit"
    s0.Blink.postings_scheduled during.Blink.postings_scheduled;
  Txn_mgr.commit mgr txn;
  let after = Blink.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "posting deferred to commit (scheduled %d -> %d)"
       during.Blink.postings_scheduled after.Blink.postings_scheduled)
    true
    (after.Blink.postings_scheduled > during.Blink.postings_scheduled);
  Alcotest.(check bool)
    (Printf.sprintf "term posted by the commit (completed %d -> %d)"
       during.Blink.postings_completed after.Blink.postings_completed)
    true
    (after.Blink.postings_completed > during.Blink.postings_completed);
  Alcotest.(check int) "nothing left queued" 0 (Blink.pending_postings t);
  Alcotest.(check int) "queue empty" 0 (Env.pending env);
  check_wf t

let test_latch_order_clean () =
  (* The engine's own traversals must never violate the section 4.1.1
     latch order (parents before children, space map last). *)
  Latch_order.reset ();
  Latch_order.enable true;
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 1_499 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  for i = 0 to 1_499 do
    if i mod 3 = 0 then ignore (Blink.delete t (key i))
  done;
  ignore (Env.drain env);
  for _ = 1 to 10 do
    ignore (Env.drain env)
  done;
  Latch_order.enable false;
  Alcotest.(check int) "no latch-order violations" 0 (Latch_order.violations ());
  Latch_order.reset ();
  check_wf t

let test_eviction_pressure () =
  (* A pool far smaller than the tree: every operation faults pages in and
     out; the WAL barrier and pin discipline must hold. *)
  let env = Env.create (cfg ~page_size:256 ~pool:16 ()) in
  let t = Blink.create env ~name:"t" in
  let n = 2_000 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(Printf.sprintf "val%06d" i)
  done;
  ignore (Env.drain env);
  check_wf t;
  for i = 0 to n - 1 do
    match Blink.find t (key i) with
    | Some v when v = Printf.sprintf "val%06d" i -> ()
    | _ -> Alcotest.failf "lost %s under eviction pressure" (key i)
  done;
  let stats = Pitree_storage.Buffer_pool.stats (Env.pool env) in
  Alcotest.(check bool) "evictions actually happened" true
    (stats.Pitree_storage.Buffer_pool.evictions > 100)

let test_eviction_then_crash () =
  (* With heavy eviction many pages are already on disk at crash time; redo
     must skip them (page LSN test) and still converge. *)
  let env = Env.create (cfg ~page_size:256 ~pool:16 ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 999 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "some redo skipped (pages already current)" true
    (report.Pitree_wal.Recovery.skipped > 0);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  check_wf t;
  Alcotest.(check int) "all data" 1000 (Blink.count t);
  ignore t

let test_checkpoint_then_crash () =
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 499 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.checkpoint env;
  for i = 500 to 999 do
    Blink.insert t ~key:(key i) ~value:"v"
  done;
  Env.crash env;
  let report = Env.recover env in
  (* Analysis starts at the checkpoint, not at LSN 1. *)
  let full_log = Log_manager.last_lsn (Env.log env) in
  Alcotest.(check bool)
    (Printf.sprintf "bounded analysis (%d < %d)" report.Pitree_wal.Recovery.analyzed full_log)
    true
    (report.Pitree_wal.Recovery.analyzed < full_log);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  check_wf t;
  Alcotest.(check int) "all data" 1000 (Blink.count t)

let test_posting_completion_idempotent () =
  (* Force the same completion to be discovered many times: searches during
     the pending window re-schedule at most one task, and the action itself
     re-tests (noop when already posted). *)
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to 599 do
    Blink.insert ~txn t ~key:(key i) ~value:"v"
  done;
  Txn_mgr.commit mgr txn;
  (* Postings pending; run a wave of searches (each would re-discover) then
     drain once. *)
  Blink.reset_stats t;
  for _ = 1 to 3 do
    for i = 0 to 599 do
      if i mod 7 = 0 then ignore (Blink.find t (key i))
    done
  done;
  ignore (Env.drain env);
  ignore (Env.drain env);
  let s = Blink.stats t in
  check_wf t;
  Alcotest.(check bool)
    (Printf.sprintf "noop re-tests bounded (completed=%d noop=%d)"
       s.Blink.postings_completed s.Blink.postings_noop)
    true
    (s.Blink.postings_noop <= s.Blink.postings_completed + s.Blink.postings_scheduled + 600)

let test_no_wait_rule_backoff () =
  (* A reader-writer lock conflict on a record must trigger the no-wait
     backoff (release latch, blocking acquire, re-descend), not a hang. *)
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  Blink.insert t ~key:"a" ~value:"1";
  let mgr = Env.txns env in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  (* t1 holds an X record lock on "a". *)
  Blink.insert ~txn:t1 t ~key:"a" ~value:"2";
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (* autocommit writer must wait for t1's lock, without deadlock. *)
        Blink.insert t ~key:"a" ~value:"3";
        Atomic.set finished true)
  in
  Thread.delay 0.03;
  Alcotest.(check bool) "writer blocked on lock" false (Atomic.get finished);
  Txn_mgr.commit mgr t1;
  Domain.join d;
  Alcotest.(check bool) "writer finished after commit" true (Atomic.get finished);
  Alcotest.(check (option string)) "last write wins" (Some "3") (Blink.find t "a");
  Alcotest.(check bool) "backoff counted" true
    ((Blink.stats t).Blink.lock_restarts >= 1)

(* Randomized crash fuzz: arbitrary crash point, arbitrary arming count,
   random committed prefix — after recovery the tree is well-formed and
   every auto-committed key is present. *)
let prop_crash_fuzz =
  let open QCheck in
  let points =
    [|
      "blink.split.linked"; "blink.split.committed"; "blink.root.grown";
      "blink.post.latched"; "blink.post.updated"; "blink.post.done";
      "blink.consolidate.linked";
    |]
  in
  Test.make ~name:"randomized crash fuzz" ~count:25
    (make Gen.(triple (int_bound 6) (int_bound 8) (int_range 200 700)))
    (fun (pi, after, n) ->
      Crash_point.disarm_all ();
      let env = Env.create (cfg ()) in
      let t = Blink.create env ~name:"t" in
      let committed = Hashtbl.create 64 in
      Crash_point.arm points.(pi) ~after;
      (try
         for i = 0 to n - 1 do
           (* Model bookkeeping is ordered so that a crash landing inside
              an operation can only leave the TREE ahead of the model,
              never behind: inserts update the model after the fact,
              deletes before. *)
           Blink.insert t ~key:(key i) ~value:(Printf.sprintf "v%d" i);
           Hashtbl.replace committed (key i) (Printf.sprintf "v%d" i);
           if i mod 3 = 0 then begin
             Hashtbl.remove committed (key (i / 2));
             ignore (Blink.delete t (key (i / 2)))
           end
         done
       with Crash_point.Crash_requested _ -> ());
      Crash_point.disarm_all ();
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      if not (Wellformed.ok (Blink.verify t)) then
        Test.fail_report "not well-formed after fuzzed crash";
      Hashtbl.iter
        (fun k v ->
          match Blink.find t k with
          | Some v' when v' = v -> ()
          | _ -> Test.fail_reportf "lost committed %s" k)
        committed;
      true)

(* Explicit transactions alone keep the index posted: two domains insert
   fresh ascending keys, one per transaction, with no autocommit op and
   no [Env.drain]. Each commit runs a few queued postings, so nothing is
   left queued after the last commit, an insert takes about one side step
   (past the split its neighbour just made, before that posting ran), and
   a later search takes about none. The latch-order checker is on
   throughout: a posting run under a leaf latch would latch the parent
   after the leaf. *)
let test_txn_commits_post () =
  Latch_order.reset ();
  Latch_order.enable true;
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let per_domain = 1_500 in
  let value = String.make 24 'v' in
  let writer d () =
    for i = 0 to per_domain - 1 do
      let txn = Txn_mgr.begin_txn mgr Txn.User in
      Blink.insert ~txn t ~key:(key ((2 * i) + d)) ~value;
      Txn_mgr.commit mgr txn
    done
  in
  let domains = List.map (fun d -> Domain.spawn (writer d)) [ 0; 1 ] in
  List.iter Domain.join domains;
  let s = Blink.stats t in
  let n = 2 * per_domain in
  Alcotest.(check int) "nothing queued after the last commit" 0 (Env.pending env);
  Alcotest.(check bool)
    (Printf.sprintf "about one side step per insert (%d for %d)"
       s.Blink.side_traversals n)
    true
    (s.Blink.side_traversals < 2 * n);
  Blink.reset_stats t;
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) (key i) (Some value) (Blink.find ~txn t (key i))
  done;
  Txn_mgr.commit mgr txn;
  let hops = (Blink.stats t).Blink.side_traversals in
  Alcotest.(check bool)
    (Printf.sprintf "at most one side step per search (%d for %d)" hops n)
    true (hops <= n);
  Latch_order.enable false;
  let violations = Latch_order.violations () in
  Latch_order.reset ();
  Alcotest.(check int) "no latch-order violations" 0 violations;
  check_wf t

(* A crash backlog: a commit whose posting run crashed before its first
   posting leaves K index terms missing after recovery. Reads inside one
   transaction re-discover them all and run none; then commits alone post
   them, [Env.drain_budget] per commit, within ceil(K / budget) + 2
   commits, after which searches take no side step. *)
let test_crash_backlog_clears () =
  Crash_point.disarm_all ();
  (* Pages big enough that the postings' own index splits add only a few
     tasks to the backlog. *)
  let env = Env.create (cfg ~page_size:1024 ()) in
  let t = Blink.create env ~name:"t" in
  let n = 3_000 in
  let value i = Printf.sprintf "val%06d" i in
  let txn = Txn_mgr.begin_txn (Env.txns env) Txn.User in
  for i = 0 to n - 1 do
    Blink.insert ~txn t ~key:(key i) ~value:(value i)
  done;
  Crash_point.arm "blink.post.latched" ~after:0;
  (match Txn_mgr.commit (Env.txns env) txn with
  | () -> Alcotest.fail "the commit ran no posting"
  | exception Crash_point.Crash_requested _ -> ());
  Crash_point.disarm_all ();
  Env.crash env;
  ignore (Env.recover env);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to n - 1 do
    Alcotest.(check (option string)) (key i) (Some (value i)) (Blink.find ~txn t (key i))
  done;
  let k = Env.pending env in
  Alcotest.(check bool) (Printf.sprintf "backlog re-discovered (%d)" k) true (k > 0);
  Alcotest.(check int) "reads ran none of it" 0 (Env.stats env).Env.completions_run;
  Txn_mgr.commit mgr txn;
  let bound = ((k + Env.drain_budget - 1) / Env.drain_budget) + 2 in
  let commits = ref 1 in
  while Env.pending env > 0 && !commits <= bound do
    Txn_mgr.commit mgr (Txn_mgr.begin_txn mgr Txn.User);
    incr commits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "backlog of %d cleared in %d commits (bound %d)" k !commits bound)
    true
    (Env.pending env = 0 && !commits <= bound);
  Blink.reset_stats t;
  for i = 0 to n - 1 do
    ignore (Blink.find t (key i))
  done;
  Alcotest.(check int) "no side step once posted" 0 (Blink.stats t).Blink.side_traversals;
  check_wf t

let suites =
  [
    ( "protocol.txn-splits",
      [
        Alcotest.test_case "in-txn split + abort" `Quick test_in_txn_split_abort;
        Alcotest.test_case "in-txn split defers posting" `Quick
          test_in_txn_split_commit_defers_posting;
      ] );
    ( "protocol.invariants",
      [
        Alcotest.test_case "latch order clean" `Quick test_latch_order_clean;
        Alcotest.test_case "posting idempotent" `Quick
          test_posting_completion_idempotent;
        Alcotest.test_case "no-wait rule backoff" `Slow test_no_wait_rule_backoff;
      ] );
    ( "protocol.storage",
      [
        Alcotest.test_case "eviction pressure" `Quick test_eviction_pressure;
        Alcotest.test_case "eviction then crash" `Quick test_eviction_then_crash;
        Alcotest.test_case "checkpoint then crash" `Quick test_checkpoint_then_crash;
      ] );
    ( "protocol.fuzz", [ QCheck_alcotest.to_alcotest prop_crash_fuzz ] );
    ( "protocol.completions",
      [
        Alcotest.test_case "explicit commits post, two domains" `Quick
          test_txn_commits_post;
        Alcotest.test_case "crash backlog clears within budget" `Quick
          test_crash_backlog_clears;
      ] );
  ]
