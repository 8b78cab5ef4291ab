(* Unit tests for pitree.env: page allocation (logged, abortable), the
   catalog, checkpoints, the completion queue, crash/recover lifecycle. *)

module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Log_manager = Pitree_wal.Log_manager
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Env = Pitree_env.Env

let cfg =
  {
    Env.default_config with
    page_size = 256;
    pool_capacity = 256;
    page_oriented_undo = false;
    consolidation = true;
  }

let test_alloc_monotonic () =
  let env = Env.create cfg in
  let pids =
    Atomic_action.run (Env.txns env) (fun txn ->
        List.init 5 (fun _ ->
            let fr = Env.alloc_page env txn ~kind:Page.Data ~level:0 in
            let pid = Page.id fr.Buffer_pool.page in
            Buffer_pool.unpin (Env.pool env) fr;
            pid))
  in
  Alcotest.(check bool) "distinct and increasing" true
    (List.sort_uniq compare pids = pids && List.length pids = 5)

let test_dealloc_reuses () =
  let env = Env.create cfg in
  let pid =
    Atomic_action.run (Env.txns env) (fun txn ->
        let fr = Env.alloc_page env txn ~kind:Page.Data ~level:0 in
        let pid = Page.id fr.Buffer_pool.page in
        Pitree_sync.Latch.acquire fr.Buffer_pool.latch Pitree_sync.Latch.X;
        Env.dealloc_page env txn fr;
        Pitree_sync.Latch.release fr.Buffer_pool.latch Pitree_sync.Latch.X;
        Buffer_pool.unpin (Env.pool env) fr;
        pid)
  in
  (* Next allocation pops the free list. *)
  let pid2 =
    Atomic_action.run (Env.txns env) (fun txn ->
        let fr = Env.alloc_page env txn ~kind:Page.Index ~level:2 in
        let p = Page.id fr.Buffer_pool.page in
        Alcotest.(check int) "reformatted level" 2 (Page.level fr.Buffer_pool.page);
        Alcotest.(check bool) "kind set" true (Page.kind fr.Buffer_pool.page = Page.Index);
        Buffer_pool.unpin (Env.pool env) fr;
        p)
  in
  Alcotest.(check int) "page id reused" pid pid2

let test_aborted_alloc_returns_page () =
  let env = Env.create cfg in
  let mgr = Env.txns env in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  let fr = Env.alloc_page env t1 ~kind:Page.Data ~level:0 in
  let pid = Page.id fr.Buffer_pool.page in
  Buffer_pool.unpin (Env.pool env) fr;
  Txn_mgr.abort mgr t1;
  (* The same pid must be handed out again (the meta-page counter and the
     page format were rolled back). *)
  let pid2 =
    Atomic_action.run mgr (fun txn ->
        let fr = Env.alloc_page env txn ~kind:Page.Data ~level:0 in
        let p = Page.id fr.Buffer_pool.page in
        Buffer_pool.unpin (Env.pool env) fr;
        p)
  in
  Alcotest.(check int) "allocation undone by abort" pid pid2

let test_catalog () =
  let env = Env.create cfg in
  let r1 = Env.create_tree env ~name:"alpha" ~kind:Page.Data ~level:0 in
  let r2 = Env.create_tree env ~name:"beta" ~kind:Page.Data ~level:0 in
  Alcotest.(check bool) "distinct roots" true (r1 <> r2);
  Alcotest.(check (option int)) "find alpha" (Some r1) (Env.find_tree env ~name:"alpha");
  Alcotest.(check (option int)) "find beta" (Some r2) (Env.find_tree env ~name:"beta");
  Alcotest.(check (option int)) "missing" None (Env.find_tree env ~name:"gamma");
  Alcotest.(check int) "list" 2 (List.length (Env.list_trees env))

let test_catalog_survives_crash () =
  let env = Env.create cfg in
  let r1 = Env.create_tree env ~name:"alpha" ~kind:Page.Data ~level:0 in
  Env.checkpoint env;
  Env.crash env;
  ignore (Env.recover env);
  Alcotest.(check (option int)) "catalog recovered" (Some r1)
    (Env.find_tree env ~name:"alpha")

let test_completion_queue () =
  let env = Env.create cfg in
  let log = ref [] in
  Env.schedule env (fun () -> log := `A :: !log);
  Env.schedule env (fun () ->
      log := `B :: !log;
      (* Tasks may reschedule. *)
      Env.schedule env (fun () -> log := `C :: !log));
  Alcotest.(check int) "pending" 2 (Env.pending env);
  let ran = Env.drain env in
  Alcotest.(check int) "ran all incl rescheduled" 3 ran;
  Alcotest.(check bool) "order" true (!log = [ `C; `B; `A ]);
  Alcotest.(check int) "queue empty" 0 (Env.pending env)

let test_crash_drops_tasks () =
  let env = Env.create cfg in
  Env.schedule env (fun () -> ());
  Env.crash env;
  ignore (Env.recover env);
  Alcotest.(check int) "tasks lost by crash (by design)" 0 (Env.pending env)

(* Two domains drain one queue: every task runs once and is counted once. *)
let test_concurrent_drainers () =
  let env = Env.create cfg in
  let n = 20_000 in
  let hits = Atomic.make 0 in
  for _ = 1 to n do
    Env.schedule env (fun () -> Atomic.incr hits)
  done;
  let drainers = List.init 2 (fun _ -> Domain.spawn (fun () -> Env.drain env)) in
  let ran = List.fold_left (fun acc d -> acc + Domain.join d) 0 drainers in
  Alcotest.(check int) "each task ran once" n (Atomic.get hits);
  Alcotest.(check int) "drains report every task" n ran;
  Alcotest.(check int) "completions counted" n (Env.stats env).Env.completions_run;
  Alcotest.(check int) "queue empty" 0 (Env.pending env)

(* User commits and aborts each run [Env.drain_budget] queued tasks;
   atomic actions (system transactions) run none. *)
let test_commit_abort_run_budget () =
  let env = Env.create cfg in
  let mgr = Env.txns env in
  let budget = Env.drain_budget in
  let queued = (3 * budget) + 1 in
  for _ = 1 to queued do
    Env.schedule env (fun () -> ())
  done;
  Atomic_action.run mgr (fun _ -> ());
  Alcotest.(check int) "an atomic action runs none" queued (Env.pending env);
  Txn_mgr.commit mgr (Txn_mgr.begin_txn mgr Txn.User);
  Alcotest.(check int) "a commit runs the budget" (queued - budget) (Env.pending env);
  Txn_mgr.abort mgr (Txn_mgr.begin_txn mgr Txn.User);
  Alcotest.(check int) "an abort runs the budget" (queued - (2 * budget))
    (Env.pending env);
  Txn_mgr.commit mgr (Txn_mgr.begin_txn mgr Txn.User);
  Txn_mgr.commit mgr (Txn_mgr.begin_txn mgr Txn.User);
  Alcotest.(check int) "the rest runs at later commits" 0 (Env.pending env)

let test_checkpoint_truncates_redo () =
  let env = Env.create cfg in
  ignore (Env.create_tree env ~name:"t" ~kind:Page.Data ~level:0);
  let before = Log_manager.redo_start (Env.log env) in
  Env.checkpoint env;
  let after = Log_manager.redo_start (Env.log env) in
  Alcotest.(check bool) "redo point advanced" true (after > before);
  (* Recovery from the checkpoint still works. *)
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "analysis bounded by checkpoint" true
    (report.Pitree_wal.Recovery.analyzed < 20)

let test_recover_requires_crash () =
  let env = Env.create cfg in
  Alcotest.(check bool) "recover without crash rejected" true
    (match Env.recover env with exception Invalid_argument _ -> true | _ -> false)

let test_stats () =
  let env = Env.create cfg in
  ignore (Env.create_tree env ~name:"t" ~kind:Page.Data ~level:0);
  let s = Env.stats env in
  Alcotest.(check bool) "allocs counted" true (s.Env.pages_allocated >= 1)

let suites =
  [
    ( "env.alloc",
      [
        Alcotest.test_case "monotonic" `Quick test_alloc_monotonic;
        Alcotest.test_case "dealloc reuses" `Quick test_dealloc_reuses;
        Alcotest.test_case "aborted alloc returns page" `Quick
          test_aborted_alloc_returns_page;
      ] );
    ( "env.catalog",
      [
        Alcotest.test_case "create/find/list" `Quick test_catalog;
        Alcotest.test_case "survives crash" `Quick test_catalog_survives_crash;
      ] );
    ( "env.completion",
      [
        Alcotest.test_case "queue" `Quick test_completion_queue;
        Alcotest.test_case "crash drops tasks" `Quick test_crash_drops_tasks;
        Alcotest.test_case "concurrent drainers" `Quick test_concurrent_drainers;
        Alcotest.test_case "commit and abort run a budget" `Quick
          test_commit_abort_run_budget;
      ] );
    ( "env.lifecycle",
      [
        Alcotest.test_case "checkpoint truncates redo" `Quick
          test_checkpoint_truncates_redo;
        Alcotest.test_case "recover requires crash" `Quick test_recover_requires_crash;
        Alcotest.test_case "stats" `Quick test_stats;
      ] );
  ]
