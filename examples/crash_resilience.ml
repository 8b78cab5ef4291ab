(* Crash resilience walkthrough: the paper's headline behavior, visible.

   A Pi-tree structure change is a SEQUENCE of atomic actions (split, then
   index-term posting). We crash the system exactly between them, recover,
   and watch a later search discover the intermediate state through the
   side pointer and schedule the completing atomic action — "crash recovery
   takes no special measures" (paper sections 1 and 5.1).

   Run with:  dune exec examples/crash_resilience.exe *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr

let () =
  (* Tiny pages make splits frequent and the story short. *)
  let env =
    Env.create { Env.default_config with Env.page_size = 256 }
  in
  let t = Blink.create env ~name:"t" in

  (* Load inside one explicit transaction: the splits run as independent
     atomic actions, but nothing runs the posting queue until the
     transaction finishes, and its commit runs only a few postings
     (Env.drain_budget) — so when we "pull the plug" right after commit,
     durable splits exist whose index terms were never posted. *)
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to 999 do
    Blink.insert ~txn t ~key:(Printf.sprintf "key%04d" i) ~value:"v"
  done;
  Txn_mgr.commit mgr txn;
  Printf.printf "before crash: %d postings pending in the (volatile) queue\n"
    (Blink.pending_postings t);

  (* Power failure: buffer pool, lock table, live transactions and the
     completion queue vanish; only flushed pages + the durable log prefix
     survive. *)
  Env.crash env;
  let report = Env.recover env in
  Printf.printf "recovery: %d records redone, %d losers rolled back\n"
    report.Pitree_wal.Recovery.redone
    (List.length report.Pitree_wal.Recovery.loser_txns);

  let t = Option.get (Blink.open_existing env ~name:"t") in
  let wf = Pitree_core.Wellformed.ok (Blink.verify t) in
  Printf.printf "tree well-formed right after recovery (no SMO fixup ran): %b\n" wf;

  (* Normal processing completes the interrupted structure changes: a
     search that must side-step schedules the posting action; draining the
     queue runs it. *)
  Blink.reset_stats t;
  for i = 0 to 999 do
    ignore (Blink.find t (Printf.sprintf "key%04d" i))
  done;
  ignore (Env.drain env);
  let s = Blink.stats t in
  Printf.printf
    "searches after recovery side-stepped %d times and completed %d \
     postings lazily\n"
    s.Blink.side_traversals s.Blink.postings_completed;

  (* And everything is still there. *)
  let missing = ref 0 in
  for i = 0 to 999 do
    if Blink.find t (Printf.sprintf "key%04d" i) = None then incr missing
  done;
  Printf.printf "lost records: %d\n" !missing;
  Format.printf "%a@." Pitree_core.Wellformed.pp_report (Blink.verify t)
