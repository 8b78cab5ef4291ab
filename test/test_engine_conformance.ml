(* One conformance suite, three engines: every [Pitree_core.Engine.S]
   implementation must agree on the interface's observable contract —
   empty-tree edges, insert/find/overwrite, observed deletes, ordered
   scans (where served), [?txn] commit/abort, crash+recover, and search
   through missing index terms. The suite is generated from a per-engine
   harness record, so a new engine (or a protocol change in one) picks up
   the whole battery by adding one record. It runs under both invariants:
   CNS (nodes immortal) and CP (consolidation on). *)

module Env = Pitree_env.Env
module Engine = Pitree_core.Engine
module Txn_mgr = Pitree_txn.Txn_mgr
module Txn = Pitree_txn.Txn
module Blink = Pitree_blink.Blink
module Tsb = Pitree_tsb.Tsb
module Hb = Pitree_hb.Hb
module Log_manager = Pitree_wal.Log_manager
module Log_record = Pitree_wal.Log_record
module Logical = Pitree_wal.Logical
module Page_op = Pitree_wal.Page_op

let cfg ~cp =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation = cp;
  }

type harness = {
  hname : string;
  make : Env.t -> Engine.instance * (unit -> int);
      (* the instance, and a reader of its side-traversal counter *)
  reopen : Env.t -> Engine.instance option;
  ordered_scan : bool;
      (* hB hashes keys to points, so ordered scans report 0 by contract *)
  observed_delete : bool;
      (* TSB's delete through [Engine] observes liveness like the others;
         all three currently do — kept explicit for future engines *)
  undo_puts_before_image : bool;
      (* overwrites and deletes log a logical [Put] of the record's old
         cell; TSB writes a new version instead, undone by [Remove] *)
}
[@@warning "-69"]

let harnesses =
  [
    {
      hname = "blink";
      make =
        (fun env ->
          let t = Blink.create env ~name:"c" in
          ( Pitree_blink.Blink_engine.inst t,
            fun () -> (Blink.stats t).Blink.side_traversals ));
      reopen =
        (fun env ->
          Option.map Pitree_blink.Blink_engine.inst
            (Blink.open_existing env ~name:"c"));
      ordered_scan = true;
      observed_delete = true;
      undo_puts_before_image = true;
    };
    {
      hname = "tsb";
      make =
        (fun env ->
          let t = Tsb.create env ~name:"c" in
          (Pitree_tsb.Tsb_engine.inst t, fun () -> (Tsb.stats t).Tsb.side_traversals));
      reopen =
        (fun env ->
          Option.map Pitree_tsb.Tsb_engine.inst
            (Tsb.open_existing env ~name:"c"));
      ordered_scan = true;
      observed_delete = true;
      undo_puts_before_image = false;
    };
    {
      hname = "hb";
      make =
        (fun env ->
          let t = Hb.create env ~name:"c" ~dims:2 in
          (Pitree_hb.Hb_engine.inst t, fun () -> (Hb.stats t).Hb.side_traversals));
      reopen =
        (fun env ->
          Option.map Pitree_hb.Hb_engine.inst (Hb.open_existing env ~name:"c"));
      ordered_scan = false;
      observed_delete = true;
      undo_puts_before_image = true;
    };
  ]

let key i = Printf.sprintf "k%04d" i
let get = Alcotest.(check (option string))

let test_empty_tree ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  get "find on empty" None (Engine.find e (key 0));
  Alcotest.(check bool) "delete on empty" false (Engine.delete e (key 0));
  Alcotest.(check int) "scan on empty" 0 (Engine.scan e ~low:"" ~n:10);
  get "find empty-string key" None (Engine.find e "")

let test_insert_find_overwrite ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  for i = 0 to 49 do
    Engine.insert e ~key:(key i) ~value:(Printf.sprintf "v%d" i)
  done;
  for i = 0 to 49 do
    get (key i) (Some (Printf.sprintf "v%d" i)) (Engine.find e (key i))
  done;
  get "missing key" None (Engine.find e (key 99));
  Engine.insert e ~key:(key 7) ~value:"updated";
  get "overwrite visible" (Some "updated") (Engine.find e (key 7));
  ignore (Env.drain env)

let test_delete ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  Engine.insert e ~key:"k" ~value:"v";
  Alcotest.(check bool) "delete live" true (Engine.delete e "k");
  get "deleted" None (Engine.find e "k");
  Alcotest.(check bool) "delete dead" false (Engine.delete e "k");
  Engine.insert e ~key:"k" ~value:"again";
  get "reinsert after delete" (Some "again") (Engine.find e "k")

let test_scan ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  for i = 0 to 29 do
    Engine.insert e ~key:(key i) ~value:"v"
  done;
  ignore (Engine.delete e (key 3));
  if h.ordered_scan then begin
    Alcotest.(check int) "full scan" 29 (Engine.scan e ~low:"" ~n:100);
    Alcotest.(check int) "scan bounded by n" 10 (Engine.scan e ~low:"" ~n:10);
    Alcotest.(check int) "scan from midpoint" 10
      (Engine.scan e ~low:(key 20) ~n:100)
  end
  else
    Alcotest.(check int) "unordered engine reports 0" 0
      (Engine.scan e ~low:"" ~n:100)

let test_txn_commit_abort ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  let mgr = Env.txns env in
  Engine.insert e ~key:"base" ~value:"v";
  (* Committed transactional writes become visible... *)
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Engine.insert ~txn e ~key:"tk" ~value:"tv";
  get "find ~txn sees own write or pre-state" (Some "v")
    (Engine.find ~txn e "base");
  Txn_mgr.commit mgr txn;
  get "committed write visible" (Some "tv") (Engine.find e "tk");
  (* ...aborted ones roll back. *)
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Engine.insert ~txn e ~key:"ak" ~value:"av";
  Txn_mgr.abort mgr txn;
  get "aborted write invisible" None (Engine.find e "ak");
  get "committed survives neighbor abort" (Some "tv") (Engine.find e "tk");
  (* An overwrite and a delete roll back to the old values, in a live
     abort and in a loser's rollback at restart. *)
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Engine.insert ~txn e ~key:"base" ~value:"overwritten";
  ignore (Engine.delete ~txn e "tk");
  Txn_mgr.abort mgr txn;
  get "aborted overwrite restored" (Some "v") (Engine.find e "base");
  get "aborted delete restored" (Some "tv") (Engine.find e "tk");
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Engine.insert ~txn e ~key:"base" ~value:"lost";
  ignore (Engine.delete ~txn e "tk");
  Log_manager.flush_all (Env.log env);
  Env.crash env;
  ignore (Env.recover env);
  let e = Option.get (h.reopen env) in
  get "crash rolls back the overwrite" (Some "v") (Engine.find e "base");
  get "crash rolls back the delete" (Some "tv") (Engine.find e "tk");
  (* Those records carry the before-image once: their logical undo is a
     [Put] of the op's own old cell, which the codec does not repeat. *)
  let shared = ref 0 in
  let log = Env.log env in
  Log_manager.iter_from log (Log_manager.first_lsn log) (fun r ->
      match r.Log_record.body with
      | Log_record.Update
          {
            op = Page_op.Replace_slot { old_cell = c; _ } | Page_op.Delete_slot { cell = c; _ };
            lundo = Some { Log_record.comp = Logical.Put { cell }; _ };
            _;
          }
        when String.equal c cell ->
          incr shared
      | _ -> ());
  if h.undo_puts_before_image then
    Alcotest.(check bool) "overwrites and deletes share their before-image" true
      (!shared >= 4)

let test_crash_recover ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, _ = h.make env in
  for i = 0 to 39 do
    Engine.insert e ~key:(key i) ~value:(Printf.sprintf "v%d" i)
  done;
  ignore (Engine.delete e (key 5));
  ignore (Env.drain env);
  Env.crash env;
  ignore (Env.recover env);
  let e =
    match h.reopen env with
    | Some e -> e
    | None -> Alcotest.failf "%s: tree lost across crash" h.hname
  in
  for i = 0 to 39 do
    if i = 5 then get "delete durable" None (Engine.find e (key 5))
    else get (key i) (Some (Printf.sprintf "v%d" i)) (Engine.find e (key i))
  done;
  (* The recovered tree accepts new work. *)
  Engine.insert e ~key:"after" ~value:"crash";
  get "post-recovery insert" (Some "crash") (Engine.find e "after")

(* Splits whose index terms are still queued: nothing inside a
   transaction runs the completion queue, so while one explicit
   transaction inserts, every split past the first leaves its new node
   reachable only through its left sibling's side pointer. Every key must
   still be found inside that transaction, by following side pointers.
   Its commit runs the queue, and commits alone (no [Env.drain]) empty
   it; then every term is posted and searches take no side step. *)
let test_missing_index_term ~cp h () =
  let env = Env.create (cfg ~cp) in
  let e, side_hops = h.make env in
  let mgr = Env.txns env in
  let n = 200 in
  let value = String.make 24 'v' in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to n - 1 do
    Engine.insert ~txn e ~key:(key i) ~value
  done;
  Alcotest.(check bool) "postings left queued" true (Env.pending env > 0);
  let completions () = (Env.stats env).Env.completions_run in
  let ran = completions () in
  for i = n - 1 downto 0 do
    get (key i) (Some value) (Engine.find ~txn e (key i))
  done;
  Alcotest.(check int) "reads inside the transaction run nothing" ran
    (completions ());
  Alcotest.(check bool) "side pointers followed" true (side_hops () > 0);
  let queued = Env.pending env in
  Txn_mgr.commit mgr txn;
  Alcotest.(check int) "the commit runs the queue"
    (min queued Env.drain_budget) (completions () - ran);
  let bound = ((queued + Env.drain_budget - 1) / Env.drain_budget) + 2 in
  let commits = ref 1 in
  while Env.pending env > 0 && !commits < bound do
    Txn_mgr.commit mgr (Txn_mgr.begin_txn mgr Txn.User);
    incr commits
  done;
  Alcotest.(check int) "queue drained" 0 (Env.pending env);
  let before = side_hops () in
  for i = 0 to n - 1 do
    get (key i) (Some value) (Engine.find e (key i))
  done;
  Alcotest.(check int) "no side step once posted" before (side_hops ())

let cases ~cp h =
  let tag name = if cp then name ^ " (CP)" else name in
  [
    Alcotest.test_case (tag "empty tree edges") `Quick (test_empty_tree ~cp h);
    Alcotest.test_case (tag "insert/find/overwrite") `Quick
      (test_insert_find_overwrite ~cp h);
    Alcotest.test_case (tag "observed delete") `Quick (test_delete ~cp h);
    Alcotest.test_case (tag "scan") `Quick (test_scan ~cp h);
    Alcotest.test_case (tag "?txn commit/abort") `Quick (test_txn_commit_abort ~cp h);
    Alcotest.test_case (tag "crash + recover") `Quick (test_crash_recover ~cp h);
    Alcotest.test_case (tag "missing index term") `Quick
      (test_missing_index_term ~cp h);
  ]

let suites =
  List.map
    (fun h -> ("engine." ^ h.hname, cases ~cp:false h @ cases ~cp:true h))
    harnesses
