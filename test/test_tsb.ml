(* Tests for the TSB-tree (multiversion) engine — section 2.2.2 / Figure 1. *)

module Env = Pitree_env.Env
module Tsb = Pitree_tsb.Tsb
module Wellformed = Pitree_core.Wellformed
module Ordkey = Pitree_util.Ordkey

let cfg () =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation = false;
  }

let mk () =
  let env = Env.create (cfg ()) in
  (env, Tsb.create env ~name:"v")

let check_wf t =
  let report = Tsb.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "tsb not well-formed: %a" Wellformed.pp_report report

let test_ordkey_roundtrip () =
  List.iter
    (fun (k, t) ->
      let c = Ordkey.composite k t in
      let k', t' = Ordkey.decompose c in
      Alcotest.(check string) "key" k k';
      Alcotest.(check int) "time" t t')
    [ ("", 0); ("abc", 42); ("a\x00b", 7); ("\x00\x00", max_int); ("z", 1) ]

let test_ordkey_ordering () =
  (* Composite order = (key, time) lexicographic. *)
  let c = Ordkey.composite in
  Alcotest.(check bool) "same key, time asc" true (c "a" 1 < c "a" 2);
  Alcotest.(check bool) "key order dominates" true (c "a" 999 < c "b" 0);
  Alcotest.(check bool) "nul-safe" true (c "a" 5 < c "a\x00" 0);
  Alcotest.(check bool) "prefix groups" true
    (Ordkey.belongs_to (c "a" 3) ~key:"a" && not (Ordkey.belongs_to (c "ab" 3) ~key:"a"))

let test_put_get () =
  let _, t = mk () in
  let t1 = Tsb.put t ~key:"alice" ~value:"100" in
  Alcotest.(check (option string)) "current" (Some "100") (Tsb.get t "alice");
  Alcotest.(check (option string)) "missing" None (Tsb.get t "bob");
  Alcotest.(check bool) "stamp positive" true (t1 > 0)

let test_versions () =
  let _, t = mk () in
  let t1 = Tsb.put t ~key:"k" ~value:"v1" in
  let t2 = Tsb.put t ~key:"k" ~value:"v2" in
  let t3 = Tsb.put t ~key:"k" ~value:"v3" in
  Alcotest.(check (option string)) "current" (Some "v3") (Tsb.get t "k");
  Alcotest.(check (option string)) "asof t1" (Some "v1") (Tsb.get_asof t "k" ~time:t1);
  Alcotest.(check (option string)) "asof t2" (Some "v2") (Tsb.get_asof t "k" ~time:t2);
  Alcotest.(check (option string)) "asof t3" (Some "v3") (Tsb.get_asof t "k" ~time:t3);
  Alcotest.(check (option string)) "asof between" (Some "v2")
    (Tsb.get_asof t "k" ~time:(t3 - 1));
  Alcotest.(check (option string)) "before birth" None (Tsb.get_asof t "k" ~time:(t1 - 1))

let test_tombstone () =
  let _, t = mk () in
  let t1 = Tsb.put t ~key:"k" ~value:"v1" in
  let td = Tsb.remove t "k" in
  Alcotest.(check (option string)) "deleted now" None (Tsb.get t "k");
  Alcotest.(check (option string)) "alive in the past" (Some "v1")
    (Tsb.get_asof t "k" ~time:t1);
  let t2 = Tsb.put t ~key:"k" ~value:"v2" in
  Alcotest.(check (option string)) "reborn" (Some "v2") (Tsb.get t "k");
  Alcotest.(check (option string)) "tombstone epoch" None
    (Tsb.get_asof t "k" ~time:td);
  ignore t2

let test_history () =
  let _, t = mk () in
  let t1 = Tsb.put t ~key:"k" ~value:"a" in
  let t2 = Tsb.remove t "k" in
  let t3 = Tsb.put t ~key:"k" ~value:"b" in
  Alcotest.(check (list (pair int (option string))))
    "full history"
    [ (t1, Some "a"); (t2, None); (t3, Some "b") ]
    (Tsb.history t "k")

let test_time_splits_preserve_history () =
  (* Many versions of few keys force time splits; every historical read
     must still be answerable through the history chains. *)
  let _, t = mk () in
  let keys = [ "a"; "b"; "c"; "d" ] in
  let stamps = Hashtbl.create 64 in
  for round = 1 to 120 do
    List.iter
      (fun k ->
        let v = Printf.sprintf "%s-%d" k round in
        let ts = Tsb.put t ~key:k ~value:v in
        Hashtbl.replace stamps (k, round) (ts, v))
      keys
  done;
  let s = Tsb.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "time splits happened (%d)" s.Tsb.time_splits)
    true (s.Tsb.time_splits > 0);
  Alcotest.(check bool) "history nodes created" true (s.Tsb.history_nodes > 0);
  check_wf t;
  (* Every recorded version must be visible as of its stamp. *)
  Hashtbl.iter
    (fun (k, _) (ts, v) ->
      match Tsb.get_asof t k ~time:ts with
      | Some v' when v' = v -> ()
      | Some v' -> Alcotest.failf "wrong version of %s at %d: %s (want %s)" k ts v' v
      | None -> Alcotest.failf "lost version of %s at %d" k ts)
    stamps

let test_key_splits_copy_history_pointer () =
  (* Figure 1: after a key split the NEW current node must answer
     historical queries for its key range via the copied history pointer. *)
  let env, t = mk () in
  (* Phase 1: few keys, many versions -> time splits build history. *)
  for round = 1 to 60 do
    for i = 0 to 7 do
      ignore (Tsb.put t ~key:(Printf.sprintf "key%02d" i) ~value:(Printf.sprintf "r%d" round))
    done
  done;
  let early = Tsb.now t in
  (* Phase 2: many keys -> key splits. *)
  for i = 0 to 199 do
    ignore (Tsb.put t ~key:(Printf.sprintf "key%03d" i) ~value:"wide")
  done;
  ignore (Env.drain env);
  let s = Tsb.stats t in
  Alcotest.(check bool) "key splits happened" true (s.Tsb.key_splits > 0);
  Alcotest.(check bool) "time splits happened" true (s.Tsb.time_splits > 0);
  check_wf t;
  (* Historical reads for the phase-1 keys must survive the key splits. *)
  for i = 0 to 7 do
    let k = Printf.sprintf "key%02d" i in
    match Tsb.get_asof t k ~time:early with
    | Some v -> Alcotest.(check string) ("early " ^ k) "r60" v
    | None -> Alcotest.failf "history lost for %s after key splits" k
  done

let test_many_keys_tree_growth () =
  let env, t = mk () in
  let n = 1500 in
  for i = 0 to n - 1 do
    ignore (Tsb.put t ~key:(Printf.sprintf "key%06d" i) ~value:(string_of_int i))
  done;
  ignore (Env.drain env);
  check_wf t;
  for i = 0 to n - 1 do
    let k = Printf.sprintf "key%06d" i in
    Alcotest.(check (option string)) k (Some (string_of_int i)) (Tsb.get t k)
  done;
  Alcotest.(check bool) "root split" true ((Tsb.stats t).Tsb.root_splits > 0)

let test_snapshot_scan () =
  let _, t = mk () in
  ignore (Tsb.put t ~key:"a" ~value:"1");
  ignore (Tsb.put t ~key:"b" ~value:"2");
  let snap = Tsb.now t in
  ignore (Tsb.put t ~key:"b" ~value:"2'");
  ignore (Tsb.put t ~key:"c" ~value:"3");
  ignore (Tsb.remove t "a");
  (* Snapshot at [snap]: a=1, b=2; now: b=2', c=3. *)
  let at time =
    Tsb.range_asof t ~time ?low:None ?high:None ~init:[] ~f:(fun acc k v ->
        (k, v) :: acc)
    |> List.rev
  in
  Alcotest.(check (list (pair string string)))
    "snapshot" [ ("a", "1"); ("b", "2") ] (at snap);
  Alcotest.(check (list (pair string string)))
    "now" [ ("b", "2'"); ("c", "3") ] (at max_int)

let test_range_asof_bounds () =
  let _, t = mk () in
  for i = 0 to 19 do
    ignore (Tsb.put t ~key:(Printf.sprintf "k%02d" i) ~value:"x")
  done;
  let keys =
    Tsb.range_asof t ~time:max_int ~low:"k05" ~high:"k10" ~init:[]
      ~f:(fun acc k _ -> k :: acc)
    |> List.rev
  in
  Alcotest.(check (list string)) "bounds" [ "k05"; "k06"; "k07"; "k08"; "k09" ] keys

let test_crash_recovery () =
  let env, t = mk () in
  let stamps = ref [] in
  for round = 1 to 40 do
    for i = 0 to 5 do
      let k = Printf.sprintf "key%02d" i in
      let ts = Tsb.put t ~key:k ~value:(Printf.sprintf "%s-%d" k round) in
      stamps := (k, ts, Printf.sprintf "%s-%d" k round) :: !stamps
    done
  done;
  Env.crash env;
  ignore (Env.recover env);
  let t =
    match Tsb.open_existing env ~name:"v" with
    | Some t -> t
    | None -> Alcotest.fail "tsb tree lost"
  in
  check_wf t;
  List.iter
    (fun (k, ts, v) ->
      match Tsb.get_asof t k ~time:ts with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "lost version %s@%d after crash" k ts)
    !stamps;
  (* The recovered clock must not reissue old stamps. *)
  let ts = Tsb.put t ~key:"key00" ~value:"fresh" in
  List.iter (fun (_, old, _) -> assert (ts > old)) !stamps;
  Alcotest.(check (option string)) "writes continue" (Some "fresh") (Tsb.get t "key00")

let test_gc_drains_history () =
  (* Build history via time splits, then raise the horizon to "now" and gc:
     every chain tail is fully expired, so the chains are cut and their
     nodes go back to the environment free list; surviving (current) reads
     are unchanged. *)
  let env, t = mk () in
  for round = 1 to 120 do
    List.iter
      (fun k -> ignore (Tsb.put t ~key:k ~value:(Printf.sprintf "%s-%d" k round)))
      [ "a"; "b"; "c"; "d" ]
  done;
  ignore (Env.drain env);
  let s0 = Tsb.stats t in
  Alcotest.(check bool) "history built" true (s0.Tsb.history_nodes > 0);
  Tsb.set_horizon t (Tsb.now t);
  let freed = Tsb.gc t in
  check_wf t;
  Alcotest.(check bool)
    (Printf.sprintf "chain tails freed (%d)" freed)
    true (freed > 0);
  let s = Tsb.stats t in
  Alcotest.(check bool) "drain counted" true (s.Tsb.history_nodes_freed > 0);
  Alcotest.(check bool) "free list populated" true (Env.free_list_length env > 0);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        ("current " ^ k)
        (Some (Printf.sprintf "%s-120" k))
        (Tsb.get t k))
    [ "a"; "b"; "c"; "d" ];
  (* Freed pages are really reused by the next allocations. *)
  let reused0 = (Env.stats env).Env.pages_reused in
  for round = 1 to 120 do
    List.iter
      (fun k -> ignore (Tsb.put t ~key:k ~value:(Printf.sprintf "%s-bis-%d" k round)))
      [ "a"; "b"; "c"; "d" ]
  done;
  Alcotest.(check bool) "free list reused" true
    ((Env.stats env).Env.pages_reused > reused0)

let test_gc_purges_and_merges () =
  (* Delete a whole key range, then gc with horizon = now: the tombstone
     runs purge, emptied leaves merge into their left siblings, and the
     merged pages are freed. *)
  let env, t = mk () in
  let n = 400 in
  for i = 0 to n - 1 do
    ignore (Tsb.put t ~key:(Printf.sprintf "key%04d" i) ~value:(String.make 40 'v'))
  done;
  ignore (Env.drain env);
  (* Tombstone everything except a survivor prefix. *)
  for i = 40 to n - 1 do
    ignore (Tsb.remove t (Printf.sprintf "key%04d" i))
  done;
  ignore (Env.drain env);
  Tsb.set_horizon t (Tsb.now t);
  let freed = Tsb.gc t in
  check_wf t;
  let s = Tsb.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "purged tombstone runs (%d)" s.Tsb.tombstones_purged)
    true
    (s.Tsb.tombstones_purged > 0);
  Alcotest.(check bool)
    (Printf.sprintf "emptied leaves merged (%d merges, %d freed)" s.Tsb.merges freed)
    true (s.Tsb.merges > 0);
  (* Deleted keys read as absent at every surviving time; survivors live. *)
  for i = 0 to 39 do
    Alcotest.(check (option string))
      (Printf.sprintf "survivor %d" i)
      (Some (String.make 40 'v'))
      (Tsb.get t (Printf.sprintf "key%04d" i))
  done;
  for i = 40 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "gone %d" i)
      None
      (Tsb.get t (Printf.sprintf "key%04d" i))
  done;
  (* Writes after gc still work and split normally. *)
  for i = 0 to 99 do
    ignore (Tsb.put t ~key:(Printf.sprintf "new%04d" i) ~value:"fresh")
  done;
  ignore (Env.drain env);
  check_wf t

let test_gc_crash_recovery () =
  (* Crash right after gc and recover: the cut chains, purged runs and
     merged leaves must all replay to a well-formed tree. *)
  let env, t = mk () in
  for round = 1 to 60 do
    for i = 0 to 11 do
      ignore (Tsb.put t ~key:(Printf.sprintf "key%02d" i) ~value:(Printf.sprintf "r%d" round))
    done
  done;
  for i = 6 to 11 do
    ignore (Tsb.remove t (Printf.sprintf "key%02d" i))
  done;
  ignore (Env.drain env);
  Tsb.set_horizon t (Tsb.now t);
  ignore (Tsb.gc t : int);
  Env.crash env;
  ignore (Env.recover env);
  let t =
    match Tsb.open_existing env ~name:"v" with
    | Some t -> t
    | None -> Alcotest.fail "tsb tree lost"
  in
  check_wf t;
  for i = 0 to 5 do
    Alcotest.(check (option string))
      (Printf.sprintf "survivor %d" i)
      (Some "r60")
      (Tsb.get t (Printf.sprintf "key%02d" i))
  done;
  for i = 6 to 11 do
    Alcotest.(check (option string))
      (Printf.sprintf "gone %d" i)
      None
      (Tsb.get t (Printf.sprintf "key%02d" i))
  done

let test_txn_abort_discards_version () =
  let env, t = mk () in
  ignore (Tsb.put t ~key:"k" ~value:"keep");
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  ignore (Tsb.put ~txn t ~key:"k" ~value:"doomed");
  Pitree_txn.Txn_mgr.abort mgr txn;
  Alcotest.(check (option string)) "aborted version invisible" (Some "keep")
    (Tsb.get t "k");
  Alcotest.(check int) "history clean" 1 (List.length (Tsb.history t "k"))

(* A time split logs one move record: the history node's copy of the
   whole node and the current node's trim, whose dead versions are written
   as positions in that copy — below one page plus 4 B per dead
   version. *)
let test_time_split_logs_one_move () =
  let module Log_record = Pitree_wal.Log_record in
  let module Log_manager = Pitree_wal.Log_manager in
  let module Page_op = Pitree_wal.Page_op in
  let page = 4096 in
  let env =
    Env.create { (cfg ()) with page_size = page; pool_capacity = 256 }
  in
  let t = Tsb.create env ~name:"v" in
  let log = Env.log env in
  let round = ref 0 in
  let rec split () =
    let from = Log_manager.last_lsn log in
    incr round;
    ignore (Tsb.put t ~key:(List.nth [ "a"; "b"; "c"; "d" ] (!round mod 4))
      ~value:(Printf.sprintf "value-%06d" !round));
    if (Tsb.stats t).Tsb.time_splits > 0 then from else split ()
  in
  let from = split () in
  let records = ref [] in
  Log_manager.iter_from log (from + 1) (fun r -> records := r :: !records);
  let moves =
    List.filter_map
      (fun r ->
        match r.Log_record.body with
        | Log_record.Move { parts } -> Some (r, parts)
        | _ -> None)
      !records
  in
  match moves with
  | [ (r, parts) ] ->
      let dead =
        List.fold_left
          (fun n { Log_record.op; _ } ->
            match op with Page_op.Delete_cells { cells } -> n + List.length cells | _ -> n)
          0 parts
      in
      let frame = String.length (Log_record.encode r) in
      Alcotest.(check bool) "dead versions dropped" true (dead > 0);
      Alcotest.(check bool)
        (Printf.sprintf "frame %d B below one page plus 4 B for each of %d dead" frame dead)
        true
        (frame < page + (4 * dead));
      check_wf t
  | l -> Alcotest.failf "time split logged %d move records" (List.length l)

let suites =
  [
    ( "tsb.ordkey",
      [
        Alcotest.test_case "roundtrip" `Quick test_ordkey_roundtrip;
        Alcotest.test_case "ordering" `Quick test_ordkey_ordering;
      ] );
    ( "tsb.basic",
      [
        Alcotest.test_case "put/get" `Quick test_put_get;
        Alcotest.test_case "versions" `Quick test_versions;
        Alcotest.test_case "tombstone" `Quick test_tombstone;
        Alcotest.test_case "history" `Quick test_history;
      ] );
    ( "tsb.splits",
      [
        Alcotest.test_case "time splits preserve history" `Quick
          test_time_splits_preserve_history;
        Alcotest.test_case "key splits copy history ptr (Fig 1)" `Quick
          test_key_splits_copy_history_pointer;
        Alcotest.test_case "tree growth" `Quick test_many_keys_tree_growth;
        Alcotest.test_case "time split logs one move" `Quick test_time_split_logs_one_move;
      ] );
    ( "tsb.queries",
      [
        Alcotest.test_case "snapshot scan" `Quick test_snapshot_scan;
        Alcotest.test_case "range bounds" `Quick test_range_asof_bounds;
      ] );
    ( "tsb.gc",
      [
        Alcotest.test_case "horizon gc drains history" `Quick test_gc_drains_history;
        Alcotest.test_case "gc purges tombstones and merges leaves" `Quick
          test_gc_purges_and_merges;
        Alcotest.test_case "gc then crash recovers" `Quick test_gc_crash_recovery;
      ] );
    ( "tsb.recovery",
      [
        Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
        Alcotest.test_case "txn abort discards version" `Quick
          test_txn_abort_discards_version;
      ] );
  ]
