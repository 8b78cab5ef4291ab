(* Integration tests for the B-link Pi-tree engine. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Crash_point = Pitree_util.Crash_point

let small_cfg ?(page_oriented_undo = false) ?(consolidation = true) () =
  (* Tiny pages force deep trees and frequent structure changes. *)
  {
    Env.default_config with
    page_size = 256;
    pool_capacity = 4096;
    page_oriented_undo;
    consolidation;
  }

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "val%06d" i

let check_wf t =
  let report = Blink.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "tree not well-formed: %a" Wellformed.pp_report report

let mk ?page_oriented_undo ?consolidation () =
  let env = Env.create (small_cfg ?page_oriented_undo ?consolidation ()) in
  (env, Blink.create env ~name:"t")

let test_empty () =
  let _, t = mk () in
  Alcotest.(check (option string)) "find on empty" None (Blink.find t "nope");
  Alcotest.(check int) "count" 0 (Blink.count t);
  check_wf t

let test_insert_find_one () =
  let _, t = mk () in
  Blink.insert t ~key:"a" ~value:"1";
  Alcotest.(check (option string)) "hit" (Some "1") (Blink.find t "a");
  Alcotest.(check (option string)) "miss" None (Blink.find t "b");
  check_wf t

let test_overwrite () =
  let _, t = mk () in
  Blink.insert t ~key:"a" ~value:"1";
  Blink.insert t ~key:"a" ~value:"22222";
  Alcotest.(check (option string)) "overwritten" (Some "22222") (Blink.find t "a");
  Alcotest.(check int) "still one record" 1 (Blink.count t)

let test_many_sequential () =
  let env, t = mk () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "count" n (Blink.count t);
  Alcotest.(check bool) "tree actually grew" true (Blink.height t > 1);
  for i = 0 to n - 1 do
    match Blink.find t (key i) with
    | Some v when v = value i -> ()
    | Some v -> Alcotest.failf "wrong value for %s: %s" (key i) v
    | None -> Alcotest.failf "lost key %s" (key i)
  done;
  let s = Blink.stats t in
  Alcotest.(check bool) "splits happened" true (s.Blink.leaf_splits > 10);
  Alcotest.(check bool) "postings completed" true (s.Blink.postings_completed > 0)

let test_many_random () =
  Seeds.with_seed "blink.many-random" @@ fun seed ->
  let env, t = mk () in
  let rng = Pitree_util.Rng.create seed in
  let n = 2000 in
  let keys = Array.init n key in
  Pitree_util.Rng.shuffle rng keys;
  Array.iter (fun k -> Blink.insert t ~key:k ~value:("v" ^ k)) keys;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "count" n (Blink.count t);
  Array.iter
    (fun k ->
      match Blink.find t k with
      | Some v when v = "v" ^ k -> ()
      | _ -> Alcotest.failf "lost or wrong key %s" k)
    keys

let test_range () =
  let _, t = mk () in
  for i = 0 to 499 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  let collected =
    Blink.range t ~low:(key 100) ~high:(key 200) ~init:[] ~f:(fun acc k _ ->
        k :: acc)
  in
  let collected = List.rev collected in
  Alcotest.(check int) "100 keys" 100 (List.length collected);
  Alcotest.(check string) "first" (key 100) (List.hd collected);
  Alcotest.(check string) "last" (key 199) (List.nth collected 99);
  (* Sortedness *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted collected)

let test_delete () =
  let env, t = mk () in
  for i = 0 to 499 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "deleted" true (Blink.delete t (key i))
  done;
  Alcotest.(check bool) "absent delete" false (Blink.delete t "nonexistent");
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "half remain" 250 (Blink.count t);
  for i = 0 to 499 do
    let expect = if i mod 2 = 0 then None else Some (value i) in
    Alcotest.(check (option string)) (key i) expect (Blink.find t (key i))
  done

let test_delete_all_consolidates () =
  let env, t = mk ~consolidation:true () in
  let n = 1500 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  let nodes_full = Blink.node_count t in
  for i = 0 to n - 1 do
    ignore (Blink.delete t (key i))
  done;
  ignore (Env.drain env);
  (* Drain repeatedly: consolidations can cascade. *)
  for _ = 1 to 10 do
    ignore (Env.drain env)
  done;
  check_wf t;
  Alcotest.(check int) "empty" 0 (Blink.count t);
  let s = Blink.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "consolidations ran (%d)" s.Blink.consolidations)
    true
    (s.Blink.consolidations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "nodes reclaimed (%d -> %d)" nodes_full (Blink.node_count t))
    true
    (Blink.node_count t < nodes_full)

let test_cns_mode () =
  (* Consolidation disabled: deletes never merge nodes; tree stays
     well-formed; traversals hold one latch at a time. *)
  let env, t = mk ~consolidation:false () in
  for i = 0 to 999 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  for i = 0 to 999 do
    ignore (Blink.delete t (key i))
  done;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "empty" 0 (Blink.count t);
  Alcotest.(check int) "no consolidations" 0 (Blink.stats t).Blink.consolidations

let test_page_oriented_undo_mode () =
  let env, t = mk ~page_oriented_undo:true () in
  let n = 1200 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "count" n (Blink.count t)

let test_explicit_txn_commit () =
  let env, t = mk () in
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  Blink.insert ~txn t ~key:"a" ~value:"1";
  Blink.insert ~txn t ~key:"b" ~value:"2";
  Pitree_txn.Txn_mgr.commit mgr txn;
  Alcotest.(check (option string)) "a" (Some "1") (Blink.find t "a");
  Alcotest.(check (option string)) "b" (Some "2") (Blink.find t "b")

let test_explicit_txn_abort () =
  let env, t = mk () in
  let mgr = Env.txns env in
  Blink.insert t ~key:"keep" ~value:"1";
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  Blink.insert ~txn t ~key:"gone" ~value:"2";
  Blink.insert ~txn t ~key:"keep" ~value:"overwritten";
  ignore (Blink.delete ~txn t "keep");
  Pitree_txn.Txn_mgr.abort mgr txn;
  Alcotest.(check (option string)) "rolled back insert" None (Blink.find t "gone");
  Alcotest.(check (option string)) "rolled back delete+overwrite" (Some "1")
    (Blink.find t "keep");
  check_wf t

let test_txn_abort_with_split () =
  (* A transaction whose inserts caused splits: abort undoes the records
     but the (independent) splits persist; tree stays well-formed. *)
  let env, t = mk () in
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  for i = 0 to 300 do
    Blink.insert ~txn t ~key:(key i) ~value:(value i)
  done;
  Pitree_txn.Txn_mgr.abort mgr txn;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "all rolled back" 0 (Blink.count t);
  Alcotest.(check bool) "splits survived the abort" true
    ((Blink.stats t).Blink.leaf_splits > 0)

let test_lazy_posting_via_search () =
  (* Posting tasks dropped (simulating crash between atomic actions) are
     re-discovered by searches that traverse side pointers. *)
  let env, t = mk () in
  for i = 0 to 999 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  let s0 = Blink.stats t in
  Alcotest.(check bool) "side traversals occurred" true (s0.Blink.side_traversals > 0);
  check_wf t

let test_olc_free_whitelist () =
  (* A latch-free descent can land on a page a merge already freed: the
     OLC transient whitelist must classify it as a restart (free-listed
     pages read kind [Free]), never decode free-list bytes as a node. *)
  let module Olc = Pitree_storage.Olc in
  let module Page = Pitree_storage.Page in
  let module Bp = Pitree_storage.Buffer_pool in
  let module Latch = Pitree_sync.Latch in
  let env, _t = mk () in
  let pid =
    Pitree_txn.Atomic_action.run (Env.txns env) (fun txn ->
        let fr = Env.alloc_page env txn ~kind:Page.Data ~level:0 in
        let pid = Page.id fr.Bp.page in
        Latch.acquire fr.Bp.latch Latch.X;
        Env.dealloc_page env txn fr;
        Latch.release fr.Bp.latch Latch.X;
        Bp.unpin (Env.pool env) fr;
        pid)
  in
  let fr = Bp.pin (Env.pool env) pid in
  Alcotest.(check bool) "kind reads Free" true (Page.kind fr.Bp.page = Page.Free);
  (match Olc.live fr.Bp.page with
  | () -> Alcotest.fail "Olc.live accepted a free page"
  | exception Olc.Restart -> ());
  Alcotest.(check bool) "Restart is transient" true (Olc.transient Olc.Restart);
  Bp.unpin (Env.pool env) fr

let test_olc_decoding_guard () =
  (* The transient whitelist admits only tagged exceptions: a bare
     Failure/Invalid_argument is a genuine invariant violation and must
     escape the restart ladder. Decode regions wrap themselves in
     [Olc.decoding], which re-checks the version word at the point of
     failure — stable bytes re-raise (real bug), torn bytes restart. *)
  let module Olc = Pitree_storage.Olc in
  let module Page = Pitree_storage.Page in
  let module Bp = Pitree_storage.Buffer_pool in
  let module Latch = Pitree_sync.Latch in
  Alcotest.(check bool) "Failure not transient" false
    (Olc.transient (Failure "bug"));
  Alcotest.(check bool) "Invalid_argument not transient" false
    (Olc.transient (Invalid_argument "index out of bounds"));
  let env, _t = mk () in
  let fr =
    Pitree_txn.Atomic_action.run (Env.txns env) (fun txn ->
        Env.alloc_page env txn ~kind:Page.Data ~level:0)
  in
  let v = Olc.snapshot fr in
  (* Stable bytes: the failure is real and must escape unchanged. *)
  (match Olc.decoding fr v (fun () -> failwith "bug") with
  | _ -> Alcotest.fail "decoding returned"
  | exception Failure m ->
      Alcotest.(check string) "failure escapes on stable bytes" "bug" m
  | exception Olc.Restart ->
      Alcotest.fail "decoding converted a real bug to Restart");
  (* Torn bytes (version word moved): the same failure is a restart. *)
  Latch.acquire fr.Bp.latch Latch.X;
  Latch.release fr.Bp.latch Latch.X;
  (match Olc.decoding fr v (fun () -> failwith "bug") with
  | _ -> Alcotest.fail "decoding returned"
  | exception Olc.Restart -> ()
  | exception Failure _ ->
      Alcotest.fail "decoding let a torn-state failure escape");
  (* A decode that succeeds passes its value through untouched. *)
  Alcotest.(check int) "pass-through" 7
    (Olc.decoding fr (Olc.snapshot fr) (fun () -> 7));
  Bp.unpin (Env.pool env) fr

let test_free_under_latchfree_scan () =
  (* Consolidations free leaves onto the env free list while other
     threads run latch-free scans and finds over the same tree: every
     descent that steps onto a freed page must restart (or fall back),
     never crash a reader or return garbage. *)
  let env, t = mk () in
  let n = 400 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let reader () =
    try
      while not (Atomic.get stop) do
        ignore (Blink.range t ?low:None ?high:None ~init:0 ~f:(fun a _ _ -> a + 1));
        for i = 0 to 20 do
          ignore (Blink.find t (key (i * 17 mod n)))
        done
      done
    with _ -> Atomic.incr failures
  in
  let readers = List.init 3 (fun _ -> Thread.create reader ()) in
  (* Keep a survivor prefix; deleting the rest drains leaves below the
     consolidation threshold, and the auto-drained merges free them. *)
  for i = 20 to n - 1 do
    ignore (Blink.delete t (key i))
  done;
  ignore (Env.drain env);
  Atomic.set stop true;
  List.iter Thread.join readers;
  Alcotest.(check int) "no reader died" 0 (Atomic.get failures);
  Alcotest.(check bool) "leaves were freed under the scan storm" true
    ((Env.stats env).Env.pages_freed > 0);
  check_wf t;
  for i = 0 to 19 do
    Alcotest.(check (option string)) (key i) (Some (value i)) (Blink.find t (key i))
  done

let test_olc_scan_wider_than_pool () =
  (* An optimistic scan pins every leaf it visits until its final
     validation pass, so a scan wider than the pool must exhaust it,
     drop every pin, and fall back to the latched protocol — never
     leaking [Pool_exhausted] to the caller or pins to the pool. With
     one frame of headroom a single leaked pin per attempt would wedge
     the pool within a few iterations. *)
  let env =
    Env.create
      {
        (small_cfg ()) with
        Env.pool_capacity = 8;
        pool_shards = Some 1;
      }
  in
  let t = Blink.create env ~name:"t" in
  let n = 300 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(value i)
  done;
  ignore (Env.drain env);
  Alcotest.(check bool) "tree much wider than the pool" true
    ((Blink.stats t).Blink.leaf_splits > 16);
  for _ = 1 to 20 do
    Alcotest.(check int) "full scan correct at 1-frame headroom" n
      (Blink.count t)
  done;
  Alcotest.(check bool) "scans fell back to the latched path" true
    ((Blink.stats t).Blink.olc_fallbacks > 0);
  (* Point reads (two pins at a time) still succeed optimistically. *)
  let r0 = (Blink.stats t).Blink.olc_fallbacks in
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "find %d" i)
      (Some (value i))
      (Blink.find t (key i))
  done;
  Alcotest.(check int) "no fallbacks on point reads" r0
    (Blink.stats t).Blink.olc_fallbacks

let test_find_locked_repeatable () =
  let env, t = mk () in
  Blink.insert t ~key:"a" ~value:"1";
  let mgr = Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  Alcotest.(check (option string)) "read" (Some "1") (Blink.find ~txn t "a");
  (* S lock held: a concurrent writer would block; same-txn re-read works. *)
  Alcotest.(check (option string)) "re-read" (Some "1") (Blink.find ~txn t "a");
  Pitree_txn.Txn_mgr.commit mgr txn

let test_open_existing () =
  let env, t = mk () in
  Blink.insert t ~key:"a" ~value:"1";
  (match Blink.open_existing env ~name:"t" with
  | None -> Alcotest.fail "tree not found"
  | Some t2 ->
      Alcotest.(check int) "same root" (Blink.root t) (Blink.root t2);
      Alcotest.(check (option string)) "data visible" (Some "1") (Blink.find t2 "a"));
  Alcotest.(check bool) "missing tree" true
    (Blink.open_existing env ~name:"zzz" = None)

let test_large_values () =
  let _, t = mk () in
  (* Values close to the page capacity still work (one record per leaf). *)
  let big = String.make 120 'x' in
  for i = 0 to 49 do
    Blink.insert t ~key:(key i) ~value:big
  done;
  Alcotest.(check int) "count" 50 (Blink.count t);
  check_wf t

let test_binary_keys () =
  let _, t = mk () in
  let keys = [ "\x00"; "\x00\x00"; "\xff"; "a\x00b"; "" ] in
  List.iteri (fun i k -> Blink.insert t ~key:k ~value:(string_of_int i)) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option string)) (String.escaped k) (Some (string_of_int i))
        (Blink.find t k))
    keys;
  check_wf t

(* Property: after an arbitrary interleaving of inserts and deletes, the
   tree contents match a reference map and the tree is well-formed. *)
let prop_tree_matches_model =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map2 (fun k v -> `Insert (k, v)) (int_bound 400) small_nat);
          (3, map (fun k -> `Delete k) (int_bound 400));
        ])
  in
  Test.make ~name:"blink matches model map" ~count:30
    (make Gen.(list_size (int_range 50 400) op_gen))
    (fun ops ->
      let env, t = mk () in
      let model : (string, string) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) ->
              let k = key k and v = string_of_int v in
              Blink.insert t ~key:k ~value:v;
              Hashtbl.replace model k v
          | `Delete k ->
              let k = key k in
              let existed_model = Hashtbl.mem model k in
              let existed_tree = Blink.delete t k in
              if existed_model <> existed_tree then
                Test.fail_reportf "delete disagreement on %s" k;
              Hashtbl.remove model k)
        ops;
      ignore (Env.drain env);
      if not (Wellformed.ok (Blink.verify t)) then Test.fail_report "not well-formed";
      Hashtbl.iter
        (fun k v ->
          match Blink.find t k with
          | Some v' when v' = v -> ()
          | _ -> Test.fail_reportf "mismatch on %s" k)
        model;
      Blink.count t = Hashtbl.length model)

(* The records appended from [from + 1] on. *)
let records_after log from =
  let l = ref [] in
  Pitree_wal.Log_manager.iter_from log (from + 1) (fun r -> l := r :: !l);
  List.rev !l

(* A leaf split logs one move record: the sibling's fill and the split
   node's truncation, with the moved cells written once. Ascending keys:
   after the root's split, the rightmost leaf fills to its 4 KiB page and
   splits. *)
let test_split_logs_one_move () =
  let module Log_record = Pitree_wal.Log_record in
  let module Page_op = Pitree_wal.Page_op in
  let page = 4096 in
  let env = Env.create { Env.default_config with page_size = page; pool_capacity = 256 } in
  let t = Blink.create env ~name:"t" in
  let log = Env.log env in
  let n = ref 0 in
  let insert () =
    Blink.insert t ~key:(key !n) ~value:(value !n);
    incr n
  in
  while (Blink.stats t).Blink.root_splits = 0 do
    insert ()
  done;
  let splits = (Blink.stats t).Blink.leaf_splits in
  let rec split () =
    let from = Pitree_wal.Log_manager.last_lsn log in
    insert ();
    if (Blink.stats t).Blink.leaf_splits > splits then from else split ()
  in
  let moves =
    List.filter
      (fun r -> match r.Log_record.body with Log_record.Move _ -> true | _ -> false)
      (records_after log (split ()))
  in
  match moves with
  | [ ({ Log_record.body = Log_record.Move { parts }; _ } as r) ] ->
      let frame = String.length (Log_record.encode r) in
      let moved =
        List.concat_map
          (fun { Log_record.op; _ } ->
            match op with Page_op.Insert_cells { cells } -> List.map snd cells | _ -> [])
          parts
      in
      let bytes = List.fold_left (fun a c -> a + String.length c) 0 moved in
      Alcotest.(check bool)
        (Printf.sprintf "frame %d B below one page plus 256 B" frame)
        true
        (frame < page + 256);
      (* The truncation costs a few bytes, not a second copy. *)
      Alcotest.(check bool)
        (Printf.sprintf "frame %d B carries the %d moved bytes once" frame bytes)
        true
        (frame < bytes + (4 * List.length moved) + 256);
      check_wf t
  | l -> Alcotest.failf "split logged %d move records" (List.length l)

let suites =
  [
    ( "blink.basic",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "insert/find one" `Quick test_insert_find_one;
        Alcotest.test_case "overwrite" `Quick test_overwrite;
        Alcotest.test_case "many sequential" `Quick test_many_sequential;
        Alcotest.test_case "many random" `Quick test_many_random;
        Alcotest.test_case "range" `Quick test_range;
        Alcotest.test_case "large values" `Quick test_large_values;
        Alcotest.test_case "binary keys" `Quick test_binary_keys;
        Alcotest.test_case "open existing" `Quick test_open_existing;
      ] );
    ( "blink.delete",
      [
        Alcotest.test_case "delete half" `Quick test_delete;
        Alcotest.test_case "delete all consolidates" `Quick
          test_delete_all_consolidates;
        Alcotest.test_case "CNS mode" `Quick test_cns_mode;
      ] );
    ( "blink.txn",
      [
        Alcotest.test_case "commit" `Quick test_explicit_txn_commit;
        Alcotest.test_case "abort" `Quick test_explicit_txn_abort;
        Alcotest.test_case "abort with splits" `Quick test_txn_abort_with_split;
        Alcotest.test_case "find ~txn" `Quick test_find_locked_repeatable;
        Alcotest.test_case "page-oriented undo mode" `Quick
          test_page_oriented_undo_mode;
      ] );
    ( "blink.protocol",
      [
        Alcotest.test_case "lazy posting via search" `Quick
          test_lazy_posting_via_search;
        Alcotest.test_case "olc free-page whitelist" `Quick
          test_olc_free_whitelist;
        Alcotest.test_case "olc decoding guard" `Quick test_olc_decoding_guard;
        Alcotest.test_case "free leaf under latch-free scan" `Quick
          test_free_under_latchfree_scan;
        Alcotest.test_case "olc scan wider than pool" `Quick
          test_olc_scan_wider_than_pool;
        QCheck_alcotest.to_alcotest prop_tree_matches_model;
      ] );
    ( "blink.log",
      [ Alcotest.test_case "split logs one move" `Quick test_split_logs_one_move ] );
  ]
