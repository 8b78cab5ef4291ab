(* Fuzzy checkpoints: exact ATT/DPT snapshots under live transactions,
   truncation safety, bounded restart, and cross-process restart after the
   log has been physically truncated. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Disk = Pitree_storage.Disk
module Log_manager = Pitree_wal.Log_manager
module Recovery = Pitree_wal.Recovery
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Wellformed = Pitree_core.Wellformed

let cfg =
  {
    Env.default_config with
    page_size = 256;
    pool_capacity = 256;
    page_oriented_undo = false;
    consolidation = true;
  }

let key d i = Printf.sprintf "d%dk%05d" d i

(* Fuzzy checkpoints taken while writer domains commit and an uncommitted
   transaction stays open: after a crash, recovery from the checkpoint must
   keep exactly the committed updates — none lost (the checkpoint must not
   claim undurable work as durable), none double-applied (redo is
   LSN-guarded), losers rolled back. *)
let test_fuzzy_concurrent_with_writers () =
  let env = Env.create cfg in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  (* Uncommitted transaction spanning every checkpoint below. *)
  let unc = Txn_mgr.begin_txn mgr Txn.User in
  let unc_keys = List.init 16 (fun i -> Printf.sprintf "unc%04d" i) in
  List.iter (fun k -> Blink.insert ~txn:unc t ~key:k ~value:"doomed") unc_keys;
  let per = 400 in
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Blink.insert t ~key:(key d i) ~value:(Printf.sprintf "v%d.%d" d i)
            done))
  in
  (* Checkpoint repeatedly while the writers run. *)
  for _ = 1 to 5 do
    Env.checkpoint env;
    Thread.delay 0.001
  done;
  List.iter Domain.join writers;
  Env.checkpoint env;
  let total_records = Log_manager.last_lsn (Env.log env) in
  Log_manager.flush_all (Env.log env);
  Env.crash env;
  let report = Env.recover env in
  let t = Option.get (Blink.open_existing env ~name:"t") in
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
  for d = 0 to 1 do
    for i = 0 to per - 1 do
      Alcotest.(check (option string))
        (key d i)
        (Some (Printf.sprintf "v%d.%d" d i))
        (Blink.find t (key d i))
    done
  done;
  List.iter
    (fun k ->
      Alcotest.(check (option string)) (k ^ " rolled back") None (Blink.find t k))
    unc_keys;
  Alcotest.(check bool)
    (Printf.sprintf "analysis bounded (%d analyzed, %d total records)"
       report.Recovery.analyzed total_records)
    true
    (report.Recovery.analyzed < total_records)

(* Checkpoints racing live aborts: begin_checkpoint waits out in-flight
   rollbacks (the [undoing] counter), so the snapshot never captures a
   mid-abort transaction whose CLRs it cannot see. *)
let test_fuzzy_concurrent_with_aborts () =
  let env = Env.create cfg in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let aborter =
    Domain.spawn (fun () ->
        for i = 0 to 149 do
          let txn = Txn_mgr.begin_txn mgr Txn.User in
          Blink.insert ~txn t ~key:(Printf.sprintf "ab%04d" i) ~value:"x";
          Txn_mgr.abort mgr txn
        done)
  in
  for _ = 1 to 8 do
    Env.checkpoint env
  done;
  Domain.join aborter;
  Env.checkpoint env;
  Log_manager.flush_all (Env.log env);
  Env.crash env;
  ignore (Env.recover env);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
  for i = 0 to 149 do
    Alcotest.(check (option string))
      (Printf.sprintf "aborted ab%04d stays gone" i)
      None
      (Blink.find t (Printf.sprintf "ab%04d" i))
  done

(* Truncation floor: after a checkpoint, every record at or above the redo
   point — and the full backchain of any live transaction — survives. *)
let test_truncation_floor () =
  let env = Env.create cfg in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 299 do
    Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v"
  done;
  ignore (Env.drain env);
  let mgr = Env.txns env in
  (* A live transaction whose first record predates the checkpoint: its
     records must survive truncation so a later abort can roll it back. *)
  let live = Txn_mgr.begin_txn mgr Txn.User in
  Blink.insert ~txn:live t ~key:"live0" ~value:"tentative";
  let live_first = live.Txn.first_lsn in
  Env.checkpoint env;
  let log = Env.log env in
  let first = Log_manager.first_lsn log in
  let redo = Log_manager.redo_start log in
  Alcotest.(check bool) "something was truncated" true (first > 1);
  Alcotest.(check bool) "redo point survives" true (first <= redo);
  Alcotest.(check bool) "live txn backchain survives" true (first <= live_first);
  ignore (Log_manager.read log redo);
  ignore (Log_manager.read log live_first);
  Alcotest.(check bool) "below the floor is gone" true
    (first = 1
    || match Log_manager.read log (first - 1) with
       | exception Invalid_argument _ -> true
       | _ -> false);
  (* The live transaction can still abort through the truncated log. *)
  Txn_mgr.abort mgr live;
  Alcotest.(check (option string)) "tentative update undone" None
    (Blink.find t "live0");
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t))

(* Restart work is bounded by work-since-checkpoint, not total history:
   same workload with and without the log-bytes trigger. *)
let test_bounded_restart () =
  let run ~auto =
    let env =
      Env.create
        { cfg with Env.ckpt_log_bytes = (if auto then Some 16_384 else None) }
    in
    let t = Blink.create env ~name:"t" in
    for i = 0 to 1_499 do
      Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v"
    done;
    ignore (Env.drain env);
    Log_manager.flush_all (Env.log env);
    Env.crash env;
    let report = Env.recover env in
    let t = Option.get (Blink.open_existing env ~name:"t") in
    Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
    Alcotest.(check (option string)) "data intact" (Some "v")
      (Blink.find t "k00042");
    (report.Recovery.analyzed, (Env.stats env).Env.checkpoints)
  in
  let with_ckpt, ckpts = run ~auto:true in
  let without, _ = run ~auto:false in
  Alcotest.(check bool) "trigger fired" true (ckpts > 1);
  Alcotest.(check bool)
    (Printf.sprintf "analysis bounded: %d (ckpt) vs %d (none)" with_ckpt without)
    true
    (with_ckpt < without / 2)

(* Cross-process restart after physical truncation: the WAL file was
   rewritten (prefix dropped, fd swapped); a fresh process must reload it,
   find the master record, and recover. The file must also have shrunk. *)
let test_open_from_after_truncation () =
  let dir = Filename.temp_file "pitree_ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let pages = Filename.concat dir "pages.db" in
      let wal = Filename.concat dir "wal.log" in
      let fcfg = { cfg with Env.log_path = Some wal } in
      let env =
        Env.create ~disk:(Disk.file ~page_size:256 ~path:pages) fcfg
      in
      let t = Blink.create env ~name:"t" in
      for i = 0 to 599 do
        Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v"
      done;
      ignore (Env.drain env);
      let before = Option.get (Log_manager.file_bytes (Env.log env)) in
      Env.checkpoint env;
      let after = Option.get (Log_manager.file_bytes (Env.log env)) in
      Alcotest.(check bool)
        (Printf.sprintf "WAL file shrank (%d -> %d bytes)" before after)
        true (after < before);
      (* More work after the truncation, then a clean close. *)
      for i = 600 to 799 do
        Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v"
      done;
      ignore (Env.drain env);
      Env.close env;
      (* "Process 2". *)
      let env2 = Env.open_from ~disk:(Disk.file ~page_size:256 ~path:pages) fcfg in
      let report = Env.recover env2 in
      Alcotest.(check (list int)) "no losers" [] report.Recovery.loser_txns;
      let t2 = Option.get (Blink.open_existing env2 ~name:"t") in
      Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t2));
      for i = 0 to 799 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%05d" i)
          (Some "v")
          (Blink.find t2 (Printf.sprintf "k%05d" i))
      done;
      Env.close env2)

(* A torn durable image after truncation: the page's pre-checkpoint history
   is no longer in the log, so rebuilding it depends on the full-page-write
   record logged at its first clean→dirty transition after the checkpoint.
   Without full-page writes
   redo would apply slot operations to an empty page and die (or lose the
   page); with them, every committed update survives. *)
let test_torn_page_after_truncation () =
  let base = Disk.in_memory ~page_size:256 in
  let disk, ctl = Disk.Faulty.wrap ~seed:7L base in
  let env = Env.create ~disk cfg in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 399 do
    Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v1"
  done;
  ignore (Env.drain env);
  (* Flushes every page clean and truncates their history out of the log. *)
  Env.checkpoint env;
  Alcotest.(check bool) "history truncated" true
    (Log_manager.first_lsn (Env.log env) > 1);
  (* Re-dirty the pages: the first clean→dirty transition of each page
     after the checkpoint's Begin must log an image. *)
  for i = 0 to 399 do
    Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v2"
  done;
  ignore (Env.drain env);
  Log_manager.flush_all (Env.log env);
  (* Power failure mid-flush: every dirty page's durable image tears. *)
  Disk.Faulty.set_plan ctl
    {
      Disk.Faulty.no_faults with
      Disk.Faulty.torn_write = 1.0;
      protected_pids = [ 1 ];
    };
  (try Pitree_storage.Buffer_pool.flush_all (Env.pool env)
   with Disk.Disk_error _ -> ());
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "some pages were torn" true
    (report.Recovery.torn_pages > 0);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
  for i = 0 to 399 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%05d rebuilt from page image" i)
      (Some "v2")
      (Blink.find t (Printf.sprintf "k%05d" i))
  done

let test_open_from_requires_log_path () =
  Alcotest.(check bool) "open_from without log_path rejected" true
    (match Env.open_from cfg with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Checkpoint stats surface through Env.stats. *)
let test_ckpt_stats () =
  let env = Env.create cfg in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 199 do
    Blink.insert t ~key:(Printf.sprintf "k%05d" i) ~value:"v"
  done;
  ignore (Env.drain env);
  let s0 = Env.stats env in
  Env.checkpoint env;
  let s1 = Env.stats env in
  Alcotest.(check int) "checkpoint counted" (s0.Env.checkpoints + 1)
    s1.Env.checkpoints;
  Alcotest.(check bool) "pages written back" true
    (s1.Env.ckpt_pages_written > s0.Env.ckpt_pages_written);
  Alcotest.(check bool) "records truncated" true
    (s1.Env.ckpt_records_truncated > s0.Env.ckpt_records_truncated)

(* --- full-page writes: one image per page per checkpoint interval --- *)

module Buffer_pool = Pitree_storage.Buffer_pool
module Page = Pitree_storage.Page
module Log_record = Pitree_wal.Log_record

(* A pool of 24 frames in one shard under a tree of ~100 leaves: a sweep of
   reads over the other keys evicts any page the sweep does not touch. *)
let fpw_cfg = { cfg with pool_capacity = 24; pool_shards = Some 1 }
let fpw_keys = 800
let fpw_key i = Printf.sprintf "k%05d" i

(* A tree over [fpw_keys] keys, every page clean after a quiescent checkpoint;
   returns the env, the tree and the leaf holding key 0. *)
let fpw_setup ?disk () =
  let env = Env.create ?disk fpw_cfg in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let txn = ref (Txn_mgr.begin_txn mgr Txn.User) in
  for i = 0 to fpw_keys - 1 do
    Blink.insert ~txn:!txn t ~key:(fpw_key i) ~value:"v0";
    if i mod 100 = 99 then begin
      Txn_mgr.commit mgr !txn;
      txn := Txn_mgr.begin_txn mgr Txn.User
    end
  done;
  Txn_mgr.commit mgr !txn;
  ignore (Env.drain env);
  Env.checkpoint env;
  let fr = Blink.Internal.leaf_for t (fpw_key 0) in
  let leaf = fr.Buffer_pool.pid in
  Blink.Internal.release_s t fr;
  (env, t, leaf)

(* Overwrite key 0 in a committed user transaction. *)
let fpw_write env t v =
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Blink.insert ~txn t ~key:(fpw_key 0) ~value:v;
  Txn_mgr.commit mgr txn

(* Read the keys past the first few: pulls far more leaves than the pool
   holds through it, evicting the leaf of key 0 ([fpw_cycles] checks that
   it did). *)
let fpw_evict t =
  for i = fpw_keys / 2 to fpw_keys - 1 do
    ignore (Blink.find t (fpw_key i))
  done;
  for i = fpw_keys / 2 - 1 downto 16 do
    ignore (Blink.find t (fpw_key i))
  done

(* Clean→dirty transitions of pages with history, whether imaged or not. *)
let transitions env =
  let s = Env.stats env in
  s.Env.page_images + s.Env.page_images_skipped

let images_of env pid =
  let log = Env.log env in
  let l = ref [] in
  Log_manager.iter_from log (Log_manager.first_lsn log) (fun r ->
      match r.Log_record.body with
      | Log_record.Page_image { page; _ } when page = pid ->
          l := r.Log_record.lsn :: !l
      | _ -> ());
  List.rev !l

let last_begin env =
  let log = Env.log env in
  match (Log_manager.read log (Log_manager.checkpoint_lsn log)).Log_record.body with
  | Log_record.End_checkpoint { begin_lsn; _ } -> begin_lsn
  | _ -> Alcotest.fail "checkpoint LSN is not an End_checkpoint"

(* Dirty the leaf, evict it, repeat: each re-dirtying is a clean→dirty
   transition, and only the first one in the checkpoint interval logs an
   image. *)
let fpw_cycles env t k =
  for round = 1 to k do
    let before = transitions env in
    fpw_write env t (Printf.sprintf "v%d" round);
    Alcotest.(check int)
      (Printf.sprintf "round %d dirtied a clean leaf" round)
      (before + 1) (transitions env);
    fpw_evict t
  done

let test_fpw_once_per_interval () =
  let env, t, leaf = fpw_setup () in
  let s0 = Env.stats env in
  fpw_cycles env t 5;
  let s1 = Env.stats env in
  Alcotest.(check int) "one image in the interval" 1
    (s1.Env.page_images - s0.Env.page_images);
  Alcotest.(check int) "four transitions skipped" 4
    (s1.Env.page_images_skipped - s0.Env.page_images_skipped);
  (match images_of env leaf with
  | [ lsn ] ->
      Alcotest.(check bool) "the image follows the Begin" true
        (lsn > last_begin env)
  | l -> Alcotest.failf "expected one image of page %d, got %d" leaf (List.length l));
  (* The next checkpoint's Begin makes the page due again. *)
  Env.checkpoint env;
  let b = last_begin env in
  fpw_cycles env t 3;
  let fresh = List.filter (fun lsn -> lsn > b) (images_of env leaf) in
  Alcotest.(check int) "one new image after the next Begin" 1
    (List.length fresh);
  Alcotest.(check int) "six skipped in all" 6
    ((Env.stats env).Env.page_images_skipped - s0.Env.page_images_skipped)

(* Tear every dirty page on the way down, recover, and check the tree: every
   committed value back, structure well-formed. *)
let tear_and_recover env ctl ~expect =
  Log_manager.flush_all (Env.log env);
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.torn_write = 1.0; protected_pids = [ 1 ] };
  Buffer_pool.crash_flush (Env.pool env);
  Alcotest.(check bool) "the leaf tore" true
    ((Disk.Faulty.counters ctl).Disk.Faulty.torn_writes > 0);
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "torn page rebuilt" true (report.Recovery.torn_pages > 0);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
  for i = 0 to fpw_keys - 1 do
    Alcotest.(check (option string)) (fpw_key i)
      (Some (if i = 0 then expect else "v0"))
      (Blink.find t (fpw_key i))
  done

(* A torn page whose latest transition logged no image is rebuilt from the
   image of an earlier transition in the same interval. *)
let test_fpw_torn_after_skip () =
  let disk, ctl = Disk.Faulty.wrap ~seed:9L (Disk.in_memory ~page_size:256) in
  let env, t, _ = fpw_setup ~disk () in
  fpw_cycles env t 2;
  let skipped = (Env.stats env).Env.page_images_skipped in
  fpw_write env t "v3";
  Alcotest.(check int) "the last transition skipped its image" (skipped + 1)
    (Env.stats env).Env.page_images_skipped;
  tear_and_recover env ctl ~expect:"v3"

(* The race the order inside [Buffer_pool.mark_dirty] closes: a transition
   decides to skip its image, then a fuzzy checkpoint appends its Begin
   before the transition's update lands. The dirty bit flipped before the
   decision, so the checkpoint's write-back sees the page and cleans it;
   the page's next transition then logs an image above the new Begin. Were
   the decision taken before the flip, the checkpoint would miss the page,
   publish a redo point above its only image, truncate that image, and the
   tear below would be unrecoverable. *)
let test_fpw_race_with_checkpoint () =
  let disk, ctl = Disk.Faulty.wrap ~seed:10L (Disk.in_memory ~page_size:256) in
  let env, t, leaf = fpw_setup ~disk () in
  fpw_cycles env t 1;
  let log = Env.log env in
  let pool = Env.pool env in
  let real = Option.get (Buffer_pool.image_logger pool) in
  let parked = Atomic.make false and ckpt_done = Atomic.make false in
  let mark = Log_manager.last_lsn log in
  let begin_logged () =
    let found = ref false in
    for lsn = mark + 1 to Log_manager.last_lsn log do
      match (Log_manager.read log lsn).Log_record.body with
      | Log_record.Begin_checkpoint -> found := true
      | _ -> ()
    done;
    !found
  in
  (* Park the mutator after the logger's decision until the checkpoint has
     logged its Begin, then until it finishes (or, when it waits on this
     page's latch, for a while). *)
  Buffer_pool.set_image_logger pool
    (Some
       (fun pid page ->
         real pid page;
         if pid = leaf && not (Atomic.get parked) then begin
           Atomic.set parked true;
           while not (begin_logged ()) do
             Thread.delay 0.001
           done;
           let deadline = Unix.gettimeofday () +. 0.3 in
           while (not (Atomic.get ckpt_done)) && Unix.gettimeofday () < deadline do
             Thread.delay 0.001
           done
         end));
  let ckpt =
    Domain.spawn (fun () ->
        while not (Atomic.get parked) do
          Thread.delay 0.001
        done;
        Env.checkpoint env;
        Atomic.set ckpt_done true)
  in
  let skipped = (Env.stats env).Env.page_images_skipped in
  fpw_write env t "v2";
  Domain.join ckpt;
  Buffer_pool.set_image_logger pool (Some real);
  Alcotest.(check int) "the parked transition skipped its image" (skipped + 1)
    (Env.stats env).Env.page_images_skipped;
  fpw_write env t "v3";
  tear_and_recover env ctl ~expect:"v3"

(* The leaf of key 0 (pinned): its cells in slot order and its raw image. *)
let leaf_state t =
  let fr = Blink.Internal.leaf_for t (fpw_key 0) in
  let p = fr.Buffer_pool.page in
  let cells = List.rev (Page.fold p ~init:[] ~f:(fun acc _ c -> c :: acc)) in
  let raw = Bytes.to_string (Page.raw p) in
  let dead =
    let c = Page.copy p in
    Page.compact c;
    not (Bytes.equal (Page.raw c) (Page.raw p))
  in
  Blink.Internal.release_s t fr;
  (fr.Buffer_pool.pid, cells, raw, dead)

(* A page image is logged compacted, with its free space left out of the
   frame. Split key 0's leaf so its heap holds dead bytes, make it clean,
   then dirty it: the image drops the dead bytes (same cells, new layout),
   its frame is smaller than a page, and a torn durable copy is rebuilt
   from it with the same cells in the same slot order. *)
let test_fpw_compacted_image () =
  let disk, ctl = Disk.Faulty.wrap ~seed:11L (Disk.in_memory ~page_size:256) in
  let env, t, _ = fpw_setup ~disk () in
  let mgr = Env.txns env in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  for i = 0 to 19 do
    Blink.insert ~txn t ~key:(Printf.sprintf "%s-%02d" (fpw_key 0) i) ~value:"x"
  done;
  Txn_mgr.commit mgr txn;
  ignore (Env.drain env);
  Env.checkpoint env;
  let leaf, cells, raw, dead = leaf_state t in
  Alcotest.(check bool) "the split left dead bytes in the leaf" true dead;
  let s0 = Env.stats env in
  fpw_write env t "v1";
  let s1 = Env.stats env in
  Alcotest.(check int) "one image" 1 (s1.Env.page_images - s0.Env.page_images);
  let b = last_begin env in
  let lsn =
    match List.filter (fun lsn -> lsn > b) (images_of env leaf) with
    | [ lsn ] -> lsn
    | l -> Alcotest.failf "expected one image of page %d, got %d" leaf (List.length l)
  in
  let r = Log_manager.read (Env.log env) lsn in
  let image =
    match r.Log_record.body with
    | Log_record.Page_image { image; _ } -> image
    | _ -> Alcotest.fail "not a page image"
  in
  Alcotest.(check int) "the image is a whole page" 256 (String.length image);
  Alcotest.(check bool) "the image is compacted" true (image <> raw);
  let imaged = Page.of_bytes ~id:leaf (Bytes.of_string image) in
  Alcotest.(check (list string)) "the image holds the leaf's cells" cells
    (List.rev (Page.fold imaged ~init:[] ~f:(fun acc _ c -> c :: acc)));
  let frame = String.length (Log_record.encode r) in
  if frame >= 256 then Alcotest.failf "image frame %d B, not below the page size" frame;
  Alcotest.(check int) "page_image_bytes counts the frame" frame
    (s1.Env.page_image_bytes - s0.Env.page_image_bytes);
  let _, written, _, _ = leaf_state t in
  tear_and_recover env ctl ~expect:"v1";
  let t = Option.get (Blink.open_existing env ~name:"t") in
  let _, recovered, _, _ = leaf_state t in
  Alcotest.(check (list string)) "same cells, same slot order" written recovered

let suites =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "fuzzy with concurrent writers" `Quick
          test_fuzzy_concurrent_with_writers;
        Alcotest.test_case "fuzzy with concurrent aborts" `Quick
          test_fuzzy_concurrent_with_aborts;
        Alcotest.test_case "truncation floor" `Quick test_truncation_floor;
        Alcotest.test_case "bounded restart" `Quick test_bounded_restart;
        Alcotest.test_case "open_from after truncation" `Quick
          test_open_from_after_truncation;
        Alcotest.test_case "torn page after truncation" `Quick
          test_torn_page_after_truncation;
        Alcotest.test_case "open_from requires log_path" `Quick
          test_open_from_requires_log_path;
        Alcotest.test_case "checkpoint stats" `Quick test_ckpt_stats;
      ] );
    ( "checkpoint.fpw",
      [
        Alcotest.test_case "one image per page per interval" `Quick
          test_fpw_once_per_interval;
        Alcotest.test_case "torn page after a skipped image" `Quick
          test_fpw_torn_after_skip;
        Alcotest.test_case "transition racing a checkpoint's Begin" `Quick
          test_fpw_race_with_checkpoint;
        Alcotest.test_case "compacted image with a hole" `Quick
          test_fpw_compacted_image;
      ] );
  ]
