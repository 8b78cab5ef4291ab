(* The endurance rig and its supporting knobs: log truncation racing a
   transient-write fault plan with a crash at [ckpt.truncated], the
   post-recovery checkpoint watermark, configurable pin backoff with
   seeded jitter, and a miniature end-to-end [Endure.run]. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Log_manager = Pitree_wal.Log_manager
module Recovery = Pitree_wal.Recovery
module Lsn = Pitree_wal.Lsn
module Crash_point = Pitree_util.Crash_point
module Wellformed = Pitree_core.Wellformed
module Endure = Pitree_harness.Endure
module Log_record = Pitree_wal.Log_record
module Txn_mgr = Pitree_txn.Txn_mgr
module Txn = Pitree_txn.Txn

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_temp_dir f =
  let dir = Filename.temp_file "pitree_endure" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Physical truncation racing a transient-write fault plan, with a crash
   landing at [ckpt.truncated] — i.e. immediately after the log prefix was
   physically dropped. The durable prefix of history is gone, so recovery
   has exactly one way back in: the [.ckpt] master-record sidecar published
   at step 5 of the checkpoint protocol. It must bound analysis to the
   surviving suffix and lose nothing committed, even though the page file
   writes were absorbing transient faults the whole time. *)
let test_truncate_race_crash () =
  with_temp_dir (fun dir ->
      let pages = Filename.concat dir "pages.db" in
      let wal = Filename.concat dir "wal.log" in
      let base = Disk.file ~page_size:512 ~path:pages in
      let disk, ctl = Disk.Faulty.wrap ~seed:11L base in
      let cfg =
        {
          Env.default_config with
          page_size = 512;
          pool_capacity = 256;
          log_path = Some wal;
          ckpt_log_bytes = Some 8192;
        }
      in
      let env = Env.create ~disk cfg in
      let t = Blink.create env ~name:"t" in
      Disk.Faulty.set_plan ctl
        { Disk.Faulty.no_faults with Disk.Faulty.transient_write = 0.3 };
      (* The third log-growth checkpoint dies right after truncating. *)
      Crash_point.arm "ckpt.truncated" ~after:2;
      let crashed = ref false in
      let inserted = ref 0 in
      (try
         for i = 0 to 49_999 do
           Blink.insert t ~key:(Printf.sprintf "k%06d" i) ~value:"v";
           inserted := i + 1
         done
       with Crash_point.Crash_requested _ -> crashed := true);
      Crash_point.disarm_all ();
      Alcotest.(check bool) "crash point fired" true !crashed;
      Log_manager.flush_all (Env.log env);
      Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
      Env.crash env;
      let last = Log_manager.last_lsn (Env.log env) in
      let report = Env.recover env in
      (* The master record survived truncation and recovery used it: the
         log starts mid-history yet analysis began at the checkpoint, not
         at the (missing) origin. *)
      Alcotest.(check bool) "master record found" true
        (Log_manager.checkpoint_lsn (Env.log env) <> Lsn.null);
      Alcotest.(check bool) "log starts mid-history" true
        (Log_manager.first_lsn (Env.log env) > 1);
      Alcotest.(check bool)
        (Printf.sprintf "analysis bounded (%d analyzed, %d total)"
           report.Recovery.analyzed last)
        true
        (report.Recovery.analyzed < last);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
      (* Every committed insert — including those whose page writes hit
         transient faults — must be readable. *)
      for i = 0 to !inserted - 1 do
        let k = Printf.sprintf "k%06d" i in
        if Blink.find t k <> Some "v" then Alcotest.failf "%s lost" k
      done;
      Env.close env)

(* Regression: orphaned redo records against a torn page. Truncation keeps
   everything at or above a single [keep_from]; when a live transaction's
   Begin pins that point between a page's full-page image and later updates
   of the same dirty epoch, the image is dropped but the updates survive as
   orphans. Against a valid durable image they are harmless (the page-LSN
   guard skips them), but if the page is torn at crash, redo rebuilds it
   from scratch at LSN 0 — the guard passes — and applying e.g. a slot
   replacement to an empty page kills recovery mid-redo, leaving a virgin
   page still referenced by sibling pointers. Redo must skip a rebuilt
   page's records until a base-establishing one (image or format) arrives.

   The final checkpoint is hand-crafted with a stale dirty-page-table
   rec_lsn, reproducing what the write_back/DPT-capture race emits when a
   page is re-dirtied mid-checkpoint while its page LSN predates the
   truncation point: a redo floor below the log's first retained record. *)
let test_orphans_vs_torn_page () =
  with_temp_dir (fun dir ->
      let pages = Filename.concat dir "pages.db" in
      let base = Disk.file ~page_size:512 ~path:pages in
      let disk, ctl = Disk.Faulty.wrap ~seed:5L base in
      let cfg =
        {
          Env.default_config with
          page_size = 512;
          pool_capacity = 64;
          log_path = Some (Filename.concat dir "wal.log");
        }
      in
      let env = Env.create ~disk cfg in
      let t = Blink.create env ~name:"t" in
      let key i = Printf.sprintf "k%02d" i in
      for i = 0 to 7 do
        Blink.insert t ~key:(key i) ~value:"v0"
      done;
      (* Quiesce: everything durable, log truncated past the inserts. *)
      Env.checkpoint env;
      (* Epoch 1: first touch after the checkpoint logs the protecting
         full-page image, then a slot replacement. *)
      Blink.insert t ~key:(key 0) ~value:"v1";
      (* A live transaction pins truncation here — between the epoch-1
         image and the updates that follow. *)
      let txn = Txn_mgr.begin_txn (Env.txns env) Txn.User in
      (* The future orphans: replacements of existing keys, so their redo
         is invalid against an empty rebuilt page. *)
      Blink.insert t ~key:(key 1) ~value:"v1";
      Blink.insert t ~key:(key 2) ~value:"v1";
      (* Genuine fuzzy checkpoint: write_back cleans the leaf (empty DPT),
         and truncation keeps from the live txn's Begin — dropping the
         epoch-1 image but retaining the two replacements above it. *)
      Env.checkpoint env;
      let log = Env.log env in
      Alcotest.(check bool) "orphans retained: log starts mid-epoch" true
        (Log_manager.first_lsn log > 1);
      Txn_mgr.commit (Env.txns env) txn;
      (* Epoch 2: re-dirty the leaf — a fresh image protects this epoch. *)
      Blink.insert t ~key:(key 3) ~value:"v2";
      let leaf_pid =
        match Buffer_pool.dirty_pages (Env.pool env) with
        | [ (pid, _) ] -> pid
        | l -> Alcotest.failf "expected one dirty page, got %d" (List.length l)
      in
      (* Craft the stale-floor checkpoint: a DPT rec_lsn at the log's first
         retained record drags the redo point below the epoch-2 image, so
         restart replays the orphans. No truncation follows it — exactly
         the window the race leaves open. *)
      let stale = Log_manager.first_lsn log in
      let bb =
        Log_manager.append log ~prev:Lsn.null ~txn:0 Log_record.Begin_checkpoint
      in
      let ee =
        Log_manager.append log ~prev:bb ~txn:0
          (Log_record.End_checkpoint
             { begin_lsn = bb; dpt = [ (leaf_pid, stale) ]; att = [] })
      in
      Log_manager.flush log ee;
      Log_manager.set_checkpoint log ~lsn:ee ~redo:stale;
      Log_manager.flush_all log;
      (* Tear the leaf on its way out, then crash. *)
      Disk.Faulty.set_plan ctl
        {
          Disk.Faulty.no_faults with
          Disk.Faulty.torn_write = 1.0;
          protected_pids = [ 1 ];
        };
      (try Buffer_pool.flush_all (Env.pool env)
       with Disk.Disk_error _ -> ());
      Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
      Env.crash env;
      let report = Env.recover env in
      Alcotest.(check bool) "leaf was torn" true
        (report.Pitree_wal.Recovery.torn_pages >= 1);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      Alcotest.(check bool) "well-formed" true (Wellformed.ok (Blink.verify t));
      let expect = [ "v1"; "v1"; "v1"; "v2"; "v0"; "v0"; "v0"; "v0" ] in
      List.iteri
        (fun i v ->
          Alcotest.(check (option string)) (key i) (Some v)
            (Blink.find t (key i)))
        expect;
      Env.close env)

(* Regression: the log-growth trigger compares the WAL's append counter
   against a watermark recorded at the last checkpoint. The counter
   restarts at zero when a crash rebuilds the log manager, so an un-rebased
   watermark left the checkpointer (and truncation) dormant until the new
   log outgrew the entire pre-crash one. Recovery must rebase it. *)
let test_watermark_rebased_after_recovery () =
  with_temp_dir (fun dir ->
      let pages = Filename.concat dir "pages.db" in
      let cfg =
        {
          Env.default_config with
          page_size = 512;
          pool_capacity = 256;
          log_path = Some (Filename.concat dir "wal.log");
          ckpt_log_bytes = Some 8192;
        }
      in
      let env =
        Env.create ~disk:(Disk.file ~page_size:512 ~path:pages) cfg
      in
      let t = Blink.create env ~name:"t" in
      for i = 0 to 4_999 do
        Blink.insert t ~key:(Printf.sprintf "a%05d" i) ~value:"v"
      done;
      ignore (Env.drain env);
      let before_crash = (Env.stats env).Env.checkpoints in
      Alcotest.(check bool) "checkpoints ran before crash" true
        (before_crash > 0);
      Log_manager.flush_all (Env.log env);
      Env.crash env;
      ignore (Env.recover env);
      let t = Option.get (Blink.open_existing env ~name:"t") in
      (* Far less work than the pre-crash total, but well past the 8 KiB
         trigger measured from the recovery point. *)
      for i = 0 to 999 do
        Blink.insert t ~key:(Printf.sprintf "b%05d" i) ~value:"v"
      done;
      ignore (Env.drain env);
      Alcotest.(check bool)
        (Printf.sprintf "checkpoints resumed after recovery (%d -> %d)"
           before_crash (Env.stats env).Env.checkpoints)
        true
        ((Env.stats env).Env.checkpoints > before_crash);
      Env.close env)

(* [pin_attempts] bounds the full-shard retry ladder: a single-shard pool
   with every frame pinned must raise [Pool_exhausted] after the
   configured two waits — quickly — and recover as soon as a pin drops. *)
let test_pin_backoff_config () =
  let disk = Disk.in_memory ~page_size:256 in
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1 ~pin_attempts:2 ~disk
      ~wal_flush:(fun _ -> ())
      ()
  in
  Alcotest.(check int) "pin_attempts" 2 (Buffer_pool.pin_attempts pool);
  let cap = Buffer_pool.capacity pool in
  let frames = List.init cap (fun i -> Buffer_pool.pin_new pool (i + 2)) in
  let t0 = Unix.gettimeofday () in
  Alcotest.check_raises "exhausted" Buffer_pool.Pool_exhausted (fun () ->
      ignore (Buffer_pool.pin_new pool (cap + 2)));
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "gave up after the 2-attempt ladder (%.3fs)" waited)
    true (waited < 0.05);
  Buffer_pool.unpin pool (List.hd frames);
  let f = Buffer_pool.pin_new pool (cap + 2) in
  Buffer_pool.unpin pool f;
  List.iter (Buffer_pool.unpin pool) (List.tl frames)

(* The knob plumbs through [Env.config]. *)
let test_pin_attempts_via_env () =
  let cfg =
    {
      Env.default_config with
      page_size = 256;
      pool_capacity = 64;
      pool_pin_attempts = Some 3;
    }
  in
  let env = Env.create cfg in
  Alcotest.(check int) "env-configured pin_attempts" 3
    (Buffer_pool.pin_attempts (Env.pool env));
  Env.close env

(* Seeded jitter: equal seeds reproduce equal backoff sequences, different
   seeds diverge, and every wait lands in [0.5, 1.5) x the un-jittered
   capped-exponential nominal. *)
let test_backoff_jitter () =
  let mk seed =
    Buffer_pool.create ~capacity:8 ~shards:1 ~backoff_seed:seed
      ~disk:(Disk.in_memory ~page_size:256)
      ~wal_flush:(fun _ -> ())
      ()
  in
  let draws pool =
    List.init 32 (fun i ->
        Buffer_pool.Testing.backoff_duration pool ~attempt:(i mod 8))
  in
  let a = draws (mk 7) and b = draws (mk 7) and c = draws (mk 8) in
  Alcotest.(check (list (float 0.0))) "same seed, same sequence" a b;
  Alcotest.(check bool) "different seed diverges" true (a <> c);
  List.iteri
    (fun i d ->
      let nominal = min (0.0002 *. (2.0 ** float_of_int (min (i mod 8) 4))) 0.002 in
      if not (d >= 0.5 *. nominal && d < 1.5 *. nominal) then
        Alcotest.failf "draw %d: %.6fs outside [0.5, 1.5) x %.6fs" i d nominal)
    a

(* Regression: rec_lsn used to be (page LSN + 1) — sound, but arbitrarily
   loose. One update to a cold page whose LSN predates the last checkpoint
   dragged the redo floor (and with it the truncation keep-point) below
   the retained log, and under steady Zipf traffic over a million keys
   some checkpoint interval always contains one: the acceptance run logged
   19 checkpoints, zero records truncated, a 103 MB WAL. A freshly created
   page (LSN 0) was worse — rec_lsn 1 floors truncation at the origin.
   The pool now samples an installed WAL-tail source at the clean→dirty
   transition (the first un-persisted record is appended after it, so
   tail + 1 is sound and tight), keeping the page-LSN fallback only for
   source-less pools. *)
let test_rec_lsn_from_wal_tail () =
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1
      ~disk:(Disk.in_memory ~page_size:256)
      ~wal_flush:(fun _ -> ())
      ()
  in
  let tail = ref 41 in
  Buffer_pool.set_lsn_source pool (Some (fun () -> !tail));
  let fr = Buffer_pool.pin_new pool 2 in
  Buffer_pool.mark_dirty fr;
  Alcotest.(check (list (pair int int)))
    "fresh page: rec_lsn = tail + 1"
    [ (2, 42) ]
    (Buffer_pool.dirty_pages pool);
  Buffer_pool.flush_page pool fr;
  tail := 99;
  Pitree_storage.Page.set_lsn fr.Buffer_pool.page 7;
  Buffer_pool.mark_dirty fr;
  Alcotest.(check (list (pair int int)))
    "cold page: rec_lsn = tail + 1, not its stale page LSN"
    [ (2, 100) ]
    (Buffer_pool.dirty_pages pool);
  Buffer_pool.flush_page pool fr;
  Buffer_pool.set_lsn_source pool None;
  Buffer_pool.mark_dirty fr;
  Alcotest.(check (list (pair int int)))
    "no source installed: page LSN + 1 fallback"
    [ (2, 8) ]
    (Buffer_pool.dirty_pages pool);
  Buffer_pool.unpin pool fr

(* The clean→dirty transition samples rec_lsn and sets the dirty bit
   before the full-page-write hook runs: a checkpoint whose Begin the
   hook's decision missed must find the page dirty when it lists
   write-back candidates. *)
let test_image_hook_after_dirty_flip () =
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1
      ~disk:(Disk.in_memory ~page_size:256)
      ~wal_flush:(fun _ -> ())
      ()
  in
  Buffer_pool.set_lsn_source pool (Some (fun () -> 41));
  let seen = ref None in
  Buffer_pool.set_image_logger pool
    (Some (fun _ _ -> seen := Some (Buffer_pool.dirty_pages pool)));
  let fr = Buffer_pool.pin_new pool 2 in
  Pitree_storage.Page.set_lsn fr.Buffer_pool.page 7;
  Buffer_pool.mark_dirty fr;
  Alcotest.(check (option (list (pair int int))))
    "the hook sees the page dirty, with its rec_lsn"
    (Some [ (2, 42) ])
    !seen;
  Buffer_pool.unpin pool fr

(* Miniature end-to-end run: one crash cycle, faults on, a few seconds of
   mixed load over a small key space. Every SLO must hold and the JSON
   document must carry the per-kind p999 and fault counters CI parses. *)
let test_endure_smoke () =
  let cfg =
    {
      Endure.default_config with
      Endure.keys = 4_000;
      seconds = 1.2;
      domains = 2;
      pool_capacity = 1024;
      ckpt_log_bytes = 262_144;
      crash_cycles = 1;
      verify_sample = 400;
      seed = 99L;
    }
  in
  let r = Endure.run cfg in
  Alcotest.(check int) "no lost writes" 0 r.Endure.lost_writes;
  Alcotest.(check int) "no scan shortfalls" 0 r.Endure.scan_shortfalls;
  Alcotest.(check int) "no wellformed failures" 0 r.Endure.wellformed_failures;
  Alcotest.(check int) "crash cycles" 1 r.Endure.cycles_done;
  Alcotest.(check bool) "passed" true r.Endure.passed;
  let json = Endure.to_json r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in JSON") true (contains json needle))
    [
      "\"p999_ns\"";
      "\"faults\"";
      "\"slos\"";
      "\"passed\": true";
      "\"page_images_skipped\"";
    ]

let suites =
  [
    ( "endure",
      [
        Alcotest.test_case "truncate races faults + crash at ckpt.truncated"
          `Quick test_truncate_race_crash;
        Alcotest.test_case "orphaned redo records vs torn page" `Quick
          test_orphans_vs_torn_page;
        Alcotest.test_case "ckpt watermark rebased after recovery" `Quick
          test_watermark_rebased_after_recovery;
        Alcotest.test_case "pin backoff: bounded attempts" `Quick
          test_pin_backoff_config;
        Alcotest.test_case "pin backoff: env plumbing" `Quick
          test_pin_attempts_via_env;
        Alcotest.test_case "pin backoff: seeded jitter" `Quick
          test_backoff_jitter;
        Alcotest.test_case "rec_lsn from WAL tail" `Quick
          test_rec_lsn_from_wal_tail;
        Alcotest.test_case "image hook after the dirty flip" `Quick
          test_image_hook_after_dirty_flip;
        Alcotest.test_case "endure smoke" `Slow test_endure_smoke;
      ] );
  ]
