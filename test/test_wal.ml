(* Unit tests for pitree.wal: log records, page ops, log manager, recovery. *)

module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Lsn = Pitree_wal.Lsn
module Page_op = Pitree_wal.Page_op
module Log_record = Pitree_wal.Log_record
module Log_manager = Pitree_wal.Log_manager
module Logical = Pitree_wal.Logical
module Recovery = Pitree_wal.Recovery

let sample_ops =
  [
    Page_op.Format { kind = Page.Data; level = 0 };
    Page_op.Reformat
      { old_kind = Page.Data; new_kind = Page.Index; old_level = 0; new_level = 1 };
    Page_op.Insert_slot { slot = 3; cell = "hello" };
    Page_op.Delete_slot { slot = 0; cell = "bye\x00bye" };
    Page_op.Replace_slot { slot = 7; old_cell = "a"; new_cell = "bb" };
    Page_op.Set_side_ptr { old_ptr = 0; new_ptr = 42 };
    Page_op.Set_aux_ptr { old_ptr = 9; new_ptr = 0 };
    Page_op.Set_flags { old_flags = 0; new_flags = 257 };
    Page_op.Insert_cells { cells = [ (1, "x"); (2, "yy"); (0, "zzz") ] };
    Page_op.Delete_cells { cells = [ (4, ""); (0, "q") ] };
  ]

let test_page_op_codec () =
  List.iter
    (fun op ->
      let b = Buffer.create 32 in
      Page_op.encode b op;
      let decoded = Page_op.decode (Pitree_util.Codec.reader (Buffer.contents b)) in
      if decoded <> op then
        Alcotest.failf "page op roundtrip failed: %a" Page_op.pp op)
    sample_ops

(* Logs written before the cell runs hold whole-page [Clear] (tag 9) and
   [Restore] (tag 10) ops: they decode as the equivalent runs. *)
let test_page_op_legacy_tags () =
  let legacy tag =
    let b = Buffer.create 16 in
    Pitree_util.Codec.put_u8 b tag;
    Pitree_util.Codec.put_u32 b 2;
    List.iter (Pitree_util.Codec.put_bytes b) [ "x"; "yy" ];
    Page_op.decode (Pitree_util.Codec.reader (Buffer.contents b))
  in
  Alcotest.(check bool) "clear decodes as a delete run" true
    (legacy 9 = Page_op.Delete_cells { cells = [ (1, "yy"); (0, "x") ] });
  Alcotest.(check bool) "restore decodes as an insert run" true
    (legacy 10 = Page_op.insert_run ~slot:0 [ "x"; "yy" ])

let test_page_op_invert_involution () =
  List.iter
    (fun op ->
      let original = Page_op.invert (Page_op.invert op) in
      (* invert is an involution except Format (whose inverse is lossy by
         design: fresh allocations only). *)
      match op with
      | Page_op.Format _ -> ()
      | _ ->
          if original <> op then
            Alcotest.failf "invert not involutive on %a" Page_op.pp op)
    sample_ops

let test_page_op_undo_restores () =
  (* Applying op then its inverse restores the page content. *)
  let p = Page.create ~size:512 ~id:1 ~kind:Page.Data ~level:0 in
  Page.insert p 0 "zero";
  Page.insert p 1 "one";
  Page.set_side_ptr p 5;
  let snapshot () = Bytes.to_string (Bytes.copy (Page.raw p)) in
  let ops =
    [
      Page_op.Insert_slot { slot = 1; cell = "inserted" };
      Page_op.Delete_slot { slot = 0; cell = "zero" };
      Page_op.Replace_slot { slot = 0; old_cell = "zero"; new_cell = "ZERO!" };
      Page_op.Set_side_ptr { old_ptr = 5; new_ptr = 77 };
      Page_op.Delete_cells { cells = [ (1, "one"); (0, "zero") ] };
      Page_op.Insert_cells { cells = [ (0, "a"); (3, "d"); (1, "b") ] };
    ]
  in
  List.iter
    (fun op ->
      let before = snapshot () in
      Page_op.redo p op;
      Page_op.redo p (Page_op.invert op);
      (* Compare logical content, not raw bytes (heap layout may differ). *)
      let restored = Page.fold p ~init:[] ~f:(fun acc _ c -> c :: acc) in
      let q = Page.of_bytes ~id:1 (Bytes.of_string before) in
      let original = Page.fold q ~init:[] ~f:(fun acc _ c -> c :: acc) in
      if restored <> original || Page.side_ptr p <> Page.side_ptr q then
        Alcotest.failf "undo failed to restore after %a" Page_op.pp op)
    ops

(* A cell run that cannot apply whole raises before it touches the page:
   the caller applies an op before logging it, so a half-applied run would
   be an unlogged change. *)
let test_page_op_run_checks_first () =
  let p = Page.create ~size:128 ~id:1 ~kind:Page.Data ~level:0 in
  Page.insert p 0 "zero";
  Page.insert p 1 "one";
  let before = Bytes.to_string (Page.raw p) in
  let unchanged what =
    Alcotest.(check string) (what ^ ": page untouched") before
      (Bytes.to_string (Page.raw p))
  in
  Alcotest.check_raises "run too big" Page.Page_full (fun () ->
      Page_op.redo p
        (Page_op.insert_run ~slot:2 [ String.make 40 'a'; String.make 40 'b' ]));
  unchanged "too big";
  (match
     Page_op.redo p (Page_op.Insert_cells { cells = [ (2, "ok"); (5, "bad") ] })
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range insert run applied");
  unchanged "insert out of range";
  (match
     Page_op.redo p
       (Page_op.Delete_cells { cells = [ (1, "one"); (0, "zero"); (0, "gone") ] })
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-long delete run applied");
  unchanged "delete past the end";
  Page_op.redo p (Page_op.delete_where p (fun _ -> true));
  Alcotest.(check int) "delete_where empties" 0 (Page.slot_count p)

let roundtrip_record r =
  let decoded = Log_record.decode (Log_record.encode r) in
  if decoded <> r then Alcotest.failf "log record roundtrip: %a" Log_record.pp r

let test_log_record_codec () =
  List.iter roundtrip_record
    [
      { Log_record.lsn = 1; prev = 0; txn = 5; body = Log_record.Begin { kind = Log_record.User } };
      { lsn = 2; prev = 1; txn = 5; body = Log_record.Commit };
      { lsn = 3; prev = 2; txn = 5; body = Log_record.Abort };
      { lsn = 4; prev = 3; txn = 5; body = Log_record.End };
      {
        lsn = 5;
        prev = 4;
        txn = 5;
        body =
          Log_record.Update
            { page = 9; op = Page_op.Insert_slot { slot = 1; cell = "x" }; lundo = None };
      };
      {
        lsn = 6;
        prev = 5;
        txn = 5;
        body =
          Log_record.Update
            {
              page = 9;
              op = Page_op.Delete_slot { slot = 1; cell = "x" };
              lundo =
                Some { Log_record.tree = 2; comp = Logical.Put { cell = "x" } };
            };
      };
      {
        lsn = 7;
        prev = 6;
        txn = 5;
        body =
          Log_record.Clr
            { page = 9; op = Page_op.Insert_slot { slot = 1; cell = "x" }; undo_next = 3 };
      };
      {
        lsn = 8;
        prev = 0;
        txn = 0;
        body = Log_record.Page_image { page = 4; image = String.make 64 '\xAB' };
      };
      {
        lsn = 8;
        prev = 0;
        txn = 0;
        body =
          Log_record.Update
            {
              page = 9;
              op = Page_op.insert_run ~slot:1 [ "a"; "bb"; "" ];
              lundo = None;
            };
      };
      {
        lsn = 8;
        prev = 0;
        txn = 0;
        body =
          Log_record.Clr
            {
              page = 9;
              op = Page_op.Delete_cells { cells = [ (3, "c"); (1, "a") ] };
              undo_next = 2;
            };
      };
      { lsn = 8; prev = 0; txn = 0; body = Log_record.Begin_checkpoint };
      {
        lsn = 9;
        prev = 0;
        txn = 0;
        body =
          Log_record.End_checkpoint
            {
              begin_lsn = 8;
              dpt = [ (9, 4); (12, 7) ];
              att = [ (5, 6, false); (7, 2, true) ];
            };
      };
    ]

let frame_len body =
  String.length (Log_record.encode { Log_record.lsn = 1; prev = 0; txn = 1; body })

let update ?lundo op = Log_record.Update { page = 3; op; lundo }

(* A logical undo that repeats its op's before-image (or, for hB's
   [Remove], its op's cell) stores those bytes once: the frame is shorter
   than the spelled-out form by at least the shared cell, and decodes to the
   same value. A compensation that differs from the op by one byte is
   stored in full. *)
let test_lundo_shares_the_before_image () =
  let old_cell = String.make 300 'o' and cell = String.make 200 'c' in
  let keyed_cell =
    let b = Buffer.create 64 in
    Pitree_util.Codec.put_bytes b (String.make 40 'k');
    Pitree_util.Codec.put_bytes b "payload";
    Buffer.contents b
  in
  let lundo comp = Some { Log_record.tree = 7; comp } in
  let put c = lundo (Logical.Put { cell = c }) in
  let cases =
    [
      ( "replace + put",
        Page_op.Replace_slot { slot = 2; old_cell; new_cell = "new" },
        put old_cell,
        String.length old_cell );
      ("delete + put", Page_op.Delete_slot { slot = 4; cell }, put cell, String.length cell);
      ( "insert + remove",
        Page_op.Insert_slot { slot = 0; cell },
        lundo (Logical.Remove { key = cell }),
        String.length cell );
      (* Blink and TSB record cells lead with their key, length-prefixed:
         the key is stored once, in the cell. *)
      ( "insert + remove of the cell's key",
        Page_op.Insert_slot { slot = 1; cell = keyed_cell },
        lundo (Logical.Remove { key = String.make 40 'k' }),
        40 );
      ( "insert + remove of an empty key",
        Page_op.Insert_slot { slot = 1; cell = "\000\000\000\000tail" },
        lundo (Logical.Remove { key = "" }),
        0 );
    ]
  in
  List.iter
    (fun (what, op, lundo, shared) ->
      let body = update ?lundo op in
      roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 1; body };
      (* The same record with its compensation's bytes spelled out: a
         one-byte difference defeats the sharing. *)
      let spelled =
        match lundo with
        | Some { Log_record.comp = Logical.Put { cell }; tree } ->
            Some { Log_record.tree; comp = Logical.Put { cell = cell ^ "!" } }
        | Some { Log_record.comp = Logical.Remove { key }; tree } ->
            Some { Log_record.tree; comp = Logical.Remove { key = key ^ "!" } }
        | None -> None
      in
      let differs = update ?lundo:spelled op in
      roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 1; body = differs };
      let saved = frame_len differs - 1 - frame_len body in
      if saved < shared then
        Alcotest.failf "%s: elided form saves %d bytes, expected >= %d" what saved shared)
    cases;
  (* A Put that differs from the before-image keeps its own copy. *)
  let op = Page_op.Replace_slot { slot = 2; old_cell; new_cell = "new" } in
  let other = "x" ^ String.sub old_cell 1 299 in
  Alcotest.(check int) "different before-image is not elided"
    (frame_len (update op) + 4 + 1 + 4 + String.length other)
    (frame_len (update ?lundo:(put other) op));
  roundtrip_record
    { Log_record.lsn = 1; prev = 0; txn = 1; body = update ?lundo:(put other) op };
  (* A key that is not the cell's leading field is spelled out. *)
  let ins = Page_op.Insert_slot { slot = 1; cell = keyed_cell } in
  let remove key = lundo (Logical.Remove { key }) in
  Alcotest.(check int) "a key inside the cell, not leading it, is spelled out"
    (frame_len (update ins) + 4 + 1 + 4 + 7)
    (frame_len (update ?lundo:(remove "payload") ins));
  roundtrip_record
    { Log_record.lsn = 1; prev = 0; txn = 1; body = update ?lundo:(remove "payload") ins };
  (* A shared-key frame whose cell's length prefix runs past the cell is
     corrupt: the op's cell starts 47 bytes into the frame (length, three
     header words, tag, page, flag, tree, op tag, slot, cell length). *)
  let frame =
    Bytes.of_string
      (Log_record.encode
         {
           Log_record.lsn = 1;
           prev = 0;
           txn = 1;
           body = update ?lundo:(remove (String.make 40 'k')) ins;
         })
  in
  Alcotest.(check int) "flag 4 written" 4 (Bytes.get_uint8 frame 33);
  Bytes.set_int32_le frame 47 0xffffl;
  Alcotest.(check bool) "shared key past its cell rejected" true
    (match Log_record.decode ~check:false (Bytes.to_string frame) with
    | exception Pitree_util.Codec.Corrupt _ -> true
    | _ -> false)

(* A page image's longest zero run of at least 64 bytes is left out of the
   frame; shorter runs, odd lengths and images with no zeros round-trip
   whole. *)
let test_page_image_hole () =
  let image ~len ~hole_at ~hole =
    String.init len (fun i ->
        if i >= hole_at && i < hole_at + hole then '\000'
        else Char.chr (1 + (i mod 200)))
  in
  let check what img ~saved_at_least =
    let body = Log_record.Page_image { page = 5; image = img } in
    roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 0; body };
    let whole = 4 + 4 + 1 + 24 + 4 + 4 + String.length img + 4 in
    let saved = whole - frame_len body in
    if saved < saved_at_least then
      Alcotest.failf "%s: frame saves %d bytes, expected >= %d" what saved saved_at_least
  in
  check "long hole" (image ~len:4096 ~hole_at:1000 ~hole:2500) ~saved_at_least:2480;
  check "hole at the end" (image ~len:512 ~hole_at:100 ~hole:412) ~saved_at_least:400;
  check "odd length" (image ~len:1001 ~hole_at:301 ~hole:333) ~saved_at_least:320;
  check "short hole" (image ~len:512 ~hole_at:10 ~hole:63) ~saved_at_least:0;
  check "no hole" (image ~len:512 ~hole_at:0 ~hole:0) ~saved_at_least:0;
  check "all zero" (String.make 4096 '\000') ~saved_at_least:4080;
  (* Below the minimum run the frame is exactly the whole-image frame. *)
  let short = image ~len:512 ~hole_at:10 ~hole:63 in
  Alcotest.(check int) "short run keeps the whole image" (4 + 24 + 1 + 4 + 4 + 512 + 4)
    (frame_len (Log_record.Page_image { page = 5; image = short }));
  (* Of several zero runs, the longest is elided. *)
  let two =
    String.init 2048 (fun i ->
        if (i >= 100 && i < 300) || (i >= 900 && i < 1900) then '\000' else 'x')
  in
  check "two runs" two ~saved_at_least:980

let test_log_record_crc () =
  let r =
    { Log_record.lsn = 1; prev = 0; txn = 1; body = Log_record.Commit }
  in
  let encoded = Bytes.of_string (Log_record.encode r) in
  Bytes.set encoded 6 (Char.chr (Char.code (Bytes.get encoded 6) lxor 1));
  Alcotest.(check bool) "corruption detected" true
    (match Log_record.decode (Bytes.to_string encoded) with
    | exception Pitree_util.Codec.Corrupt _ -> true
    | _ -> false)

let test_log_manager_basics () =
  let log = Log_manager.create () in
  let l1 = Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.User }) in
  let l2 = Log_manager.append log ~prev:l1 ~txn:1 Log_record.Commit in
  Alcotest.(check int) "dense lsns" (l1 + 1) l2;
  Alcotest.(check int) "last" l2 (Log_manager.last_lsn log);
  Alcotest.(check int) "nothing durable yet" 0 (Log_manager.flushed_lsn log);
  Log_manager.flush log l1;
  Alcotest.(check int) "durable to l1" l1 (Log_manager.flushed_lsn log);
  let r = Log_manager.read log l2 in
  Alcotest.(check bool) "read back" true (r.Log_record.body = Log_record.Commit);
  let seen = ref [] in
  Log_manager.iter_from log 1 (fun r -> seen := r.Log_record.lsn :: !seen);
  Alcotest.(check (list int)) "iteration order" [ l2; l1 ] !seen

let test_log_crash_truncates () =
  let log = Log_manager.create () in
  let l1 = Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.User }) in
  let _l2 = Log_manager.append log ~prev:l1 ~txn:1 Log_record.Commit in
  Log_manager.flush log l1;
  let log' = Log_manager.crash log in
  Alcotest.(check int) "volatile tail lost" l1 (Log_manager.last_lsn log');
  Alcotest.(check int) "durable kept" l1 (Log_manager.flushed_lsn log');
  (* Appending continues with dense LSNs. *)
  let l3 = Log_manager.append log' ~prev:0 ~txn:2 (Log_record.Begin { kind = Log_record.System }) in
  Alcotest.(check int) "dense after crash" (l1 + 1) l3

let test_truncation () =
  let log = Log_manager.create () in
  let lsns =
    List.init 10 (fun i ->
        Log_manager.append log ~prev:0 ~txn:(i + 1)
          (Log_record.Begin { kind = Log_record.User }))
  in
  let l5 = List.nth lsns 4 in
  (* Nothing durable yet: truncation is clamped to a no-op. *)
  Alcotest.(check int) "clamped to durable" 0 (Log_manager.truncate log ~keep_from:l5);
  Log_manager.flush_all log;
  Log_manager.set_checkpoint log ~lsn:l5 ~redo:l5;
  Alcotest.(check int) "discards prefix" 4 (Log_manager.truncate log ~keep_from:l5);
  (* Truncated reads fail loudly; surviving reads fine. *)
  Alcotest.(check bool) "read below truncation raises" true
    (match Log_manager.read log 2 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check int) "surviving record" l5 (Log_manager.read log l5).Log_record.lsn;
  (* Iteration skips the discarded prefix. *)
  let seen = ref 0 in
  Log_manager.iter_from log 1 (fun _ -> incr seen);
  Alcotest.(check int) "iter over window" 6 !seen;
  (* Appends continue with dense LSNs and max txn id survives. *)
  let l11 = Log_manager.append log ~prev:0 ~txn:99 Log_record.Commit in
  Alcotest.(check int) "dense" 11 l11;
  Alcotest.(check int) "max txn tracked" 99 (Log_manager.max_txn_id log);
  (* Crash keeps the truncation offset. *)
  Log_manager.flush_all log;
  let log' = Log_manager.crash log in
  Alcotest.(check int) "count preserved" 11 (Log_manager.last_lsn log');
  Alcotest.(check int) "still truncated" l5 (Log_manager.read log' l5).Log_record.lsn

let test_truncation_respects_active_txn () =
  (* End to end: a long-running transaction across a checkpoint keeps its
     undo chain readable; abort after the checkpoint still works. *)
  let module Env = Pitree_env.Env in
  let module Blink = Pitree_blink.Blink in
  let env =
    Env.create
      { Env.default_config with page_size = 256; pool_capacity = 2048; page_oriented_undo = false; consolidation = true }
  in
  let t = Blink.create env ~name:"t" in
  let mgr = Pitree_env.Env.txns env in
  let txn = Pitree_txn.Txn_mgr.begin_txn mgr Pitree_txn.Txn.User in
  for i = 0 to 99 do
    Blink.insert ~txn t ~key:(Printf.sprintf "old%03d" i) ~value:"x"
  done;
  (* Checkpoint + lots of unrelated committed traffic: truncation must stop
     at the open transaction's Begin. *)
  Env.checkpoint env;
  for i = 0 to 399 do
    Blink.insert t ~key:(Printf.sprintf "new%03d" i) ~value:"y"
  done;
  Env.checkpoint env;
  Pitree_txn.Txn_mgr.abort mgr txn;
  ignore (Env.drain env);
  Alcotest.(check bool) "well-formed after late abort" true
    (Pitree_core.Wellformed.ok (Blink.verify t));
  Alcotest.(check int) "only committed rows remain" 400 (Blink.count t)

let test_force_counting () =
  (* Forces count real fsyncs only. An in-memory log advances the
     durability horizon without syncing anything — charging it a force
     skewed the §4.3.1 counter. *)
  let log = Log_manager.create () in
  let l1 = Log_manager.append log ~prev:0 ~txn:1 Log_record.Commit in
  Log_manager.flush log l1;
  Log_manager.flush log l1;
  (* second is a no-op *)
  let s = Log_manager.stats log in
  Alcotest.(check int) "in-memory: no real fsyncs" 0 s.Log_manager.forces;
  Alcotest.(check int) "in-memory: one durability advance" 1 s.Log_manager.flushes;
  Alcotest.(check int) "durable anyway" l1 (Log_manager.flushed_lsn log);
  (* File-backed: exactly one fsync for the commit; the no-op repeat and a
     flush aimed past the appended tail write zero bytes and add none. *)
  let path = Filename.temp_file "pitree_force" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".ckpt") with Sys_error _ -> ())
    (fun () ->
      let log = Log_manager.create ~path () in
      let l1 = Log_manager.append log ~prev:0 ~txn:1 Log_record.Commit in
      Log_manager.flush log l1;
      Log_manager.flush log l1;
      Log_manager.flush log (l1 + 5);
      let s = Log_manager.stats log in
      Alcotest.(check int) "file-backed: exactly one fsync" 1 s.Log_manager.forces;
      Alcotest.(check int) "one request coalesced" 1 s.Log_manager.flush_requests;
      Alcotest.(check bool) "batch mean is 1" true
        (abs_float (s.Log_manager.batch_mean -. 1.0) < 1e-9))

(* Recovery micro-scenario without any engine: two pages, one winner and
   one loser transaction. *)
let test_recovery_redo_undo () =
  let disk = Disk.in_memory ~page_size:256 in
  let log = Log_manager.create () in
  let pool =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let apply txn prev fr op =
    let lsn =
      Log_manager.append log ~prev ~txn
        (Log_record.Update { page = Page.id fr.Buffer_pool.page; op; lundo = None })
    in
    Pitree_wal.Page_op.redo fr.Buffer_pool.page op;
    Page.set_lsn fr.Buffer_pool.page lsn;
    Buffer_pool.mark_dirty fr;
    lsn
  in
  (* Winner txn 1 formats page 5 and inserts; loser txn 2 inserts into it
     but never commits. *)
  let fr = Buffer_pool.pin_new pool 5 in
  let b1 = Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.User }) in
  let u1 = apply 1 b1 fr (Page_op.Format { kind = Page.Data; level = 0 }) in
  let u2 = apply 1 u1 fr (Page_op.Insert_slot { slot = 0; cell = "winner" }) in
  let c1 = Log_manager.append log ~prev:u2 ~txn:1 Log_record.Commit in
  ignore (Log_manager.append log ~prev:c1 ~txn:1 Log_record.End);
  let b2 = Log_manager.append log ~prev:0 ~txn:2 (Log_record.Begin { kind = Log_record.User }) in
  ignore (apply 2 b2 fr (Page_op.Insert_slot { slot = 1; cell = "loser" }));
  Buffer_pool.unpin pool fr;
  (* Crash with everything in the durable log but nothing flushed to disk. *)
  Log_manager.flush_all log;
  Buffer_pool.crash pool;
  let log = Log_manager.crash log in
  let pool2 =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let report = Recovery.run ~log ~pool:pool2 in
  Alcotest.(check (list int)) "loser identified" [ 2 ] report.Recovery.loser_txns;
  Alcotest.(check bool) "redo happened" true (report.Recovery.redone > 0);
  let fr = Buffer_pool.pin pool2 5 in
  Alcotest.(check int) "one cell" 1 (Page.slot_count fr.Buffer_pool.page);
  Alcotest.(check string) "winner survived" "winner" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool2 fr

let test_recovery_idempotent () =
  (* Running recovery twice (double crash during restart) is harmless. *)
  let disk = Disk.in_memory ~page_size:256 in
  let log = Log_manager.create () in
  let pool =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let fr = Buffer_pool.pin_new pool 3 in
  let b = Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.System }) in
  let u =
    Log_manager.append log ~prev:b ~txn:1
      (Log_record.Update
         { page = 3; op = Page_op.Format { kind = Page.Data; level = 0 }; lundo = None })
  in
  Pitree_wal.Page_op.redo fr.Buffer_pool.page (Page_op.Format { kind = Page.Data; level = 0 });
  Page.set_lsn fr.Buffer_pool.page u;
  Buffer_pool.mark_dirty fr;
  Buffer_pool.unpin pool fr;
  Log_manager.flush_all log;
  Buffer_pool.crash pool;
  let log = Log_manager.crash log in
  let pool2 =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let r1 = Recovery.run ~log ~pool:pool2 in
  Alcotest.(check (list int)) "system action rolled back" [ 1 ] r1.Recovery.loser_txns;
  (* Crash again mid-restart (after recovery's CLRs are durable). *)
  Buffer_pool.crash pool2;
  let log = Log_manager.crash log in
  let pool3 =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let r2 = Recovery.run ~log ~pool:pool3 in
  Alcotest.(check (list int)) "no losers second time" [] r2.Recovery.loser_txns

(* A fresh in-memory log and pool, and a raw logged update: the recovery
   scenarios below build their logs record by record. *)
let raw_env () =
  let disk = Disk.in_memory ~page_size:256 in
  let log = Log_manager.create () in
  let pool =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let apply txn prev fr op =
    let lsn =
      Log_manager.append log ~prev ~txn
        (Log_record.Update { page = Page.id fr.Buffer_pool.page; op; lundo = None })
    in
    Page_op.redo fr.Buffer_pool.page op;
    Page.set_lsn fr.Buffer_pool.page lsn;
    Buffer_pool.mark_dirty fr;
    lsn
  in
  (disk, log, pool, apply)

(* Crash with the whole log durable and no page on disk, then restart. *)
let crash_and_recover disk log pool =
  Log_manager.flush_all log;
  Buffer_pool.crash pool;
  let log = Log_manager.crash log in
  let pool =
    Buffer_pool.create ~capacity:16 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let report = Recovery.run ~log ~pool in
  (log, pool, report)

let cells pool pid =
  let fr = Buffer_pool.pin pool pid in
  let l = Page.fold fr.Buffer_pool.page ~init:[] ~f:(fun acc _ c -> c :: acc) in
  Buffer_pool.unpin pool fr;
  List.rev l

(* No Begin records: a transaction starts at its first record, an Update
   with a null [prev]. A loser that starts that way is undone whole, and a
   winner needs nothing after its Commit. *)
let test_recovery_loser_without_begin () =
  let disk, log, pool, apply = raw_env () in
  let fr = Buffer_pool.pin_new pool 5 in
  let u1 = apply 1 0 fr (Page_op.Format { kind = Page.Data; level = 0 }) in
  let u2 = apply 1 u1 fr (Page_op.Insert_slot { slot = 0; cell = "winner" }) in
  ignore (Log_manager.append log ~prev:u2 ~txn:1 Log_record.Commit);
  let l1 = apply 2 0 fr (Page_op.Insert_slot { slot = 1; cell = "loser" }) in
  let l2 =
    apply 2 l1 fr
      (Page_op.Replace_slot { slot = 0; old_cell = "winner"; new_cell = "clobbered" })
  in
  ignore (apply 2 l2 fr (Page_op.Insert_slot { slot = 0; cell = "loser2" }));
  Buffer_pool.unpin pool fr;
  let before = Log_manager.last_lsn log in
  let log, pool, report = crash_and_recover disk log pool in
  Alcotest.(check (list int)) "loser identified" [ 2 ] report.Recovery.loser_txns;
  Alcotest.(check int) "three CLRs" 3 report.Recovery.clrs_written;
  Alcotest.(check (list string)) "loser fully undone" [ "winner" ] (cells pool 5);
  (* Restart appended the loser's Abort, CLRs and End, and nothing for the
     winner. *)
  let appended = ref [] in
  Log_manager.iter_from log (before + 1) (fun r ->
      appended := (r.Log_record.txn, r.Log_record.body) :: !appended);
  Alcotest.(check bool) "only the loser's records" true
    (List.for_all (fun (txn, _) -> txn = 2) !appended);
  Alcotest.(check int) "abort, three CLRs, end" 5 (List.length !appended)

(* Logs written before Begin/End were dropped still recover: Begin is just
   a first record, the End after a Commit finds nothing to close, and a
   checkpoint ATT entry marked committed is a winner. *)
let test_recovery_old_format () =
  let disk, log, pool, apply = raw_env () in
  let fr = Buffer_pool.pin_new pool 5 in
  let b1 =
    Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.User })
  in
  let u1 = apply 1 b1 fr (Page_op.Format { kind = Page.Data; level = 0 }) in
  let u2 = apply 1 u1 fr (Page_op.Insert_slot { slot = 0; cell = "one" }) in
  let c1 = Log_manager.append log ~prev:u2 ~txn:1 Log_record.Commit in
  (* Transaction 2 has committed but not ended when the checkpoint runs:
     the old checkpoint lists it with [committed = true]. *)
  let b2 =
    Log_manager.append log ~prev:0 ~txn:2 (Log_record.Begin { kind = Log_record.System })
  in
  let u3 = apply 2 b2 fr (Page_op.Insert_slot { slot = 1; cell = "two" }) in
  let c2 = Log_manager.append log ~prev:u3 ~txn:2 Log_record.Commit in
  ignore (Log_manager.append log ~prev:c1 ~txn:1 Log_record.End);
  let bc = Log_manager.append log ~prev:0 ~txn:0 Log_record.Begin_checkpoint in
  let ec =
    Log_manager.append log ~prev:0 ~txn:0
      (Log_record.End_checkpoint
         { begin_lsn = bc; dpt = [ (5, u1) ]; att = [ (2, c2, true) ] })
  in
  Log_manager.flush_all log;
  Log_manager.set_checkpoint log ~lsn:ec ~redo:u1;
  ignore (Log_manager.append log ~prev:c2 ~txn:2 Log_record.End);
  Buffer_pool.unpin pool fr;
  let _log, pool, report = crash_and_recover disk log pool in
  Alcotest.(check (list int)) "no loser" [] report.Recovery.loser_txns;
  Alcotest.(check int) "no CLRs" 0 report.Recovery.clrs_written;
  Alcotest.(check (list string)) "both winners redone" [ "one"; "two" ] (cells pool 5);
  (* The same log with the trailing End lost still has no loser. *)
  let disk, log, pool, apply = raw_env () in
  let fr = Buffer_pool.pin_new pool 5 in
  let b1 =
    Log_manager.append log ~prev:0 ~txn:1 (Log_record.Begin { kind = Log_record.User })
  in
  let u1 = apply 1 b1 fr (Page_op.Format { kind = Page.Data; level = 0 }) in
  let c1 = Log_manager.append log ~prev:u1 ~txn:1 Log_record.Commit in
  let bc = Log_manager.append log ~prev:0 ~txn:0 Log_record.Begin_checkpoint in
  let ec =
    Log_manager.append log ~prev:0 ~txn:0
      (Log_record.End_checkpoint
         { begin_lsn = bc; dpt = [ (5, u1) ]; att = [ (1, c1, true) ] })
  in
  Log_manager.flush_all log;
  Log_manager.set_checkpoint log ~lsn:ec ~redo:u1;
  Buffer_pool.unpin pool fr;
  let _log, _pool, report = crash_and_recover disk log pool in
  Alcotest.(check (list int)) "committed, never ended: no loser" []
    report.Recovery.loser_txns

(* A transaction that has logged nothing is left out of a checkpoint's ATT
   and pins no log: its first record will lie above the fence. Once it
   logs, it is listed and pins its first record; once it commits, neither. *)
let test_checkpoint_skips_empty_txn () =
  let module Env = Pitree_env.Env in
  let module Txn = Pitree_txn.Txn in
  let module Txn_mgr = Pitree_txn.Txn_mgr in
  let module Blink = Pitree_blink.Blink in
  let env = Env.create { Env.default_config with page_size = 256; pool_capacity = 256 } in
  let t = Blink.create env ~name:"t" in
  let mgr = Env.txns env in
  let att () =
    let log = Env.log env in
    match (Log_manager.read log (Log_manager.checkpoint_lsn log)).Log_record.body with
    | Log_record.End_checkpoint { att; _ } -> att
    | _ -> Alcotest.fail "checkpoint LSN is not an End_checkpoint"
  in
  let listed txn = List.exists (fun (id, _, _) -> id = txn.Txn.id) (att ()) in
  let txn = Txn_mgr.begin_txn mgr Txn.User in
  Env.checkpoint env;
  Alcotest.(check bool) "empty txn not in the ATT" false (listed txn);
  Alcotest.(check (option int)) "empty txn pins nothing" None (Txn_mgr.oldest_first_lsn mgr);
  Blink.insert ~txn t ~key:"k" ~value:"v";
  Env.checkpoint env;
  Alcotest.(check bool) "writing txn in the ATT" true (listed txn);
  Alcotest.(check bool) "no entry marked committed" true
    (List.for_all (fun (_, _, committed) -> not committed) (att ()));
  Alcotest.(check (option int)) "writing txn pins its first record"
    (Some txn.Txn.first_lsn) (Txn_mgr.oldest_first_lsn mgr);
  Txn_mgr.commit mgr txn;
  Env.checkpoint env;
  Alcotest.(check bool) "committed txn not in the ATT" false (listed txn);
  Alcotest.(check (option int)) "committed txn pins nothing" None
    (Txn_mgr.oldest_first_lsn mgr)

(* A [Replace_slot] whose cells share at least 16 bytes of prefix plus
   suffix logs the new cell as a delta of the old: the frame shrinks by at
   least the shared bytes minus 8 and decodes to the same op, alone, with
   the shared logical undo (lundo flag 2) and inside a CLR. Below 16 shared
   bytes the op is encoded exactly as before, both cells in full. *)
let test_replace_delta () =
  (* The full form's frame: framing 8, header 24, body tag 1, page 4,
     lundo flag 1, op tag 1, slot 4 and the two length-prefixed cells. *)
  let full_len ~old_cell ~new_cell =
    8 + 24 + 1 + 4 + 1 + 1 + 4 + (4 + String.length old_cell) + (4 + String.length new_cell)
  in
  let body_of op = update op in
  let check what ~old_cell ~new_cell ~shared =
    let op = Page_op.Replace_slot { slot = 3; old_cell; new_cell } in
    roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 1; body = body_of op };
    let saved = full_len ~old_cell ~new_cell - frame_len (body_of op) in
    if saved < shared - 8 then
      Alcotest.failf "%s: delta saves %d bytes, expected >= %d" what saved (shared - 8);
    (* The same op carrying its before-image as logical undo, and in a CLR. *)
    let lundo = { Log_record.tree = 4; comp = Logical.Put { cell = old_cell } } in
    roundtrip_record
      { Log_record.lsn = 2; prev = 1; txn = 1; body = update ~lundo op };
    roundtrip_record
      {
        Log_record.lsn = 3;
        prev = 2;
        txn = 1;
        body = Log_record.Clr { page = 3; op; undo_next = 1 };
      };
    roundtrip_record
      {
        Log_record.lsn = 4;
        prev = 3;
        txn = 1;
        body = Log_record.Clr { page = 3; op = Page_op.invert op; undo_next = 1 };
      }
  in
  let key = "user:key:000042|" and pad n = String.make n '.' in
  check "same length" ~old_cell:(key ^ "aaaa" ^ pad 100)
    ~new_cell:(key ^ "bbbb" ^ pad 100) ~shared:116;
  check "growing" ~old_cell:(key ^ "v1" ^ pad 40) ~new_cell:(key ^ "v2-longer" ^ pad 40)
    ~shared:56;
  check "shrinking" ~old_cell:(key ^ "v2-longer" ^ pad 40) ~new_cell:(key ^ "v1" ^ pad 40)
    ~shared:56;
  check "old cell a prefix of the new" ~old_cell:(key ^ "abc") ~new_cell:(key ^ "abc" ^ pad 30)
    ~shared:19;
  check "new cell a suffix of the old" ~old_cell:("prefix" ^ key ^ "abc")
    ~new_cell:(key ^ "abc") ~shared:19;
  check "identical" ~old_cell:(key ^ "same") ~new_cell:(key ^ "same") ~shared:20;
  (* Overlapping ends are not counted twice: "aaaa…" vs "aaaa…a" shares at
     most the shorter cell. *)
  check "runs of one byte" ~old_cell:(String.make 20 'a') ~new_cell:(String.make 25 'a')
    ~shared:20;
  (* Below 16 shared bytes: tag 5, both cells in full, as before the delta
     form existed. *)
  let op =
    Page_op.Replace_slot { slot = 7; old_cell = "0123456789abcdeX"; new_cell = "0123456789abcdeY" }
  in
  let b = Buffer.create 64 in
  Page_op.encode b op;
  let expect = Buffer.create 64 in
  Pitree_util.Codec.put_u8 expect 5;
  Pitree_util.Codec.put_u32 expect 7;
  Pitree_util.Codec.put_bytes expect "0123456789abcdeX";
  Pitree_util.Codec.put_bytes expect "0123456789abcdeY";
  Alcotest.(check string) "15 shared bytes: the full form" (Buffer.contents expect)
    (Buffer.contents b);
  Alcotest.(check int) "15 shared bytes: full frame"
    (full_len ~old_cell:"0123456789abcdeX" ~new_cell:"0123456789abcdeY")
    (frame_len (body_of op));
  (* A delta that claims more shared bytes than its old cell holds is
     corrupt, not a short cell. *)
  let bad = Buffer.create 32 in
  Pitree_util.Codec.put_u8 bad 13;
  Pitree_util.Codec.put_u32 bad 0;
  Pitree_util.Codec.put_bytes bad "short";
  Pitree_util.Codec.put_u16 bad 4;
  Pitree_util.Codec.put_u16 bad 4;
  Pitree_util.Codec.put_u32 bad 0;
  Alcotest.(check bool) "overlong delta rejected" true
    (match Page_op.decode (Pitree_util.Codec.reader (Buffer.contents bad)) with
    | exception Pitree_util.Codec.Corrupt _ -> true
    | _ -> false);
  (* So is a middle longer than the rest of the frame. *)
  let bad = Buffer.create 32 in
  Pitree_util.Codec.put_u8 bad 13;
  Pitree_util.Codec.put_u32 bad 0;
  Pitree_util.Codec.put_bytes bad "short";
  Pitree_util.Codec.put_u16 bad 1;
  Pitree_util.Codec.put_u16 bad 1;
  Pitree_util.Codec.put_u32 bad 0x7fffffff;
  Buffer.add_string bad "mid";
  Alcotest.(check bool) "delta middle past the frame rejected" true
    (match Page_op.decode (Pitree_util.Codec.reader (Buffer.contents bad)) with
    | exception Pitree_util.Codec.Corrupt _ -> true
    | _ -> false)

(* Property: encode/decode of random log records — every op, every lundo
   form (shared with the op or spelled out), page images with and
   without a zero hole, and multi-part moves and their CLRs, with and
   without parts that share an earlier part's cells. *)
let prop_log_record_roundtrip =
  let open QCheck in
  let cell = Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (0 -- 12)) in
  let long_cell = Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (0 -- 24)) in
  let run = Gen.(small_list (pair small_nat cell)) in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun slot cell -> Page_op.Insert_slot { slot; cell }) small_nat cell;
          map2 (fun slot cell -> Page_op.Delete_slot { slot; cell }) small_nat cell;
          map3
            (fun slot old_cell new_cell -> Page_op.Replace_slot { slot; old_cell; new_cell })
            small_nat cell cell;
          (* Cells sharing a prefix and a suffix, often past the 16 bytes
             that switch the encoding to a delta. *)
          map3
            (fun slot (pre, suf) (mid_old, mid_new) ->
              Page_op.Replace_slot
                { slot; old_cell = pre ^ mid_old ^ suf; new_cell = pre ^ mid_new ^ suf })
            small_nat (pair long_cell long_cell) (pair cell cell);
          map2
            (fun o n -> Page_op.Set_side_ptr { old_ptr = o; new_ptr = n })
            small_nat small_nat;
          map (fun cells -> Page_op.Insert_cells { cells }) run;
          map (fun cells -> Page_op.Delete_cells { cells }) run;
        ])
  in
  (* Compensations drawn from the op's own cells half the time, so the
     shared forms are exercised as often as the spelled-out ones. *)
  let own_cells = function
    | Page_op.Insert_slot { cell; _ } | Page_op.Delete_slot { cell; _ } -> [ cell ]
    | Page_op.Replace_slot { old_cell; new_cell; _ } -> [ old_cell; new_cell ]
    | _ -> []
  in
  let lundo_gen op =
    Gen.(
      let c = oneof (cell :: List.map return (own_cells op)) in
      oneof
        [
          return None;
          map2
            (fun tree c -> Some { Log_record.tree; comp = Logical.Put { cell = c } })
            small_nat c;
          map2
            (fun tree c -> Some { Log_record.tree; comp = Logical.Remove { key = c } })
            small_nat c;
        ])
  in
  let image_gen =
    Gen.(
      map3
        (fun len at hole ->
          String.init len (fun i ->
              if i >= at && i < at + hole then '\000' else Char.chr (i land 0xff)))
        (0 -- 600) (0 -- 600) (0 -- 300))
  in
  let part_gen = Gen.(map2 (fun page op -> { Log_record.page; op }) small_nat op_gen) in
  (* A run and a later run over an in-order subsequence of its cells, with
     ascending, equal or arbitrary slots: the shape of a move's fill and
     truncation, which the encoder writes as positions. *)
  let shared_gen =
    Gen.(
      run >>= fun cells ->
      list_repeat (List.length cells) bool >>= fun keep ->
      triple small_nat (oneofl [ `Asc; `Same; `Any ]) bool >>= fun (s0, slots, del) ->
      pair small_nat small_nat >>= fun (p, q) ->
      let sub =
        List.filteri (fun i _ -> List.nth keep i) cells
        |> List.mapi (fun i (slot, c) ->
               ((match slots with `Asc -> s0 + i | `Same -> s0 | `Any -> slot), c))
      in
      let fill = if del then Page_op.Delete_cells { cells } else Page_op.Insert_cells { cells } in
      let trunc =
        if del then Page_op.Insert_cells { cells = sub } else Page_op.Delete_cells { cells = sub }
      in
      return [ { Log_record.page = p; op = fill }; { Log_record.page = q; op = trunc } ])
  in
  let parts_gen =
    Gen.(
      oneof
        [
          small_list part_gen;
          map3 (fun a sh b -> a @ sh @ b) (small_list part_gen) shared_gen (small_list part_gen);
        ])
  in
  let body_gen =
    Gen.(
      oneof
        [
          map (fun parts -> Log_record.Move { parts }) parts_gen;
          map2 (fun parts undo_next -> Log_record.Move_clr { parts; undo_next }) parts_gen small_nat;
          ( op_gen >>= fun op ->
            map2 (fun page lundo -> Log_record.Update { page; op; lundo }) small_nat
              (lundo_gen op) );
          map3
            (fun page op undo_next -> Log_record.Clr { page; op; undo_next })
            small_nat op_gen small_nat;
          map2 (fun page image -> Log_record.Page_image { page; image }) small_nat image_gen;
        ])
  in
  let record_gen =
    Gen.(
      map2
        (fun (lsn, prev, txn) body -> { Log_record.lsn; prev; txn; body })
        (triple small_nat small_nat small_nat)
        body_gen)
  in
  Test.make ~name:"log record roundtrip" ~count:300 (make record_gen) (fun r ->
      Log_record.decode (Log_record.encode r) = r)

(* A move's truncation that repeats cells of its fill is written as
   positions: the frame carries the moved bytes once. *)
let test_move_shares_cells () =
  let cells = List.init 40 (fun i -> Printf.sprintf "%03d%s" i (String.make 97 'c')) in
  let fill = Page_op.insert_run ~slot:0 ("fence" :: cells) in
  let dead = List.filteri (fun i _ -> i mod 3 = 0) cells in
  let trunc =
    Page_op.Delete_cells { cells = List.mapi (fun i c -> ((3 * i) + 1 - i, c)) dead }
  in
  let moved = List.fold_left (fun n c -> n + String.length c) 5 cells in
  let body =
    Log_record.Move
      {
        parts =
          [
            { Log_record.page = 7; op = fill };
            { page = 7; op = Page_op.Set_flags { old_flags = 0; new_flags = 1 } };
            { page = 3; op = trunc };
          ];
      }
  in
  roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 1; body };
  let len = frame_len body in
  if len > moved + (2 * 41) + (4 * List.length dead) + 96 then
    Alcotest.failf "move frame %d bytes for %d moved bytes" len moved;
  (* The same record with its parts swapped cannot share: the earlier part
     holds only the dead cells. *)
  let swapped =
    match body with
    | Log_record.Move { parts = [ a; b; c ] } -> Log_record.Move { parts = [ c; b; a ] }
    | _ -> assert false
  in
  roundtrip_record { Log_record.lsn = 1; prev = 0; txn = 1; body = swapped };
  Alcotest.(check bool) "an unshared truncation costs its bytes" true
    (frame_len swapped > len + 13 * 100);
  roundtrip_record
    {
      Log_record.lsn = 2;
      prev = 1;
      txn = 1;
      body =
        Log_record.Move_clr
          {
            parts =
              [
                { Log_record.page = 3; op = Page_op.invert trunc };
                { page = 7; op = Page_op.invert fill };
              ];
            undo_next = 0;
          };
    }

(* An atomic action that logged a move is rolled back, and the system
   crashes during that rollback: with its CLR lost, with its CLR durable
   but no End, and with the moved pages already written back. After
   restart both pages are exactly as before the action. *)
let test_move_undo_crash () =
  let module Txn = Pitree_txn.Txn in
  let module Txn_mgr = Pitree_txn.Txn_mgr in
  let state pool pid =
    let fr = Buffer_pool.pin pool pid in
    let p = fr.Buffer_pool.page in
    let s = (cells pool pid, Page.side_ptr p, Page.kind p, Page.level p, Page.flags p) in
    Buffer_pool.unpin pool fr;
    s
  in
  List.iter
    (fun (what, clr_durable, written_back) ->
      let disk, log, pool, _ = raw_env () in
      let mgr = Txn_mgr.create ~log ~pool ~locks:(Pitree_lock.Lock_manager.create ()) () in
      let setup = Txn_mgr.begin_txn mgr Txn.System in
      let left = Buffer_pool.pin_new pool 5 and right = Buffer_pool.pin_new pool 6 in
      let fmt fr = ignore (Txn_mgr.update mgr setup fr (Page_op.Format { kind = Page.Data; level = 0 })) in
      fmt left;
      fmt right;
      ignore (Txn_mgr.update mgr setup left (Page_op.insert_run ~slot:0 [ "f"; "a"; "b"; "c"; "d" ]));
      ignore (Txn_mgr.update mgr setup right (Page_op.insert_run ~slot:0 [ "g" ]));
      Txn_mgr.commit mgr setup;
      let before = (state pool 5, state pool 6) in
      let split = Txn_mgr.begin_txn mgr Txn.System in
      let lp = left.Buffer_pool.page in
      let move_lsn =
        Txn_mgr.move mgr split
          [
            (right, Page_op.insert_run ~slot:1 (Page_op.cells_from lp ~slot:3));
            (right, Page_op.Set_side_ptr { old_ptr = 0; new_ptr = 9 });
            (left, Page_op.delete_where lp (fun i -> i >= 3));
            (left, Page_op.Set_side_ptr { old_ptr = 0; new_ptr = 6 });
          ]
      in
      (match (Log_manager.read log move_lsn).Log_record.body with
      | Log_record.Move { parts } -> Alcotest.(check int) (what ^ ": four parts") 4 (List.length parts)
      | _ -> Alcotest.failf "%s: move logged no Move record" what);
      Alcotest.(check (list string)) (what ^ ": moved") [ "g"; "c"; "d" ] (cells pool 6);
      if written_back then Buffer_pool.flush_all pool;
      (* Roll back by hand, as an abort does, and crash inside it. *)
      let abort = Log_manager.append log ~prev:move_lsn ~txn:split.Txn.id Log_record.Abort in
      Log_manager.flush_all log;
      if clr_durable then begin
        let clr =
          Recovery.rollback ~prev:abort ~log ~pool ~txn:split.Txn.id ~from_lsn:move_lsn ()
        in
        (match (Log_manager.read log clr).Log_record.body with
        | Log_record.Move_clr { parts; undo_next } ->
            Alcotest.(check int) (what ^ ": undo_next is the move's prev") 0 undo_next;
            Alcotest.(check (list int)) (what ^ ": inverse parts, last first") [ 5; 5; 6; 6 ]
              (List.map (fun p -> p.Log_record.page) parts)
        | _ -> Alcotest.failf "%s: rollback wrote no Move_clr" what);
        Alcotest.(check bool) (what ^ ": live undo restores") true
          (before = (state pool 5, state pool 6))
      end;
      Buffer_pool.unpin pool left;
      Buffer_pool.unpin pool right;
      let log, pool, report = crash_and_recover disk log pool in
      Alcotest.(check (list int)) (what ^ ": the action is a loser") [ split.Txn.id ]
        report.Recovery.loser_txns;
      Alcotest.(check int) (what ^ ": CLRs written at restart") (if clr_durable then 0 else 1)
        report.Recovery.clrs_written;
      Alcotest.(check bool) (what ^ ": both pages as before") true
        (before = (state pool 5, state pool 6));
      (* And once more: a second restart changes nothing. *)
      let _, pool, report = crash_and_recover disk log pool in
      Alcotest.(check (list int)) (what ^ ": no loser after") [] report.Recovery.loser_txns;
      Alcotest.(check bool) (what ^ ": still as before") true
        (before = (state pool 5, state pool 6)))
    [
      ("clr lost", false, false);
      ("clr durable, no end", true, false);
      ("pages written back", true, true);
      ("pages written back, clr lost", false, true);
    ]

(* Redo of a page that never reached disk pins one blank frame and formats
   it in place: one 4 KiB page buffer per page. The page file is a real file,
   so the end-of-restart write-back allocates no buffers of its own; 4 KiB
   buffers go straight to the major heap, so major words count them. *)
let test_restart_one_buffer_per_new_page () =
  let page_size = 4096 and k = 256 in
  let path = Filename.temp_file "pitree_restart" ".pages" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let disk = Disk.file ~page_size ~path in
  let log = Log_manager.create () in
  let mk_pool log =
    Buffer_pool.create ~capacity:512 ~disk ~wal_flush:(fun l -> Log_manager.flush log l) ()
  in
  let pool = mk_pool log in
  let pids = List.init k (fun i -> i + 2) in
  let prev = ref 0 in
  let images =
    List.map
      (fun pid ->
        let fr = Buffer_pool.pin_new pool pid in
        List.iter
          (fun op ->
            prev :=
              Log_manager.append log ~prev:!prev ~txn:1
                (Log_record.Update { page = pid; op; lundo = None });
            Buffer_pool.mark_dirty fr;
            Page_op.redo fr.Buffer_pool.page op;
            Page.set_lsn fr.Buffer_pool.page !prev)
          [
            Page_op.Format { kind = Page.Data; level = 0 };
            Page_op.Insert_slot { slot = 0; cell = Printf.sprintf "cell-%d" pid };
          ];
        let image = Page.copy fr.Buffer_pool.page in
        Page.stamp_checksum image;
        Buffer_pool.unpin pool fr;
        (pid, Bytes.to_string (Page.raw image)))
      pids
  in
  ignore (Log_manager.append log ~prev:!prev ~txn:1 Log_record.Commit);
  Log_manager.flush_all log;
  Buffer_pool.crash pool;
  let log = Log_manager.crash log in
  let pool = mk_pool log in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let report = Recovery.run ~log ~pool in
  (* Direct major allocations reach the counters at a minor collection. *)
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check int) "every record redone" (2 * k) report.Recovery.redone;
  let buffers = words /. float_of_int ((page_size / (Sys.word_size / 8)) + 1) in
  if buffers >= 1.5 *. float_of_int k then
    Alcotest.failf "restart allocated %.0f page buffers of major words for %d new pages \
                    (want < %.0f)" buffers k (1.5 *. float_of_int k);
  List.iter
    (fun (pid, image) ->
      let fr = Buffer_pool.pin pool pid in
      Alcotest.(check string) (Printf.sprintf "page %d byte-identical" pid) image
        (Bytes.to_string (Page.raw fr.Buffer_pool.page));
      Buffer_pool.unpin pool fr)
    images;
  disk.Disk.close ()

let suites =
  [
    ( "wal.page_op",
      [
        Alcotest.test_case "codec" `Quick test_page_op_codec;
        Alcotest.test_case "invert involution" `Quick test_page_op_invert_involution;
        Alcotest.test_case "undo restores" `Quick test_page_op_undo_restores;
        Alcotest.test_case "cell runs check before touching" `Quick
          test_page_op_run_checks_first;
        Alcotest.test_case "legacy clear/restore frames" `Quick test_page_op_legacy_tags;
      ] );
    ( "wal.log_record",
      [
        Alcotest.test_case "codec" `Quick test_log_record_codec;
        Alcotest.test_case "crc detects corruption" `Quick test_log_record_crc;
        QCheck_alcotest.to_alcotest prop_log_record_roundtrip;
        Alcotest.test_case "lundo shares the before-image" `Quick
          test_lundo_shares_the_before_image;
        Alcotest.test_case "page image hole" `Quick test_page_image_hole;
        Alcotest.test_case "replace logs a delta" `Quick test_replace_delta;
        Alcotest.test_case "move shares cells" `Quick test_move_shares_cells;
      ] );
    ( "wal.log_manager",
      [
        Alcotest.test_case "basics" `Quick test_log_manager_basics;
        Alcotest.test_case "crash truncates" `Quick test_log_crash_truncates;
        Alcotest.test_case "log truncation" `Quick test_truncation;
        Alcotest.test_case "truncation respects active txn" `Quick
          test_truncation_respects_active_txn;
        Alcotest.test_case "force counting" `Quick test_force_counting;
      ] );
    ( "wal.recovery",
      [
        Alcotest.test_case "redo + undo" `Quick test_recovery_redo_undo;
        Alcotest.test_case "idempotent restart" `Quick test_recovery_idempotent;
        Alcotest.test_case "loser without Begin" `Quick test_recovery_loser_without_begin;
        Alcotest.test_case "old-format log" `Quick test_recovery_old_format;
        Alcotest.test_case "checkpoint skips empty txn" `Quick
          test_checkpoint_skips_empty_txn;
        Alcotest.test_case "move undone across a crash" `Quick test_move_undo_crash;
        Alcotest.test_case "one page buffer per new page" `Quick
          test_restart_one_buffer_per_new_page;
      ] );
  ]
