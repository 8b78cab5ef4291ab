(* The log manager's storage layout: durable frames live only in the store
   (the log file, or the in-memory byte store), the volatile tail in
   memory. Checks that both backings return byte-identical records through
   [read] and [iter_from] across appends, flushes, truncations and
   crash-reopens; that the block-streaming readers handle frames (and a
   torn final frame) straddling a block boundary; that durable reads stay
   correct while group-commit flushes and truncations run; and that a
   file-backed log does not keep its durable records on the heap. *)

module Rng = Pitree_util.Rng
module Page = Pitree_storage.Page
module Lsn = Pitree_wal.Lsn
module Page_op = Pitree_wal.Page_op
module Log_record = Pitree_wal.Log_record
module Log_manager = Pitree_wal.Log_manager

(* The sequential readers' block size (see Log_manager). *)
let block = 1 lsl 18

let with_path name f =
  let path = Filename.temp_file name ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".ckpt"; path ^ ".tmp" ])
    (fun () -> f path)

let image_body ~page n =
  Log_record.Page_image
    { page; image = String.init n (fun i -> Char.chr ((page + i) land 0xff)) }

let of_hex h = String.init (String.length h / 2) (fun i ->
  Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* --- compatibility with existing logs and page images --- *)

(* Frames and a page checksum produced by the byte-at-a-time CRC this
   kernel replaced: existing logs and page files must stay readable. *)
let test_old_frames_decode () =
  let r1 =
    {
      Log_record.lsn = 7;
      prev = 3;
      txn = 2;
      body =
        Log_record.Update
          { page = 5; op = Page_op.Insert_slot { slot = 1; cell = "abc" }; lundo = None };
    }
  in
  let f1 =
    of_hex
      "2a000000070000000000000003000000000000000200000000000000050500000000030100000003000000616263d0002410"
  in
  let r2 =
    {
      Log_record.lsn = 12;
      prev = 0;
      txn = 0;
      body =
        Log_record.End_checkpoint
          { begin_lsn = 10; dpt = [ (4, 9) ]; att = [ (3, 8, true) ] };
    }
  in
  let f2 =
    of_hex
      "460000000c0000000000000000000000000000000000000000000000090a000000000000000100000004000000090000000000000001000000030000000000000008000000000000000193ec93c9"
  in
  Alcotest.(check bool) "update decodes" true (Log_record.decode f1 = r1);
  Alcotest.(check bool) "checkpoint decodes" true (Log_record.decode f2 = r2);
  Alcotest.(check string) "update re-encodes identically" f1 (Log_record.encode r1);
  Alcotest.(check string) "checkpoint re-encodes identically" f2
    (Log_record.encode r2);
  let both = "pad" ^ f1 ^ f2 in
  Alcotest.(check bool) "decode in place at an offset" true
    (Log_record.decode ~pos:(3 + String.length f1) both = r2);
  Alcotest.(check (pair int int)) "verify reads lsn and txn" (7, 2)
    (Log_record.verify both ~pos:3);
  let p = Page.create ~size:512 ~id:9 ~kind:Page.Data ~level:0 in
  Page.insert p 0 "hello";
  Page.stamp_checksum p;
  Alcotest.(check int) "page checksum unchanged" 386201605 (Page.checksum p);
  Alcotest.(check bool) "checksum verifies" true (Page.checksum_ok p)

(* --- model-based: both backings, random operations --- *)

(* Each live LSN maps to the frame appended for it; [read] and [iter_from]
   must hand back records that re-encode to exactly those bytes. *)
let check_against_model log model =
  let first = Log_manager.first_lsn log and last = Log_manager.last_lsn log in
  for lsn = first to last do
    let want = Hashtbl.find model lsn in
    let got = Log_record.encode (Log_manager.read log lsn) in
    if not (String.equal got want) then Alcotest.failf "read %d differs" lsn
  done;
  let start = first + ((last - first) / 3) in
  let next = ref start in
  Log_manager.iter_from log start (fun r ->
      if r.Log_record.lsn <> !next then
        Alcotest.failf "iter_from yielded %d, expected %d" r.Log_record.lsn !next;
      if not (String.equal (Log_record.encode r) (Hashtbl.find model !next)) then
        Alcotest.failf "iter_from record %d differs" !next;
      incr next);
  Alcotest.(check int) "iter_from reaches the end" (last + 1) (max !next start)

let run_model ~path ~seed =
  let rng = Rng.create seed in
  let log = ref (Log_manager.create ?path ()) in
  let model = Hashtbl.create 256 in
  let crashes = ref 0 and truncations = ref 0 in
  for _ = 1 to 400 do
    let l = !log in
    match Rng.int rng 100 with
    | n when n < 60 ->
        let lsn = Log_manager.last_lsn l + 1 in
        let size =
          if Rng.int rng 100 < 2 then block + Rng.int rng 4096
          else Rng.int rng 3000
        in
        let body = image_body ~page:lsn size in
        let txn = 1 + Rng.int rng 5 in
        let got = Log_manager.append l ~prev:(lsn - 1) ~txn body in
        Alcotest.(check int) "dense lsn" lsn got;
        Hashtbl.replace model lsn
          (Log_record.encode { Log_record.lsn; prev = lsn - 1; txn; body })
    | n when n < 78 ->
        let first = Log_manager.first_lsn l and last = Log_manager.last_lsn l in
        if last >= first then
          Log_manager.flush l (first + Rng.int rng (last - first + 1))
    | n when n < 84 ->
        let durable = Log_manager.flushed_lsn l in
        let first = Log_manager.first_lsn l in
        if durable >= first then begin
          (* Keep at least one durable record: an emptied file would not
             remember where its LSNs had got to. *)
          let keep = first + Rng.int rng (durable - first + 1) in
          Log_manager.set_checkpoint l ~lsn:durable ~redo:keep;
          let dropped = Log_manager.truncate l ~keep_from:keep in
          Alcotest.(check int) "truncated exactly the prefix" (keep - first) dropped;
          Alcotest.(check int) "first retained" keep (Log_manager.first_lsn l);
          if dropped > 0 then incr truncations
        end
    | n when n < 90 ->
        let durable = Log_manager.flushed_lsn l in
        log := Log_manager.crash l;
        incr crashes;
        Alcotest.(check int) "crash keeps the durable prefix" durable
          (Log_manager.last_lsn !log);
        Alcotest.(check int) "all of it durable" durable
          (Log_manager.flushed_lsn !log)
    | _ -> check_against_model l model
  done;
  check_against_model !log model;
  Log_manager.flush_all !log;
  let reopened = Log_manager.crash !log in
  check_against_model reopened model;
  Alcotest.(check bool) "crashes exercised" true (!crashes > 0);
  Alcotest.(check bool) "truncations exercised" true (!truncations > 0)

let test_model_memory () =
  run_model ~path:None ~seed:(Seeds.derive "wal.store model memory")

let test_model_file () =
  with_path "pitree_store" (fun path ->
      run_model ~path:(Some path) ~seed:(Seeds.derive "wal.store model file"))

(* --- block boundaries and a torn final frame --- *)

let file_size path = (Unix.stat path).Unix.st_size

let append_file path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_block_boundaries () =
  with_path "pitree_blocks" (fun path ->
      let log = Log_manager.create ~path () in
      let model = Hashtbl.create 64 in
      let add log size =
        let lsn = Log_manager.last_lsn log + 1 in
        let body = image_body ~page:lsn size in
        ignore (Log_manager.append log ~prev:0 ~txn:lsn body);
        Hashtbl.replace model lsn
          (Log_record.encode { Log_record.lsn; prev = 0; txn = lsn; body });
        Log_manager.flush_all log
      in
      for _ = 1 to 10 do
        add log 1000
      done;
      (* Pad so the next frame starts 300 bytes before the block boundary. *)
      let overhead = String.length (Log_record.encode
        { Log_record.lsn = 0; prev = 0; txn = 0; body = image_body ~page:0 0 }) in
      let now = Option.get (Log_manager.file_bytes log) in
      add log (block - 300 - now - overhead);
      Alcotest.(check int) "padded" (block - 300)
        (Option.get (Log_manager.file_bytes log));
      (* A whole frame across the boundary, then a torn one across the next. *)
      add log 2000;
      let intact = Option.get (Log_manager.file_bytes log) in
      let last = Log_manager.last_lsn log in
      let torn_at = (2 * block) - 300 in
      add log (torn_at - intact - overhead);
      let intact = Option.get (Log_manager.file_bytes log) in
      let last = last + 1 in
      Alcotest.(check int) "second pad" torn_at intact;
      let torn =
        Log_record.encode
          { Log_record.lsn = last + 1; prev = 0; txn = 0; body = image_body ~page:0 1000 }
      in
      let log = Log_manager.crash log in
      append_file path (String.sub torn 0 700);
      let log = Log_manager.crash log in
      Alcotest.(check int) "torn frame dropped" last (Log_manager.last_lsn log);
      Alcotest.(check int) "file cut at the torn frame" intact (file_size path);
      check_against_model log model;
      (* A complete frame with a bad CRC across the boundary is torn too. *)
      let bad = Bytes.of_string torn in
      Bytes.set bad 500 (Char.chr (Char.code (Bytes.get bad 500) lxor 1));
      append_file path (Bytes.to_string bad);
      let log = Log_manager.crash log in
      Alcotest.(check int) "corrupt frame dropped" last (Log_manager.last_lsn log);
      Alcotest.(check int) "file cut again" intact (file_size path);
      (* So is a sound frame that breaks the LSN sequence. *)
      append_file path
        (Log_record.encode
           { Log_record.lsn = last + 7; prev = 0; txn = 0; body = Log_record.Commit });
      let log = Log_manager.crash log in
      Alcotest.(check int) "out-of-sequence frame dropped" last
        (Log_manager.last_lsn log);
      Alcotest.(check int) "file cut a third time" intact (file_size path);
      (* The log continues cleanly after the cut, across the boundary. *)
      add log 1000;
      add log (block + 10);
      let log = Log_manager.crash log in
      Alcotest.(check int) "appends after the cut survive" (last + 2)
        (Log_manager.last_lsn log);
      check_against_model log model)

(* --- concurrent durable reads during flushes and truncation --- *)

let payload lsn = image_body ~page:lsn (lsn mod 700)

let test_concurrent_reads () =
  with_path "pitree_readers" (fun path ->
      let log = Log_manager.create ~path () in
      let n = 4000 in
      let done_ = Atomic.make false in
      let reads = Atomic.make 0 and iterated = Atomic.make 0 in
      let writer () =
        for lsn = 1 to n do
          ignore (Log_manager.append log ~prev:0 ~txn:1 (payload lsn));
          if lsn mod 8 = 0 then Log_manager.flush log lsn
        done;
        Log_manager.flush_all log
      in
      let truncator () =
        let truncated = ref 0 in
        while not (Atomic.get done_) do
          let durable = Log_manager.flushed_lsn log in
          if durable > 300 then begin
            Log_manager.set_checkpoint log ~lsn:durable ~redo:(durable - 200);
            truncated :=
              !truncated + Log_manager.truncate log ~keep_from:(durable - 200)
          end;
          Unix.sleepf 0.002
        done;
        !truncated
      in
      let check_record ~how lsn r =
        if r.Log_record.lsn <> lsn || r.Log_record.body <> payload lsn then
          Alcotest.failf "%s %d returned record %d" how lsn r.Log_record.lsn
      in
      let reader seed () =
        let rng = Rng.create seed in
        while not (Atomic.get done_) do
          let first = Log_manager.first_lsn log
          and durable = Log_manager.flushed_lsn log in
          if durable >= first then begin
            let lsn = first + Rng.int rng (durable - first + 1) in
            (match Log_manager.read log lsn with
            | r ->
                check_record ~how:"read" lsn r;
                Atomic.incr reads
            | exception Invalid_argument _ ->
                (* truncated between choosing and reading *)
                ());
            if Rng.int rng 50 = 0 then begin
              (* A truncation since [lsn] was chosen moves the start up. *)
              let next = ref Lsn.null in
              try
                Log_manager.iter_from log lsn (fun r ->
                    if Lsn.is_null !next && r.Log_record.lsn >= lsn then
                      next := r.Log_record.lsn;
                    check_record ~how:"iter_from" !next r;
                    Atomic.incr iterated;
                    incr next;
                    if !next > lsn + 100 then raise Exit)
              with Exit -> ()
            end
          end
        done
      in
      let readers =
        List.init 2 (fun i ->
            Domain.spawn (reader (Seeds.derive (Printf.sprintf "wal.store reader %d" i))))
      in
      let trunc = Domain.spawn truncator in
      writer ();
      Unix.sleepf 0.05;
      Atomic.set done_ true;
      List.iter Domain.join readers;
      let truncated = Domain.join trunc in
      Alcotest.(check bool) "reads happened" true (Atomic.get reads > 0);
      Alcotest.(check bool) "streams happened" true (Atomic.get iterated > 0);
      Alcotest.(check bool) "truncation happened" true (truncated > 0);
      let s = Log_manager.stats log in
      Alcotest.(check bool) "group-commit flushes happened" true
        (s.Log_manager.forces > 0);
      for lsn = Log_manager.first_lsn log to n do
        check_record ~how:"read" lsn (Log_manager.read log lsn)
      done)

(* --- memory: durable records live in the file, not on the heap --- *)

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let test_heap_bound () =
  with_path "pitree_heap" (fun path ->
      let log = Log_manager.create ~path () in
      let image = String.make 4000 'x' in
      let before = live_bytes () in
      let target = 64 lsl 20 in
      while (Log_manager.stats log).Log_manager.bytes < target do
        let lsn =
          Log_manager.append log ~prev:0 ~txn:1
            (Log_record.Page_image { page = 1; image })
        in
        if lsn mod 64 = 0 then Log_manager.flush log lsn
      done;
      let bytes = (Log_manager.stats log).Log_manager.bytes in
      Log_manager.flush_all log;
      let s = Log_manager.stats log in
      Alcotest.(check int) "resident_bytes is 0 once durable" 0
        s.Log_manager.resident_bytes;
      Alcotest.(check int) "bytes unchanged by the flush" bytes s.Log_manager.bytes;
      let grown = live_bytes () - before in
      if grown >= 8 lsl 20 then
        Alcotest.failf "heap grew %d bytes for %d bytes of durable log" grown bytes;
      Alcotest.(check (option int)) "all of it in the file" (Some bytes)
        (Log_manager.file_bytes log))

let test_resident_bytes () =
  let mem = Log_manager.create () in
  ignore (Log_manager.append mem ~prev:0 ~txn:1 Log_record.Commit);
  let s = Log_manager.stats mem in
  Alcotest.(check int) "in-memory: the tail" s.Log_manager.bytes
    s.Log_manager.resident_bytes;
  Log_manager.flush_all mem;
  Alcotest.(check int) "in-memory: the store counts too" s.Log_manager.bytes
    (Log_manager.stats mem).Log_manager.resident_bytes;
  with_path "pitree_resident" (fun path ->
      let log = Log_manager.create ~path () in
      ignore (Log_manager.append log ~prev:0 ~txn:1 Log_record.Commit);
      let s = Log_manager.stats log in
      Alcotest.(check int) "file: the volatile tail" s.Log_manager.bytes
        s.Log_manager.resident_bytes;
      Log_manager.flush_all log;
      let s' = Log_manager.stats log in
      Alcotest.(check int) "file: nothing after flush_all" 0
        s'.Log_manager.resident_bytes;
      Alcotest.(check int) "bytes unchanged" s.Log_manager.bytes
        s'.Log_manager.bytes)

(* Asking truncation to drop every record keeps the last durable one: the
   reopened file takes its LSN sequence from its first frame, so an emptied
   file would number the next append 1 again and collide with LSNs still
   named by page headers and the master record. *)
let test_truncate_all_keeps_lsns () =
  with_path "pitree_trunc_all" (fun path ->
      let l = Log_manager.create ~path () in
      for i = 1 to 20 do
        ignore (Log_manager.append l ~prev:Lsn.null ~txn:i (image_body ~page:i 40))
      done;
      Log_manager.flush_all l;
      Log_manager.set_checkpoint l ~lsn:20 ~redo:21;
      let dropped = Log_manager.truncate l ~keep_from:max_int in
      Alcotest.(check int) "all but the last durable record dropped" 19 dropped;
      Alcotest.(check int) "first retained" 20 (Log_manager.first_lsn l);
      let l = Log_manager.crash l in
      Alcotest.(check int) "reopened log remembers its last LSN" 20
        (Log_manager.last_lsn l);
      let next = Log_manager.append l ~prev:Lsn.null ~txn:21 (image_body ~page:1 40) in
      Alcotest.(check int) "next append continues the sequence" 21 next;
      Log_manager.flush_all l;
      let l = Log_manager.crash l in
      Alcotest.(check int) "and survives another reopen" 21 (Log_manager.last_lsn l);
      Alcotest.(check int) "the kept record reads back" 20
        (Log_manager.read l 20).Log_record.lsn)

(* A move and its CLR, frozen: a later codec change that alters how
   move records are written must keep these decoding. The move's
   truncation shares the fill's cells (positions 1 and 2); its CLR's
   parts share nothing. *)
let test_move_frames_decode () =
  let parts =
    [
      { Log_record.page = 7; op = Page_op.insert_run ~slot:0 [ "fe"; "ab"; "cd" ] };
      { page = 7; op = Page_op.Set_side_ptr { old_ptr = 0; new_ptr = 3 } };
      { page = 3; op = Page_op.Delete_cells { cells = [ (1, "ab"); (1, "cd") ] } };
    ]
  in
  let r3 = { Log_record.lsn = 20; prev = 18; txn = 4; body = Log_record.Move { parts } } in
  let r4 =
    {
      Log_record.lsn = 22;
      prev = 21;
      txn = 4;
      body =
        Log_record.Move_clr
          {
            parts =
              List.rev_map
                (fun { Log_record.page; op } -> { Log_record.page; op = Page_op.invert op })
                parts;
            undo_next = 18;
          };
    }
  in
  let f3 =
    of_hex
      "4b0000001400000000000000120000000000000004000000000000000c0300070000000303000000020066650200616202006364070000000006000000000300000003000000\
       1e02000100000001008ec61335"
  in
  let f4 =
    of_hex
      "5b0000001600000000000000150000000000000004000000000000000d120000000000000003000300000005020001000200636402006162070000000006030000000000000007000000\
       020300020001000000020063640200616202006665db3185b1"
  in
  Alcotest.(check bool) "move decodes" true (Log_record.decode f3 = r3);
  Alcotest.(check bool) "move clr decodes" true (Log_record.decode f4 = r4);
  Alcotest.(check string) "move re-encodes identically" f3 (Log_record.encode r3);
  Alcotest.(check string) "move clr re-encodes identically" f4 (Log_record.encode r4)

(* The per-kind counters cover exactly the frames [bytes] counts, for a
   live log and for one reopened from its file or its durable store. *)
let test_kind_stats () =
  let bodies =
    [
      Log_record.Update
        { page = 1; op = Page_op.Insert_slot { slot = 0; cell = "x" }; lundo = None };
      Log_record.Move
        {
          parts =
            [
              { Log_record.page = 1; op = Page_op.insert_run ~slot:0 [ "a"; "b" ] };
              { page = 2; op = Page_op.Delete_cells { cells = [ (0, "a"); (0, "b") ] } };
            ];
        };
      Log_record.Clr
        { page = 1; op = Page_op.Delete_slot { slot = 0; cell = "x" }; undo_next = 0 };
      image_body ~page:3 300;
      Log_record.Commit;
      Log_record.Begin_checkpoint;
    ]
  in
  let check what l =
    let s = Log_manager.stats l in
    Alcotest.(check (list string)) (what ^ ": kinds")
      [ "update"; "move"; "clr"; "image"; "commit"; "other" ]
      (List.map fst s.Log_manager.kind_bytes);
    Alcotest.(check (list int)) (what ^ ": one append each") [ 1; 1; 1; 1; 1; 1 ]
      (List.map snd s.Log_manager.kind_appends);
    Alcotest.(check int) (what ^ ": kinds sum to bytes") s.Log_manager.bytes
      (List.fold_left (fun n (_, b) -> n + b) 0 s.Log_manager.kind_bytes)
  in
  let fill l =
    List.iter (fun b -> ignore (Log_manager.append l ~prev:Lsn.null ~txn:1 b)) bodies;
    check "live" l;
    Log_manager.flush_all l;
    check "reopened" (Log_manager.crash l)
  in
  fill (Log_manager.create ());
  with_path "kinds" (fun path -> fill (Log_manager.create ~path ()))

let suites =
  [
    ( "wal.store",
      [
        Alcotest.test_case "frames from the old CRC decode" `Quick
          test_old_frames_decode;
        Alcotest.test_case "model: in-memory store" `Quick test_model_memory;
        Alcotest.test_case "model: file store" `Quick test_model_file;
        Alcotest.test_case "block boundaries + torn tail" `Quick
          test_block_boundaries;
        Alcotest.test_case "reads during flush + truncation" `Quick
          test_concurrent_reads;
        Alcotest.test_case "resident_bytes gauge" `Quick test_resident_bytes;
        Alcotest.test_case "64 MiB durable, heap bounded" `Slow test_heap_bound;
        Alcotest.test_case "truncating everything keeps the LSN sequence"
          `Quick test_truncate_all_keeps_lsns;
        Alcotest.test_case "move frames decode" `Quick test_move_frames_decode;
        Alcotest.test_case "per-kind counts across reopen" `Quick test_kind_stats;
      ] );
  ]
