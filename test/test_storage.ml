(* Tests for pitree.storage: slotted pages, disks, buffer pool. *)

module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch

let mk_page () = Page.create ~size:512 ~id:7 ~kind:Page.Data ~level:0

let test_page_fresh () =
  let p = mk_page () in
  Alcotest.(check int) "id" 7 (Page.id p);
  Alcotest.(check int) "level" 0 (Page.level p);
  Alcotest.(check int) "slots" 0 (Page.slot_count p);
  Alcotest.(check int) "lsn" 0 (Page.lsn p);
  Alcotest.(check int) "side nil" Page.nil (Page.side_ptr p)

let test_page_insert_get () =
  let p = mk_page () in
  Page.insert p 0 "bbb";
  Page.insert p 0 "aaa";
  Page.insert p 2 "ccc";
  Alcotest.(check int) "count" 3 (Page.slot_count p);
  Alcotest.(check string) "slot0" "aaa" (Page.get p 0);
  Alcotest.(check string) "slot1" "bbb" (Page.get p 1);
  Alcotest.(check string) "slot2" "ccc" (Page.get p 2)

let test_page_delete () =
  let p = mk_page () in
  List.iteri (fun i c -> Page.insert p i c) [ "a"; "b"; "c" ];
  let removed = Page.delete p 1 in
  Alcotest.(check string) "removed" "b" removed;
  Alcotest.(check int) "count" 2 (Page.slot_count p);
  Alcotest.(check string) "shifted" "c" (Page.get p 1)

let test_page_replace () =
  let p = mk_page () in
  Page.insert p 0 "short";
  Page.replace p 0 "muchlongercell";
  Alcotest.(check string) "grown" "muchlongercell" (Page.get p 0);
  Page.replace p 0 "s";
  Alcotest.(check string) "shrunk" "s" (Page.get p 0)

let test_page_full () =
  let p = mk_page () in
  Alcotest.check_raises "too big" Page.Page_full (fun () ->
      Page.insert p 0 (String.make 600 'x'))

let test_page_fill_and_compact () =
  let p = mk_page () in
  (* Fill with 20-byte cells, delete every other one, then insert a cell
     that only fits after compaction. *)
  let cell i = Printf.sprintf "%020d" i in
  let n = ref 0 in
  (try
     while true do
       Page.insert p (Page.slot_count p) (cell !n);
       incr n
     done
   with Page.Page_full -> ());
  Alcotest.(check bool) "filled several" true (!n > 10);
  let before = Page.slot_count p in
  for i = before - 1 downto 0 do
    if i mod 2 = 0 then ignore (Page.delete p i)
  done;
  let big = String.make 60 'y' in
  Page.insert p 0 big;
  Alcotest.(check string) "compaction made room" big (Page.get p 0)

let test_page_of_bytes_roundtrip () =
  let p = mk_page () in
  Page.insert p 0 "persist";
  Page.set_side_ptr p 33;
  Page.set_lsn p 99;
  let copy = Page.of_bytes ~id:7 (Bytes.copy (Page.raw p)) in
  Alcotest.(check string) "cell" "persist" (Page.get copy 0);
  Alcotest.(check int) "side" 33 (Page.side_ptr copy);
  Alcotest.(check int) "lsn" 99 (Page.lsn copy)

let test_page_bad_magic () =
  Alcotest.(check bool) "bad magic raises" true
    (match Page.of_bytes ~id:1 (Bytes.make 512 '\000') with
    | exception Pitree_util.Codec.Corrupt _ -> true
    | _ -> false)

let test_page_bounds () =
  let p = mk_page () in
  Alcotest.(check bool) "get oob" true
    (match Page.get p 0 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "insert oob" true
    (match Page.insert p 1 "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: a page behaves like a list of cells under random
   insert/delete/replace. *)
let prop_page_model =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map2 (fun i s -> `Insert (i, s)) small_nat (string_size (int_range 1 20)));
          (2, map (fun i -> `Delete i) small_nat);
          (2, map2 (fun i s -> `Replace (i, s)) small_nat (string_size (int_range 1 20)));
        ])
  in
  Test.make ~name:"page = list model" ~count:300
    (make Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let p = Page.create ~size:2048 ~id:1 ~kind:Page.Data ~level:0 in
      let model = ref [] in
      let apply op =
        match op with
        | `Insert (i, s) ->
            let n = List.length !model in
            let i = if n = 0 then 0 else i mod (n + 1) in
            (match Page.insert p i s with
            | () ->
                let before = List.filteri (fun j _ -> j < i) !model in
                let after = List.filteri (fun j _ -> j >= i) !model in
                model := before @ (s :: after)
            | exception Page.Page_full -> ())
        | `Delete i ->
            let n = List.length !model in
            if n > 0 then begin
              let i = i mod n in
              ignore (Page.delete p i);
              model := List.filteri (fun j _ -> j <> i) !model
            end
        | `Replace (i, s) ->
            let n = List.length !model in
            if n > 0 then begin
              let i = i mod n in
              match Page.replace p i s with
              | () -> model := List.mapi (fun j old -> if j = i then s else old) !model
              | exception Page.Page_full -> ()
            end
      in
      List.iter apply ops;
      let actual = Page.fold p ~init:[] ~f:(fun acc _ c -> c :: acc) in
      List.rev actual = !model)

let test_mem_disk () =
  let d = Disk.in_memory ~page_size:128 in
  let buf = Bytes.make 128 'a' in
  d.Disk.write 3 buf;
  let out = Bytes.make 128 '\000' in
  d.Disk.read 3 out;
  Alcotest.(check bytes) "roundtrip" buf out;
  Alcotest.(check bool) "missing page" true
    (match d.Disk.read 9 out with exception Not_found -> true | _ -> false);
  Alcotest.(check int) "write count" 1 (d.Disk.write_count ())

let test_file_disk () =
  let path = Filename.temp_file "pitree" ".db" in
  let d = Disk.file ~page_size:256 ~path in
  let mk c =
    let p = Page.create ~size:256 ~id:2 ~kind:Page.Data ~level:0 in
    Page.insert p 0 (String.make 5 c);
    Page.raw p
  in
  d.Disk.write 2 (mk 'q');
  d.Disk.write 5 (mk 'r');
  d.Disk.sync ();
  d.Disk.close ();
  (* Reopen and read back. *)
  let d2 = Disk.file ~page_size:256 ~path in
  let out = Bytes.make 256 '\000' in
  d2.Disk.read 5 out;
  let p = Page.of_bytes ~id:5 out in
  Alcotest.(check string) "cell from file" "rrrrr" (Page.get p 0);
  Alcotest.(check bool) "hole is missing" true
    (match d2.Disk.read 3 out with exception Not_found -> true | _ -> false);
  d2.Disk.close ();
  Sys.remove path

let mk_pool ?(capacity = 8) ?(wal_flush = fun _ -> ()) () =
  let disk = Disk.in_memory ~page_size:256 in
  (disk, Buffer_pool.create ~capacity ~disk ~wal_flush ())

let write_page pool pid content =
  let fr = Buffer_pool.pin_new pool pid in
  let fresh = Page.create ~size:256 ~id:pid ~kind:Page.Data ~level:0 in
  Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 256;
  Page.insert fr.Buffer_pool.page 0 content;
  Buffer_pool.mark_dirty fr;
  Buffer_pool.unpin pool fr;
  fr

let test_pool_pin_hit () =
  let _, pool = mk_pool () in
  ignore (write_page pool 2 "x");
  let fr = Buffer_pool.pin pool 2 in
  Alcotest.(check string) "cached content" "x" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool fr;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one miss (initial pin_new)" 1 s.Buffer_pool.misses;
  Alcotest.(check int) "one hit" 1 s.Buffer_pool.hits

let test_pool_eviction_writes_back () =
  let disk, pool = mk_pool ~capacity:8 () in
  for pid = 2 to 20 do
    ignore (write_page pool pid (Printf.sprintf "p%d" pid))
  done;
  (* Early pages were evicted; they must be readable from disk again. *)
  let fr = Buffer_pool.pin pool 2 in
  Alcotest.(check string) "evicted page reloaded" "p2" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool fr;
  Alcotest.(check bool) "disk saw writes" true (disk.Disk.write_count () > 0);
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "evictions happened" true (s.Buffer_pool.evictions > 0)

let test_pool_exhausted () =
  let _, pool = mk_pool ~capacity:8 () in
  let frames = List.init 8 (fun i -> Buffer_pool.pin_new pool (i + 2)) in
  Alcotest.check_raises "all pinned" Buffer_pool.Pool_exhausted (fun () ->
      ignore (Buffer_pool.pin_new pool 100));
  List.iter (Buffer_pool.unpin pool) frames

let test_pool_wal_barrier () =
  (* Dirty pages must trigger wal_flush(page lsn) before reaching disk. *)
  let flushed = ref (-1) in
  let disk = Disk.in_memory ~page_size:256 in
  let pool =
    Buffer_pool.create ~capacity:8 ~disk ~wal_flush:(fun lsn -> flushed := lsn) ()
  in
  let fr = Buffer_pool.pin_new pool 2 in
  let fresh = Page.create ~size:256 ~id:2 ~kind:Page.Data ~level:0 in
  Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 256;
  Page.set_lsn fr.Buffer_pool.page 77;
  Buffer_pool.mark_dirty fr;
  Buffer_pool.flush_page pool fr;
  Buffer_pool.unpin pool fr;
  Alcotest.(check int) "wal flushed to page lsn" 77 !flushed

let test_pool_crash_loses_unflushed () =
  let disk, pool = mk_pool ~capacity:64 () in
  ignore (write_page pool 2 "will-be-lost");
  Buffer_pool.crash pool;
  let out = Bytes.make 256 '\000' in
  Alcotest.(check bool) "never reached disk" true
    (match disk.Disk.read 2 out with exception Not_found -> true | _ -> false);
  Alcotest.(check bool) "pool dead" true
    (match Buffer_pool.pin pool 2 with
    | exception Failure _ -> true
    | _ -> false)

let test_pool_flush_all_persists () =
  let disk, pool = mk_pool ~capacity:64 () in
  ignore (write_page pool 2 "durable");
  Buffer_pool.flush_all pool;
  Buffer_pool.crash pool;
  let pool2 = Buffer_pool.create ~capacity:8 ~disk ~wal_flush:(fun _ -> ()) () in
  let fr = Buffer_pool.pin pool2 2 in
  Alcotest.(check string) "survived crash" "durable" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool2 fr

let test_pool_crash_flush_ignores_latches () =
  (* The chaos harness tears dirty pages on the way down from workloads
     that crashed mid-atomic-action, with page X latches still held —
     flush_all would self-deadlock on them (single thread, latched
     flush). crash_flush must dump the dirty frames regardless. *)
  let disk, pool = mk_pool ~capacity:8 () in
  ignore (write_page pool 2 "torn-candidate");
  let fr = Buffer_pool.pin pool 2 in
  Latch.acquire fr.Buffer_pool.latch Latch.X;
  Buffer_pool.crash_flush pool;
  Latch.release fr.Buffer_pool.latch Latch.X;
  Buffer_pool.unpin pool fr;
  Buffer_pool.crash pool;
  let pool2 = Buffer_pool.create ~capacity:8 ~disk ~wal_flush:(fun _ -> ()) () in
  let fr = Buffer_pool.pin pool2 2 in
  Alcotest.(check string) "X-latched dirty page reached disk" "torn-candidate"
    (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool2 fr

(* ---- sharded pool: eviction policy, WAL ordering, concurrency ---- *)

let stamp_disk_pages disk ~n =
  for pid = 0 to n - 1 do
    let p = Page.create ~size:256 ~id:pid ~kind:Page.Data ~level:0 in
    Page.insert p 0 (Printf.sprintf "d%d" pid);
    Page.stamp_checksum p;
    disk.Disk.write pid (Page.raw p)
  done

let test_pool_evict_wal_before_data () =
  (* A dirty page picked by the eviction clock must have its LSN forced to
     the WAL before its bytes reach the disk. *)
  let flushed = ref [] in
  let inner = Disk.in_memory ~page_size:256 in
  let writes = ref [] in
  let disk =
    {
      inner with
      Disk.write =
        (fun pid buf ->
          (* Snapshot the WAL high-water marks seen at write time. *)
          writes := (pid, !flushed) :: !writes;
          inner.Disk.write pid buf);
    }
  in
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1 ~disk
      ~wal_flush:(fun lsn -> flushed := lsn :: !flushed)
      ()
  in
  for pid = 0 to 7 do
    let fr = Buffer_pool.pin_new pool pid in
    let fresh = Page.create ~size:256 ~id:pid ~kind:Page.Data ~level:0 in
    Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 256;
    Page.set_lsn fr.Buffer_pool.page (100 + pid);
    Buffer_pool.mark_dirty fr;
    Buffer_pool.unpin pool fr
  done;
  (* One more install forces the clock to evict (and write back) a dirty
     victim. *)
  Buffer_pool.unpin pool (Buffer_pool.pin_new pool 99);
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "eviction happened" true (s.Buffer_pool.evictions >= 1);
  Alcotest.(check bool) "a write-back happened" true (!writes <> []);
  List.iter
    (fun (pid, flushed_then) ->
      Alcotest.(check bool)
        (Printf.sprintf "wal covered page %d before its data write" pid)
        true
        (List.mem (100 + pid) flushed_then))
    !writes

let test_pool_never_evicts_pinned () =
  let _, pool = mk_pool ~capacity:8 () in
  (* Keep 7 frames pinned; leave a single victim candidate. *)
  let pinned = List.init 7 (fun i -> Buffer_pool.pin_new pool i) in
  Buffer_pool.unpin pool (Buffer_pool.pin_new pool 7);
  (* Repeated installs can only ever recycle the one unpinned slot. *)
  for pid = 100 to 120 do
    Buffer_pool.unpin pool (Buffer_pool.pin_new pool pid)
  done;
  let before = (Buffer_pool.stats pool).Buffer_pool.misses in
  (* Every pinned page must still be resident, in its original frame. *)
  List.iter
    (fun (fr : Buffer_pool.frame) ->
      let fr2 = Buffer_pool.pin pool fr.Buffer_pool.pid in
      Alcotest.(check bool) "same frame" true (fr2 == fr);
      Buffer_pool.unpin pool fr2)
    pinned;
  let after = (Buffer_pool.stats pool).Buffer_pool.misses in
  Alcotest.(check int) "no pinned frame was evicted" before after;
  List.iter (Buffer_pool.unpin pool) pinned

let test_pool_clock_second_chance () =
  (* A re-referenced frame survives the sweep that evicts its unreferenced
     neighbors. *)
  let _, pool = mk_pool ~capacity:8 () in
  for pid = 0 to 7 do
    Buffer_pool.unpin pool (Buffer_pool.pin_new pool pid)
  done;
  (* Every frame is referenced: the first install strips all the reference
     bits on its first revolution and takes slot 0 (page 0). *)
  Buffer_pool.unpin pool (Buffer_pool.pin_new pool 100);
  (* Re-reference page 2; it must now outlive the next sweeps... *)
  Buffer_pool.unpin pool (Buffer_pool.pin pool 2);
  (* ...which take pages 1 and 3 instead. *)
  Buffer_pool.unpin pool (Buffer_pool.pin_new pool 101);
  Buffer_pool.unpin pool (Buffer_pool.pin_new pool 102);
  let resident pid =
    let before = (Buffer_pool.stats pool).Buffer_pool.misses in
    Buffer_pool.unpin pool (Buffer_pool.pin_new pool pid);
    (Buffer_pool.stats pool).Buffer_pool.misses = before
  in
  Alcotest.(check bool) "page 2 survived (second chance)" true (resident 2);
  Alcotest.(check bool) "page 0 was the first victim" false (resident 0);
  Alcotest.(check bool) "page 1 evicted" false (resident 1)

let test_pool_miss_does_not_block_hits () =
  (* Acceptance: even with a single shard, a slow miss on one page must not
     block hits on other resident pages — the shard mutex is released
     around the device read. *)
  let inner = Disk.in_memory ~page_size:256 in
  stamp_disk_pages inner ~n:9;
  let disk =
    {
      inner with
      Disk.read =
        (fun pid buf ->
          if pid = 8 then Thread.delay 0.3;
          inner.Disk.read pid buf);
    }
  in
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1 ~disk ~wal_flush:(fun _ -> ()) ()
  in
  for pid = 0 to 3 do
    Buffer_pool.unpin pool (Buffer_pool.pin pool pid)
  done;
  let t0 = Unix.gettimeofday () in
  let slow =
    Domain.spawn (fun () -> Buffer_pool.unpin pool (Buffer_pool.pin pool 8))
  in
  Thread.delay 0.02 (* let the miss reach the (slow) device *);
  for _ = 1 to 1_000 do
    for pid = 0 to 3 do
      Buffer_pool.unpin pool (Buffer_pool.pin pool pid)
    done
  done;
  let hits_done = Unix.gettimeofday () -. t0 in
  Domain.join slow;
  let miss_done = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "4000 hits completed while the miss was in flight"
    true
    (hits_done < 0.25);
  Alcotest.(check bool) "slow miss completed" true (miss_done >= 0.3)

let pool_storm ~shards () =
  let domains = 4 and per = 2_000 and npages = 128 in
  let disk = Disk.in_memory ~page_size:256 in
  stamp_disk_pages disk ~n:npages;
  let pool =
    Buffer_pool.create ~capacity:64 ~shards ~disk ~wal_flush:(fun _ -> ()) ()
  in
  let work d =
    let st = ref ((d * 7919) + 13) in
    for _ = 1 to per do
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      let fr = Buffer_pool.pin pool (!st mod npages) in
      (* Not [Alcotest.check]: it prints through [Format]'s shared state,
         which is not safe from several domains at once. *)
      if fr.Buffer_pool.pid <> !st mod npages then
        Alcotest.failf "frame pid %d, expected %d" fr.Buffer_pool.pid
          (!st mod npages);
      Buffer_pool.unpin pool fr
    done
  in
  List.init domains (fun d -> Domain.spawn (fun () -> work d))
  |> List.iter Domain.join;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "hits + misses = pins" (domains * per)
    (s.Buffer_pool.hits + s.Buffer_pool.misses);
  (* All pins were released: every resident page can be flushed and the
     whole capacity can be repinned without exhaustion. *)
  Buffer_pool.flush_all pool;
  let frames = List.init 64 (fun pid -> Buffer_pool.pin pool pid) in
  List.iter (Buffer_pool.unpin pool) frames

let test_pool_storm_sharded () = pool_storm ~shards:8 ()
let test_pool_storm_single () = pool_storm ~shards:1 ()

let test_pool_flush_all_vs_mutator () =
  (* flush_all racing page mutators. Each
     mutation rewrites a page's two records to the same fresh token
     under the frame's X latch; a flusher writing mid-mutation would
     persist a torn image with mismatched records. Every disk write is
     parsed and checked, and once the mutators quiesce one more sweep
     must leave nothing dirty and everything durable. *)
  let npages = 16 in
  let inner = Disk.in_memory ~page_size:256 in
  let torn = Atomic.make 0 in
  let disk =
    {
      inner with
      Disk.write =
        (fun pid buf ->
          let p = Page.of_bytes ~id:pid (Bytes.copy buf) in
          if Page.get p 0 <> Page.get p 1 then Atomic.incr torn;
          inner.Disk.write pid buf);
    }
  in
  let pool =
    Buffer_pool.create ~capacity:npages ~shards:1 ~disk ~wal_flush:(fun _ -> ()) ()
  in
  for pid = 0 to npages - 1 do
    let fr = Buffer_pool.pin_new pool pid in
    let fresh = Page.create ~size:256 ~id:pid ~kind:Page.Data ~level:0 in
    Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 256;
    Page.insert fr.Buffer_pool.page 0 "t0";
    Page.insert fr.Buffer_pool.page 1 "t0";
    Buffer_pool.mark_dirty fr;
    Buffer_pool.unpin pool fr
  done;
  let mutate d () =
    for i = 1 to 600 do
      let pid = ((d * 31) + (i * 7)) mod npages in
      let fr = Buffer_pool.pin pool pid in
      Latch.acquire fr.Buffer_pool.latch Latch.X;
      let tok = Printf.sprintf "t%d.%d" d i in
      Page.replace fr.Buffer_pool.page 0 tok;
      Page.replace fr.Buffer_pool.page 1 tok;
      Buffer_pool.mark_dirty fr;
      Latch.release fr.Buffer_pool.latch Latch.X;
      Buffer_pool.unpin pool fr
    done
  in
  let hs = List.init 3 (fun d -> Domain.spawn (mutate d)) in
  for _ = 1 to 40 do
    Buffer_pool.flush_all pool
  done;
  List.iter Domain.join hs;
  Buffer_pool.flush_all pool;
  Alcotest.(check int) "no torn image ever reached the disk" 0
    (Atomic.get torn);
  Alcotest.(check (list (pair int int))) "nothing left dirty" []
    (Buffer_pool.dirty_pages pool);
  (* The flushed images are the live ones: reopening from the same disk
     must reproduce every page's current content. *)
  let live =
    List.init npages (fun pid ->
        let fr = Buffer_pool.pin pool pid in
        let c = Page.get fr.Buffer_pool.page 0 in
        Buffer_pool.unpin pool fr;
        (pid, c))
  in
  Buffer_pool.crash pool;
  let pool2 = Buffer_pool.create ~capacity:npages ~disk ~wal_flush:(fun _ -> ()) () in
  List.iter
    (fun (pid, c) ->
      let fr = Buffer_pool.pin pool2 pid in
      Alcotest.(check string)
        (Printf.sprintf "page %d durable" pid)
        c
        (Page.get fr.Buffer_pool.page 0);
      Buffer_pool.unpin pool2 fr)
    live

(* Write-back meets a page an eviction is writing out, and that write-out
   fails: the page is dirty again, and write-back must write it rather
   than skip it — every page dirty when listed leaves write-back clean
   (the full-page-write rule counts on it). *)
let test_write_back_covers_failed_eviction () =
  let inner = Disk.in_memory ~page_size:256 in
  let entered = Atomic.make false and release = Atomic.make false in
  let fail_next = Atomic.make true in
  let disk =
    {
      inner with
      Disk.write =
        (fun pid buf ->
          if pid = 2 && Atomic.get fail_next then begin
            Atomic.set entered true;
            while not (Atomic.get release) do
              Thread.delay 0.001
            done;
            Atomic.set fail_next false;
            raise (Disk.Disk_error { pid; op = "write"; transient = false })
          end
          else inner.Disk.write pid buf);
    }
  in
  let pool =
    Buffer_pool.create ~capacity:8 ~shards:1 ~disk ~wal_flush:(fun _ -> ()) ()
  in
  ignore (write_page pool 2 "x");
  (* Pin every other frame so page 2 is the only eviction victim. *)
  let held = List.init 7 (fun i -> Buffer_pool.pin_new pool (3 + i)) in
  let evictor =
    Domain.spawn (fun () ->
        match Buffer_pool.pin_new pool 10 with
        | fr -> Buffer_pool.unpin pool fr; false
        | exception Disk.Disk_error _ -> true)
  in
  while not (Atomic.get entered) do
    Thread.delay 0.001
  done;
  let flusher = Domain.spawn (fun () -> Buffer_pool.write_back pool) in
  Thread.delay 0.05;
  Atomic.set release true;
  Alcotest.(check bool) "the eviction's write failed" true (Domain.join evictor);
  Alcotest.(check int) "write-back wrote the page" 1 (Domain.join flusher);
  Alcotest.(check (list (pair int int))) "nothing left dirty" []
    (Buffer_pool.dirty_pages pool);
  List.iter (Buffer_pool.unpin pool) held

(* A miss allocates one page buffer: the durable image is read into the
   placeholder's own buffer, and a page that is missing or torn on disk
   comes back from [pin_or_blank] as that placeholder, [Ready] and blank.
   4 KiB pages go straight to the major heap, so major words count them. *)
let big_page = 4096
let page_words = (big_page / (Sys.word_size / 8)) + 1

let durable_disk pids =
  let disk = Disk.in_memory ~page_size:big_page in
  List.iter
    (fun pid ->
      let p = Page.create ~size:big_page ~id:pid ~kind:Page.Data ~level:0 in
      Page.insert p 0 (Printf.sprintf "durable-%d" pid);
      Page.stamp_checksum p;
      disk.Disk.write pid (Page.raw p))
    pids;
  disk

let blank_image pid =
  Bytes.to_string
    (Page.raw (Page.create ~size:big_page ~id:pid ~kind:Page.Free ~level:0))

(* The runtime folds a domain's direct major allocations into its counters
   at a minor collection, hence one on each side. *)
let major_words f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = f () in
  Gc.minor ();
  (r, (Gc.quick_stat ()).Gc.major_words -. before)

let test_pool_miss_one_buffer () =
  let n = 64 in
  let pids = List.init n (fun i -> i + 2) in
  let disk = durable_disk pids in
  let pool = Buffer_pool.create ~capacity:256 ~disk ~wal_flush:(fun _ -> ()) () in
  let frames, words = major_words (fun () -> List.map (Buffer_pool.pin pool) pids) in
  List.iter2
    (fun pid fr ->
      Alcotest.(check string) "durable image" (Printf.sprintf "durable-%d" pid)
        (Page.get fr.Buffer_pool.page 0);
      Buffer_pool.unpin pool fr)
    pids frames;
  Alcotest.(check int) "one miss per page" n (Buffer_pool.stats pool).Buffer_pool.misses;
  let per_miss = words /. float_of_int (n * page_words) in
  if per_miss >= 1.5 then
    Alcotest.failf "%.2f page buffers of major words per miss (want < 1.5)" per_miss

(* [pin_or_blank]'s answer: [None] for a loaded page, [Some why] for one
   it left blank. *)
let pin_or_blank pool pid =
  match Buffer_pool.pin_or_blank pool pid with
  | fr -> (fr, None)
  | exception Buffer_pool.Blank (fr, why) -> (fr, Some why)

let test_pool_pin_or_blank () =
  let disk = durable_disk [ 2; 3 ] in
  (* Page 3's durable image is torn: a new header over the old body. *)
  let buf = Bytes.create big_page in
  disk.Disk.read 3 buf;
  Bytes.set buf (big_page - 1) 'x';
  disk.Disk.write 3 buf;
  let pool = Buffer_pool.create ~capacity:64 ~disk ~wal_flush:(fun _ -> ()) () in
  let check pid want =
    let misses = (Buffer_pool.stats pool).Buffer_pool.misses in
    let fr, load = pin_or_blank pool pid in
    Alcotest.(check bool) (Printf.sprintf "page %d load" pid) true (load = want);
    Alcotest.(check bool) "ready" true (fr.Buffer_pool.state = Buffer_pool.Ready);
    Alcotest.(check int) "one miss" (misses + 1) (Buffer_pool.stats pool).Buffer_pool.misses;
    fr
  in
  let fr = check 2 None in
  Alcotest.(check string) "loaded image" "durable-2" (Page.get fr.Buffer_pool.page 0);
  Buffer_pool.unpin pool fr;
  List.iter
    (fun (pid, load) ->
      let fr = check pid load in
      Alcotest.(check string) "zeroed Free page" (blank_image pid)
        (Bytes.to_string (Page.raw fr.Buffer_pool.page));
      Buffer_pool.unpin pool fr;
      (* The blank frame stays resident: the next pin is a hit. *)
      let hits = (Buffer_pool.stats pool).Buffer_pool.hits in
      Buffer_pool.unpin pool (Buffer_pool.pin pool pid);
      Alcotest.(check int) "resident" (hits + 1) (Buffer_pool.stats pool).Buffer_pool.hits)
    [ (3, Some Buffer_pool.Torn); (9, Some Buffer_pool.Missing) ]

(* Restart pins once per redone record, nearly always a hit: a hit through
   [pin_or_blank] allocates no more than one through [pin]. *)
let test_pool_pin_or_blank_hit_alloc () =
  let disk = durable_disk [ 2 ] in
  let pool = Buffer_pool.create ~capacity:64 ~disk ~wal_flush:(fun _ -> ()) () in
  Buffer_pool.unpin pool (Buffer_pool.pin pool 2);
  let minor_words pin =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      Buffer_pool.unpin pool (pin pool 2)
    done;
    Gc.minor_words () -. before
  in
  let by_pin = minor_words Buffer_pool.pin in
  let by_blank = minor_words Buffer_pool.pin_or_blank in
  if by_blank > by_pin then
    Alcotest.failf "1000 hits: %.0f minor words through pin_or_blank, %.0f through pin"
      by_blank by_pin

let test_pool_pin_raises_and_withdraws () =
  let disk = durable_disk [ 3 ] in
  let buf = Bytes.create big_page in
  disk.Disk.read 3 buf;
  Bytes.set buf (big_page - 1) 'x';
  disk.Disk.write 3 buf;
  let pool = Buffer_pool.create ~capacity:64 ~disk ~wal_flush:(fun _ -> ()) () in
  Alcotest.check_raises "missing page" Not_found (fun () ->
      ignore (Buffer_pool.pin pool 9));
  (match Buffer_pool.pin pool 3 with
  | _ -> Alcotest.fail "torn page pinned"
  | exception Page.Corrupt { pid; _ } -> Alcotest.(check int) "torn pid" 3 pid);
  (* Both placeholders were withdrawn: pinning again misses again. *)
  List.iter
    (fun pid ->
      let misses = (Buffer_pool.stats pool).Buffer_pool.misses in
      let fr, load = pin_or_blank pool pid in
      Alcotest.(check bool) "not resident" true (load <> None);
      Alcotest.(check int) "a new miss" (misses + 1) (Buffer_pool.stats pool).Buffer_pool.misses;
      Buffer_pool.unpin pool fr)
    [ 9; 3 ];
  Alcotest.(check int) "no hits" 0 (Buffer_pool.stats pool).Buffer_pool.hits

let suites =
  [
    ( "storage.page",
      [
        Alcotest.test_case "fresh" `Quick test_page_fresh;
        Alcotest.test_case "insert/get" `Quick test_page_insert_get;
        Alcotest.test_case "delete" `Quick test_page_delete;
        Alcotest.test_case "replace" `Quick test_page_replace;
        Alcotest.test_case "page full" `Quick test_page_full;
        Alcotest.test_case "fill and compact" `Quick test_page_fill_and_compact;
        Alcotest.test_case "bytes roundtrip" `Quick test_page_of_bytes_roundtrip;
        Alcotest.test_case "bad magic" `Quick test_page_bad_magic;
        Alcotest.test_case "bounds" `Quick test_page_bounds;
        QCheck_alcotest.to_alcotest prop_page_model;
      ] );
    ( "storage.disk",
      [
        Alcotest.test_case "in-memory" `Quick test_mem_disk;
        Alcotest.test_case "file-backed" `Quick test_file_disk;
      ] );
    ( "storage.pool",
      [
        Alcotest.test_case "pin hit" `Quick test_pool_pin_hit;
        Alcotest.test_case "eviction writes back" `Quick test_pool_eviction_writes_back;
        Alcotest.test_case "exhaustion" `Quick test_pool_exhausted;
        Alcotest.test_case "wal barrier" `Quick test_pool_wal_barrier;
        Alcotest.test_case "crash loses unflushed" `Quick test_pool_crash_loses_unflushed;
        Alcotest.test_case "flush_all persists" `Quick test_pool_flush_all_persists;
        Alcotest.test_case "crash_flush ignores held latches" `Quick
          test_pool_crash_flush_ignores_latches;
        Alcotest.test_case "evict: WAL before data" `Quick
          test_pool_evict_wal_before_data;
        Alcotest.test_case "evict: never pinned" `Quick
          test_pool_never_evicts_pinned;
        Alcotest.test_case "clock second chance" `Quick
          test_pool_clock_second_chance;
        Alcotest.test_case "slow miss doesn't block hits" `Quick
          test_pool_miss_does_not_block_hits;
        Alcotest.test_case "4-domain storm (sharded)" `Quick
          test_pool_storm_sharded;
        Alcotest.test_case "4-domain storm (single)" `Quick
          test_pool_storm_single;
        Alcotest.test_case "flush_all vs mutators" `Quick
          test_pool_flush_all_vs_mutator;
        Alcotest.test_case "write_back covers a failed eviction" `Quick
          test_write_back_covers_failed_eviction;
        Alcotest.test_case "one page buffer per miss" `Quick
          test_pool_miss_one_buffer;
        Alcotest.test_case "pin_or_blank: missing and torn" `Quick
          test_pool_pin_or_blank;
        Alcotest.test_case "pin_or_blank: a hit allocates as pin does" `Quick
          test_pool_pin_or_blank_hit_alloc;
        Alcotest.test_case "pin raises and withdraws" `Quick
          test_pool_pin_raises_and_withdraws;
      ] );
  ]
