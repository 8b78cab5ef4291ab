module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch
module Latch_order = Pitree_sync.Latch_order
module Lsn = Pitree_wal.Lsn
module Log_manager = Pitree_wal.Log_manager
module Log_record = Pitree_wal.Log_record
module Page_op = Pitree_wal.Page_op
module Recovery = Pitree_wal.Recovery
module Lock_manager = Pitree_lock.Lock_manager
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Snapshot = Pitree_txn.Snapshot
module Atomic_action = Pitree_txn.Atomic_action
module Codec = Pitree_util.Codec
module Crash_point = Pitree_util.Crash_point

type config = {
  page_size : int;
  pool_capacity : int;
  page_oriented_undo : bool;
  consolidation : bool;
  log_path : string option;
  wal_group_commit : bool;
  pool_shards : int option;  (* None: Buffer_pool picks (domain count) *)
  pool_pin_attempts : int option;  (* None: Buffer_pool default (20) *)
  pool_backoff_seed : int option;  (* seeds the pool's backoff jitter *)
  ckpt_log_bytes : int option;
  ckpt_interval_s : float option;
  olc_reads : bool;
      (* searches/scans descend latch-free, validating against per-node
         version words and falling back to S latches under contention;
         false restores the always-latched read path (baselines) *)
  combine : bool;
      (* non-transactional puts funnel through the hot-key combining
         layer (one descent / one latch / one log batch per hot slot);
         false restores one descent per write *)
  combine_slots : int;  (* publication slots per engine (pow2-rounded) *)
  combine_window_us : int;
      (* how long a hot slot's leader holds the election open so the
         storm can pile into its batch; 0 applies immediately *)
  si_txns : bool;
      (* snapshot-isolation MVCC: version timestamps come from the
         Txn_mgr's commit-ts allocator (so SI snapshots are consistent
         cuts) and the TSB gc horizon is clamped to
         min(oldest live snapshot - 1, checkpoint watermark);
         false keeps per-tree clocks and unclamped gc *)
}

let default_config =
  {
    page_size = 4096;
    pool_capacity = 4096;
    page_oriented_undo = false;
    consolidation = true;
    log_path = None;
    wal_group_commit = true;
    pool_shards = None;
    pool_pin_attempts = None;
    pool_backoff_seed = None;
    ckpt_log_bytes = None;
    ckpt_interval_s = None;
    olc_reads = true;
    combine = true;
    combine_slots = 64;
    combine_window_us = 0;
    si_txns = false;
  }

type stats = {
  pages_allocated : int;
  pages_freed : int;
  pages_reused : int;
  completions_run : int;
  checkpoints : int;
  ckpt_pages_written : int;
  ckpt_records_truncated : int;
  ckpt_bytes_truncated : int;
  page_images : int;
  page_images_skipped : int;
  page_image_bytes : int;
}

(* Full-page-write bookkeeping (see [wire_triggers]): the LSN of each
   page's latest logged image, and the latest published Begin_checkpoint
   LSN. One mutex guards both; it is also what orders a dirtier's
   decision against a checkpoint's publication (see [publish_begin]). *)
type fpw = {
  fpw_mu : Mutex.t;
  imaged : (int, Lsn.t) Hashtbl.t;
  mutable since : Lsn.t;
}

type t = {
  cfg : config;
  disk : Disk.t;
  log_ref : Log_manager.t ref;
  mutable pool_v : Buffer_pool.t;
  mutable locks_v : Lock_manager.t;
  mutable txns_v : Txn_mgr.t;
  mutable crashed : bool;
  tasks : (unit -> unit) Queue.t;
  tasks_mu : Mutex.t;
  queued : int Atomic.t;  (* [Queue.length tasks], readable without the mutex *)
  completions : int Atomic.t;
  mutable allocs : int;
  mutable deallocs : int;
  mutable reuses : int;
  (* --- checkpointer --- *)
  ckpt_mu : Mutex.t;  (* serializes whole checkpoints *)
  mutable ckpts : int;
  mutable ckpt_pages : int;
  mutable ckpt_records : int;
  mutable ckpt_bytes : int;
  mutable last_ckpt_bytes : int;  (* log bytes at the last checkpoint *)
  mutable ckpt_thread : Thread.t option;
  mutable ckpt_stop : bool;  (* read by the interval thread, under ckpt_mu *)
  mutable fpw : fpw;  (* volatile: rebuilt empty by every [wire_triggers] *)
  page_images : int Atomic.t;  (* Page_image records logged *)
  page_images_skipped : int Atomic.t;
      (* clean->dirty transitions covered by an image already logged *)
  page_image_bytes : int Atomic.t;  (* encoded frame bytes of those images *)
}

let meta_pid = 1

let config t = t.cfg
let pool t = t.pool_v
let log t = !(t.log_ref)
let locks t = t.locks_v
let txns t = t.txns_v

let enc_u32 v =
  let b = Buffer.create 4 in
  Codec.put_u32 b v;
  Buffer.contents b

let dec_u32 s = Codec.get_u32 (Codec.reader s)

(* Catalog cell: name, root pid, kind, level. Cell 0 of the meta page is the
   next-unallocated-pid counter; catalog entries occupy cells 1..n. *)
let enc_catalog ~name ~root ~kind ~level =
  let b = Buffer.create 32 in
  Codec.put_bytes b name;
  Codec.put_u32 b root;
  Codec.put_u8 b (Page.kind_to_int kind);
  Codec.put_u8 b level;
  Buffer.contents b

let dec_catalog s =
  let r = Codec.reader s in
  let name = Codec.get_bytes r in
  let root = Codec.get_u32 r in
  (name, root)

(* --- checkpoints --- *)

(* The three instants of the checkpoint protocol a crash can land on; the
   chaos sweep drives all of them. Registered up front so harnesses can
   enumerate them before any checkpoint runs. *)
let crash_point_begin = "ckpt.begin.logged"
let crash_point_end = "ckpt.end.logged"
let crash_point_truncated = "ckpt.truncated"

(* Free-list instants: a page just popped off the free list for reuse, and
   a freed page just pushed onto it. Both sit inside the caller's atomic
   action, so a crash on either leaves a well-formed structure (the action
   rolls back whole). *)
let crash_point_free_reused = "free.reused"
let crash_point_free_pushed = "free.pushed"

let () =
  Crash_point.register crash_point_begin;
  Crash_point.register crash_point_end;
  Crash_point.register crash_point_truncated;
  Crash_point.register crash_point_free_reused;
  Crash_point.register crash_point_free_pushed

let fresh_fpw () =
  { fpw_mu = Mutex.create (); imaged = Hashtbl.create 256; since = Lsn.null }

(* Make [begin_lsn] the LSN that full-page images must reach, and forget
   images below it. Called after the Begin_checkpoint record is appended
   and before write-back lists dirty pages. *)
let publish_begin f begin_lsn =
  Mutex.lock f.fpw_mu;
  f.since <- begin_lsn;
  Hashtbl.filter_map_inplace
    (fun _ lsn -> if lsn >= begin_lsn then Some lsn else None)
    f.imaged;
  Mutex.unlock f.fpw_mu

(* The ARIES fuzzy checkpoint (section 5.4 shape):

   1. fence: append Begin_checkpoint and snapshot the ATT atomically with
      it (Txn_mgr.begin_checkpoint) — writers keep running — then publish
      its LSN to the full-page-write rule, before step 2 lists any page;
   2. write back every page dirty when listed, one S latch at a time
      (safe under concurrent writers; at a quiescent call site such as
      create or close this one sweep leaves the pool clean);
   3. snapshot the dirty-page table. Taken AFTER write-back on purpose:
      any page still dirty here carries a rec_lsn bounding what redo must
      replay, and any page cleaned by step 2 has everything below the
      fence durably on disk — while updates appended after the fence are
      covered because the redo point never exceeds begin_lsn;
   4. append End_checkpoint {begin_lsn; dpt; att}, read the oldest live
      first LSN, and force the log tail;
   5. publish the master record (checkpoint LSN + redo floor);
   6. truncate the log below min(redo floor, oldest live first LSN).

   A crash between any two steps recovers from the PREVIOUS complete
   checkpoint: nothing is published until step 5, and truncation only
   discards what the just-published checkpoint makes unreachable. *)
let checkpoint t =
  Mutex.lock t.ckpt_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.ckpt_mu)
    (fun () ->
      let log = !(t.log_ref) in
      let begin_lsn, att = Txn_mgr.begin_checkpoint t.txns_v in
      publish_begin t.fpw begin_lsn;
      Crash_point.hit crash_point_begin;
      let written = Buffer_pool.write_back t.pool_v in
      let dpt = Buffer_pool.dirty_pages t.pool_v in
      let att = List.map (fun (id, last) -> (id, last, false)) att in
      let end_lsn =
        Log_manager.append log ~prev:Lsn.null ~txn:0
          (Log_record.End_checkpoint { begin_lsn; dpt; att })
      in
      (* Read the truncation floor, then force the whole tail, not just
         End_checkpoint: a transaction leaves the live table when it
         appends its Commit, which may not be durable yet (an atomic
         action's never is), and its undo chain must not be truncated
         before that Commit is. *)
      let oldest = Txn_mgr.oldest_first_lsn t.txns_v in
      Log_manager.flush_all log;
      Crash_point.hit crash_point_end;
      let redo =
        List.fold_left (fun acc (_, rec_lsn) -> min acc rec_lsn) begin_lsn dpt
      in
      Log_manager.set_checkpoint log ~lsn:end_lsn ~redo;
      (* Snapshot-isolation GC floor: versions committed at or below the
         allocator watermark as of this (now published) checkpoint become
         eligible for retirement, subject to live snapshots
         (Snapshot.gc_cap). *)
      Snapshot.note_checkpoint (Txn_mgr.snapshots t.txns_v);
      (* Everything below the redo floor AND below the oldest live
         transaction's first record can never be read again. *)
      let keep_from =
        match oldest with Some oldest -> min redo oldest | None -> redo
      in
      let wal_before = Log_manager.stats log in
      let dropped = Log_manager.truncate log ~keep_from in
      let wal_after = Log_manager.stats log in
      t.ckpts <- t.ckpts + 1;
      t.ckpt_pages <- t.ckpt_pages + written;
      t.ckpt_records <- t.ckpt_records + dropped;
      t.ckpt_bytes <-
        t.ckpt_bytes
        + (wal_after.Log_manager.truncated_bytes
          - wal_before.Log_manager.truncated_bytes);
      t.last_ckpt_bytes <- wal_after.Log_manager.bytes;
      Crash_point.hit crash_point_truncated)

(* Log-growth trigger, run on the committing thread after each user
   commit: cheap check, and at most one checkpoint in flight (a busy
   checkpointer makes this a no-op rather than a queue). Running inline —
   not on a helper thread — means an armed ckpt.* crash point fires in the
   workload thread, where the chaos harness can catch it. *)
let maybe_checkpoint t =
  match t.cfg.ckpt_log_bytes with
  | None -> ()
  | Some threshold ->
      let bytes = (Log_manager.stats !(t.log_ref)).Log_manager.bytes in
      if bytes - t.last_ckpt_bytes >= threshold then
        if Mutex.try_lock t.ckpt_mu then begin
          Mutex.unlock t.ckpt_mu;
          (* Re-check after the race window: another thread may have just
             checkpointed. *)
          if bytes - t.last_ckpt_bytes >= threshold then
            checkpoint t
        end

let start_ckpt_thread t =
  match t.cfg.ckpt_interval_s with
  | None -> ()
  | Some period ->
      t.ckpt_stop <- false;
      t.ckpt_thread <-
        Some
          (Thread.create
             (fun () ->
               let rec sleep left =
                 if left > 0. && not t.ckpt_stop then begin
                   let d = min left 0.05 in
                   Thread.delay d;
                   sleep (left -. d)
                 end
               in
               while not t.ckpt_stop do
                 sleep period;
                 if not t.ckpt_stop then
                   (* The interval checkpointer is a background helper: a
                      crash point firing here (or the env dying under it)
                      must not take down the process — the workload
                      threads drive crash simulation. *)
                   try checkpoint t with _ -> ()
               done)
             ())

let stop_ckpt_thread t =
  match t.ckpt_thread with
  | None -> ()
  | Some th ->
      t.ckpt_stop <- true;
      Thread.join th;
      t.ckpt_thread <- None

(* Full-page writes, PostgreSQL's rule: with log truncation, a page's
   durable image can be the only copy of its pre-checkpoint history, so
   the first clean->dirty transition of a page after a checkpoint's Begin
   logs the page's image, and later transitions before the next Begin log
   nothing — a torn copy is rebuilt from that one image plus the records
   after it.

   Why a skipped image is safe. Take a page dirty at a crash, its latest
   clean->dirty transition T, and C the last checkpoint whose master
   record was published. Recovery needs a base record for the page (an
   image, or its Format) at or above C's redo point, and C's truncation
   keeps everything at or above that. Three facts:
   1. [Buffer_pool.mark_dirty] flips the dirty bit before this hook runs;
   2. C publishes its Begin LSN ([publish_begin]) before its write-back
      lists candidates, and the hook reads it under the same mutex;
   3. write-back leaves every page that is dirty when listed clean, or
      raises ([Buffer_pool.write_back]).
   If T's read of [since] came before C's publication, then by 1 and 2 C's
   listing saw the page dirty, and by 3 C cleaned it after T — so T was
   not the latest transition. Hence T read [since] >= C's Begin, and the
   image T logged, or the one it relied on, has an LSN >= C's Begin >=
   C's redo point. *)
let log_image_if_due t f pid page =
  Mutex.lock f.fpw_mu;
  let due =
    match Hashtbl.find_opt f.imaged pid with
    | Some lsn -> lsn < f.since
    | None -> true
  in
  Mutex.unlock f.fpw_mu;
  if not due then Atomic.incr t.page_images_skipped
  else begin
    (* Compact first, under the X latch the dirtying caller holds: the free
       space becomes one zero run, which the encoder leaves out of the
       frame. Page ops address slots by index, never by byte offset, so
       redo over this layout or the durable one gives the same page. *)
    Page.compact page;
    let lsn, bytes =
      Log_manager.append_frame !(t.log_ref) ~prev:Lsn.null ~txn:0
        (Log_record.Page_image
           { page = pid; image = Bytes.to_string (Page.raw page) })
    in
    Mutex.lock f.fpw_mu;
    Hashtbl.replace f.imaged pid lsn;
    Mutex.unlock f.fpw_mu;
    Atomic.incr t.page_images;
    ignore (Atomic.fetch_and_add t.page_image_bytes bytes)
  end

(* --- completion queue --- *)

let schedule t task =
  Mutex.lock t.tasks_mu;
  Queue.add task t.tasks;
  Atomic.incr t.queued;
  Mutex.unlock t.tasks_mu

(* Run queued tasks, at most [budget] of them, each outside the queue's
   mutex. Any number of threads may drain at once. *)
let run_tasks t ~budget =
  let rec loop ran =
    if ran >= budget || Atomic.get t.queued = 0 then ran
    else begin
      Mutex.lock t.tasks_mu;
      let task = Queue.take_opt t.tasks in
      if task <> None then Atomic.decr t.queued;
      Mutex.unlock t.tasks_mu;
      match task with
      | None -> ran
      | Some task ->
          task ();
          Atomic.incr t.completions;
          loop (ran + 1)
    end
  in
  loop 0

let drain t = run_tasks t ~budget:max_int

(* A constant, not a config field: enough to keep up with the postings
   one commit's splits schedule, small enough that no committer pays for
   a post-crash backlog. *)
let drain_budget = 4

let drain_some t = run_tasks t ~budget:drain_budget

let pending t = Atomic.get t.queued

(* Every user commit and abort runs a few queued completions (section
   5.1: a traversal that finds a missing index term schedules its posting
   as its own atomic action, and these are where it runs). The hooks run
   after the transaction has released its locks, and no caller holds a
   latch across a commit or an abort. *)
let wire_triggers t =
  Txn_mgr.set_on_user_commit t.txns_v (fun () ->
      ignore (drain_some t);
      maybe_checkpoint t);
  Txn_mgr.set_on_user_abort t.txns_v (fun () -> ignore (drain_some t));
  (* The image table is volatile: a crash drops it, and every page's first
     transition after restart logs a fresh image. *)
  let f = fresh_fpw () in
  t.fpw <- f;
  Buffer_pool.set_image_logger t.pool_v (Some (log_image_if_due t f));
  (* Dirtied pages take their rec_lsn from the WAL tail (their first
     un-persisted record lands above it); without this, one update to a
     cold or freshly created page floors the checkpoint redo point — and
     truncation — below the retained log. *)
  Buffer_pool.set_lsn_source t.pool_v
    (Some (fun () -> Log_manager.last_lsn !(t.log_ref)))

let fresh_volatile t =
  t.pool_v <-
    Buffer_pool.create ~capacity:t.cfg.pool_capacity ?shards:t.cfg.pool_shards
      ?pin_attempts:t.cfg.pool_pin_attempts
      ?backoff_seed:t.cfg.pool_backoff_seed ~disk:t.disk
      ~wal_flush:(fun lsn -> Log_manager.flush !(t.log_ref) lsn)
      ();
  t.locks_v <- Lock_manager.create ();
  t.txns_v <- Txn_mgr.create ~log:!(t.log_ref) ~pool:t.pool_v ~locks:t.locks_v ();
  wire_triggers t

let make_skeleton disk log_ref cfg =
  let pool =
    Buffer_pool.create ~capacity:cfg.pool_capacity ?shards:cfg.pool_shards
      ?pin_attempts:cfg.pool_pin_attempts ?backoff_seed:cfg.pool_backoff_seed
      ~disk
      ~wal_flush:(fun lsn -> Log_manager.flush !log_ref lsn)
      ()
  in
  let locks = Lock_manager.create () in
  let txns = Txn_mgr.create ~log:!log_ref ~pool ~locks () in
  let t =
    {
      cfg;
      disk;
      log_ref;
      pool_v = pool;
      locks_v = locks;
      txns_v = txns;
      crashed = false;
      tasks = Queue.create ();
      tasks_mu = Mutex.create ();
      queued = Atomic.make 0;
      completions = Atomic.make 0;
      allocs = 0;
      deallocs = 0;
      reuses = 0;
      ckpt_mu = Mutex.create ();
      ckpts = 0;
      ckpt_pages = 0;
      ckpt_records = 0;
      ckpt_bytes = 0;
      last_ckpt_bytes = 0;
      ckpt_thread = None;
      ckpt_stop = false;
      fpw = fresh_fpw ();
      page_images = Atomic.make 0;
      page_images_skipped = Atomic.make 0;
      page_image_bytes = Atomic.make 0;
    }
  in
  wire_triggers t;
  t

let create ?disk cfg =
  let disk =
    match disk with Some d -> d | None -> Disk.in_memory ~page_size:cfg.page_size
  in
  let log_ref =
    ref
      (Log_manager.create ?path:cfg.log_path ~group_commit:cfg.wal_group_commit
         ())
  in
  let t = make_skeleton disk log_ref cfg in
  (* Format the meta page inside an atomic action. *)
  Atomic_action.run t.txns_v (fun txn ->
      let fr = Buffer_pool.pin_new t.pool_v meta_pid in
      ignore
        (Txn_mgr.update t.txns_v txn fr
           (Page_op.Format { kind = Page.Meta; level = 0 }));
      ignore
        (Txn_mgr.update t.txns_v txn fr
           (Page_op.Insert_slot { slot = 0; cell = enc_u32 (meta_pid + 1) }));
      Buffer_pool.unpin t.pool_v fr);
  checkpoint t;
  start_ckpt_thread t;
  t

let open_from ?disk cfg =
  let log_path =
    match cfg.log_path with
    | Some p -> p
    | None -> invalid_arg "Env.open_from: config.log_path is required"
  in
  let disk =
    match disk with Some d -> d | None -> Disk.in_memory ~page_size:cfg.page_size
  in
  let log_ref = ref (Log_manager.create ~path:log_path ()) in
  let t = make_skeleton disk log_ref cfg in
  t.crashed <- true;
  t

(* --- page allocation --- *)

let with_meta_x t f =
  let fr = Buffer_pool.pin t.pool_v meta_pid in
  Latch.acquire fr.Buffer_pool.latch Latch.X;
  Latch_order.acquired Latch_order.space_map_rank;
  Fun.protect
    ~finally:(fun () ->
      Latch.release fr.Buffer_pool.latch Latch.X;
      Latch_order.released Latch_order.space_map_rank;
      Buffer_pool.unpin t.pool_v fr)
    (fun () -> f fr)

let alloc_page t txn ~kind ~level =
  let mgr = t.txns_v in
  t.allocs <- t.allocs + 1;
  with_meta_x t (fun meta ->
      let head = Page.aux_ptr meta.Buffer_pool.page in
      if head <> Page.nil then begin
        (* Pop the free list. The free page's cell 0 holds the next link. *)
        let fr = Buffer_pool.pin t.pool_v head in
        let next = dec_u32 (Page.get fr.Buffer_pool.page 0) in
        ignore
          (Txn_mgr.update mgr txn meta
             (Page_op.Set_aux_ptr { old_ptr = head; new_ptr = next }));
        ignore
          (Txn_mgr.update mgr txn fr
             (Page_op.Delete_slot { slot = 0; cell = enc_u32 next }));
        ignore
          (Txn_mgr.update mgr txn fr
             (Page_op.Reformat
                { old_kind = Page.Free; new_kind = kind; old_level = 0; new_level = level }));
        t.reuses <- t.reuses + 1;
        Crash_point.hit crash_point_free_reused;
        fr
      end
      else begin
        let next_pid = dec_u32 (Page.get meta.Buffer_pool.page 0) in
        ignore
          (Txn_mgr.update mgr txn meta
             (Page_op.Replace_slot
                { slot = 0; old_cell = enc_u32 next_pid; new_cell = enc_u32 (next_pid + 1) }));
        let fr = Buffer_pool.pin_new t.pool_v next_pid in
        ignore (Txn_mgr.update mgr txn fr (Page_op.Format { kind; level }));
        fr
      end)

let dealloc_page t txn fr =
  let mgr = t.txns_v in
  t.deallocs <- t.deallocs + 1;
  let page = fr.Buffer_pool.page in
  (* Strip the node down to a bare page with invertible operations, in an
     order whose exact reverse (undo) rebuilds it. *)
  if Page.slot_count page > 0 then
    ignore (Txn_mgr.update mgr txn fr (Page_op.delete_where page (fun _ -> true)));
  if Page.side_ptr page <> Page.nil then
    ignore
      (Txn_mgr.update mgr txn fr
         (Page_op.Set_side_ptr { old_ptr = Page.side_ptr page; new_ptr = Page.nil }));
  if Page.aux_ptr page <> Page.nil then
    ignore
      (Txn_mgr.update mgr txn fr
         (Page_op.Set_aux_ptr { old_ptr = Page.aux_ptr page; new_ptr = Page.nil }));
  if Page.flags page <> 0 then
    ignore
      (Txn_mgr.update mgr txn fr
         (Page_op.Set_flags { old_flags = Page.flags page; new_flags = 0 }));
  ignore
    (Txn_mgr.update mgr txn fr
       (Page_op.Reformat
          {
            old_kind = Page.kind page;
            new_kind = Page.Free;
            old_level = Page.level page;
            new_level = 0;
          }));
  with_meta_x t (fun meta ->
      let head = Page.aux_ptr meta.Buffer_pool.page in
      ignore
        (Txn_mgr.update mgr txn fr
           (Page_op.Insert_slot { slot = 0; cell = enc_u32 head }));
      ignore
        (Txn_mgr.update mgr txn meta
           (Page_op.Set_aux_ptr { old_ptr = head; new_ptr = Page.id page })));
  Crash_point.hit crash_point_free_pushed

(* Pages ever formatted on this disk (the next-unallocated-pid counter,
   minus pids 0 and 1 which are reserved/meta). This is the file's
   high-water extent: it only grows, so a churn workload whose extent
   plateaus is provably reusing freed pages. *)
let allocated_extent t =
  with_meta_x t (fun meta -> dec_u32 (Page.get meta.Buffer_pool.page 0) - 2)

(* Walk the free list and count it. Holds the meta X latch for the whole
   walk so the list cannot change underfoot; intended for harness/bench
   gating, not hot paths. *)
let free_list_length t =
  with_meta_x t (fun meta ->
      let rec walk pid n =
        if pid = Page.nil then n
        else begin
          let fr = Buffer_pool.pin t.pool_v pid in
          let next = dec_u32 (Page.get fr.Buffer_pool.page 0) in
          Buffer_pool.unpin t.pool_v fr;
          walk next (n + 1)
        end
      in
      walk (Page.aux_ptr meta.Buffer_pool.page) 0)

(* --- catalog --- *)

let create_tree t ~name ~kind ~level =
  Atomic_action.run t.txns_v (fun txn ->
      let root = alloc_page t txn ~kind ~level in
      let root_pid = Page.id root.Buffer_pool.page in
      Buffer_pool.unpin t.pool_v root;
      with_meta_x t (fun meta ->
          let slot = Page.slot_count meta.Buffer_pool.page in
          ignore
            (Txn_mgr.update t.txns_v txn meta
               (Page_op.Insert_slot
                  { slot; cell = enc_catalog ~name ~root:root_pid ~kind ~level })));
      root_pid)

let list_trees t =
  let fr = Buffer_pool.pin t.pool_v meta_pid in
  Latch.acquire fr.Buffer_pool.latch Latch.S;
  let out =
    Page.fold fr.Buffer_pool.page ~init:[] ~f:(fun acc i cell ->
        if i = 0 then acc else dec_catalog cell :: acc)
  in
  Latch.release fr.Buffer_pool.latch Latch.S;
  Buffer_pool.unpin t.pool_v fr;
  List.rev out

let find_tree t ~name =
  List.assoc_opt name (list_trees t)

(* --- crash / recover --- *)

let crash t =
  stop_ckpt_thread t;
  Buffer_pool.crash t.pool_v;
  t.log_ref := Log_manager.crash !(t.log_ref);
  Txn_mgr.crash t.txns_v;
  Mutex.lock t.tasks_mu;
  Queue.clear t.tasks;
  Atomic.set t.queued 0;
  Mutex.unlock t.tasks_mu;
  t.crashed <- true

let recover t =
  if not t.crashed then invalid_arg "Env.recover: not crashed";
  fresh_volatile t;
  (* Transaction ids must not collide with ids already in the log — and the
     transaction manager must be usable BEFORE recovery runs, because
     logical undo may execute compensations through the access method,
     which can start fresh atomic actions (e.g. a split so a restored
     record fits). *)
  t.txns_v <-
    Txn_mgr.create
      ~first_id:(Log_manager.max_txn_id !(t.log_ref) + 1)
      ~log:!(t.log_ref) ~pool:t.pool_v ~locks:t.locks_v ();
  wire_triggers t;
  t.crashed <- false;
  let report = Recovery.run ~log:!(t.log_ref) ~pool:t.pool_v in
  (* Seed the reborn commit-ts allocator past every pre-crash timestamp
     the log knows about; trees raise it further from their recovered
     clocks when re-attached. Pre-crash snapshots hold the old allocator
     and abort with Stale_snapshot on next use. *)
  Snapshot.observe_floor (Txn_mgr.snapshots t.txns_v) report.Recovery.max_commit_ts;
  (* The reopened log's [bytes] counter restarts at zero; rebase the
     log-growth watermark on it or the trigger compares fresh appends
     against the pre-crash high-water mark and stalls checkpointing
     (and truncation) until the new log outgrows the old one. *)
  t.last_ckpt_bytes <- (Log_manager.stats !(t.log_ref)).Log_manager.bytes;
  start_ckpt_thread t;
  report

let close t =
  stop_ckpt_thread t;
  checkpoint t;
  t.disk.Disk.close ()

let stats t =
  {
    pages_allocated = t.allocs;
    pages_freed = t.deallocs;
    pages_reused = t.reuses;
    completions_run = Atomic.get t.completions;
    checkpoints = t.ckpts;
    ckpt_pages_written = t.ckpt_pages;
    ckpt_records_truncated = t.ckpt_records;
    ckpt_bytes_truncated = t.ckpt_bytes;
    page_images = Atomic.get t.page_images;
    page_images_skipped = Atomic.get t.page_images_skipped;
    page_image_bytes = Atomic.get t.page_image_bytes;
  }
