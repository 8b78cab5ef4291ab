(* Per-layer counters, read from outside through each module's own [stats]
   function: a snapshot before and after the timed phase, the raw counter
   differences, and the per-layer metrics computed from them. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Tsb = Pitree_tsb.Tsb
module Pool = Pitree_storage.Buffer_pool
module Disk = Pitree_storage.Disk
module Log = Pitree_wal.Log_manager
module Locks = Pitree_lock.Lock_manager
module Latch = Pitree_sync.Latch
module Mvcc = Pitree_txn.Mvcc
module Combine = Pitree_combine.Combine

type tree = Blink of Blink.t | Tsb of Tsb.t

type snap = {
  blink : Blink.stats option;
  tsb : Tsb.stats option;
  pool : Pool.stats;
  disk_reads : int;
  wal : Log.stats;
  locks : Locks.stats;
  latch : Latch.stats;
  mvcc : Mvcc.stats;
  env : Env.stats;
}

let take env disk tree =
  {
    blink = (match tree with Blink b -> Some (Blink.stats b) | Tsb _ -> None);
    tsb = (match tree with Tsb t -> Some (Tsb.stats t) | Blink _ -> None);
    pool = Pool.stats (Env.pool env);
    disk_reads = disk.Disk.read_count ();
    wal = Log.stats (Env.log env);
    locks = Locks.stats (Env.locks env);
    latch = Latch.global_stats ();
    mvcc = Mvcc.stats ();
    env = Env.stats env;
  }

(* The counter differences between two snapshots, by name; a tree the
   workload does not use reads 0. *)
let raw ~(b : snap) ~(a : snap) =
  let opt f x y = match (x, y) with Some x, Some y -> f y - f x | _ -> 0 in
  let blink f = opt f b.blink a.blink and tsb f = opt f b.tsb a.tsb in
  [
    ("blink.descents", blink (fun s -> s.Blink.descents));
    ("blink.side_traversals", blink (fun s -> s.Blink.side_traversals));
    ("blink.olc_restarts", blink (fun s -> s.Blink.olc_restarts));
    ("blink.olc_fallbacks", blink (fun s -> s.Blink.olc_fallbacks));
    ("blink.lock_restarts", blink (fun s -> s.Blink.lock_restarts));
    ("blink.leaf_splits", blink (fun s -> s.Blink.leaf_splits));
    ("blink.postings_scheduled", blink (fun s -> s.Blink.postings_scheduled));
    ("blink.postings_completed", blink (fun s -> s.Blink.postings_completed));
    ("tsb.side_traversals", tsb (fun s -> s.Tsb.side_traversals));
    ("tsb.time_splits", tsb (fun s -> s.Tsb.time_splits));
    ("tsb.key_splits", tsb (fun s -> s.Tsb.key_splits));
    ("pool.hits", a.pool.Pool.hits - b.pool.Pool.hits);
    ("pool.misses", a.pool.Pool.misses - b.pool.Pool.misses);
    ("pool.evictions", a.pool.Pool.evictions - b.pool.Pool.evictions);
    ("pool.flushes", a.pool.Pool.flushes - b.pool.Pool.flushes);
    ("disk.reads", a.disk_reads - b.disk_reads);
    ("wal.appends", a.wal.Log.appends - b.wal.Log.appends);
    ("wal.forces", a.wal.Log.forces - b.wal.Log.forces);
    ("wal.flush_requests", a.wal.Log.flush_requests - b.wal.Log.flush_requests);
    ("wal.logical_commits", a.wal.Log.logical_commits - b.wal.Log.logical_commits);
    ("wal.bytes", a.wal.Log.bytes - b.wal.Log.bytes);
    ("lock.acquisitions", a.locks.Locks.acquisitions - b.locks.Locks.acquisitions);
    ("lock.waits", a.locks.Locks.waits - b.locks.Locks.waits);
    ("lock.deadlocks", a.locks.Locks.deadlocks - b.locks.Locks.deadlocks);
    ("latch.acquisitions", a.latch.Latch.acquisitions - b.latch.Latch.acquisitions);
    ("latch.contended", a.latch.Latch.contended - b.latch.Latch.contended);
    ("latch.wait_ns", a.latch.Latch.wait_ns - b.latch.Latch.wait_ns);
    ("mvcc.begun", a.mvcc.Mvcc.begun - b.mvcc.Mvcc.begun);
    ("mvcc.committed", a.mvcc.Mvcc.committed - b.mvcc.Mvcc.committed);
    ("mvcc.conflicts", a.mvcc.Mvcc.conflicts - b.mvcc.Mvcc.conflicts);
    ("mvcc.si_reads", a.mvcc.Mvcc.si_reads - b.mvcc.Mvcc.si_reads);
    ("env.checkpoints", a.env.Env.checkpoints - b.env.Env.checkpoints);
    ("env.ckpt_pages_written", a.env.Env.ckpt_pages_written - b.env.Env.ckpt_pages_written);
    ("env.completions_run", a.env.Env.completions_run - b.env.Env.completions_run);
  ]

(* What the client domains counted over the timed phase. *)
type work = {
  ops : int;
  reads : int;  (** autocommit point reads and scans (the OLC read paths) *)
  commits : int;  (** committed user transactions, autocommit writes included *)
  seconds : float;
}

let per a b = if b <= 0 then 0. else float_of_int a /. float_of_int b

(* Mean of a histogram-backed field between two snapshots: [mean * count]
   is the exact sample sum, so the difference of sums over the difference
   of counts is the mean over the phase alone. *)
let delta_mean ~m0 ~n0 ~m1 ~n1 =
  if n1 - n0 <= 0 then 0.
  else ((m1 *. float_of_int n1) -. (m0 *. float_of_int n0)) /. float_of_int (n1 - n0)

(* (name, unit, value) for every per-layer counter metric. *)
let metrics ~(b : snap) ~(a : snap) ~(w : work) ~(combine : Combine.stats)
    ~postings_pending ~pending_end =
  let deltas = raw ~b ~a in
  let d name = List.assoc name deltas in
  let ops = w.ops in
  let count n = float_of_int n in
  [
    ("blink.descents_per_op", "count/op", per (d "blink.descents") ops);
    ("blink.side_hops_per_op", "count/op", per (d "blink.side_traversals") ops);
    ("blink.olc_restarts_per_read", "count/read", per (d "blink.olc_restarts") w.reads);
    ("blink.olc_fallbacks_per_read", "count/read", per (d "blink.olc_fallbacks") w.reads);
    ("blink.lock_restarts_per_op", "count/op", per (d "blink.lock_restarts") ops);
    ("blink.leaf_splits", "count", count (d "blink.leaf_splits"));
    ("blink.postings_pending_end", "count", count postings_pending);
    ("tsb.side_hops_per_op", "count/op", per (d "tsb.side_traversals") ops);
    ("tsb.time_splits", "count", count (d "tsb.time_splits"));
    ("tsb.key_splits", "count", count (d "tsb.key_splits"));
    ("pool.hit_ratio", "ratio", per (d "pool.hits") (d "pool.hits" + d "pool.misses"));
    ("pool.misses_per_op", "count/op", per (d "pool.misses") ops);
    ("pool.evictions_per_op", "count/op", per (d "pool.evictions") ops);
    ("pool.writebacks_per_op", "count/op", per (d "pool.flushes") ops);
    (* Without injected faults every miss read is one disk read, so the
       disk's read count is the miss-wait histogram's sample count. *)
    ( "pool.miss_wait_mean_us", "us",
      delta_mean ~m0:b.pool.Pool.miss_wait_mean_ns ~n0:b.disk_reads
        ~m1:a.pool.Pool.miss_wait_mean_ns ~n1:a.disk_reads
      /. 1e3 );
    ("wal.forces_per_commit", "count/commit", per (d "wal.forces") w.commits);
    ("wal.batch_mean", "count", per (d "wal.flush_requests") (d "wal.forces"));
    ( "wal.commit_wait_mean_us", "us",
      delta_mean ~m0:b.wal.Log.wait_mean_ns ~n0:b.wal.Log.flush_requests
        ~m1:a.wal.Log.wait_mean_ns ~n1:a.wal.Log.flush_requests
      /. 1e3 );
    ("wal.bytes_per_op", "B/op", per (d "wal.bytes") ops);
    ("wal.appends_per_op", "count/op", per (d "wal.appends") ops);
    ("mvcc.conflicts_per_commit", "count/commit", per (d "mvcc.conflicts") (d "mvcc.committed"));
    ("mvcc.si_reads_per_op", "count/op", per (d "mvcc.si_reads") ops);
    ("lock.acquisitions_per_op", "count/op", per (d "lock.acquisitions") ops);
    ("lock.waits_per_op", "count/op", per (d "lock.waits") ops);
    ("lock.deadlocks", "count", count (d "lock.deadlocks"));
    ("latch.acquisitions_per_op", "count/op", per (d "latch.acquisitions") ops);
    ("latch.contended_ratio", "ratio", per (d "latch.contended") (d "latch.acquisitions"));
    ("latch.wait_us_per_op", "us/op", per (d "latch.wait_ns") ops /. 1e3);
    ("combine.reqs_per_op", "count/op", per combine.Combine.reqs ops);
    ("combine.batch_mean", "count", combine.Combine.batch_mean);
    ("combine.combined_ratio", "ratio", per combine.Combine.combined combine.Combine.reqs);
    ("combine.follower_wait_mean_us", "us", combine.Combine.follower_wait_mean_ns /. 1e3);
    ("combine.handbacks_per_req", "count/req", per combine.Combine.handbacks combine.Combine.reqs);
    ( "env.checkpoints_per_s", "1/s",
      if w.seconds <= 0. then 0. else count (d "env.checkpoints") /. w.seconds );
    ( "env.ckpt_pages_written_per_ckpt", "count/ckpt",
      per (d "env.ckpt_pages_written") (d "env.checkpoints") );
    ("env.pending_end", "count", count pending_end);
  ]
