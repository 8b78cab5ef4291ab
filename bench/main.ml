(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.
   The paper (Lomet & Salzberg, SIGMOD '92) is a design paper whose only
   figures are structural (Figures 1 and 2) and whose performance claims are
   qualitative; each experiment below turns one claim or figure into a
   measured table. Run `dune exec bench/main.exe -- --help` for the list. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Btc = Pitree_baseline.Bt_coupling
module Btl = Pitree_baseline.Bt_treelatch
module Tsb = Pitree_tsb.Tsb
module Hb = Pitree_hb.Hb
module Latch = Pitree_sync.Latch
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Log_manager = Pitree_wal.Log_manager
module Recovery = Pitree_wal.Recovery
module Crash_point = Pitree_util.Crash_point
module Wellformed = Pitree_core.Wellformed
module Engine = Pitree_core.Engine
module Workload = Pitree_harness.Workload
module Driver = Pitree_harness.Driver
module Endure = Pitree_harness.Endure
module Churn = Pitree_harness.Churn
module Table = Pitree_harness.Table
module Rng = Pitree_util.Rng
module Zipf = Pitree_util.Zipf
module Combine = Pitree_combine.Combine
module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Blink_engine = Pitree_blink.Blink_engine
module Tsb_engine = Pitree_tsb.Tsb_engine
module Mvcc = Pitree_txn.Mvcc
module Lock_manager = Pitree_lock.Lock_manager
module Clock = Pitree_sync.Clock

let mk_env ?(page_size = 1024) ?(pool = 32768) ?(page_oriented_undo = false)
    ?(consolidation = true) ?log_path ?(wal_group_commit = true)
    ?ckpt_log_bytes ?(olc_reads = true) () =
  Env.create
    {
      Env.default_config with
      page_size;
      pool_capacity = pool;
      page_oriented_undo;
      consolidation;
      log_path;
      wal_group_commit;
      ckpt_log_bytes;
      olc_reads;
    }

(* A file-backed WAL in a scratch location, so force counts are real fsyncs
   (an in-memory log advances durability without forcing anything). *)
let with_file_log f =
  let log_path = Filename.temp_file "pitree_bench" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove log_path with Sys_error _ -> ());
      try Sys.remove (log_path ^ ".ckpt") with Sys_error _ -> ())
    (fun () -> f log_path)

type engine = Eblink | Ecoupling | Etreelatch

let engines = [ Eblink; Ecoupling; Etreelatch ]

let instance engine =
  let env = mk_env () in
  let inst =
    match engine with
    | Eblink -> Pitree_blink.Blink_engine.inst (Blink.create env ~name:"bench")
    | Ecoupling -> Pitree_baseline.Bt_coupling_engine.inst (Btc.create env ~name:"bench")
    | Etreelatch -> Pitree_baseline.Bt_treelatch_engine.inst (Btl.create env ~name:"bench")
  in
  (env, inst)

let fmt_ops = Table.fmt_f

(* ------------------------------------------------------------------ *)
(* E1-E3: throughput scaling across engines (the Srinivasan & Carey
   claim: B-link-style approaches have the highest concurrency).        *)
(* ------------------------------------------------------------------ *)

let scaling_experiment ~title ~spec ~preload ~ops =
  let domain_counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.concat_map
      (fun engine ->
        List.map
          (fun domains ->
            let env, inst = instance engine in
            Driver.preload inst spec ~n:preload;
            ignore (Env.drain env);
            let r = Driver.run ~domains ~ops_per_domain:(ops / domains) ~seed:42L inst spec in
            ignore (Env.drain env);
            [
              Engine.name inst;
              string_of_int domains;
              fmt_ops r.Driver.ops_per_s;
              Printf.sprintf "%.0f" r.Driver.mean_ns;
              string_of_int r.Driver.p99_ns;
            ])
          domain_counts)
      engines
  in
  Table.print ~title ~header:[ "engine"; "domains"; "ops/s"; "mean ns"; "p99 ns" ] rows

let e1 () =
  scaling_experiment
    ~title:"E1: insert-heavy throughput vs domains (100% insert, uniform keys)"
    ~spec:(Workload.spec ~key_space:200_000 ~read_pct:0 ~insert_pct:100 ~delete_pct:0 ())
    ~preload:5_000 ~ops:24_000

let e2 () =
  scaling_experiment
    ~title:"E2: search-only throughput vs domains (100% read, uniform keys)"
    ~spec:(Workload.spec ~key_space:20_000 ~read_pct:100 ())
    ~preload:20_000 ~ops:24_000

let e3 () =
  scaling_experiment
    ~title:"E3: mixed 70/20/10 read/insert/delete, zipf(0.9) skew"
    ~spec:
      (Workload.spec ~key_space:50_000 ~read_pct:70 ~insert_pct:20 ~delete_pct:10
         ~dist:(Workload.Zipf 0.9) ())
    ~preload:10_000 ~ops:24_000

(* ------------------------------------------------------------------ *)
(* E4: latch footprint of structure changes — decomposed atomic actions
   hold exclusive latches on O(1) nodes; path-coupling and tree-latch
   baselines hold them far longer (paper innovation 3).                 *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let spec = Workload.spec ~key_space:200_000 ~read_pct:0 ~insert_pct:100 ~delete_pct:0 () in
  let ops = 20_000 in
  let rows =
    List.map
      (fun engine ->
        let env, inst = instance engine in
        Driver.preload inst spec ~n:2_000;
        ignore (Env.drain env);
        Latch.reset_global_stats ();
        let r = Driver.run ~domains:4 ~ops_per_domain:(ops / 4) ~seed:7L inst spec in
        ignore (Env.drain env);
        let s = Latch.global_stats () in
        let per_op v = float_of_int v /. float_of_int ops in
        [
          Engine.name inst;
          fmt_ops r.Driver.ops_per_s;
          Printf.sprintf "%.2f" (per_op s.Latch.acquisitions);
          Printf.sprintf "%.3f" (per_op s.Latch.contended);
          Printf.sprintf "%.0f" (per_op s.Latch.wait_ns);
          Printf.sprintf "%.0f" (per_op s.Latch.hold_ns);
        ])
      engines
  in
  Table.print
    ~title:
      "E4: latch footprint under insert load, 4 domains (per-op latch \
       acquisitions / contended / wait ns / X+U hold ns)"
    ~header:[ "engine"; "ops/s"; "acq/op"; "cont/op"; "wait ns/op"; "hold ns/op" ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: crash matrix — crash at every named point inside/between atomic
   actions; recovery takes no special measures; completion is lazy
   (paper innovation 4, section 5.1).                                   *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let points =
    [
      ("blink.split.linked", 5);
      ("blink.split.committed", 5);
      ("blink.root.grown", 1);
      ("blink.post.latched", 5);
      ("blink.post.updated", 5);
      ("blink.post.done", 5);
    ]
  in
  let rows =
    List.map
      (fun (point, after) ->
        Crash_point.disarm_all ();
        let env = mk_env ~page_size:256 () in
        let t = Blink.create env ~name:"t" in
        Crash_point.arm point ~after;
        let crashed = ref false in
        (try
           for i = 0 to 3_999 do
             Blink.insert t ~key:(Printf.sprintf "key%06d" i) ~value:"v"
           done
         with Crash_point.Crash_requested _ -> crashed := true);
        Crash_point.disarm_all ();
        (* Simulate the worst case: the log tail happened to reach disk at
           the instant of the failure, so interrupted atomic actions leave
           durable work that recovery must roll back. *)
        Log_manager.flush_all (Env.log env);
        Env.crash env;
        let t0 = Unix.gettimeofday () in
        let report = Env.recover env in
        let recovery_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let t = Option.get (Blink.open_existing env ~name:"t") in
        let wf = Wellformed.ok (Blink.verify t) in
        (* Count lazy completions triggered by post-recovery searches. *)
        Blink.reset_stats t;
        for i = 0 to 3_999 do
          ignore (Blink.find t (Printf.sprintf "key%06d" i))
        done;
        ignore (Env.drain env);
        let s = Blink.stats t in
        [
          point;
          (if !crashed then "yes" else "no-crash");
          Printf.sprintf "%.1f" recovery_ms;
          string_of_int report.Recovery.redone;
          string_of_int (List.length report.Recovery.loser_txns);
          (if wf then "yes" else "NO");
          string_of_int s.Blink.side_traversals;
          string_of_int s.Blink.postings_completed;
        ])
      points
  in
  Table.print
    ~title:
      "E5: crash injection matrix (recovery does no SMO-specific work; \
       interrupted changes complete lazily via later searches)"
    ~header:
      [ "crash point"; "crashed"; "recov ms"; "redone"; "losers"; "well-formed";
        "side-steps after"; "lazy completions" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: CNS vs CP invariants (section 5.2): consolidation reclaims space
   at the cost of latch coupling.                                        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let run consolidation =
    let env = mk_env ~page_size:512 ~consolidation () in
    let t = Blink.create env ~name:"t" in
    let n = 8_000 in
    for i = 0 to n - 1 do
      Blink.insert t ~key:(Printf.sprintf "key%06d" i) ~value:(String.make 16 'v')
    done;
    ignore (Env.drain env);
    let nodes_full = Blink.node_count t in
    Latch.reset_global_stats ();
    Blink.reset_stats t;
    for i = 0 to n - 1 do
      ignore (Blink.delete t (Printf.sprintf "key%06d" i))
    done;
    for _ = 1 to 20 do
      ignore (Env.drain env)
    done;
    let nodes_after = Blink.node_count t in
    let latches = Latch.global_stats () in
    let s = Blink.stats t in
    [
      (if consolidation then "CP (consolidate)" else "CNS (no consolidate)");
      string_of_int nodes_full;
      string_of_int nodes_after;
      string_of_int s.Blink.consolidations;
      Printf.sprintf "%.2f" (float_of_int latches.Latch.acquisitions /. float_of_int n);
      (if Wellformed.ok (Blink.verify t) then "yes" else "NO");
    ]
  in
  Table.print
    ~title:"E6: CNS vs CP — delete the whole tree, observe reclamation vs latch cost"
    ~header:
      [ "mode"; "nodes before"; "nodes after"; "consolidations"; "latch acq/op";
        "well-formed" ]
    [ run false; run true ]

(* ------------------------------------------------------------------ *)
(* E7: Figure 1 — TSB-tree time and key splits; history remains
   reachable through copied pointers.                                    *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let rows =
    List.map
      (fun rounds ->
        let env = mk_env ~page_size:512 ~consolidation:false () in
        let t = Tsb.create env ~name:"v" in
        let keys = 16 in
        let stamps = ref [] in
        for r = 1 to rounds do
          for i = 0 to keys - 1 do
            let ts =
              Tsb.put t ~key:(Printf.sprintf "acct%02d" i)
                ~value:(Printf.sprintf "r%04d" r)
            in
            if r mod 17 = 0 then stamps := (i, r, ts) :: !stamps
          done
        done;
        ignore (Env.drain env);
        let s = Tsb.stats t in
        (* Sampled as-of correctness across the whole history. *)
        let ok = ref 0 and bad = ref 0 in
        List.iter
          (fun (i, r, ts) ->
            match Tsb.get_asof t (Printf.sprintf "acct%02d" i) ~time:ts with
            | Some v when v = Printf.sprintf "r%04d" r -> incr ok
            | _ -> incr bad)
          !stamps;
        let wf = Wellformed.ok (Tsb.verify t) in
        [
          string_of_int (rounds * keys);
          string_of_int s.Tsb.time_splits;
          string_of_int s.Tsb.key_splits;
          string_of_int s.Tsb.history_nodes;
          Printf.sprintf "%d/%d" !ok (!ok + !bad);
          (if wf then "yes" else "NO");
        ])
      [ 50; 200; 800 ]
  in
  Table.print
    ~title:
      "E7 (Figure 1): TSB-tree — versions force time splits; history stays \
       reachable through copied history/key pointers"
    ~header:
      [ "versions"; "time splits"; "key splits"; "history nodes"; "as-of checks";
        "well-formed" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: Figure 2 — hB-tree with kd-tree sibling terms; clipping and
   multi-parent statistics; region query correctness.                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let rows =
    List.map
      (fun (dims, n) ->
        let env = mk_env ~page_size:512 ~consolidation:false () in
        let t = Hb.create env ~name:"h" ~dims in
        let rng = Rng.create 99L in
        let pts =
          Array.init n (fun i ->
              ignore i;
              Array.init dims (fun _ -> Rng.float rng 1.0))
        in
        Array.iteri (fun i p -> Hb.insert t ~point:p ~value:(string_of_int i)) pts;
        ignore (Env.drain env);
        let s = Hb.stats t in
        (* Region-query correctness vs brute force. *)
        let low = Array.make dims 0.25 and high = Array.make dims 0.75 in
        let inside p =
          let rec go i = i >= dims || (p.(i) >= 0.25 && p.(i) < 0.75 && go (i + 1)) in
          go 0
        in
        let expect = Array.to_list pts |> List.filter inside |> List.length in
        let got = Hb.query t ~low ~high ~init:0 ~f:(fun n _ _ -> n + 1) in
        let wf = Wellformed.ok (Hb.verify t) in
        [
          string_of_int dims;
          string_of_int n;
          string_of_int s.Hb.data_splits;
          string_of_int s.Hb.index_splits;
          string_of_int s.Hb.clipped_postings;
          string_of_int s.Hb.multi_parent_marks;
          Printf.sprintf "%d/%d" got expect;
          (if wf then "yes" else "NO");
        ])
      [ (2, 4_000); (3, 6_000); (4, 6_000) ]
  in
  Table.print
    ~title:
      "E8 (Figure 2): hB-tree — kd sibling terms, clipping, multi-parent \
       marking; region queries vs brute force"
    ~header:
      [ "dims"; "points"; "data splits"; "index splits"; "clipped"; "multi-parent";
        "region query"; "well-formed" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: move locks (section 4.2): under page-oriented UNDO a split waits
   for updaters of the node, admits readers, blocks new updaters.       *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let env = mk_env ~page_size:256 ~page_oriented_undo:true () in
  let t = Blink.create env ~name:"t" in
  (* Fill one leaf nearly full. *)
  let n0 = ref 0 in
  (try
     while true do
       if Blink.height t > 1 then raise Exit;
       Blink.insert t ~key:(Printf.sprintf "key%06d" !n0) ~value:(String.make 24 'v');
       incr n0
     done
   with Exit -> ());
  ignore (Env.drain env);
  (* Transaction T1 updates a record and stays open (holds IX on the
     node it touched). *)
  let mgr = Env.txns env in
  let t1 = Txn_mgr.begin_txn mgr Txn.User in
  Blink.insert ~txn:t1 t ~key:"key000001" ~value:(String.make 24 'w');
  (* A concurrent autocommit insert that needs a split of that node must
     wait for T1; readers keep running meanwhile. *)
  let split_done = Atomic.make 0.0 in
  let writer =
    Domain.spawn (fun () ->
        (* Keys sorting right after T1's record land in the same leaf and
           overflow it, forcing a split of the node T1 holds IX on. *)
        let t0 = Unix.gettimeofday () in
        for j = 0 to 5 do
          Blink.insert t
            ~key:(Printf.sprintf "key000001a%d" j)
            ~value:(String.make 48 'z')
        done;
        Atomic.set split_done (Unix.gettimeofday () -. t0))
  in
  Thread.delay 0.05;
  let blocked_at_50ms = Atomic.get split_done = 0.0 in
  (* Reads tolerated while the mover waits (move locks are compatible with
     readers). *)
  let t_read0 = Unix.gettimeofday () in
  let read_ok = Blink.find t "key000001" <> None in
  let read_ms = (Unix.gettimeofday () -. t_read0) *. 1000.0 in
  Thread.delay 0.05;
  Txn_mgr.commit mgr t1;
  Domain.join writer;
  ignore (Env.drain env);
  let split_wait_ms = Atomic.get split_done *. 1000.0 in
  Table.print
    ~title:
      "E9: move locks under page-oriented UNDO — the split waits for the \
       updating transaction; readers are not blocked"
    ~header:[ "observation"; "value" ]
    [
      [ "splitter blocked while T1 active (50ms in)"; (if blocked_at_50ms then "yes" else "NO") ];
      [ "reader proceeded during block"; (if read_ok then "yes" else "NO") ];
      [ "reader latency (ms)"; Printf.sprintf "%.2f" read_ms ];
      [ "splitter total wait (ms, ~100 expected)"; Printf.sprintf "%.1f" split_wait_ms ];
      [ "tree well-formed after"; (if Wellformed.ok (Blink.verify t) then "yes" else "NO") ];
    ]

(* ------------------------------------------------------------------ *)
(* E10: relative durability (section 4.3.1): atomic actions do not force
   the log; their commit rides on the next user commit.                 *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let count_forces ~relative =
    with_file_log (fun log_path ->
        let env = mk_env ~log_path () in
        let mgr = Env.txns env in
        let log = Env.log env in
        let before = (Log_manager.stats log).Log_manager.forces in
        for _ = 1 to 1000 do
          let kind = if relative then Txn.System else Txn.User in
          let txn = Txn_mgr.begin_txn mgr kind in
          Txn_mgr.commit mgr txn
        done;
        (* One closing user commit carries the batch to durability. *)
        let txn = Txn_mgr.begin_txn mgr Txn.User in
        Txn_mgr.commit mgr txn;
        (Log_manager.stats log).Log_manager.forces - before)
  in
  let sys = count_forces ~relative:true in
  let usr = count_forces ~relative:false in
  Table.print
    ~title:
      "E10: relative durability — log forces for 1000 structure-change \
       actions (+1 user commit)"
    ~header:[ "commit discipline"; "log forces" ]
    [
      [ "atomic actions (no force, section 4.3.1)"; string_of_int sys ];
      [ "if they were user transactions"; string_of_int usr ];
    ]

(* ------------------------------------------------------------------ *)
(* E11: saved-path state (section 5.2): postings reuse the remembered
   path, verified by state identifiers, instead of re-searching from
   the root.                                                             *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let run consolidation =
    let env = mk_env ~page_size:512 ~consolidation () in
    let t = Blink.create env ~name:"t" in
    for i = 0 to 14_999 do
      Blink.insert t ~key:(Printf.sprintf "key%06d" i) ~value:"v"
    done;
    ignore (Env.drain env);
    let s = Blink.stats t in
    let total = s.Blink.path_reuse_hits + s.Blink.full_retraversals in
    [
      (if consolidation then "CP" else "CNS");
      string_of_int s.Blink.postings_completed;
      string_of_int s.Blink.path_reuse_hits;
      string_of_int s.Blink.full_retraversals;
      (if total = 0 then "-"
       else
         Printf.sprintf "%.1f%%"
           (100.0 *. float_of_int s.Blink.path_reuse_hits /. float_of_int total));
    ]
  in
  Table.print
    ~title:
      "E11: saved-path reuse in posting actions (state identifiers verify \
       the remembered path, section 5.2)"
    ~header:[ "mode"; "postings"; "path reused"; "root re-traversals"; "reuse rate" ]
    [ run false; run true ]

(* ------------------------------------------------------------------ *)
(* E12 (ablation): move-lock granularity under page-oriented UNDO
   (section 4.2.2 discusses both realizations). Mixed updaters +
   splitters; finer locks mean fewer split waits.                        *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let run granularity =
    let env = mk_env ~page_size:512 ~page_oriented_undo:true () in
    let t = Blink.create env ~name:"t" in
    Blink.set_move_granularity t granularity;
    let inst = Pitree_blink.Blink_engine.inst t in
    let spec =
      Workload.spec ~key_space:20_000 ~read_pct:20 ~insert_pct:70 ~delete_pct:10
        ~dist:(Workload.Zipf 0.9) ()
    in
    Driver.preload inst spec ~n:5_000;
    ignore (Env.drain env);
    let r = Driver.run ~domains:4 ~ops_per_domain:4_000 ~seed:12L inst spec in
    ignore (Env.drain env);
    let s = Blink.stats t in
    [
      (match granularity with `Node -> "node-granule Move lock" | `Record -> "per-record U locks");
      fmt_ops r.Driver.ops_per_s;
      string_of_int s.Blink.leaf_splits;
      string_of_int s.Blink.lock_restarts;
      (if Wellformed.ok (Blink.verify t) then "yes" else "NO");
    ]
  in
  Table.print
    ~title:
      "E12 (ablation): move-lock realization (section 4.2.2) — node granule        vs per-record locks, page-oriented UNDO, 4 domains"
    ~header:[ "realization"; "ops/s"; "leaf splits"; "lock backoffs"; "well-formed" ]
    [ run `Node; run `Record ]

(* ------------------------------------------------------------------ *)
(* E13 (ablation): page size — split frequency vs per-op cost.           *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let rows =
    List.map
      (fun page_size ->
        let env = mk_env ~page_size () in
        let t = Blink.create env ~name:"t" in
        let n = 20_000 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to n - 1 do
          Blink.insert t ~key:(Printf.sprintf "key%08d" i) ~value:(String.make 16 'v')
        done;
        ignore (Env.drain env);
        let dt = Unix.gettimeofday () -. t0 in
        let s = Blink.stats t in
        [
          string_of_int page_size;
          fmt_ops (float_of_int n /. dt);
          string_of_int (Blink.height t);
          string_of_int (Blink.node_count t);
          string_of_int s.Blink.leaf_splits;
          string_of_int (s.Blink.postings_completed + s.Blink.postings_noop);
        ])
      [ 256; 512; 1024; 4096; 16384 ]
  in
  Table.print
    ~title:"E13 (ablation): page size — 20k sequential inserts"
    ~header:[ "page B"; "inserts/s"; "height"; "nodes"; "leaf splits"; "posting actions" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14 (ablation): access skew — hot-key contention across engines.      *)
(* ------------------------------------------------------------------ *)

let e14 () =
  let rows =
    List.concat_map
      (fun theta ->
        List.map
          (fun engine ->
            let env, inst = instance engine in
            let spec =
              Workload.spec ~key_space:50_000 ~read_pct:50 ~insert_pct:50
                ~delete_pct:0
                ~dist:(if theta = 0.0 then Workload.Uniform else Workload.Zipf theta)
                ()
            in
            Driver.preload inst spec ~n:10_000;
            ignore (Env.drain env);
            let r = Driver.run ~domains:4 ~ops_per_domain:4_000 ~seed:5L inst spec in
            ignore (Env.drain env);
            [
              (if theta = 0.0 then "uniform" else Printf.sprintf "zipf %.2f" theta);
              Engine.name inst;
              fmt_ops r.Driver.ops_per_s;
              string_of_int r.Driver.p99_ns;
            ])
          engines)
      [ 0.0; 0.9; 1.2 ]
  in
  Table.print
    ~title:"E14 (ablation): access skew, 50/50 read/insert, 4 domains"
    ~header:[ "distribution"; "engine"; "ops/s"; "p99 ns" ]
    rows

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel): per-operation latencies.                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let env = mk_env () in
  let t = Blink.create env ~name:"m" in
  for i = 0 to 49_999 do
    Blink.insert t ~key:(Printf.sprintf "key%08d" i) ~value:(String.make 16 'v')
  done;
  ignore (Env.drain env);
  let rng = Rng.create 5L in
  let next_insert = ref 50_000 in
  let tests =
    [
      Test.make ~name:"blink.find(hit)"
        (Staged.stage (fun () ->
             ignore (Blink.find t (Printf.sprintf "key%08d" (Rng.int rng 50_000)))));
      Test.make ~name:"blink.find(miss)"
        (Staged.stage (fun () -> ignore (Blink.find t "nope")));
      Test.make ~name:"blink.insert(new)"
        (Staged.stage (fun () ->
             let i = !next_insert in
             incr next_insert;
             Blink.insert t ~key:(Printf.sprintf "key%08d" i) ~value:"v"));
      Test.make ~name:"blink.range(100)"
        (Staged.stage (fun () ->
             let lo = Rng.int rng 40_000 in
             ignore
               (Blink.range t
                  ~low:(Printf.sprintf "key%08d" lo)
                  ~high:(Printf.sprintf "key%08d" (lo + 100))
                  ~init:0
                  ~f:(fun n _ _ -> n + 1))));
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%.0f" e
        | _ -> "?"
      in
      rows := [ name; est ] :: !rows)
    results;
  Table.print ~title:"Micro-benchmarks (Bechamel, ns/op)"
    ~header:[ "operation"; "ns/op" ]
    (List.sort compare !rows);
  (* Recovery replay rate: synthetic restart over the loaded tree's log. *)
  let n_records = Log_manager.last_lsn (Env.log env) in
  Env.crash env;
  let t0 = Unix.gettimeofday () in
  let _ = Env.recover env in
  let dt = Unix.gettimeofday () -. t0 in
  Table.print ~title:"Recovery replay rate" ~header:[ "metric"; "value" ]
    [
      [ "log records"; string_of_int n_records ];
      [ "restart time (ms)"; Printf.sprintf "%.1f" (dt *. 1000.0) ];
      [ "records/s"; fmt_ops (float_of_int n_records /. dt) ];
    ]

(* ------------------------------------------------------------------ *)
(* WAL group commit: a commit-heavy storm of user transactions across
   domains, group-commit pipeline vs the serial hold-the-mutex-across-fsync
   baseline. Emits BENCH_wal.json so the perf trajectory has data points.   *)
(* ------------------------------------------------------------------ *)

type wal_run = {
  w_mode : string;
  w_domains : int;
  w_committed : int;
  w_elapsed_s : float;
  w_commits_per_s : float;
  w_stats : Log_manager.stats;
}

let wal_commit_storm ~group_commit ~domains ~txns_per_domain =
  with_file_log (fun log_path ->
      let env = mk_env ~log_path ~wal_group_commit:group_commit () in
      let t = Blink.create env ~name:"wal" in
      let mgr = Env.txns env in
      let log = Env.log env in
      let forces0 = (Log_manager.stats log).Log_manager.forces in
      let t0 = Unix.gettimeofday () in
      let work d =
        for i = 0 to txns_per_domain - 1 do
          let txn = Txn_mgr.begin_txn mgr Txn.User in
          Blink.insert ~txn t
            ~key:(Printf.sprintf "d%02d-%06d" d i)
            ~value:"v";
          Txn_mgr.commit mgr txn
        done
      in
      (if domains = 1 then work 0
       else
         List.init domains (fun d -> Domain.spawn (fun () -> work d))
         |> List.iter Domain.join);
      let dt = Unix.gettimeofday () -. t0 in
      ignore (Env.drain env);
      let s = Log_manager.stats log in
      let committed = domains * txns_per_domain in
      {
        w_mode = (if group_commit then "group" else "serial");
        w_domains = domains;
        w_committed = committed;
        w_elapsed_s = dt;
        w_commits_per_s = float_of_int committed /. dt;
        w_stats = { s with Log_manager.forces = s.Log_manager.forces - forces0 };
      })

let wal_json_of_runs ~txns_per_domain runs =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"wal_group_commit\",\n";
  Printf.bprintf b "  \"txns_per_domain\": %d,\n" txns_per_domain;
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      let s = r.w_stats in
      Printf.bprintf b
        "    {\"mode\": %S, \"domains\": %d, \"committed\": %d, \
         \"elapsed_s\": %.4f, \"commits_per_s\": %.1f, \"forces\": %d, \
         \"flushes\": %d, \"flush_requests\": %d, \"appends\": %d, \
         \"batch_mean\": %.2f, \"batch_p99\": %d, \"batch_max\": %d, \
         \"wait_mean_ns\": %.0f, \"wait_p50_ns\": %d, \"wait_p99_ns\": %d, \
         \"batching_observed\": %b}%s\n"
        r.w_mode r.w_domains r.w_committed r.w_elapsed_s r.w_commits_per_s
        s.Log_manager.forces s.Log_manager.flushes s.Log_manager.flush_requests
        s.Log_manager.appends s.Log_manager.batch_mean s.Log_manager.batch_p99
        s.Log_manager.batch_max s.Log_manager.wait_mean_ns
        s.Log_manager.wait_p50_ns s.Log_manager.wait_p99_ns
        (s.Log_manager.forces < r.w_committed)
        (if i = List.length runs - 1 then "" else ",")
    )
    runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let wal_impl ~txns_per_domain ~domain_counts ~out () =
  let runs =
    List.concat_map
      (fun group_commit ->
        List.map
          (fun domains -> wal_commit_storm ~group_commit ~domains ~txns_per_domain)
          domain_counts)
      [ false; true ]
  in
  let rows =
    List.map
      (fun r ->
        let s = r.w_stats in
        [
          r.w_mode;
          string_of_int r.w_domains;
          string_of_int r.w_committed;
          fmt_ops r.w_commits_per_s;
          string_of_int s.Log_manager.forces;
          Printf.sprintf "%.2f" s.Log_manager.batch_mean;
          string_of_int s.Log_manager.batch_p99;
          string_of_int s.Log_manager.wait_p50_ns;
          string_of_int s.Log_manager.wait_p99_ns;
        ])
      runs
  in
  Table.print
    ~title:
      (Printf.sprintf
         "WAL group commit: user-commit storm (%d txns/domain, file-backed \
          log); serial = pre-group-commit baseline"
         txns_per_domain)
    ~header:
      [ "mode"; "domains"; "commits"; "commits/s"; "forces"; "batch mean";
        "batch p99"; "wait p50 ns"; "wait p99 ns" ]
    rows;
  let oc = open_out out in
  output_string oc (wal_json_of_runs ~txns_per_domain runs);
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* Smoke runs write beside the build, never over the checked-in record of
   their full run. *)
let smoke_out file =
  let dir = Filename.concat "_build" "smoke" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

let wal () = wal_impl ~txns_per_domain:1000 ~domain_counts:[ 1; 2; 4; 8 ] ~out:"BENCH_wal.json" ()

let wal_smoke () =
  wal_impl ~txns_per_domain:100 ~domain_counts:[ 4 ]
    ~out:(smoke_out "BENCH_wal.json") ()

(* ------------------------------------------------------------------ *)
(* Buffer pool: direct pin/unpin workloads against the pool alone (no
   engine, no WAL noise), sharded vs the legacy single-mutex baseline
   (?shards:1). Emits BENCH_pool.json.                                   *)
(* ------------------------------------------------------------------ *)

type pool_run = {
  b_workload : string;
  b_mode : string;
  b_domains : int;
  b_ops : int;
  b_elapsed_s : float;
  b_ops_per_s : float;
  b_stats : Buffer_pool.stats;
}

(* A disk image of [npages] checksummed pages with distinguishable content.
   [delay] simulates device latency on every read and write (an in-memory
   disk is otherwise instantaneous, which hides exactly the serialization
   this bench exists to measure). *)
let pool_disk ~page_size ~npages ~delay =
  let disk = Disk.in_memory ~page_size in
  for pid = 0 to npages - 1 do
    let p = Page.create ~size:page_size ~id:pid ~kind:Page.Data ~level:0 in
    Page.insert p 0 (Printf.sprintf "payload-%06d" pid);
    Page.stamp_checksum p;
    disk.Disk.write pid (Page.raw p)
  done;
  if delay <= 0.0 then disk
  else
    {
      disk with
      Disk.read = (fun pid buf -> Thread.delay delay; disk.Disk.read pid buf);
      write = (fun pid buf -> Thread.delay delay; disk.Disk.write pid buf);
    }

type pool_workload = Ppoint | Pscan | Pmixed | Phot

let pool_workload_name = function
  | Ppoint -> "point"
  | Pscan -> "scan"
  | Pmixed -> "mixed"
  | Phot -> "hot"

let pool_npages = 4096
let pool_disk_delay = 0.00005 (* 50us: NVMe-ish device latency *)

(* point: uniform point reads over a working set twice the pool — a steady
   miss stream against a 50us device. scan: sequential sweeps through a
   pool an eighth of the working set — eviction churn. mixed: zipf(0.9)
   reads with 10% dirtying against a quarter-size pool — clock quality
   plus write-back. hot: all-resident uniform reads on an instant disk —
   isolates pin-path mutex arithmetic.

   The "single" baseline reproduces the pre-sharding discipline: ?shards:1
   AND one mutex held across every pool call — so a miss's device read (and
   an eviction's write-back) blocks every other pin, which is exactly what
   the seed pool's global mutex did. The sharded arm requests shards
   explicitly (2x the domain count, at least 8) so the comparison is
   meaningful even where [Domain.recommended_domain_count] is low (CI
   containers). *)
let pool_run ~workload ~sharded ~domains ~ops_per_domain =
  let page_size = 512 in
  let npages = pool_npages in
  let delay = if workload = Phot then 0.0 else pool_disk_delay in
  let disk = pool_disk ~page_size ~npages ~delay in
  let capacity =
    match workload with
    | Ppoint -> npages / 2
    | Pscan -> npages / 8
    | Pmixed -> npages / 4
    | Phot -> npages
  in
  let shards = if sharded then max 8 (2 * domains) else 1 in
  let pool = Buffer_pool.create ~capacity ~shards ~disk ~wal_flush:(fun _ -> ()) () in
  let legacy_mu = Mutex.create () in
  let with_legacy f =
    if sharded then f ()
    else begin
      Mutex.lock legacy_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock legacy_mu) f
    end
  in
  (if workload = Phot then
     (* Warm the pool so the measured phase is all hits. *)
     for pid = 0 to npages - 1 do
       Buffer_pool.unpin pool (Buffer_pool.pin pool pid)
     done);
  let work d =
    let rng = Rng.create (Int64.of_int ((d * 7919) + 13)) in
    let zipf = Zipf.create ~n:npages ~theta:0.9 in
    let next_scan = ref (d * npages / max 1 domains) in
    for _ = 1 to ops_per_domain do
      let pid =
        match workload with
        | Ppoint | Phot -> Rng.int rng npages
        | Pscan ->
            let p = !next_scan in
            next_scan := (p + 1) mod npages;
            p
        | Pmixed -> Zipf.sample zipf rng
      in
      let fr = with_legacy (fun () -> Buffer_pool.pin pool pid) in
      ignore (Page.get fr.Buffer_pool.page 0);
      if workload = Pmixed && Rng.int rng 10 = 0 then Buffer_pool.mark_dirty fr;
      with_legacy (fun () -> Buffer_pool.unpin pool fr)
    done
  in
  let s0 = Buffer_pool.stats pool in
  let t0 = Unix.gettimeofday () in
  (if domains = 1 then work 0
   else List.init domains (fun d -> Domain.spawn (fun () -> work d)) |> List.iter Domain.join);
  let dt = Unix.gettimeofday () -. t0 in
  let s1 = Buffer_pool.stats pool in
  let ops = domains * ops_per_domain in
  let hits = s1.Buffer_pool.hits - s0.Buffer_pool.hits in
  let misses = s1.Buffer_pool.misses - s0.Buffer_pool.misses in
  let pins = hits + misses in
  let stats =
    {
      s1 with
      Buffer_pool.hits;
      misses;
      evictions = s1.Buffer_pool.evictions - s0.Buffer_pool.evictions;
      flushes = s1.Buffer_pool.flushes - s0.Buffer_pool.flushes;
      hit_ratio = (if pins = 0 then 0.0 else float_of_int hits /. float_of_int pins);
    }
  in
  {
    b_workload = pool_workload_name workload;
    b_mode = (if sharded then "sharded" else "single");
    b_domains = domains;
    b_ops = ops;
    b_elapsed_s = dt;
    b_ops_per_s = float_of_int ops /. dt;
    b_stats = stats;
  }

let pool_json_of_runs runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"pool_sharded\",\n";
  Printf.bprintf b "  \"npages\": %d,\n" pool_npages;
  (* The headline acceptance number: sharded vs single-mutex throughput on
     the most contended configuration present (point reads, max domains). *)
  let point_at mode =
    List.filter (fun r -> r.b_workload = "point" && r.b_mode = mode) runs
    |> List.fold_left (fun best r -> match best with
         | Some b when b.b_domains >= r.b_domains -> Some b
         | _ -> Some r) None
  in
  (match (point_at "sharded", point_at "single") with
  | Some s, Some g when g.b_ops_per_s > 0.0 && s.b_domains = g.b_domains ->
      Printf.bprintf b
        "  \"point_speedup_domains\": %d,\n  \"point_speedup\": %.2f,\n"
        s.b_domains (s.b_ops_per_s /. g.b_ops_per_s)
  | _ -> ());
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      let s = r.b_stats in
      Printf.bprintf b
        "    {\"workload\": %S, \"mode\": %S, \"domains\": %d, \"shards\": %d, \
         \"ops\": %d, \"elapsed_s\": %.4f, \"ops_per_s\": %.1f, \"hits\": %d, \
         \"misses\": %d, \"hit_ratio\": %.4f, \"evictions\": %d, \"flushes\": %d, \
         \"miss_wait_mean_ns\": %.0f, \"miss_wait_p99_ns\": %d}%s\n"
        r.b_workload r.b_mode r.b_domains s.Buffer_pool.shards r.b_ops
        r.b_elapsed_s r.b_ops_per_s s.Buffer_pool.hits s.Buffer_pool.misses
        s.Buffer_pool.hit_ratio s.Buffer_pool.evictions s.Buffer_pool.flushes
        s.Buffer_pool.miss_wait_mean_ns s.Buffer_pool.miss_wait_p99_ns
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let pool_impl ~workloads ~domain_counts ~ops_per_domain ~out () =
  let runs =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun domains ->
            List.map
              (fun sharded ->
                pool_run ~workload ~sharded ~domains
                  ~ops_per_domain:(ops_per_domain workload))
              [ false; true ])
          domain_counts)
      workloads
  in
  let rows =
    List.map
      (fun r ->
        let s = r.b_stats in
        [
          r.b_workload;
          r.b_mode;
          string_of_int r.b_domains;
          string_of_int s.Buffer_pool.shards;
          fmt_ops r.b_ops_per_s;
          Printf.sprintf "%.1f%%" (100.0 *. s.Buffer_pool.hit_ratio);
          string_of_int s.Buffer_pool.evictions;
          Printf.sprintf "%.0f" s.Buffer_pool.miss_wait_mean_ns;
          string_of_int s.Buffer_pool.miss_wait_p99_ns;
        ])
      runs
  in
  Table.print
    ~title:
      "Buffer pool: direct pin/unpin throughput, sharded (off-mutex miss \
       I/O) vs single-mutex-held-across-I/O baseline (4096 pages, 50us \
       simulated device latency except hot)"
    ~header:
      [ "workload"; "mode"; "domains"; "shards"; "pins/s"; "hit%"; "evict";
        "missI/O ns"; "p99 ns" ]
    rows;
  let oc = open_out out in
  output_string oc (pool_json_of_runs runs);
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* Budgets differ by two orders of magnitude because point/scan/mixed run
   against the 50us-latency disk (miss-bound) while hot is all-resident. *)
let pool_ops_full = function
  | Ppoint -> 2_000
  | Pscan -> 1_000
  | Pmixed -> 2_000
  | Phot -> 50_000

let pool_bench () =
  pool_impl
    ~workloads:[ Ppoint; Pscan; Pmixed; Phot ]
    ~domain_counts:[ 1; 2; 4; 8 ]
    ~ops_per_domain:pool_ops_full ~out:"BENCH_pool.json" ()

let pool_smoke () =
  pool_impl ~workloads:[ Ppoint ] ~domain_counts:[ 4 ]
    ~ops_per_domain:(fun _ -> 500)
    ~out:(smoke_out "BENCH_pool.json") ()

(* ------------------------------------------------------------------ *)
(* Fuzzy checkpoints: restart work bounded by work-since-checkpoint (not
   total history), log file space reclaimed by truncation, and the
   reader-observed write-back stall. Emits BENCH_ckpt.json.              *)
(* ------------------------------------------------------------------ *)

type ckpt_run = {
  c_mode : string;
  c_history : int;
  c_log_records : int;  (* records retained in the log at crash time *)
  c_file_bytes : int;  (* WAL file size at crash time *)
  c_ckpts : int;
  c_trunc_records : int;
  c_trunc_bytes : int;
  c_restart_ms : float;
  c_analyzed : int;
  c_redone : int;
}

(* Load [history] autocommit inserts — with the log-bytes fuzzy-checkpoint
   trigger on or off — then crash with the whole log tail durable (the
   worst case for restart work) and measure recovery. *)
let ckpt_history_run ~fuzzy ~history =
  with_file_log (fun log_path ->
      let env =
        mk_env ~page_size:512 ~pool:1024 ~log_path
          ?ckpt_log_bytes:(if fuzzy then Some 65_536 else None) ()
      in
      let t = Blink.create env ~name:"ckpt" in
      for i = 0 to history - 1 do
        Blink.insert t
          ~key:(Printf.sprintf "key%08d" i)
          ~value:(String.make 16 'v')
      done;
      ignore (Env.drain env);
      let log = Env.log env in
      let es = Env.stats env in
      let file_bytes = Option.value (Log_manager.file_bytes log) ~default:0 in
      let log_records =
        Log_manager.last_lsn log - Log_manager.first_lsn log + 1
      in
      Log_manager.flush_all log;
      Env.crash env;
      let t0 = Unix.gettimeofday () in
      let report = Env.recover env in
      let restart_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t = Option.get (Blink.open_existing env ~name:"ckpt") in
      (match Blink.find t (Printf.sprintf "key%08d" (history - 1)) with
      | Some _ -> ()
      | None -> failwith "ckpt bench: committed key lost across recovery");
      if not (Wellformed.ok (Blink.verify t)) then
        failwith "ckpt bench: tree not well-formed after recovery";
      {
        c_mode = (if fuzzy then "fuzzy" else "none");
        c_history = history;
        c_log_records = log_records;
        c_file_bytes = file_bytes;
        c_ckpts = es.Env.checkpoints;
        c_trunc_records = es.Env.ckpt_records_truncated;
        c_trunc_bytes = es.Env.ckpt_bytes_truncated;
        c_restart_ms = restart_ms;
        c_analyzed = report.Recovery.analyzed;
        c_redone = report.Recovery.redone;
      })

(* Reader-observed stall: two domains run point reads while one explicit
   checkpoint per round writes back freshly dirtied pages. Write-back
   holds one page's S latch at a time and no shard mutex across I/O, so a
   reader waits for at most one page write. *)
let ckpt_stall_run ~rounds ~dirty_per_round =
  let env = mk_env ~page_size:512 ~pool:8192 () in
  let t = Blink.create env ~name:"stall" in
  for i = 0 to 9_999 do
    Blink.insert t ~key:(Printf.sprintf "key%08d" i) ~value:(String.make 16 'v')
  done;
  ignore (Env.drain env);
  let next = ref 10_000 in
  let max_find_ns = ref 0 and ckpt_s = ref 0.0 and finds = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to dirty_per_round do
      let i = !next in
      incr next;
      Blink.insert t
        ~key:(Printf.sprintf "key%08d" i)
        ~value:(String.make 16 'v')
    done;
    ignore (Env.drain env);
    let key_hi = !next in
    let running = Atomic.make true in
    let readers =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              let rng = Rng.create (Int64.of_int (d + 1)) in
              let worst = ref 0 and n = ref 0 in
              while Atomic.get running do
                let k = Printf.sprintf "key%08d" (Rng.int rng key_hi) in
                let t0 = Pitree_sync.Clock.now_ns () in
                ignore (Blink.find t k);
                let dt = Pitree_sync.Clock.now_ns () - t0 in
                if dt > !worst then worst := dt;
                incr n
              done;
              (!worst, !n)))
    in
    let t0 = Unix.gettimeofday () in
    Env.checkpoint env;
    ckpt_s := !ckpt_s +. (Unix.gettimeofday () -. t0);
    Atomic.set running false;
    List.iter
      (fun d ->
        let worst, n = Domain.join d in
        if worst > !max_find_ns then max_find_ns := worst;
        finds := !finds + n)
      readers
  done;
  ( "fuzzy",
    rounds,
    !ckpt_s,
    !max_find_ns,
    !finds )

let ckpt_json ~runs ~stalls =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"bench\": \"ckpt\",\n";
  (* Headline acceptance: at the largest history, restart analysis with
     checkpoints is a fraction of analysis without them. *)
  let at mode =
    List.filter (fun r -> r.c_mode = mode) runs
    |> List.fold_left
         (fun best r ->
           match best with
           | Some b when b.c_history >= r.c_history -> Some b
           | _ -> Some r)
         None
  in
  (match (at "fuzzy", at "none") with
  | Some f, Some n when n.c_analyzed > 0 && f.c_history = n.c_history ->
      Printf.bprintf b
        "  \"history_ops\": %d,\n  \"analyzed_fuzzy\": %d,\n  \
         \"analyzed_none\": %d,\n  \"bounded_restart\": %b,\n"
        f.c_history f.c_analyzed n.c_analyzed (f.c_analyzed < n.c_analyzed / 2)
  | _ -> ());
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"mode\": %S, \"history_ops\": %d, \"log_records\": %d, \
         \"log_file_bytes\": %d, \"checkpoints\": %d, \
         \"records_truncated\": %d, \"bytes_truncated\": %d, \
         \"restart_ms\": %.2f, \"analyzed\": %d, \"redone\": %d}%s\n"
        r.c_mode r.c_history r.c_log_records r.c_file_bytes r.c_ckpts
        r.c_trunc_records r.c_trunc_bytes r.c_restart_ms r.c_analyzed
        r.c_redone
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Buffer.add_string b "  ],\n  \"stall\": [\n";
  List.iteri
    (fun i (mode, rounds, ck_s, max_ns, finds) ->
      Printf.bprintf b
        "    {\"mode\": %S, \"rounds\": %d, \"checkpoint_s\": %.4f, \
         \"max_find_ns\": %d, \"finds\": %d}%s\n"
        mode rounds ck_s max_ns finds
        (if i = List.length stalls - 1 then "" else ","))
    stalls;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let ckpt_impl ~histories ~stall_rounds ~stall_dirty ~out () =
  let runs =
    List.concat_map
      (fun history ->
        List.map (fun fuzzy -> ckpt_history_run ~fuzzy ~history) [ false; true ])
      histories
  in
  Table.print
    ~title:
      "Fuzzy checkpoints: restart work and WAL file size vs history length \
       (log-bytes trigger at 64KiB; crash with the full tail durable)"
    ~header:
      [ "mode"; "history"; "log records"; "WAL bytes"; "ckpts"; "trunc recs";
        "restart ms"; "analyzed"; "redone" ]
    (List.map
       (fun r ->
         [
           r.c_mode;
           string_of_int r.c_history;
           string_of_int r.c_log_records;
           string_of_int r.c_file_bytes;
           string_of_int r.c_ckpts;
           string_of_int r.c_trunc_records;
           Printf.sprintf "%.1f" r.c_restart_ms;
           string_of_int r.c_analyzed;
           string_of_int r.c_redone;
         ])
       runs);
  let stalls =
    [ ckpt_stall_run ~rounds:stall_rounds ~dirty_per_round:stall_dirty ]
  in
  Table.print
    ~title:
      "Checkpoint write-back stall seen by concurrent readers (2 domains of \
       point reads during each checkpoint)"
    ~header:[ "mode"; "rounds"; "ckpt total s"; "worst find ns"; "finds" ]
    (List.map
       (fun (mode, rounds, ck_s, max_ns, finds) ->
         [
           mode;
           string_of_int rounds;
           Printf.sprintf "%.4f" ck_s;
           string_of_int max_ns;
           string_of_int finds;
         ])
       stalls);
  let oc = open_out out in
  output_string oc (ckpt_json ~runs ~stalls);
  close_out oc;
  Printf.printf "wrote %s\n%!" out

let ckpt () =
  ckpt_impl
    ~histories:[ 2_000; 8_000; 16_000 ]
    ~stall_rounds:10 ~stall_dirty:2_000 ~out:"BENCH_ckpt.json" ()

let ckpt_smoke () =
  ckpt_impl ~histories:[ 800 ] ~stall_rounds:2 ~stall_dirty:400
    ~out:(smoke_out "BENCH_ckpt.json") ()

(* ------------------------------------------------------------------ *)
(* E21 / churn: alternating insert/delete cycles over all three engines —
   node deletion + online merge must keep the file bounded, with freed
   pages cycling through the meta-page free list. Emits BENCH_churn.json
   (gated: extent <= 1.5x live high-water mark, >= 80% of post-warmup
   allocations served by the free list).                                 *)
(* ------------------------------------------------------------------ *)

let churn_impl cfg ~out =
  let res = Churn.run ~log:(Printf.printf "%s\n%!") cfg in
  Table.print
    ~title:
      (Printf.sprintf
         "E21: churn — %d insert/delete cycles per engine (%d keys, \
          %d-key bands); merges must bound the file and feed the free list"
         cfg.Churn.cycles cfg.Churn.keys cfg.Churn.band)
    ~header:
      [ "engine"; "cycles"; "cycles/s"; "used hwm"; "extent"; "ratio";
        "reused/alloc"; "reuse%"; "freed"; "well-formed"; "gates" ]
    (List.map
       (fun r ->
         [
           r.Churn.r_engine;
           string_of_int r.Churn.r_cycles;
           fmt_ops r.Churn.r_cycles_per_s;
           string_of_int r.Churn.r_used_hwm;
           string_of_int r.Churn.r_extent_final;
           Printf.sprintf "%.2f" r.Churn.r_extent_ratio;
           Printf.sprintf "%d/%d" r.Churn.r_post_reused r.Churn.r_post_allocated;
           Printf.sprintf "%.1f%%" (100.0 *. r.Churn.r_reuse_ratio);
           string_of_int r.Churn.r_pages_freed;
           (if r.Churn.r_well_formed then "yes" else "NO");
           (if Churn.ok r then "pass" else "FAIL");
         ])
       res.Churn.runs);
  let oc = open_out out in
  output_string oc (Churn.to_json cfg res);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if not res.Churn.passed then exit 1

let churn () = churn_impl Churn.default_config ~out:"BENCH_churn.json"

let churn_smoke () =
  churn_impl
    { Churn.default_config with Churn.cycles = 20_000; keys = 2_048; band = 256 }
    ~out:(smoke_out "BENCH_churn.json")

(* ------------------------------------------------------------------ *)

(* E18: the endurance rig (see lib/harness/endure.ml and the pitree
   endure subcommand for the full-scale run). The smoke variant keeps CI
   honest: mixed load, faults on, one crash cycle, all SLOs gated. *)
let endure_impl cfg ~out =
  let r = Endure.run ~log:(Printf.printf "%s\n%!") cfg in
  Format.printf "%a@." Endure.pp_result r;
  let oc = open_out out in
  output_string oc (Endure.to_json r);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if not r.Endure.passed then exit 1

let endure () =
  endure_impl
    { Endure.default_config with Endure.seconds = 30.0; keys = 200_000 }
    ~out:"BENCH_endure.json"

let endure_smoke () =
  endure_impl
    {
      Endure.default_config with
      Endure.keys = 20_000;
      seconds = 4.0;
      domains = 2;
      pool_capacity = 1024;
      ckpt_log_bytes = 262_144;
      crash_cycles = 1;
      verify_sample = 500;
    }
    ~out:(smoke_out "BENCH_endure.json")

(* ------------------------------------------------------------------ *)
(* E19 / olc: optimistic latch-free read descents vs the S-latched
   path. All-resident tree (pool >> data) so the comparison isolates
   descent synchronization; read-only point and scan mixes measure the
   latch-free win, the mixed workload measures the restart/fallback
   ladder's cost under writers. Emits BENCH_olc.json.                   *)
(* ------------------------------------------------------------------ *)

type olc_run = {
  o_workload : string;
  o_mode : string;  (* "latched" | "optimistic" *)
  o_domains : int;
  o_result : Driver.result;
  o_restarts : int;
  o_fallbacks : int;
}

let olc_storm ~olc_reads ~workload ~spec ~domains ~ops_per_domain ~preload =
  let env = mk_env ~olc_reads () in
  let t = Blink.create env ~name:"bench" in
  let inst = Pitree_blink.Blink_engine.inst t in
  Driver.preload inst spec ~n:preload;
  ignore (Env.drain env);
  let s0 = Blink.stats t in
  let r = Driver.run ~domains ~ops_per_domain ~seed:7L inst spec in
  let s1 = Blink.stats t in
  {
    o_workload = workload;
    o_mode = (if olc_reads then "optimistic" else "latched");
    o_domains = domains;
    o_result = r;
    o_restarts = s1.Blink.olc_restarts - s0.Blink.olc_restarts;
    o_fallbacks = s1.Blink.olc_fallbacks - s0.Blink.olc_fallbacks;
  }

let olc_json_of_runs ~key_space ~headline runs =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"olc_reads\",\n";
  Printf.bprintf b "  \"key_space\": %d,\n" key_space;
  Buffer.add_string b "  \"headline\": {\n";
  List.iteri
    (fun i (w, sp) ->
      Printf.bprintf b "    %S: %.2f%s\n" w sp
        (if i = List.length headline - 1 then "" else ","))
    headline;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"workload\": %S, \"mode\": %S, \"domains\": %d, \"ops\": %d, \
         \"elapsed_s\": %.4f, \"ops_per_s\": %.1f, \"p50_ns\": %d, \
         \"p99_ns\": %d, \"olc_restarts\": %d, \"olc_fallbacks\": %d}%s\n"
        r.o_workload r.o_mode r.o_domains r.o_result.Driver.total_ops
        r.o_result.Driver.elapsed_s r.o_result.Driver.ops_per_s
        r.o_result.Driver.p50_ns r.o_result.Driver.p99_ns r.o_restarts
        r.o_fallbacks
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let olc_impl ~key_space ~point_ops ~scan_ops ~mixed_ops ~domain_counts ~out () =
  let specs =
    [
      ( "point-uniform",
        Workload.spec ~key_space ~dist:Workload.Uniform (),
        point_ops );
      ( "point-zipf",
        Workload.spec ~key_space ~dist:(Workload.Zipf 0.99) (),
        point_ops );
      ( "scan-uniform",
        Workload.spec ~key_space ~read_pct:0 ~scan_pct:100 ~scan_len:50
          ~dist:Workload.Uniform (),
        scan_ops );
      ( "scan-zipf",
        Workload.spec ~key_space ~read_pct:0 ~scan_pct:100 ~scan_len:50
          ~dist:(Workload.Zipf 0.99) (),
        scan_ops );
      ( "point-mixed",
        Workload.spec ~key_space ~read_pct:80 ~insert_pct:10 ~delete_pct:10
          ~dist:(Workload.Zipf 0.99) (),
        mixed_ops );
    ]
  in
  let runs =
    List.concat_map
      (fun (workload, spec, ops) ->
        List.concat_map
          (fun domains ->
            List.map
              (fun olc_reads ->
                olc_storm ~olc_reads ~workload ~spec ~domains
                  ~ops_per_domain:ops ~preload:key_space)
              [ false; true ])
          domain_counts)
      specs
  in
  let rows =
    List.map
      (fun r ->
        [
          r.o_workload;
          r.o_mode;
          string_of_int r.o_domains;
          fmt_ops r.o_result.Driver.ops_per_s;
          string_of_int r.o_result.Driver.p50_ns;
          string_of_int r.o_result.Driver.p99_ns;
          string_of_int r.o_restarts;
          string_of_int r.o_fallbacks;
        ])
      runs
  in
  Table.print
    ~title:
      (Printf.sprintf
         "OLC reads: latched vs optimistic descent (%d keys, all-resident)"
         key_space)
    ~header:
      [ "workload"; "mode"; "domains"; "ops/s"; "p50 ns"; "p99 ns";
        "restarts"; "fallbacks" ]
    rows;
  (* Headline: optimistic/latched speedup per workload at the highest
     domain count. *)
  let top = List.fold_left max 1 domain_counts in
  let rate workload mode =
    List.find_opt
      (fun r -> r.o_workload = workload && r.o_mode = mode && r.o_domains = top)
      runs
    |> Option.map (fun r -> r.o_result.Driver.ops_per_s)
  in
  let headline =
    List.filter_map
      (fun (w, _, _) ->
        match (rate w "latched", rate w "optimistic") with
        | Some l, Some o when l > 0.0 -> Some (w, o /. l)
        | _ -> None)
      specs
  in
  Table.print
    ~title:(Printf.sprintf "OLC speedup at %d domains (optimistic / latched)" top)
    ~header:[ "workload"; "speedup" ]
    (List.map (fun (w, sp) -> [ w; Printf.sprintf "%.2fx" sp ]) headline);
  let oc = open_out out in
  output_string oc (olc_json_of_runs ~key_space ~headline runs);
  close_out oc;
  Printf.printf "wrote %s\n%!" out

let olc () =
  olc_impl ~key_space:50_000 ~point_ops:100_000 ~scan_ops:4_000
    ~mixed_ops:50_000 ~domain_counts:[ 1; 2; 4; 8 ] ~out:"BENCH_olc.json" ()

let olc_smoke () =
  olc_impl ~key_space:5_000 ~point_ops:10_000 ~scan_ops:400 ~mixed_ops:5_000
    ~domain_counts:[ 2 ] ~out:(smoke_out "BENCH_olc.json") ()

(* ------------------------------------------------------------------ *)
(* E20 / combine: hot-key write combining under a skewed write storm.
   Update-only Zipf(0.99) puts over a small key space, so the hottest
   keys collide constantly; with combining on, colliding writers share
   one descent, one leaf latch and one commit flush enrollment per
   batch. Same op count with combining off is the baseline. Gated: the
   funnel must actually reduce work (batch fan-in, leaf descents, WAL
   flush requests), not just move it. Emits BENCH_combine.json.        *)
(* ------------------------------------------------------------------ *)

type combine_run = {
  m_mode : string;  (* "direct" | "combined" *)
  m_result : Driver.result;
  m_descents : int;
  m_flush_requests : int;
  m_logical_commits : int;
  m_combine : Combine.stats option;
}

let combine_storm ~combine ~window_us ~slots ~page_size ~domains
    ~ops_per_domain ~key_space ~log_path =
  let env =
    Env.create
      {
        Env.default_config with
        page_size;
        pool_capacity = 32768;
        log_path = Some log_path;
        combine;
        combine_slots = slots;
        combine_window_us = window_us;
      }
  in
  let t = Blink.create env ~name:"bench" in
  let inst = Pitree_blink.Blink_engine.inst t in
  let spec =
    Workload.spec ~key_space ~read_pct:0 ~insert_pct:100
      ~dist:(Workload.Zipf 0.99) ()
  in
  Driver.preload inst spec ~n:key_space;
  ignore (Env.drain env);
  (* Exclude the single-threaded preload (batches of one) from the
     combining distribution the gates judge. *)
  Combine.reset_stats ();
  let s0 = Blink.stats t in
  let w0 = Log_manager.stats (Env.log env) in
  let r = Driver.run ~env ~domains ~ops_per_domain ~seed:11L inst spec in
  let s1 = Blink.stats t in
  let w1 = Log_manager.stats (Env.log env) in
  {
    m_mode = (if combine then "combined" else "direct");
    m_result = r;
    m_descents = s1.Blink.descents - s0.Blink.descents;
    m_flush_requests =
      w1.Log_manager.flush_requests - w0.Log_manager.flush_requests;
    m_logical_commits =
      w1.Log_manager.logical_commits - w0.Log_manager.logical_commits;
    m_combine = (if combine then Some (Combine.stats ()) else None);
  }

let combine_json ~key_space ~domains ~ops ~window_us ~slots ~runs
    ~batch_mean ~descent_ratio ~flush_ratio ~gates ~passed =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"combine\",\n";
  Printf.bprintf b
    "  \"key_space\": %d, \"domains\": %d, \"ops\": %d, \"window_us\": %d, \
     \"slots\": %d,\n"
    key_space domains ops window_us slots;
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i m ->
      let c_reqs, c_batches, c_handbacks, c_mean, c_max =
        match m.m_combine with
        | Some c ->
            ( c.Combine.reqs, c.Combine.batches, c.Combine.handbacks,
              c.Combine.batch_mean, c.Combine.batch_max )
        | None -> (0, 0, 0, 0.0, 0)
      in
      Printf.bprintf b
        "    {\"mode\": %S, \"ops\": %d, \"elapsed_s\": %.4f, \"ops_per_s\": \
         %.1f, \"p99_ns\": %d, \"descents\": %d, \"flush_requests\": %d, \
         \"logical_commits\": %d, \"combine_reqs\": %d, \"batches\": %d, \
         \"handbacks\": %d, \"batch_mean\": %.2f, \"batch_max\": %d}%s\n"
        m.m_mode m.m_result.Driver.total_ops m.m_result.Driver.elapsed_s
        m.m_result.Driver.ops_per_s m.m_result.Driver.p99_ns m.m_descents
        m.m_flush_requests m.m_logical_commits c_reqs c_batches c_handbacks
        c_mean c_max
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Buffer.add_string b "  ],\n";
  Printf.bprintf b
    "  \"headline\": {\"batch_mean\": %.2f, \"descent_reduction\": %.2f, \
     \"flush_request_reduction\": %.2f},\n"
    batch_mean descent_ratio flush_ratio;
  let g_mean, g_descents, g_flush = gates in
  Printf.bprintf b
    "  \"gates\": {\"batch_mean_gt\": %.2f, \"descents_ratio_ge\": %.2f, \
     \"flush_requests_ratio_ge\": %.2f, \"passed\": %b}\n"
    g_mean g_descents g_flush passed;
  Buffer.add_string b "}\n";
  Buffer.contents b

let combine_impl ~key_space ~page_size ~domains ~ops_per_domain ~window_us
    ~slots ~gates ~out () =
  let storm combine =
    with_file_log (fun log_path ->
        combine_storm ~combine ~window_us ~slots ~page_size ~domains
          ~ops_per_domain ~key_space ~log_path)
  in
  let direct = storm false in
  let combined = storm true in
  let runs = [ direct; combined ] in
  Table.print
    ~title:
      (Printf.sprintf
         "Write combining: Zipf(0.99) update storm, %d keys, %d domains x %d \
          ops (window %dus, %d slots)"
         key_space domains ops_per_domain window_us slots)
    ~header:
      [ "mode"; "ops/s"; "p99 ns"; "descents"; "flush reqs"; "commits";
        "batch mean"; "batch max"; "handbacks" ]
    (List.map
       (fun m ->
         let c_mean, c_max, c_hb =
           match m.m_combine with
           | Some c -> (c.Combine.batch_mean, c.Combine.batch_max, c.Combine.handbacks)
           | None -> (0.0, 0, 0)
         in
         [
           m.m_mode;
           fmt_ops m.m_result.Driver.ops_per_s;
           string_of_int m.m_result.Driver.p99_ns;
           string_of_int m.m_descents;
           string_of_int m.m_flush_requests;
           string_of_int m.m_logical_commits;
           Printf.sprintf "%.2f" c_mean;
           string_of_int c_max;
           string_of_int c_hb;
         ])
       runs);
  let ratio a b = if b = 0 then Float.infinity else float_of_int a /. float_of_int b in
  let descent_ratio = ratio direct.m_descents combined.m_descents in
  let flush_ratio = ratio direct.m_flush_requests combined.m_flush_requests in
  let batch_mean =
    match combined.m_combine with Some c -> c.Combine.batch_mean | None -> 0.0
  in
  let g_mean, g_descents, g_flush = gates in
  let passed =
    batch_mean > g_mean && descent_ratio >= g_descents
    && flush_ratio >= g_flush
  in
  Printf.printf
    "headline: batch_mean %.2f (gate > %.2f), descents %.2fx fewer (gate >= \
     %.2fx), flush requests %.2fx fewer (gate >= %.2fx) -> %s\n%!"
    batch_mean g_mean descent_ratio g_descents flush_ratio g_flush
    (if passed then "PASS" else "FAIL");
  let oc = open_out out in
  output_string oc
    (combine_json ~key_space ~domains ~ops:(domains * ops_per_domain)
       ~window_us ~slots ~runs ~batch_mean ~descent_ratio ~flush_ratio ~gates
       ~passed);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if not passed then exit 1

let combine_bench () =
  combine_impl ~key_space:256 ~page_size:8192 ~domains:8 ~ops_per_domain:5_000
    ~window_us:1_500 ~slots:4 ~gates:(1.5, 2.0, 1.5) ~out:"BENCH_combine.json"
    ()

let combine_smoke () =
  combine_impl ~key_space:64 ~page_size:4096 ~domains:4 ~ops_per_domain:1_500
    ~window_us:1_000 ~slots:4 ~gates:(1.2, 1.2, 1.2)
    ~out:(smoke_out "BENCH_combine.json") ()

(* ------------------------------------------------------------------ *)
(* E22 / mvcc: snapshot-isolation read storm. Readers run point reads
   inside transactions while writers storm the same key space. "locked"
   is the B-link engine's locked-read path (record S locks under the
   no-wait rule); "si" is the TSB engine under [si_txns], where every
   read is an as-of read against the version store. Gated: a quiescent
   SI read phase must make zero lock-manager calls and suffer zero
   latch contention, and all its reads must be served as snapshot
   reads. Emits BENCH_mvcc.json.                                       *)
(* ------------------------------------------------------------------ *)

type mvcc_run = {
  v_mode : string;  (* "locked" | "si" *)
  v_reads : int;
  v_read_p50 : int;
  v_read_p99 : int;
  v_reads_per_s : float;
  v_write_commits : int;
  v_conflicts : int;
  v_lock_acq : int;
  v_lock_waits : int;
}

type mvcc_gate = {
  g_reads : int;
  g_lock_calls : int;
  g_lock_waits : int;
  g_latch_contended : int;
  g_si_reads : int;
}

let pct_of samples p =
  let n = Array.length samples in
  if n = 0 then 0
  else begin
    Array.sort compare samples;
    samples.(min (n - 1) (int_of_float (float_of_int n *. p)))
  end

let mvcc_storm ~si ~keys ~reader_domains ~writer_domains ~read_txns
    ~reads_per_txn ~writes_per_txn =
  let env =
    Env.create
      {
        Env.default_config with
        page_size = 1024;
        pool_capacity = 32768;
        si_txns = si;
        consolidation = false;
      }
  in
  let key i = Printf.sprintf "key%06d" i in
  let mgr = Env.txns env in
  let inst =
    if si then Tsb_engine.inst (Tsb.create env ~name:"bench")
    else Blink_engine.inst (Blink.create env ~name:"bench")
  in
  for i = 0 to keys - 1 do
    Engine.insert inst ~key:(key i) ~value:(String.make 16 'v')
  done;
  ignore (Env.drain env);
  let begin_txn () =
    if si then Mvcc.begin_snapshot mgr else Txn_mgr.begin_txn mgr Txn.User
  in
  let commit txn =
    if si then ignore (Mvcc.commit mgr txn : int option)
    else Txn_mgr.commit mgr txn
  in
  let stop = Atomic.make false in
  let writer d =
    let rng = Rng.create (Int64.of_int (1000 + d)) in
    let commits = ref 0 and conflicts = ref 0 in
    while not (Atomic.get stop) do
      let txn = begin_txn () in
      try
        for _ = 1 to writes_per_txn do
          Engine.insert ~txn inst ~key:(key (Rng.int rng keys))
            ~value:(Printf.sprintf "w%d" d)
        done;
        commit txn;
        incr commits
      with Mvcc.Write_conflict _ -> incr conflicts
    done;
    (!commits, !conflicts)
  in
  let reader d =
    let rng = Rng.create (Int64.of_int (1 + d)) in
    let samples = Array.make (read_txns * reads_per_txn) 0 in
    let i = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to read_txns do
      let txn = begin_txn () in
      for _ = 1 to reads_per_txn do
        let k = key (Rng.int rng keys) in
        let s = Clock.now_ns () in
        ignore (Engine.find ~txn inst k : string option);
        samples.(!i) <- Clock.now_ns () - s;
        incr i
      done;
      commit txn
    done;
    (samples, Unix.gettimeofday () -. t0)
  in
  let l0 = Lock_manager.stats (Env.locks env) in
  let ws = List.init writer_domains (fun d -> Domain.spawn (fun () -> writer d)) in
  let rs = List.init reader_domains (fun d -> Domain.spawn (fun () -> reader d)) in
  let reader_results = List.map Domain.join rs in
  Atomic.set stop true;
  let writer_results = List.map Domain.join ws in
  let l1 = Lock_manager.stats (Env.locks env) in
  ignore (Env.drain env);
  let samples = Array.concat (List.map fst reader_results) in
  let elapsed = List.fold_left (fun a (_, s) -> Float.max a s) 0.0 reader_results in
  let commits = List.fold_left (fun a (c, _) -> a + c) 0 writer_results in
  let conflicts = List.fold_left (fun a (_, c) -> a + c) 0 writer_results in
  let run =
    {
      v_mode = (if si then "si" else "locked");
      v_reads = Array.length samples;
      v_read_p50 = pct_of samples 0.50;
      v_read_p99 = pct_of samples 0.99;
      v_reads_per_s =
        (if elapsed > 0.0 then float_of_int (Array.length samples) /. elapsed
         else 0.0);
      v_write_commits = commits;
      v_conflicts = conflicts;
      v_lock_acq = l1.Lock_manager.acquisitions - l0.Lock_manager.acquisitions;
      v_lock_waits = l1.Lock_manager.waits - l0.Lock_manager.waits;
    }
  in
  (* Quiescent gate phase: with the writers gone, a pure SI read txn must
     touch neither the lock manager nor a contended latch, and every read
     must be served from the snapshot. *)
  let gate =
    if not si then None
    else begin
      let l0 = Lock_manager.stats (Env.locks env) in
      let a0 = Latch.global_stats () in
      let m0 = Mvcc.stats () in
      let rng = Rng.create 99L in
      let n = 2_000 in
      let txn = Mvcc.begin_snapshot mgr in
      for _ = 1 to n do
        ignore (Engine.find ~txn inst (key (Rng.int rng keys)) : string option)
      done;
      ignore (Mvcc.commit mgr txn : int option);
      let l1 = Lock_manager.stats (Env.locks env) in
      let a1 = Latch.global_stats () in
      let d = Mvcc.sub_stats (Mvcc.stats ()) m0 in
      Some
        {
          g_reads = n;
          g_lock_calls = l1.Lock_manager.acquisitions - l0.Lock_manager.acquisitions;
          g_lock_waits = l1.Lock_manager.waits - l0.Lock_manager.waits;
          g_latch_contended = a1.Latch.contended - a0.Latch.contended;
          g_si_reads = d.Mvcc.si_reads;
        }
    end
  in
  (run, gate)

let mvcc_json ~keys ~reader_domains ~writer_domains ~runs ~gate ~passed =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"mvcc\",\n";
  Printf.bprintf b
    "  \"keys\": %d, \"reader_domains\": %d, \"writer_domains\": %d,\n" keys
    reader_domains writer_domains;
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      let denom = r.v_write_commits + r.v_conflicts in
      Printf.bprintf b
        "    {\"mode\": %S, \"reads\": %d, \"reads_per_s\": %.1f, \"p50_ns\": \
         %d, \"p99_ns\": %d, \"write_commits\": %d, \"aborts\": %d, \
         \"conflict_rate\": %.4f, \"lock_acquisitions\": %d, \"lock_waits\": \
         %d}%s\n"
        r.v_mode r.v_reads r.v_reads_per_s r.v_read_p50 r.v_read_p99
        r.v_write_commits r.v_conflicts
        (if denom = 0 then 0.0
         else float_of_int r.v_conflicts /. float_of_int denom)
        r.v_lock_acq r.v_lock_waits
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Buffer.add_string b "  ],\n";
  (match gate with
  | Some g ->
      Printf.bprintf b
        "  \"gates\": {\"quiescent_si_reads\": %d, \"lock_calls\": %d, \
         \"lock_waits\": %d, \"latch_contended\": %d, \"si_reads_served\": \
         %d, \"passed\": %b}\n"
        g.g_reads g.g_lock_calls g.g_lock_waits g.g_latch_contended
        g.g_si_reads passed
  | None -> Printf.bprintf b "  \"gates\": {\"passed\": %b}\n" passed);
  Buffer.add_string b "}\n";
  Buffer.contents b

let mvcc_impl ~keys ~reader_domains ~writer_domains ~read_txns ~reads_per_txn
    ~writes_per_txn ~out () =
  let locked, _ =
    mvcc_storm ~si:false ~keys ~reader_domains ~writer_domains ~read_txns
      ~reads_per_txn ~writes_per_txn
  in
  let si, gate =
    mvcc_storm ~si:true ~keys ~reader_domains ~writer_domains ~read_txns
      ~reads_per_txn ~writes_per_txn
  in
  let runs = [ locked; si ] in
  Table.print
    ~title:
      (Printf.sprintf
         "MVCC read storm: %d readers x %d txns x %d reads vs %d writers \
          (%d keys)"
         reader_domains read_txns reads_per_txn writer_domains keys)
    ~header:
      [ "mode"; "reads/s"; "p50 ns"; "p99 ns"; "write commits"; "aborts";
        "lock acq"; "lock waits" ]
    (List.map
       (fun r ->
         [
           r.v_mode;
           fmt_ops r.v_reads_per_s;
           string_of_int r.v_read_p50;
           string_of_int r.v_read_p99;
           string_of_int r.v_write_commits;
           string_of_int r.v_conflicts;
           string_of_int r.v_lock_acq;
           string_of_int r.v_lock_waits;
         ])
       runs);
  let g = Option.get gate in
  let passed =
    g.g_lock_calls = 0 && g.g_lock_waits = 0 && g.g_latch_contended = 0
    && g.g_si_reads >= g.g_reads
  in
  Printf.printf
    "gate: quiescent SI phase made %d lock calls / %d waits / %d contended \
     latches over %d reads (%d served as snapshot reads) -> %s\n%!"
    g.g_lock_calls g.g_lock_waits g.g_latch_contended g.g_reads g.g_si_reads
    (if passed then "PASS" else "FAIL");
  let oc = open_out out in
  output_string oc
    (mvcc_json ~keys ~reader_domains ~writer_domains ~runs ~gate ~passed);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if not passed then exit 1

let mvcc_bench () =
  mvcc_impl ~keys:20_000 ~reader_domains:4 ~writer_domains:2 ~read_txns:400
    ~reads_per_txn:16 ~writes_per_txn:4 ~out:"BENCH_mvcc.json" ()

let mvcc_smoke () =
  mvcc_impl ~keys:2_000 ~reader_domains:2 ~writer_domains:1 ~read_txns:100
    ~reads_per_txn:8 ~writes_per_txn:4 ~out:(smoke_out "BENCH_mvcc.json") ()

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14);
    ("wal", wal); ("wal-smoke", wal_smoke);
    ("pool", pool_bench); ("pool-smoke", pool_smoke);
    ("ckpt", ckpt); ("ckpt-smoke", ckpt_smoke);
    ("endure", endure); ("endure-smoke", endure_smoke);
    ("churn", churn); ("churn-smoke", churn_smoke);
    ("olc", olc); ("olc-smoke", olc_smoke);
    ("combine", combine_bench); ("combine-smoke", combine_smoke);
    ("mvcc", mvcc_bench); ("mvcc-smoke", mvcc_smoke);
    ("micro", micro);
  ]

(* [all] runs the full variants only *)
let smoke_variants =
  [ "wal-smoke"; "pool-smoke"; "ckpt-smoke"; "endure-smoke"; "olc-smoke";
    "combine-smoke"; "churn-smoke"; "mvcc-smoke" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--help" ] | [ "-h" ] ->
      print_endline
        "usage: bench/main.exe [e1 .. e14 | wal | wal-smoke | pool | \
         pool-smoke | ckpt | ckpt-smoke | endure | endure-smoke | olc | \
         olc-smoke | combine | combine-smoke | churn | churn-smoke | mvcc | \
         mvcc-smoke | micro | all]";
      List.iter (fun (n, _) -> Printf.printf "  %s\n" n) experiments
  | [] | [ "all" ] ->
      List.iter
        (fun (name, f) ->
          Printf.printf "\n### running %s ...\n%!" name;
          f ())
        (List.filter (fun (n, _) -> not (List.mem n smoke_variants)) experiments)
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None -> Printf.eprintf "unknown experiment %S\n" name)
        names
