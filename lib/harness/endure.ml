module Env = Pitree_env.Env
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Page = Pitree_storage.Page
module Log_manager = Pitree_wal.Log_manager
module Log_record = Pitree_wal.Log_record
module Lsn = Pitree_wal.Lsn
module Recovery = Pitree_wal.Recovery
module Blink = Pitree_blink.Blink
module Blink_engine = Pitree_blink.Blink_engine
module Engine = Pitree_core.Engine
module Wellformed = Pitree_core.Wellformed
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Histogram = Pitree_util.Histogram
module Rng = Pitree_util.Rng
module Zipf = Pitree_util.Zipf
module Clock = Pitree_sync.Clock
module Combine = Pitree_combine.Combine

type mix = A | B | C | D | E | F | Mixed | Storm

let mix_to_string = function
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"
  | F -> "F"
  | Mixed -> "mixed"
  | Storm -> "storm"

let mix_of_string s =
  match String.lowercase_ascii s with
  | "a" -> Some A
  | "b" -> Some B
  | "c" -> Some C
  | "d" -> Some D
  | "e" -> Some E
  | "f" -> Some F
  | "mixed" -> Some Mixed
  | "storm" -> Some Storm
  | _ -> None

(* Percentages (read, update, insert, scan, rmw). YCSB-D's "read latest"
   distribution is approximated by the configured skew over the whole key
   space; its insert share is faithful. [Storm] is the update-only skewed
   write storm the combining layer exists for (ROADMAP item 3): run it
   with theta 0.99 to pile the domains onto a few hot leaves. *)
let mix_pcts = function
  | A -> (50, 50, 0, 0, 0)
  | B -> (95, 5, 0, 0, 0)
  | C -> (100, 0, 0, 0, 0)
  | D -> (95, 0, 5, 0, 0)
  | E -> (0, 0, 5, 95, 0)
  | F -> (50, 0, 0, 0, 50)
  | Mixed -> (40, 20, 10, 10, 20)
  | Storm -> (0, 100, 0, 0, 0)

type config = {
  keys : int;
  seconds : float;
  domains : int;
  mix : mix;
  theta : float;
  value_len : int;
  scan_len : int;
  page_size : int;
  pool_capacity : int;
  ckpt_log_bytes : int;
  faults : bool;
  crash_cycles : int;
  verify_sample : int;
  seed : int64;
  dir : string option;
  combine : bool;
  slo_p99_read_ns : int;
  slo_wal_bytes : int;
}

let default_config =
  {
    keys = 1_000_000;
    seconds = 60.;
    domains = 4;
    mix = Mixed;
    theta = 0.99;
    value_len = 64;
    scan_len = 50;
    page_size = 4096;
    pool_capacity = 8192;
    ckpt_log_bytes = 4 * 1024 * 1024;
    faults = true;
    crash_cycles = 3;
    verify_sample = 2000;
    seed = 42L;
    dir = None;
    combine = true;
    slo_p99_read_ns = 50_000_000;
    slo_wal_bytes = 64 * 1024 * 1024;
  }

type kind_stats = {
  kind : string;
  count : int;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

type slo = {
  name : string;
  cmp : string;
  target : float;
  actual : float;
  ok : bool;
}

type result = {
  config : config;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
  kinds : kind_stats list;
  stats : Stats.t;
  cycles_done : int;
  recovery_ms : float list;
  torn_pages : int list;
  verified_keys : int;
  lost_writes : int;
  scan_shortfalls : int;
  wellformed_failures : int;
  op_errors : int;
  wal_file_bytes : int;
  errors : string list;
  slos : slo list;
  passed : bool;
}

(* The meta page's pre-checkpoint history is not in the log (it is
   formatted before the initial checkpoint), so a torn image of it cannot
   be rebuilt by redo; like the chaos harness — and like real systems,
   which duplex such pages — we exempt it from torn-write injection. *)
let meta_pid = 1

(* Steady-state adversary: transient faults and read-path bit rot at rates
   the pool's retry/backoff ladder absorbs. Torn writes are reserved for
   crash instants (a torn page mid-run would be a non-transient error with
   no power failure to excuse it). *)
let steady_plan =
  {
    Disk.Faulty.no_faults with
    Disk.Faulty.transient_read = 0.05;
    transient_write = 0.05;
    bit_flip = 0.01;
    protected_pids = [ meta_pid ];
  }

let crash_flush_plan =
  {
    Disk.Faulty.no_faults with
    Disk.Faulty.torn_write = 0.5;
    protected_pids = [ meta_pid ];
  }

let tree_name = "endure"

(* ---------- shared run state ---------- *)

(* Worker domains park between operations when the coordinator wants to
   crash the environment: ops never straddle a crash, so every acknowledged
   op is either fully committed (the model remembers it) or never started.
   The barrier doubles as the memory fence that publishes each worker's
   model to the coordinator for post-recovery verification. *)
type shared = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable want_pause : bool;
  mutable parked : int;
  mutable stop : bool;
  tree : Blink.t Atomic.t;
  err_mu : Mutex.t;
  mutable err_count : int;
  mutable err_sample : string list; (* newest first, capped *)
}

let max_err_sample = 30

let add_error sh msg =
  Mutex.lock sh.err_mu;
  sh.err_count <- sh.err_count + 1;
  if List.length sh.err_sample < max_err_sample then
    sh.err_sample <- msg :: sh.err_sample;
  Mutex.unlock sh.err_mu

(* Per-worker state, owned by the worker domain while running and read by
   the coordinator only while the worker is parked or joined. *)
type wstate = {
  model : (int, string) Hashtbl.t; (* own key id -> last committed value *)
  hists : Histogram.t array; (* indexed by op kind *)
  mutable ops : int;
  mutable lost : int;
  mutable shortfalls : int;
}

let kind_names = [| "read"; "update"; "insert"; "scan"; "rmw" |]
let k_read = 0
let k_update = 1
let k_insert = 2
let k_scan = 3
let k_rmw = 4

(* ---------- worker ---------- *)

(* Workers speak the uniform [Engine.S] interface, not [Blink] directly:
   the rig exercises whatever structure-maintenance machinery (splits,
   consolidation, merges, free-list recycling) the engine plugs in behind
   it. Re-wrapped per op because recovery swaps the tree handle. *)

let worker cfg sh (st : wstate) ~w =
  let nd = cfg.domains in
  let rng = Rng.create (Int64.add cfg.seed (Int64.of_int (w * 7919))) in
  let zipf =
    if cfg.theta > 0. then Some (Zipf.create ~n:cfg.keys ~theta:cfg.theta)
    else None
  in
  let read_pct, update_pct, insert_pct, scan_pct, _rmw_pct = mix_pcts cfg.mix in
  let pick () =
    match zipf with Some z -> Zipf.sample z rng | None -> Rng.int rng cfg.keys
  in
  (* Remap a key to this worker's write-ownership stripe (keys congruent
     to [w] mod [domains]), so no two workers ever write the same key and
     each worker's model of its own writes is exact. *)
  let own k =
    let base = k - (k mod nd) + w in
    if base < cfg.keys then base else w
  in
  let next_insert = ref (cfg.keys + w) in
  let version = ref 0 in
  let mk_value v =
    let prefix = Printf.sprintf "w%d.%d." w v in
    let pad = cfg.value_len - String.length prefix in
    if pad > 0 then prefix ^ String.make pad 'x' else prefix
  in
  let lost fmt =
    Printf.ksprintf
      (fun msg ->
        st.lost <- st.lost + 1;
        add_error sh msg)
      fmt
  in
  let do_write ~kind k ~pre =
    let key = Workload.key_of k in
    incr version;
    let v = mk_value !version in
    match
      let t0 = Clock.now_ns () in
      let e = Blink_engine.inst (Atomic.get sh.tree) in
      pre e key;
      Engine.insert e ~key ~value:v;
      Histogram.record st.hists.(kind) (Clock.now_ns () - t0)
    with
    | () -> Hashtbl.replace st.model k v
    | exception e ->
        (* The op may or may not have committed before raising: un-verify
           the key rather than risk a false lost-write report. *)
        Hashtbl.remove st.model k;
        add_error sh
          (Printf.sprintf "worker %d: %s %s raised %s" w kind_names.(kind) key
             (Printexc.to_string e));
        raise e
  in
  let do_op () =
    let r = Rng.int rng 100 in
    if r < read_pct then begin
      let k = pick () in
      let key = Workload.key_of k in
      let t0 = Clock.now_ns () in
      let v = Engine.find (Blink_engine.inst (Atomic.get sh.tree)) key in
      Histogram.record st.hists.(k_read) (Clock.now_ns () - t0);
      match v with
      | None -> lost "worker %d: preloaded key %s missing" w key
      | Some v ->
          if k mod nd = w then begin
            match Hashtbl.find_opt st.model k with
            | Some expect when not (String.equal expect v) ->
                lost "worker %d: key %s reads %S, committed %S" w key v expect
            | _ -> ()
          end
    end
    else if r < read_pct + update_pct then do_write ~kind:k_update (own (pick ())) ~pre:(fun _ _ -> ())
    else if r < read_pct + update_pct + insert_pct then begin
      let k = !next_insert in
      next_insert := k + nd;
      do_write ~kind:k_insert k ~pre:(fun _ _ -> ())
    end
    else if r < read_pct + update_pct + insert_pct + scan_pct then begin
      let span = cfg.keys - cfg.scan_len in
      let k = if span > 0 then Rng.int rng span else 0 in
      let expected = min cfg.scan_len (cfg.keys - k) in
      let t0 = Clock.now_ns () in
      let n =
        Engine.scan
          (Blink_engine.inst (Atomic.get sh.tree))
          ~low:(Workload.key_of k) ~n:cfg.scan_len
      in
      Histogram.record st.hists.(k_scan) (Clock.now_ns () - t0);
      if n < expected then begin
        st.shortfalls <- st.shortfalls + 1;
        add_error sh
          (Printf.sprintf "worker %d: scan from %s returned %d < %d records" w
             (Workload.key_of k) n expected)
      end
    end
    else
      (* read-modify-write: the read is part of the op's latency *)
      do_write ~kind:k_rmw
        (own (pick ()))
        ~pre:(fun e key ->
          match Engine.find e key with
          | Some _ -> ()
          | None -> lost "worker %d: rmw key %s missing" w key)
  in
  let rec loop () =
    Mutex.lock sh.mu;
    if sh.want_pause then begin
      sh.parked <- sh.parked + 1;
      Condition.broadcast sh.cv;
      while sh.want_pause do
        Condition.wait sh.cv sh.mu
      done;
      sh.parked <- sh.parked - 1;
      Condition.broadcast sh.cv
    end;
    let stop = sh.stop in
    Mutex.unlock sh.mu;
    if not stop then begin
      (try do_op ()
       with e ->
         add_error sh
           (Printf.sprintf "worker %d: op raised %s" w (Printexc.to_string e)));
      (* Scheduled structure-change completions (index-term postings,
         consolidations) run at each op's commit; a fault surfacing inside
         one is an op error like any other. *)
      st.ops <- st.ops + 1;
      loop ()
    end
  in
  loop ()

(* ---------- coordinator ---------- *)

let pause sh nworkers =
  Mutex.lock sh.mu;
  sh.want_pause <- true;
  Condition.broadcast sh.cv;
  while sh.parked < nworkers do
    Condition.wait sh.cv sh.mu
  done;
  Mutex.unlock sh.mu

let resume sh =
  Mutex.lock sh.mu;
  sh.want_pause <- false;
  Condition.broadcast sh.cv;
  Mutex.unlock sh.mu

let stop_workers sh =
  Mutex.lock sh.mu;
  sh.stop <- true;
  sh.want_pause <- false;
  Condition.broadcast sh.cv;
  Mutex.unlock sh.mu

exception Damaged

(* Check up to [per_worker] entries of each worker's model against the
   recovered tree. Returns (checked, lost, damaged): a lookup that RAISES
   (rather than merely missing a key) means the traversal hit structurally
   broken pages — and may have left a latch held on the way out — so the
   sweep bails immediately instead of walking further into the wreck. *)
let verify_models sh states t ~per_worker ~ctx =
  let checked = ref 0 and lost = ref 0 and damaged = ref false in
  (try
     Array.iter
       (fun st ->
         let seen = ref 0 in
         try
           Hashtbl.iter
             (fun k v ->
               if !seen >= per_worker then raise Exit;
               incr seen;
               incr checked;
               let key = Workload.key_of k in
               match Blink.find t key with
               | Some v' when String.equal v v' -> ()
               | Some v' ->
                   incr lost;
                   add_error sh
                     (Printf.sprintf "%s: key %s reads %S, committed %S" ctx
                        key v' v)
               | None ->
                   incr lost;
                   add_error sh
                     (Printf.sprintf "%s: committed key %s missing" ctx key)
               | exception e ->
                   incr lost;
                   add_error sh
                     (Printf.sprintf "%s: reading committed key %s raised %s"
                        ctx key (Printexc.to_string e));
                   raise Damaged)
             st.model
         with Exit -> ())
       states
   with Damaged -> damaged := true);
  (!checked, !lost, !damaged)

(* ---------- post-mortem forensics ---------- *)

let clip n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

(* When post-recovery verification fails, the interesting state is about to
   be destroyed by further running. Dump a one-line header for every page
   and the retained WAL history of each structurally-empty (slot count 0)
   page: enough to tell truncated history from a torn image from a missed
   redo. Fault injection is suspended for the autopsy. *)
let forensics log env ctl =
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let pool = Env.pool env and wal = Env.log env in
  let headers = Buffer.create 4096 in
  let damaged = ref [] in
  let misses = ref 0 in
  let pid = ref 1 in
  while !misses < 32 && !pid < 1_000_000 do
    (match Buffer_pool.pin pool !pid with
    | fr ->
        misses := 0;
        let p = fr.Buffer_pool.page in
        let count = Page.slot_count p in
        Printf.bprintf headers
          "  pid %-5d lsn %-8d kind %-2d level %-2d count %-3d side %-5d\n"
          !pid (Page.lsn p)
          (Page.kind_to_int (Page.kind p))
          (Page.level p) count (Page.side_ptr p);
        if count = 0 then damaged := !pid :: !damaged;
        Buffer_pool.unpin pool fr
    | exception Not_found ->
        incr misses;
        Printf.bprintf headers "  pid %-5d (no durable image)\n" !pid
    | exception e ->
        incr misses;
        Printf.bprintf headers "  pid %-5d unreadable: %s\n" !pid
          (Printexc.to_string e));
    incr pid
  done;
  log
    (Printf.sprintf "FORENSICS: wal first=%d ckpt=%d last=%d"
       (Log_manager.first_lsn wal)
       (Log_manager.checkpoint_lsn wal)
       (Log_manager.last_lsn wal));
  let dmg = List.filteri (fun i _ -> i < 8) (List.rev !damaged) in
  (match Log_manager.checkpoint_lsn wal with
  | l when Lsn.is_null l -> log "FORENSICS: no checkpoint on record"
  | l -> (
      match (Log_manager.read wal l).Log_record.body with
      | Log_record.End_checkpoint { begin_lsn; dpt; att } ->
          let floor =
            List.fold_left (fun acc (_, r) -> min acc r) begin_lsn dpt
          in
          log
            (Printf.sprintf
               "FORENSICS: ckpt begin=%d dpt=%d floor=%d att=%d%s" begin_lsn
               (List.length dpt) floor (List.length att)
               (String.concat ""
                  (List.filter_map
                     (fun (p, r) ->
                       if List.mem p dmg then
                         Some (Printf.sprintf " dpt[%d]=%d" p r)
                       else None)
                     dpt)))
      | _ -> log "FORENSICS: checkpoint lsn is not an End_checkpoint"
      | exception e ->
          log
            (Printf.sprintf "FORENSICS: reading checkpoint record raised %s"
               (Printexc.to_string e))));
  if dmg <> [] then begin
    let tbl = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace tbl p (ref [])) dmg;
    (try
       Log_manager.iter_from wal (Log_manager.first_lsn wal) (fun r ->
           let touch p =
             match Hashtbl.find_opt tbl p with
             | Some l when List.length !l < 64 ->
                 l :=
                   clip 140 (Format.asprintf "%a" Log_record.pp r) :: !l
             | _ -> ()
           in
           match r.Log_record.body with
           | Log_record.Update { page; _ }
           | Log_record.Clr { page; _ }
           | Log_record.Page_image { page; _ } ->
               touch page
           | Log_record.Move { parts } | Log_record.Move_clr { parts; _ } ->
               List.sort_uniq compare
                 (List.map (fun { Log_record.page; _ } -> page) parts)
               |> List.iter touch
           | _ -> ())
     with e ->
       log
         (Printf.sprintf "FORENSICS: wal scan raised %s"
            (Printexc.to_string e)));
    List.iter
      (fun p ->
        let l = List.rev !(Hashtbl.find tbl p) in
        log
          (Printf.sprintf "FORENSICS: pid %d has %d retained wal records%s" p
             (List.length l)
             (if l = [] then ""
              else ":\n    " ^ String.concat "\n    " l)))
      dmg
  end;
  log ("FORENSICS: page sweep\n" ^ Buffer.contents headers)

let preload cfg env tree =
  let nd = cfg.domains in
  let value = String.make cfg.value_len 'P' in
  let batch = 512 in
  let doms =
    List.init nd (fun w ->
        Domain.spawn (fun () ->
            let mgr = Env.txns env in
            let i = ref w in
            while !i < cfg.keys do
              let txn = Txn_mgr.begin_txn mgr Txn.User in
              let stop = min cfg.keys (!i + (batch * nd)) in
              while !i < stop do
                Engine.insert ~txn (Blink_engine.inst tree)
                  ~key:(Workload.key_of !i) ~value;
                i := !i + nd
              done;
              Txn_mgr.commit mgr txn;
              ignore (Env.drain env)
            done))
  in
  List.iter Domain.join doms;
  ignore (Env.drain env)

let fresh_dir () =
  let f = Filename.temp_file "pitree_endure" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let remove_dir d =
  (try Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

(* The env the rig runs against. Exposed so tests can check the derived
   knobs without a full run. The pool shard count is pinned to the worker
   count rather than left to the [Domain.recommended_domain_count] default:
   on a 1-CPU host that default is 1 shard, silently serializing 8 workers
   through one pool mutex (the `"shards": 1` BENCH_endure.json mystery). *)
let env_config cfg ~wal_path =
  {
    Env.default_config with
    Env.page_size = cfg.page_size;
    pool_capacity = cfg.pool_capacity;
    log_path = Some wal_path;
    ckpt_log_bytes = Some cfg.ckpt_log_bytes;
    (* A deeper pin ladder with seeded jitter: fault-plan bursts make
       frames stay busy longer, and the jitter keeps a stampede of
       retrying workers from re-colliding. *)
    pool_pin_attempts = Some 30;
    pool_backoff_seed = Some (Int64.to_int cfg.seed land 0x3FFFFFFF);
    pool_shards = Some (max 8 (2 * cfg.domains));
    combine = cfg.combine;
  }

let run ?(log = fun _ -> ()) cfg =
  if cfg.keys < cfg.domains * 2 then
    invalid_arg "Endure.run: keys must be at least 2x domains";
  if cfg.domains < 1 then invalid_arg "Endure.run: domains < 1";
  let dir, ephemeral =
    match cfg.dir with
    | Some d ->
        (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (d, false)
    | None -> (fresh_dir (), true)
  in
  let data_path = Filename.concat dir "pages.db" in
  let wal_path = Filename.concat dir "wal.log" in
  let base = Disk.file ~page_size:cfg.page_size ~path:data_path in
  let disk, ctl = Disk.Faulty.wrap ~seed:cfg.seed base in
  let env_cfg = env_config cfg ~wal_path in
  let env = Env.create ~disk env_cfg in
  let tree = Blink.create env ~name:tree_name in
  log (Printf.sprintf "preloading %d keys across %d domains..." cfg.keys
         cfg.domains);
  let t_pre = Unix.gettimeofday () in
  preload cfg env tree;
  (* Quiescent checkpoint: the preload's log is truncated away, so
     the WAL-bound SLO measures steady-state growth, not the load phase. *)
  Env.checkpoint env;
  log (Printf.sprintf "preload done in %.1fs (%d nodes, height %d)"
         (Unix.gettimeofday () -. t_pre)
         (Blink.node_count tree) (Blink.height tree));
  let sh =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      want_pause = false;
      parked = 0;
      stop = false;
      tree = Atomic.make tree;
      err_mu = Mutex.create ();
      err_count = 0;
      err_sample = [];
    }
  in
  let states =
    Array.init cfg.domains (fun _ ->
        {
          model = Hashtbl.create 4096;
          hists = Array.init (Array.length kind_names) (fun _ -> Histogram.create ());
          ops = 0;
          lost = 0;
          shortfalls = 0;
        })
  in
  let env_before = Env.stats env in
  let faults_before = Disk.Faulty.counters ctl in
  if cfg.faults then Disk.Faulty.set_plan ctl steady_plan;
  let start = Unix.gettimeofday () in
  let workers =
    List.init cfg.domains (fun w ->
        Domain.spawn (fun () -> worker cfg sh states.(w) ~w))
  in
  let recovery_ms = ref [] in
  let torn_pages = ref [] in
  let cycles_done = ref 0 in
  let verified = ref 0 in
  let verify_lost = ref 0 in
  let wf_failures = ref 0 in
  (* Structural damage is terminal for the run: continuing to traverse a
     broken tree measures garbage, and a lookup that raised mid-descent may
     have left a page latch held, so further ops could deadlock. On damage
     we dump forensics, stop the workers, and skip the remaining cycles —
     the wellformed/lost-write SLOs fail the run. *)
  let abort = ref false in
  let damage ctx =
    if not !abort then begin
      abort := true;
      incr wf_failures;
      log (Printf.sprintf "FORENSICS: %s: structural damage, aborting run" ctx);
      try forensics log env ctl
      with e ->
        add_error sh
          (Printf.sprintf "forensics raised %s" (Printexc.to_string e))
    end
  in
  (* One crash+recover cycle: park every worker (no op straddles the
     crash), force the log (commits already did — this also covers the
     group-commit tail), tear a fraction of the dirty pages on the way
     down like a dying power supply would (each dirty page is written,
     and a torn write does not stop the rest), crash, recover, reopen the
     tree, and verify both the structural invariant and a sample of every
     worker's committed writes. Read-path faults stay on through recovery
     itself. *)
  let crash_cycle i =
    pause sh cfg.domains;
    Log_manager.flush_all (Env.log env);
    if cfg.faults then begin
      Disk.Faulty.set_plan ctl crash_flush_plan;
      Buffer_pool.crash_flush (Env.pool env);
      Disk.Faulty.set_plan ctl steady_plan
    end;
    Env.crash env;
    let t0 = Unix.gettimeofday () in
    (match Env.recover env with
    | report -> torn_pages := report.Recovery.torn_pages :: !torn_pages
    | exception e ->
        add_error sh
          (Printf.sprintf "cycle %d: recovery raised %s" i
             (Printexc.to_string e)));
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    recovery_ms := ms :: !recovery_ms;
    (match Blink.open_existing env ~name:tree_name with
    | None ->
        add_error sh (Printf.sprintf "cycle %d: tree missing after recovery" i);
        damage (Printf.sprintf "cycle %d" i)
    | exception e ->
        add_error sh
          (Printf.sprintf "cycle %d: reopening tree raised %s" i
             (Printexc.to_string e));
        damage (Printf.sprintf "cycle %d" i)
    | Some t ->
        Atomic.set sh.tree t;
        (try ignore (Env.drain env)
         with e ->
           add_error sh
             (Printf.sprintf "cycle %d: drain raised %s" i
                (Printexc.to_string e)));
        let wf_ok =
          match Blink.verify t with
          | rep when Wellformed.ok rep -> true
          | rep ->
              add_error sh
                (Printf.sprintf "cycle %d: wellformed: %s" i
                   (Format.asprintf "%a" Wellformed.pp_report rep));
              false
          | exception e ->
              add_error sh
                (Printf.sprintf "cycle %d: verify raised %s" i
                   (Printexc.to_string e));
              false
        in
        if not wf_ok then damage (Printf.sprintf "cycle %d" i)
        else begin
          let per_worker = max 1 (cfg.verify_sample / cfg.domains) in
          let c, l, damaged =
            verify_models sh states t ~per_worker
              ~ctx:(Printf.sprintf "cycle %d" i)
          in
          verified := !verified + c;
          verify_lost := !verify_lost + l;
          if damaged then damage (Printf.sprintf "cycle %d" i)
          else begin
            incr cycles_done;
            log
              (Printf.sprintf
                 "cycle %d: recovered in %.0fms, wellformed ok, %d/%d \
                  sampled keys ok"
                 i ms (c - l) c)
          end
        end);
    if !abort then stop_workers sh else resume sh
  in
  for i = 1 to cfg.crash_cycles do
    if not !abort then begin
      let target =
        start
        +. (cfg.seconds *. float_of_int i /. float_of_int (cfg.crash_cycles + 1))
      in
      let wait = target -. Unix.gettimeofday () in
      if wait > 0. then Unix.sleepf wait;
      crash_cycle i
    end
  done;
  if not !abort then begin
    let wait = start +. cfg.seconds -. Unix.gettimeofday () in
    if wait > 0. then Unix.sleepf wait
  end;
  stop_workers sh;
  List.iter Domain.join workers;
  let elapsed = Unix.gettimeofday () -. start in
  (* Final quiesced verification: structure plus a larger model sample.
     Skipped when the run already aborted on structural damage — the tree
     is known broken and a latch may be stuck from the raising descent. *)
  if not !abort then begin
    if cfg.faults then Disk.Faulty.set_plan ctl steady_plan;
    let t = Atomic.get sh.tree in
    (try ignore (Env.drain env)
     with e ->
       add_error sh
         (Printf.sprintf "final drain raised %s" (Printexc.to_string e)));
    let wf_ok =
      match Blink.verify t with
      | rep when Wellformed.ok rep -> true
      | rep ->
          add_error sh
            (Format.asprintf "final wellformed: %a" Wellformed.pp_report rep);
          false
      | exception e ->
          add_error sh
            (Printf.sprintf "final verify raised %s" (Printexc.to_string e));
          false
    in
    if not wf_ok then damage "final"
    else begin
      let per_worker = max 1 (4 * cfg.verify_sample / cfg.domains) in
      let c, l, damaged = verify_models sh states t ~per_worker ~ctx:"final" in
      verified := !verified + c;
      verify_lost := !verify_lost + l;
      if damaged then damage "final"
      else
        log
          (Printf.sprintf "final verify: wellformed ok, %d/%d sampled keys ok"
             (c - l) c)
    end
  end
  else log "final verification skipped: structural damage detected";
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let wal_file_bytes =
    Option.value (Log_manager.file_bytes (Env.log env)) ~default:0
  in
  let after = Stats.of_env ~faults:ctl env in
  (* Env and fault counters as run deltas; the other components keep
     their lifetime values. *)
  let delta =
    Stats.delta ~after
      ~before:
        {
          Stats.empty with
          env = Some env_before;
          faults = Some faults_before;
        }
  in
  let stats =
    { after with Stats.env = delta.Stats.env; faults = delta.Stats.faults }
  in
  Env.close env;
  if ephemeral then remove_dir dir;
  (* ---- aggregate ---- *)
  let total_ops = Array.fold_left (fun a st -> a + st.ops) 0 states in
  let lost_writes =
    Array.fold_left (fun a st -> a + st.lost) 0 states + !verify_lost
  in
  let scan_shortfalls = Array.fold_left (fun a st -> a + st.shortfalls) 0 states in
  let merged =
    Array.init (Array.length kind_names) (fun k ->
        Array.fold_left
          (fun acc st -> Histogram.merge acc st.hists.(k))
          (Histogram.create ()) states)
  in
  let kinds =
    List.filter_map
      (fun k ->
        let h = merged.(k) in
        if Histogram.count h = 0 then None
        else
          Some
            {
              kind = kind_names.(k);
              count = Histogram.count h;
              mean_ns = Histogram.mean h;
              p50_ns = Histogram.percentile h 50.;
              p99_ns = Histogram.percentile h 99.;
              p999_ns = Histogram.p999 h;
              max_ns = Histogram.max_value h;
            })
      (List.init (Array.length kind_names) Fun.id)
  in
  let read_p99 =
    if Histogram.count merged.(k_read) = 0 then 0
    else Histogram.percentile merged.(k_read) 99.
  in
  let checkpoints =
    match stats.Stats.env with Some e -> e.Env.checkpoints | None -> 0
  in
  let op_errors =
    (* err_count includes lost/shortfall detail lines; op_errors counts
       only raised operations, tracked separately below. *)
    sh.err_count - lost_writes - scan_shortfalls - !wf_failures
  in
  let op_errors = max 0 op_errors in
  let mk name cmp target actual =
    {
      name;
      cmp;
      target;
      actual;
      ok = (match cmp with "<=" -> actual <= target | _ -> actual >= target);
    }
  in
  let slos =
    [
      mk "lost_committed_writes" "<=" 0. (float_of_int lost_writes);
      mk "scan_shortfalls" "<=" 0. (float_of_int scan_shortfalls);
      mk "wellformed_failures" "<=" 0. (float_of_int !wf_failures);
      mk "op_errors" "<=" 0. (float_of_int op_errors);
      mk "crash_recover_cycles" ">=" (float_of_int cfg.crash_cycles)
        (float_of_int !cycles_done);
      mk "checkpoints" ">=" 1. (float_of_int checkpoints);
      mk "p99_point_read_ns" "<=" (float_of_int cfg.slo_p99_read_ns)
        (float_of_int read_p99);
      mk "wal_file_bytes" "<=" (float_of_int cfg.slo_wal_bytes)
        (float_of_int wal_file_bytes);
    ]
    @
    (* With combining on and a write-bearing mix, the funnel must have
       carried the writes (reqs counts every non-transactional put routed
       through it — deterministic even on one CPU, unlike batch sizes). *)
    let _, upd, ins, _, rmw = mix_pcts cfg.mix in
    if cfg.combine && upd + ins + rmw > 0 then
      let creqs =
        match stats.Stats.combine with Some c -> c.Combine.reqs | None -> 0
      in
      [ mk "combine_reqs" ">=" 1. (float_of_int creqs) ]
    else []
  in
  {
    config = cfg;
    total_ops;
    elapsed_s = elapsed;
    ops_per_s = (if elapsed > 0. then float_of_int total_ops /. elapsed else 0.);
    kinds;
    stats;
    cycles_done = !cycles_done;
    recovery_ms = List.rev !recovery_ms;
    torn_pages = List.rev !torn_pages;
    verified_keys = !verified;
    lost_writes;
    scan_shortfalls;
    wellformed_failures = !wf_failures;
    op_errors;
    wal_file_bytes;
    errors = List.rev sh.err_sample;
    slos;
    passed = List.for_all (fun s -> s.ok) slos;
  }

(* ---------- reporting ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let cfg = r.config in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"bench\": \"endure\",\n";
  Printf.bprintf b
    "\"config\": {\"keys\": %d, \"seconds\": %.1f, \"domains\": %d, \"mix\": \
     \"%s\", \"theta\": %.2f, \"value_len\": %d, \"scan_len\": %d, \
     \"page_size\": %d, \"pool_capacity\": %d, \"ckpt_log_bytes\": %d, \
     \"faults\": %b, \"crash_cycles\": %d, \"verify_sample\": %d, \"seed\": \
     %Ld},\n"
    cfg.keys cfg.seconds cfg.domains (mix_to_string cfg.mix) cfg.theta
    cfg.value_len cfg.scan_len cfg.page_size cfg.pool_capacity
    cfg.ckpt_log_bytes cfg.faults cfg.crash_cycles cfg.verify_sample cfg.seed;
  Printf.bprintf b
    "\"total_ops\": %d, \"elapsed_s\": %.2f, \"ops_per_s\": %.0f,\n"
    r.total_ops r.elapsed_s r.ops_per_s;
  Printf.bprintf b "\"op_kinds\": [";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"kind\": \"%s\", \"count\": %d, \"mean_ns\": %.0f, \"p50_ns\": %d, \
         \"p99_ns\": %d, \"p999_ns\": %d, \"max_ns\": %d}"
        k.kind k.count k.mean_ns k.p50_ns k.p99_ns k.p999_ns k.max_ns)
    r.kinds;
  Printf.bprintf b "],\n";
  Printf.bprintf b "\"stats\": %s,\n" (Stats.to_json r.stats);
  Printf.bprintf b
    "\"crash_cycles\": {\"requested\": %d, \"completed\": %d, \
     \"recovery_ms\": [%s], \"torn_pages\": [%s], \"verified_keys\": %d},\n"
    cfg.crash_cycles r.cycles_done
    (String.concat ", " (List.map (Printf.sprintf "%.1f") r.recovery_ms))
    (String.concat ", " (List.map string_of_int r.torn_pages))
    r.verified_keys;
  Printf.bprintf b
    "\"lost_writes\": %d, \"scan_shortfalls\": %d, \"wellformed_failures\": \
     %d, \"op_errors\": %d, \"wal_file_bytes\": %d,\n"
    r.lost_writes r.scan_shortfalls r.wellformed_failures r.op_errors
    r.wal_file_bytes;
  Printf.bprintf b "\"errors\": [%s],\n"
    (String.concat ", "
       (List.map (fun e -> "\"" ^ json_escape e ^ "\"") r.errors));
  Printf.bprintf b "\"slos\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"name\": \"%s\", \"cmp\": \"%s\", \"target\": %.0f, \"actual\": \
         %.0f, \"pass\": %b}"
        s.name s.cmp s.target s.actual s.ok)
    r.slos;
  Printf.bprintf b "],\n\"passed\": %b}\n" r.passed;
  Buffer.contents b

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>endure[%s]: %d domains, %d keys, %.1fs: %d ops (%.0f ops/s), %d/%d \
     crash cycles, %d verified keys, %d lost, %d short scans, %d wf \
     failures, %d op errors, wal %d bytes@,"
    (mix_to_string r.config.mix)
    r.config.domains r.config.keys r.elapsed_s r.total_ops r.ops_per_s
    r.cycles_done r.config.crash_cycles r.verified_keys r.lost_writes
    r.scan_shortfalls r.wellformed_failures r.op_errors r.wal_file_bytes;
  List.iter
    (fun k ->
      Fmt.pf ppf "  %-6s %8d ops  mean %8.0fns  p50 %8dns  p99 %8dns  p999 \
                  %8dns@,"
        k.kind k.count k.mean_ns k.p50_ns k.p99_ns k.p999_ns)
    r.kinds;
  List.iter
    (fun s ->
      Fmt.pf ppf "  SLO %-22s %s %10.0f  actual %10.0f  %s@," s.name s.cmp
        s.target s.actual
        (if s.ok then "pass" else "FAIL"))
    r.slos;
  Fmt.pf ppf "  %a@," Stats.pp r.stats;
  Fmt.pf ppf "  %s@]" (if r.passed then "PASSED" else "FAILED")
