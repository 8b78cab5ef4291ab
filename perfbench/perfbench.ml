(* The Pi-tree benchmark: one process, two client domains in a closed
   loop, a file-backed page file and WAL, four workloads.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Each run sets the database up several times (the median is setup_s),
   drives the last one for S seconds, then checkpoints, writes a fixed
   single-client tail, crashes, recovers and checks every acknowledged
   write. The last line of standard output is one JSON object; with
   --trace 0 it holds the end-to-end metrics, with --trace 1 the
   per-layer metrics, and the traced run also writes every span and
   counter delta to one file under --out. See NOTES.md. *)

module Env = Pitree_env.Env
module Engine = Pitree_core.Engine
module Wellformed = Pitree_core.Wellformed
module Blink = Pitree_blink.Blink
module Blink_engine = Pitree_blink.Blink_engine
module Tsb = Pitree_tsb.Tsb
module Tsb_engine = Pitree_tsb.Tsb_engine
module Disk = Pitree_storage.Disk
module Log = Pitree_wal.Log_manager
module Recovery = Pitree_wal.Recovery
module Locks = Pitree_lock.Lock_manager
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Mvcc = Pitree_txn.Mvcc
module Combine = Pitree_combine.Combine

let clients = 2

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type kind = Write_hot | Txn_insert | Scan_cold | Si_snapshot

type spec = {
  kind : kind;
  name : string;
  si : bool;  (** TSB tree under snapshot-isolation transactions *)
  keys : int;  (** preloaded keys, even: client c owns the indices = c mod 2 *)
  pool : int;  (** buffer-pool frames *)
}

(* Every workload uses the same page size, checkpoint trigger and tail;
   only the key count, the pool and the engine differ. write-hot's tree
   (about 750 pages after the ascending preload) fits in its pool;
   scan-cold's (about 2 100 pages) outnumbers its frames four to one. *)
let specs =
  [
    { kind = Write_hot; name = "write-hot"; si = false; keys = 12_000; pool = 2048 };
    { kind = Txn_insert; name = "txn-insert"; si = false; keys = 12_000; pool = 2048 };
    { kind = Scan_cold; name = "scan-cold"; si = false; keys = 40_000; pool = 512 };
    { kind = Si_snapshot; name = "si-snapshot"; si = true; keys = 12_000; pool = 2048 };
  ]

let ckpt_log_bytes = 32 lsl 20
let preload_batch = 250
(* The tail overwrites keys of one contiguous window: few enough pages
   that its full-page images keep the tail's log under the checkpoint
   trigger on every workload, so recovery always replays the whole tail. *)
let tail_writes = 40_000
let tail_window = 4_000
let tail_batch = 500
let setups = 5
let slice_samples = 1_000
let zipf_theta = 0.99
let scan_len = 50

let env_config spec ~dir =
  {
    Env.default_config with
    log_path = Some (Filename.concat dir "wal.log");
    pool_capacity = spec.pool;
    ckpt_log_bytes = Some ckpt_log_bytes;
    si_txns = spec.si;
  }

(* ------------------------------------------------------------------ *)
(* Database lifecycle                                                  *)

type db = {
  env : Env.t;
  disk : Disk.t;
  dir : string;
  mutable tree : Layers.tree;
}

let tree_name = "bench"

let inst db =
  match db.tree with
  | Layers.Blink b -> Blink_engine.inst b
  | Layers.Tsb t -> Tsb_engine.inst t

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let preload_value key = Gen.value ~key ~tag:"p"

(* Explicit transactions for any engine: SI snapshots on the TSB tree,
   plain user transactions on the B-link tree. *)
let begin_txn db tr =
  let mgr = Env.txns db.env in
  match db.tree with
  | Layers.Tsb _ -> Trace.span tr Trace.Mvcc_begin (fun () -> Mvcc.begin_snapshot mgr)
  | Layers.Blink _ -> Trace.span tr Trace.Txn_begin (fun () -> Txn_mgr.begin_txn mgr Txn.User)

let commit_txn db tr txn =
  let mgr = Env.txns db.env in
  match db.tree with
  | Layers.Tsb _ -> Trace.span tr Trace.Mvcc_commit (fun () -> Mvcc.commit mgr txn)
  | Layers.Blink _ ->
      Trace.span tr Trace.Txn_commit (fun () -> Txn_mgr.commit mgr txn);
      None

let abort_txn db tr txn =
  let mgr = Env.txns db.env in
  match db.tree with
  | Layers.Tsb _ -> Trace.span tr Trace.Mvcc_abort (fun () -> Mvcc.abort mgr txn)
  | Layers.Blink _ ->
      if Txn.is_active txn then Trace.span tr Trace.Txn_abort (fun () -> Txn_mgr.abort mgr txn)

(* Run [f] in a fresh transaction, which [f] commits; on any exception
   the transaction is aborted (a no-op if the commit already ended it). *)
let in_txn db tr f =
  let txn = begin_txn db tr in
  match f txn with
  | r -> r
  | exception e ->
      abort_txn db tr txn;
      raise e

(* Write [kvs] in explicit transactions of [batch] records, draining the
   completion queue after each: an autocommit load pays one log force per
   key, and transactions alone leave their index-term postings queued. *)
let batched_write db tr ~batch kvs =
  let i = inst db in
  let rec go = function
    | [] -> ()
    | kvs ->
        let txn = begin_txn db tr in
        let rec take n = function
          | (key, value) :: rest when n > 0 ->
              Engine.insert ~txn i ~key ~value;
              take (n - 1) rest
          | rest -> rest
        in
        let rest = take batch kvs in
        ignore (commit_txn db tr txn : int option);
        ignore (Env.drain db.env : int);
        go rest
  in
  go kvs

let setup spec ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let cfg = env_config spec ~dir in
  let disk = Disk.file ~page_size:cfg.Env.page_size ~path:(Filename.concat dir "pages.db") in
  let env = Env.create ~disk cfg in
  let tree =
    if spec.si then Layers.Tsb (Tsb.create env ~name:tree_name)
    else Layers.Blink (Blink.create env ~name:tree_name)
  in
  let db = { env; disk; dir; tree } in
  let tr = Trace.create ~client:0 in
  batched_write db tr ~batch:preload_batch
    (List.init spec.keys (fun i ->
         let key = Gen.key i in
         (key, preload_value key)));
  Env.checkpoint db.env;
  db

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)

type client = {
  id : int;
  rng : Gen.rng;
  tr : Trace.t;
  mutable win : int;  (** the window the current request started in *)
  reads : Samples.t array;  (** ns per point-read call, per window *)
  writes : Samples.t array;  (** ns per write request, per window *)
  scans : Samples.t array;  (** ns per scan, per window *)
  snaps : Samples.t array;  (** ns per read-only snapshot, per window *)
  win_ops : int array;  (** requests started per window *)
  mutable ops : int;
  mutable traced_ops : int;
  mutable failed : int;
  mutable olc_reads : int;
  mutable commits : int;
  mutable txns : int;
  mutable aborts : int;
  mutable user_bytes : int;
  mutable seq : int;
  mutable fresh : int;
  mutable errors : string list;
  own : (string, string) Hashtbl.t;  (** last acknowledged value of each key written *)
  stamped : (string, int * string) Hashtbl.t;  (** SI: commit ts and value per key written *)
}

let new_client ~seed ~windows id =
  let per_window () = Array.init windows (fun _ -> Samples.create ()) in
  {
    id;
    rng = Gen.stream seed id;
    tr = Trace.create ~client:id;
    win = 0;
    reads = per_window ();
    writes = per_window ();
    scans = per_window ();
    snaps = per_window ();
    win_ops = Array.make windows 0;
    ops = 0;
    traced_ops = 0;
    failed = 0;
    olc_reads = 0;
    commits = 0;
    txns = 0;
    aborts = 0;
    user_bytes = 0;
    seq = 0;
    fresh = 0;
    errors = [];
    own = Hashtbl.create 4096;
    stamped = Hashtbl.create 4096;
  }

exception Check of string

let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check s)) fmt

let note_error c msg = if List.length c.errors < 5 then c.errors <- msg :: c.errors

let timed c samples f =
  let t0 = Trace.now_ns () in
  let r = f () in
  Samples.add samples.(c.win) (Trace.now_ns () - t0);
  r

type ctx = {
  spec : spec;
  db : db;
  half : Gen.zipf;  (** ranks over one client's half of the keys *)
  whole : Gen.zipf;  (** ranks over every key *)
  scr_half : Gen.scramble;
  scr_whole : Gen.scramble;
}

let owner idx = idx land 1

(* A Zipf key owned by [c], and a Zipf key owned by either client. *)
let own_key ctx c = (2 * Gen.apply ctx.scr_half (Gen.zipf_rank ctx.half c.rng)) + c.id

let any_key ctx c =
  (2 * Gen.apply ctx.scr_half (Gen.zipf_rank ctx.half c.rng)) + Gen.int c.rng 2

let shared_key ctx c = Gen.apply ctx.scr_whole (Gen.zipf_rank ctx.whole c.rng)

let next_value c key =
  c.seq <- c.seq + 1;
  Gen.value ~key ~tag:(Printf.sprintf "%d:%d" c.id c.seq)

let expected c key = match Hashtbl.find_opt c.own key with Some v -> v | None -> preload_value key

(* A read of preloaded key [idx]: a value must come back, it must belong
   to the key, and on a key the reader owns it must be its last write. *)
let check_read c idx v =
  let key = Gen.key idx in
  match v with
  | None -> raise (Check ("no value for preloaded " ^ key))
  | Some v ->
      if owner idx = c.id then check (v = expected c key) "%s: not the client's last write" key
      else check (Gen.belongs ~key v) "%s: value belongs to another key" key

let find ?txn c i key = Trace.span c.tr Trace.Engine_find (fun () -> Engine.find ?txn i key)

let insert ?txn c i ~key ~value =
  Trace.span c.tr Trace.Engine_insert (fun () -> Engine.insert ?txn i ~key ~value)

let acked_write c key value =
  Hashtbl.replace c.own key value;
  c.user_bytes <- c.user_bytes + String.length key + String.length value

(* write-hot: autocommit point reads and overwrites, Zipf 0.99. *)
let op_write_hot ctx c i =
  if Gen.float c.rng < 0.5 then begin
    let idx = any_key ctx c in
    let key = Gen.key idx in
    c.olc_reads <- c.olc_reads + 1;
    let v = Trace.request c.tr Trace.Op_read (fun () -> timed c c.reads (fun () -> find c i key)) in
    check_read c idx v
  end
  else begin
    let key = Gen.key (own_key ctx c) in
    let value = next_value c key in
    Trace.request c.tr Trace.Op_write (fun () ->
        timed c c.writes (fun () -> insert c i ~key ~value));
    c.commits <- c.commits + 1;
    acked_write c key value
  end

(* Retry [attempt] until it commits, counting each try as a transaction
   and each [retry]-classified failure as an abort. *)
let rec until_commit c ~retry attempt =
  c.txns <- c.txns + 1;
  match attempt () with
  | r -> r
  | exception e when retry e ->
      c.aborts <- c.aborts + 1;
      until_commit c ~retry attempt

(* txn-insert: two locked reads, one overwrite, one fresh ascending insert,
   commit; deadlock victims retry. *)
let op_txn_insert ctx c i =
  let r1 = any_key ctx c and r2 = any_key ctx c in
  let wkey = Gen.key (own_key ctx c) in
  let fkey = Gen.key (ctx.spec.keys + (2 * c.fresh) + c.id) in
  let wval = next_value c wkey and fval = next_value c fkey in
  Trace.request c.tr Trace.Op_txn (fun () ->
      timed c c.writes (fun () ->
          until_commit c
            ~retry:(function Locks.Deadlock _ -> true | _ -> false)
            (fun () ->
              in_txn ctx.db c.tr (fun txn ->
                  List.iter
                    (fun idx ->
                      let key = Gen.key idx in
                      check_read c idx (timed c c.reads (fun () -> find ~txn c i key)))
                    [ r1; r2 ];
                  insert ~txn c i ~key:wkey ~value:wval;
                  insert ~txn c i ~key:fkey ~value:fval;
                  ignore (commit_txn ctx.db c.tr txn : int option)))));
  c.fresh <- c.fresh + 1;
  c.commits <- c.commits + 1;
  acked_write c wkey wval;
  acked_write c fkey fval

(* scan-cold: 50-record scans from a uniform start, and fresh inserts at
   uniform positions (each sorts right after an existing key). *)
let op_scan_cold ctx c i =
  if Gen.float c.rng < 0.95 then begin
    let low = Gen.key (Gen.int c.rng (ctx.spec.keys - scan_len)) in
    c.olc_reads <- c.olc_reads + 1;
    let n =
      Trace.request c.tr Trace.Op_scan (fun () ->
          timed c c.scans (fun () ->
              Trace.span c.tr Trace.Engine_scan (fun () -> Engine.scan i ~low ~n:scan_len)))
    in
    check (n = scan_len) "scan from %s returned %d records" low n
  end
  else begin
    c.fresh <- c.fresh + 1;
    let key = Printf.sprintf "%s.%d.%d" (Gen.key (Gen.int c.rng ctx.spec.keys)) c.id c.fresh in
    let value = next_value c key in
    Trace.request c.tr Trace.Op_write (fun () ->
        timed c c.writes (fun () -> insert c i ~key ~value));
    c.commits <- c.commits + 1;
    acked_write c key value
  end

(* si-snapshot: read-only snapshots of 8 Zipf reads (the first key is read
   again and must not change), and write snapshots of 4 overwrites;
   first-committer-wins losers retry. *)
let op_si_snapshot ctx c i =
  if Gen.float c.rng < 0.8 then begin
    let idxs = List.init 8 (fun _ -> shared_key ctx c) in
    Trace.request c.tr Trace.Op_read (fun () ->
        timed c c.snaps (fun () ->
            c.txns <- c.txns + 1;
            in_txn ctx.db c.tr (fun txn ->
            let first = ref None in
            List.iter
              (fun idx ->
                let key = Gen.key idx in
                match timed c c.reads (fun () -> find ~txn c i key) with
                | Some v ->
                    check (Gen.belongs ~key v) "%s: value belongs to another key" key;
                    if !first = None then first := Some (key, v)
                | None -> raise (Check ("no value for preloaded " ^ key)))
              idxs;
            (match !first with
            | Some (key, v) ->
                check (timed c c.reads (fun () -> find ~txn c i key) = Some v) "%s: snapshot re-read changed" key
            | None -> ());
            check (commit_txn ctx.db c.tr txn = None) "read-only snapshot got a commit ts")));
    c.commits <- c.commits + 1
  end
  else begin
    let kvs =
      List.init 4 (fun _ ->
          let key = Gen.key (shared_key ctx c) in
          (key, next_value c key))
    in
    let ts =
      Trace.request c.tr Trace.Op_txn (fun () ->
          timed c c.writes (fun () ->
              until_commit c
                ~retry:(function Mvcc.Write_conflict _ -> true | _ -> false)
                (fun () ->
                  in_txn ctx.db c.tr (fun txn ->
                      List.iter (fun (key, value) -> insert ~txn c i ~key ~value) kvs;
                      commit_txn ctx.db c.tr txn))))
    in
    match ts with
    | None -> raise (Check "write snapshot committed without a ts")
    | Some ts ->
        c.commits <- c.commits + 1;
        (* Later keys in [kvs] overwrite earlier ones in the write buffer. *)
        List.iter
          (fun (key, value) ->
            Hashtbl.replace c.stamped key (ts, value);
            c.user_bytes <- c.user_bytes + String.length key + String.length value)
          kvs
  end

let op ctx =
  match ctx.spec.kind with
  | Write_hot -> op_write_hot ctx
  | Txn_insert -> op_txn_insert ctx
  | Scan_cold -> op_scan_cold ctx
  | Si_snapshot -> op_si_snapshot ctx

(* ------------------------------------------------------------------ *)
(* Timed phase                                                         *)

(* The timed phase is cut into windows of [window_s]; each request is
   charged to the window it started in. In a traced run odd windows are
   traced and even ones are not. *)
let window_s = 0.5
let window = Atomic.make 0
let tracing = Atomic.make false

let client_loop ctx ~go ~stop c =
  let i = inst ctx.db in
  while not (Atomic.get go) do
    Domain.cpu_relax ()
  done;
  while not (Atomic.get stop) do
    let traced = Atomic.get tracing in
    c.tr.on <- traced;
    c.win <- Atomic.get window;
    c.win_ops.(c.win) <- c.win_ops.(c.win) + 1;
    (match op ctx c i with
    | () -> ()
    | exception Check msg ->
        c.failed <- c.failed + 1;
        note_error c msg
    | exception e ->
        c.failed <- c.failed + 1;
        note_error c (Printexc.to_string e));
    c.ops <- c.ops + 1;
    if traced then c.traced_ops <- c.traced_ops + 1
  done

let windows_of seconds = max 1 (int_of_float (Float.ceil (seconds /. window_s)))

(* Run the clients for [windows] windows; returns the whole phase's
   length and each window's. The last window also holds the requests
   still running when the phase ends. *)
let timed_phase ctx cs ~windows ~trace =
  let go = Atomic.make false and stop = Atomic.make false in
  Atomic.set window 0;
  let ds = List.map (fun c -> Domain.spawn (fun () -> client_loop ctx ~go ~stop c)) cs in
  let lengths = Array.make windows 0. in
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  for k = 0 to windows - 1 do
    Atomic.set tracing (trace && k land 1 = 1);
    let start = if k = 0 then t0 else Unix.gettimeofday () in
    Unix.sleepf (Float.max 0. (t0 +. (float_of_int (k + 1) *. window_s) -. start));
    if k < windows - 1 then Atomic.set window (k + 1);
    lengths.(k) <- Unix.gettimeofday () -. start
  done;
  Atomic.set stop true;
  List.iter Domain.join ds;
  Atomic.set tracing false;
  let elapsed = Unix.gettimeofday () -. t0 in
  lengths.(windows - 1) <- lengths.(windows - 1) +. (elapsed -. Array.fold_left ( +. ) 0. lengths);
  (elapsed, lengths)

(* ------------------------------------------------------------------ *)
(* Crash, recovery and the read-back of every acknowledged write       *)

let reopen db =
  match db.tree with
  | Layers.Blink _ -> (
      match Blink.open_existing db.env ~name:tree_name with
      | Some b -> db.tree <- Layers.Blink b
      | None -> failwith "tree missing after recovery")
  | Layers.Tsb _ -> (
      match Tsb.open_existing db.env ~name:tree_name with
      | Some t -> db.tree <- Layers.Tsb t
      | None -> failwith "tree missing after recovery")

let fold_live db ~init ~f =
  match db.tree with
  | Layers.Blink b -> Blink.range b ?low:None ?high:None ~init ~f
  | Layers.Tsb t -> Tsb.range_asof t ~time:(Tsb.now t) ?low:None ?high:None ~init ~f

let wellformed db =
  match db.tree with Layers.Blink b -> Blink.verify b | Layers.Tsb t -> Tsb.verify t

type verdict = { lost : int; unexpected : int; wrong : int; live_bytes : int; wf_ok : bool }

(* One full scan: every expected key must be present with exactly its
   last acknowledged value, and no other key may exist. *)
let verify db (expect : (string, string) Hashtbl.t) =
  let wf = wellformed db in
  let seen = ref 0 and unexpected = ref 0 and wrong = ref 0 and live_bytes = ref 0 in
  fold_live db ~init:() ~f:(fun () k v ->
      live_bytes := !live_bytes + String.length k + String.length v;
      match Hashtbl.find_opt expect k with
      | Some e ->
          incr seen;
          if e <> v then incr wrong
      | None -> incr unexpected);
  {
    lost = Hashtbl.length expect - !seen;
    unexpected = !unexpected;
    wrong = !wrong;
    live_bytes = !live_bytes;
    wf_ok = Wellformed.ok wf;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let json_str s = "\"" ^ String.escaped s ^ "\""

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v) (json_str u))
         ms)
  ^ "}"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let config_json spec cfg =
  Printf.sprintf
    "{\"engine\": %s, \"page_size\": %d, \"pool_capacity\": %d, \"ckpt_log_bytes\": %d, \"si_txns\": %b, \"olc_reads\": %b, \"combine\": %b, \"wal_group_commit\": %b, \"keys\": %d, \"clients\": %d, \"tail_writes\": %d}"
    (json_str (if spec.si then "tsb" else "blink"))
    cfg.Env.page_size cfg.Env.pool_capacity ckpt_log_bytes cfg.Env.si_txns cfg.Env.olc_reads
    cfg.Env.combine cfg.Env.wal_group_commit spec.keys clients tail_writes

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let run spec ~seed ~seconds ~trace ~out ~commit =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir i = Filename.concat out (Printf.sprintf "db-%d-%d" (Unix.getpid ()) i) in
  (* Set-up, several times; the last database is the one the run drives. *)
  let setup_times, db =
    let rec go i acc =
      let t0 = Unix.gettimeofday () in
      let db = setup spec ~dir:(dir i) in
      let acc = (Unix.gettimeofday () -. t0) :: acc in
      if i = setups then (acc, db)
      else begin
        (* Files are removed only when the run ends: deleting them here
           would put the file system's block reclaim inside the timed
           phase. *)
        Env.close db.env;
        Gc.compact ();
        go (i + 1) acc
      end
    in
    go 1 []
  in
  let setup_s = median setup_times in
  Gc.compact ();
  let ctx =
    {
      spec;
      db;
      half = Gen.zipf ~n:(spec.keys / 2) ~theta:zipf_theta;
      whole = Gen.zipf ~n:spec.keys ~theta:zipf_theta;
      scr_half = Gen.scramble ~seed (spec.keys / 2);
      scr_whole = Gen.scramble ~seed spec.keys;
    }
  in
  let windows = windows_of seconds in
  let cs = List.init clients (new_client ~seed ~windows) in
  let before = Layers.take db.env db.disk db.tree in
  let cpu0 = Unix.times () in
  Combine.reset_stats ();
  let elapsed, lengths = timed_phase ctx cs ~windows ~trace in
  let cpu1 = Unix.times () in
  let rss_peak = rss_peak_mb () in
  let after = Layers.take db.env db.disk db.tree in
  let combine = Combine.stats () in
  let postings_pending =
    match db.tree with Layers.Blink b -> Blink.pending_postings b | Layers.Tsb _ -> 0
  in
  let pending_end = Env.pending db.env in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cs in
  let ops = sum (fun c -> c.ops) in
  let work =
    {
      Layers.ops;
      reads = sum (fun c -> c.olc_reads);
      commits = sum (fun c -> c.commits);
      seconds = elapsed;
    }
  in
  let user_bytes = sum (fun c -> c.user_bytes) in
  let wal_bytes = after.Layers.wal.Log.bytes - before.Layers.wal.Log.bytes in
  (* What every acknowledged write says the database must now hold. *)
  let expect = Hashtbl.create (2 * spec.keys) in
  for i = 0 to spec.keys - 1 do
    let key = Gen.key i in
    Hashtbl.replace expect key (preload_value key)
  done;
  List.iter (fun c -> Hashtbl.iter (Hashtbl.replace expect) c.own) cs;
  let newest = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun key (ts, v) ->
          match Hashtbl.find_opt newest key with
          | Some (ts', _) when ts' >= ts -> ()
          | _ -> Hashtbl.replace newest key (ts, v))
        c.stamped)
    cs;
  Hashtbl.iter (fun key (_, v) -> Hashtbl.replace expect key v) newest;
  (* Checkpoint, fixed single-client tail, crash, recover. *)
  let main_tr = Trace.create ~client:clients in
  main_tr.Trace.on <- trace;
  Trace.request main_tr Trace.Env_checkpoint (fun () -> Env.checkpoint db.env);
  main_tr.Trace.on <- false;
  let trng = Gen.stream seed 999 in
  let tail =
    List.init tail_writes (fun n ->
        let key = Gen.key (Gen.int trng tail_window) in
        (key, Gen.value ~key ~tag:(Printf.sprintf "t:%d" n)))
  in
  let tail_failed =
    match batched_write db main_tr ~batch:tail_batch tail with
    | () ->
        List.iter (fun (k, v) -> Hashtbl.replace expect k v) tail;
        0
    | exception e ->
        prerr_endline ("tail raised " ^ Printexc.to_string e);
        1
  in
  (* With no GC horizon the TSB tree keeps every committed version, and
     as-of reads reach each one: they are all live user data. *)
  let versions = match db.tree with Layers.Tsb t -> Some (Tsb.stats t).Tsb.puts | Layers.Blink _ -> None in
  Log.flush_all (Env.log db.env);
  Env.crash db.env;
  let t0 = Unix.gettimeofday () in
  main_tr.Trace.on <- trace;
  let report = Trace.request main_tr Trace.Env_recover (fun () -> Env.recover db.env) in
  let recover_s = Unix.gettimeofday () -. t0 in
  reopen db;
  let v = verify db expect in
  let live_bytes =
    match versions with
    | Some n -> n * (String.length (Gen.key 0) + Gen.value_len)
    | None -> v.live_bytes
  in
  let space_amp =
    float_of_int (Env.allocated_extent db.env * (Env.config db.env).Env.page_size) /. float_of_int (max 1 live_bytes)
  in
  let failed_ops = sum (fun c -> c.failed) in
  let attempted = ops + tail_writes in
  let failed = failed_ops + tail_failed + v.lost + v.wrong + v.unexpected + if v.wf_ok then 0 else 1 in
  let txns = sum (fun c -> c.txns) and aborts = sum (fun c -> c.aborts) in
  let count f = sum (fun c -> Array.fold_left (fun acc s -> acc + Samples.count s) 0 (f c)) in
  (* Percentiles in microseconds: the median, over contiguous slices of
     the timed phase holding at least [slice_samples] samples each, of
     the slice's exact percentile. A few slow seconds on a shared host
     then move the result less than pooling every sample would. *)
  let pct f =
    let per_window = Array.init windows (fun k -> Samples.concat (List.map (fun c -> (f c).(k)) cs)) in
    let total = Array.fold_left (fun acc s -> acc + Samples.count s) 0 per_window in
    let k = max 1 (min windows (total / slice_samples)) in
    let slices =
      List.init k (fun j ->
          Samples.concat (Array.to_list (Array.sub per_window (j * windows / k) (((j + 1) * windows / k) - (j * windows / k)))))
    in
    let qs = List.map (fun s -> Samples.percentiles s [ 50.; 99. ]) slices in
    let at i = median (List.map (fun q -> float_of_int (List.nth q i) /. 1e3) qs) in
    (at 0, at 1)
  in
  (* scan-cold's read request is its scan. *)
  let read_samples = if spec.kind = Scan_cold then fun c -> c.scans else fun c -> c.reads in
  let kinds =
    [ ("read", read_samples); ("write", fun c -> c.writes); ("scan", fun c -> c.scans); ("snapshot", fun c -> c.snaps) ]
  in
  let cpu_us_per_op =
    (cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime)
    *. 1e6 /. float_of_int (max 1 ops)
  in
  (* Throughput: the median of the windows' rates. *)
  let ops_per_s =
    median (List.init windows (fun k -> float_of_int (sum (fun c -> c.win_ops.(k))) /. lengths.(k)))
  in
  let failed_op_ratio = float_of_int failed /. float_of_int attempted in
  let abort_ratio = if txns = 0 then 0. else float_of_int aborts /. float_of_int txns in
  let cfg = Env.config db.env in
  Printf.printf "workload %s seed %d seconds %g trace %b clients %d nproc %d ocaml %s commit %s\n" spec.name seed
    seconds trace clients (Domain.recommended_domain_count ()) Sys.ocaml_version commit;
  Printf.printf "config %s\n" (config_json spec cfg);
  Printf.printf "ops_per_s %.1f 1/s" ops_per_s;
  List.iter
    (fun (name, f) ->
      let p50, p99 = pct f in
      Printf.printf " | %s_p50_us %.1f us %s_p99_us %.1f us (n=%d)" name p50 name p99 (count f))
    kinds;
  print_newline ();
  Printf.printf
    "recover_s %.4f s (analyzed %d redone %d) | setup_s %.4f s | wal_bytes_per_user_byte %.3f | space_amp %.3f | \
     failed_op_ratio %g (%d/%d) | abort_ratio %g (%d/%d) | rss_peak_mb %.1f MB | cpu_us_per_op %.1f us\n"
    recover_s report.Recovery.analyzed report.Recovery.redone setup_s
    (float_of_int wal_bytes /. float_of_int (max 1 user_bytes))
    space_amp failed_op_ratio failed attempted abort_ratio aborts txns rss_peak cpu_us_per_op;
  List.iter (fun c -> List.iter (fun e -> Printf.printf "client %d error: %s\n" c.id e) (List.rev c.errors)) cs;
  if v.lost + v.wrong + v.unexpected > 0 || not v.wf_ok then
    Printf.printf "recovery check: lost %d wrong %d unexpected %d wellformed %b\n" v.lost v.wrong v.unexpected v.wf_ok;
  let metrics =
    if not trace then
      [
        ("recover_s", recover_s, "s");
        ("setup_s", setup_s, "s");
        ("wal_bytes_per_user_byte", float_of_int wal_bytes /. float_of_int (max 1 user_bytes), "ratio");
        ("space_amp", space_amp, "ratio");
        ("rss_peak_mb", rss_peak, "MB");
      ]
    else begin
      let s = Trace.summarize (List.map (fun c -> c.tr) cs) in
      let traced_ops = sum (fun c -> c.traced_ops) in
      let plain_ops = ops - traced_ops in
      (* Odd windows were traced. *)
      let on_s = ref 0. and off_s = ref 0. in
      Array.iteri (fun k l -> if k land 1 = 1 then on_s := !on_s +. l else off_s := !off_s +. l) lengths;
      let on_s = !on_s and off_s = !off_s in
      let overhead =
        if on_s <= 0. || off_s <= 0. || plain_ops = 0 then 0.
        else 100. *. (1. -. (float_of_int traced_ops /. on_s /. (float_of_int plain_ops /. off_s)))
      in
      let layer_ms =
        Layers.metrics ~b:before ~a:after ~w:work ~combine ~postings_pending ~pending_end
      in
      let per_op x = if traced_ops = 0 then 0. else x /. float_of_int traced_ops in
      let ms =
        List.map (fun (n, u, v) -> (n, v, u)) layer_ms
        @ [
            ("engine.op_us", Trace.mean_us s [ Trace.Engine_find; Trace.Engine_insert; Trace.Engine_scan ], "us");
            ("txn.commit_us", Trace.mean_us s [ Trace.Txn_commit ], "us");
            ("mvcc.commit_us", Trace.mean_us s [ Trace.Mvcc_commit ], "us");
            ("mvcc.begin_us", Trace.mean_us s [ Trace.Mvcc_begin ], "us");
            ("txn.abort_ratio", abort_ratio, "ratio");
            ("recovery.analyzed", float_of_int report.Recovery.analyzed, "count");
            ("recovery.redone", float_of_int report.Recovery.redone, "count");
            ("env.recover_us", Trace.mean_us (Trace.summarize [ main_tr ]) [ Trace.Env_recover ], "us");
            ("trace.overhead_pct", overhead, "%");
          ]
        @ List.map
            (fun l -> (Printf.sprintf "self.%s_us_per_op" l, per_op (Trace.self_us s l), "us/op"))
            Trace.client_layers
      in
      let path = Filename.concat out (Printf.sprintf "trace-%s.jsonl" spec.name) in
      let oc = open_out path in
      Printf.fprintf oc
        "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \"config\": %s, \"ops\": %d, \"traced_ops\": %d, \"metrics\": %s, \"counters\": {%s}}\n"
        (json_str spec.name) seed (json_num seconds) (Domain.recommended_domain_count ()) (json_str Sys.ocaml_version)
        (json_str commit) (config_json spec cfg) ops traced_ops (json_metrics ms)
        (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s: %d" (json_str n) v) (Layers.raw ~b:before ~a:after)));
      Trace.write oc (main_tr :: List.map (fun c -> c.tr) cs);
      close_out oc;
      Printf.printf "trace written to %s\n" path;
      ms
    end
  in
  Env.close db.env;
  for i = 1 to setups do
    rm_rf (dir i)
  done;
  let correct = failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct attempted failed
    (json_metrics metrics);
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench/out" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME write-hot | txn-insert | scan-cold | si-snapshot");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR scratch databases and trace files");
      ("--commit", Arg.Set_string commit, "SHA source revision recorded with the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some spec -> exit (run spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out ~commit:!commit)
