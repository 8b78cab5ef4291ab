module Log_manager = Pitree_wal.Log_manager
module Buffer_pool = Pitree_storage.Buffer_pool
module Disk = Pitree_storage.Disk
module Env = Pitree_env.Env
module Combine = Pitree_combine.Combine
module Mvcc = Pitree_txn.Mvcc

type t = {
  wal : Log_manager.stats option;
  pool : Buffer_pool.stats option;
  env : Env.stats option;
  faults : Disk.Faulty.counters option;
  combine : Combine.stats option;
  mvcc : Mvcc.stats option;
}

let empty =
  {
    wal = None;
    pool = None;
    env = None;
    faults = None;
    combine = None;
    mvcc = None;
  }

let of_env ?faults env =
  {
    wal = Some (Log_manager.stats (Env.log env));
    pool = Some (Buffer_pool.stats (Env.pool env));
    env = Some (Env.stats env);
    faults = Option.map Disk.Faulty.counters faults;
    combine = Some (Combine.stats ());
    mvcc = Some (Mvcc.stats ());
  }

(* Counter fields are reported as the delta across the run; the batch/wait
   distributions are cumulative for the component's lifetime (histograms
   are not subtractable), which matches the common fresh-env-per-run
   usage; the [resident_bytes] gauge is its end-of-run value. *)
let kinds_delta before after = List.map2 (fun (k, b) (_, a) -> (k, a - b)) before after

let wal_delta (before : Log_manager.stats) (after : Log_manager.stats) =
  {
    after with
    Log_manager.appends = after.Log_manager.appends - before.Log_manager.appends;
    forces = after.Log_manager.forces - before.Log_manager.forces;
    flushes = after.Log_manager.flushes - before.Log_manager.flushes;
    flush_requests =
      after.Log_manager.flush_requests - before.Log_manager.flush_requests;
    logical_commits =
      after.Log_manager.logical_commits - before.Log_manager.logical_commits;
    bytes = after.Log_manager.bytes - before.Log_manager.bytes;
    truncations = after.Log_manager.truncations - before.Log_manager.truncations;
    truncated_records =
      after.Log_manager.truncated_records - before.Log_manager.truncated_records;
    truncated_bytes =
      after.Log_manager.truncated_bytes - before.Log_manager.truncated_bytes;
    kind_appends = kinds_delta before.Log_manager.kind_appends after.Log_manager.kind_appends;
    kind_bytes = kinds_delta before.Log_manager.kind_bytes after.Log_manager.kind_bytes;
  }

(* Same policy for pool stats: counters are run deltas (with the hit ratio
   recomputed over them); the miss-I/O wait distribution is cumulative. *)
let pool_delta (before : Buffer_pool.stats) (after : Buffer_pool.stats) =
  let hits = after.Buffer_pool.hits - before.Buffer_pool.hits in
  let misses = after.Buffer_pool.misses - before.Buffer_pool.misses in
  let pins = hits + misses in
  {
    after with
    Buffer_pool.hits;
    misses;
    evictions = after.Buffer_pool.evictions - before.Buffer_pool.evictions;
    flushes = after.Buffer_pool.flushes - before.Buffer_pool.flushes;
    retried_reads =
      after.Buffer_pool.retried_reads - before.Buffer_pool.retried_reads;
    retried_writes =
      after.Buffer_pool.retried_writes - before.Buffer_pool.retried_writes;
    shard_evictions =
      Array.mapi
        (fun i e ->
          if i < Array.length before.Buffer_pool.shard_evictions then
            e - before.Buffer_pool.shard_evictions.(i)
          else e)
        after.Buffer_pool.shard_evictions;
    hit_ratio =
      (if pins = 0 then 0. else float_of_int hits /. float_of_int pins);
  }

let env_delta (before : Env.stats) (after : Env.stats) =
  {
    Env.pages_allocated = after.Env.pages_allocated - before.Env.pages_allocated;
    pages_freed = after.Env.pages_freed - before.Env.pages_freed;
    pages_reused = after.Env.pages_reused - before.Env.pages_reused;
    completions_run = after.Env.completions_run - before.Env.completions_run;
    checkpoints = after.Env.checkpoints - before.Env.checkpoints;
    ckpt_pages_written =
      after.Env.ckpt_pages_written - before.Env.ckpt_pages_written;
    ckpt_records_truncated =
      after.Env.ckpt_records_truncated - before.Env.ckpt_records_truncated;
    ckpt_bytes_truncated =
      after.Env.ckpt_bytes_truncated - before.Env.ckpt_bytes_truncated;
    page_images = after.Env.page_images - before.Env.page_images;
    page_images_skipped =
      after.Env.page_images_skipped - before.Env.page_images_skipped;
    page_image_bytes = after.Env.page_image_bytes - before.Env.page_image_bytes;
  }

(* Injection counters are plain monotone counts, so the delta is exact. *)
let faults_delta (before : Disk.Faulty.counters) (after : Disk.Faulty.counters)
    =
  {
    Disk.Faulty.torn_writes =
      after.Disk.Faulty.torn_writes - before.Disk.Faulty.torn_writes;
    transient_reads =
      after.Disk.Faulty.transient_reads - before.Disk.Faulty.transient_reads;
    transient_writes =
      after.Disk.Faulty.transient_writes - before.Disk.Faulty.transient_writes;
    bit_flips = after.Disk.Faulty.bit_flips - before.Disk.Faulty.bit_flips;
    fail_stops = after.Disk.Faulty.fail_stops - before.Disk.Faulty.fail_stops;
  }

(* Combining counters are process-wide monotone counts; the size/wait
   distributions stay cumulative like the WAL's. *)
let combine_delta (before : Combine.stats) (after : Combine.stats) =
  {
    after with
    Combine.reqs = after.Combine.reqs - before.Combine.reqs;
    batches = after.Combine.batches - before.Combine.batches;
    combined = after.Combine.combined - before.Combine.combined;
    handbacks = after.Combine.handbacks - before.Combine.handbacks;
    window_waits = after.Combine.window_waits - before.Combine.window_waits;
  }

let map2 f a b = match (a, b) with Some a, Some b -> Some (f a b) | _ -> None

let delta ~before ~after =
  {
    wal = map2 wal_delta before.wal after.wal;
    pool = map2 pool_delta before.pool after.pool;
    env = map2 env_delta before.env after.env;
    faults = map2 faults_delta before.faults after.faults;
    combine = map2 combine_delta before.combine after.combine;
    mvcc = map2 (fun b a -> Mvcc.sub_stats a b) before.mvcc after.mvcc;
  }

let pp_pool ppf (p : Buffer_pool.stats) =
  Fmt.pf ppf
    "pool: %d shards, %.1f%% hit (%d hits / %d misses), %d evictions, %d \
     flushes, miss I/O mean %.0fns p99 %dns"
    p.Buffer_pool.shards
    (100. *. p.Buffer_pool.hit_ratio)
    p.Buffer_pool.hits p.Buffer_pool.misses p.Buffer_pool.evictions
    p.Buffer_pool.flushes p.Buffer_pool.miss_wait_mean_ns
    p.Buffer_pool.miss_wait_p99_ns

let pp_env ppf (e : Env.stats) =
  Fmt.pf ppf
    "env: %d alloc (%d reused) / %d freed pages, %d completions, %d \
     checkpoints (%d pages written back, %d records / %d bytes truncated), \
     %d page images (%d bytes, %d skipped)"
    e.Env.pages_allocated e.Env.pages_reused e.Env.pages_freed
    e.Env.completions_run e.Env.checkpoints e.Env.ckpt_pages_written
    e.Env.ckpt_records_truncated e.Env.ckpt_bytes_truncated e.Env.page_images
    e.Env.page_image_bytes e.Env.page_images_skipped

let pp_faults ppf (f : Disk.Faulty.counters) =
  Fmt.pf ppf
    "faults: injected %d torn / %d transient-read / %d transient-write / %d \
     bit-flip / %d fail-stop"
    f.Disk.Faulty.torn_writes f.Disk.Faulty.transient_reads
    f.Disk.Faulty.transient_writes f.Disk.Faulty.bit_flips
    f.Disk.Faulty.fail_stops

let pp ppf s =
  let sections =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun w -> fun ppf () -> Log_manager.pp_stats ppf w) s.wal;
        Option.map (fun p -> fun ppf () -> pp_pool ppf p) s.pool;
        Option.map (fun e -> fun ppf () -> pp_env ppf e) s.env;
        Option.map (fun f -> fun ppf () -> pp_faults ppf f) s.faults;
        Option.map
          (fun c -> fun ppf () -> Fmt.pf ppf "combine: @[%a@]" Combine.pp_stats c)
          s.combine;
        Option.map
          (fun m -> fun ppf () -> Fmt.pf ppf "mvcc: @[%a@]" Mvcc.pp_stats m)
          s.mvcc;
      ]
  in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf f -> f ppf ()))
    sections

let wal_json b (w : Log_manager.stats) =
  Printf.bprintf b
    "{\"appends\": %d, \"forces\": %d, \"flushes\": %d, \"flush_requests\": \
     %d, \"logical_commits\": %d, \"bytes\": %d, \"resident_bytes\": %d, \
     \"batch_mean\": %.2f, \"batch_p99\": %d, \
     \"batch_max\": %d, \"wait_mean_ns\": %.0f, \"wait_p50_ns\": %d, \
     \"wait_p99_ns\": %d, \"truncations\": %d, \"truncated_records\": %d, \
     \"truncated_bytes\": %d, \"kinds\": {%s}}"
    w.Log_manager.appends w.Log_manager.forces w.Log_manager.flushes
    w.Log_manager.flush_requests w.Log_manager.logical_commits
    w.Log_manager.bytes w.Log_manager.resident_bytes w.Log_manager.batch_mean
    w.Log_manager.batch_p99 w.Log_manager.batch_max w.Log_manager.wait_mean_ns
    w.Log_manager.wait_p50_ns w.Log_manager.wait_p99_ns
    w.Log_manager.truncations w.Log_manager.truncated_records
    w.Log_manager.truncated_bytes
    (String.concat ", "
       (List.map2
          (fun (k, n) (_, bytes) ->
            Printf.sprintf "\"%s\": {\"appends\": %d, \"bytes\": %d}" k n bytes)
          w.Log_manager.kind_appends w.Log_manager.kind_bytes))

let pool_json b (p : Buffer_pool.stats) =
  Printf.bprintf b
    "{\"shards\": %d, \"hits\": %d, \"misses\": %d, \"hit_ratio\": %.4f, \
     \"evictions\": %d, \"flushes\": %d, \"retried_reads\": %d, \
     \"retried_writes\": %d, \"miss_wait_mean_ns\": %.0f, \
     \"miss_wait_p99_ns\": %d}"
    p.Buffer_pool.shards p.Buffer_pool.hits p.Buffer_pool.misses
    p.Buffer_pool.hit_ratio p.Buffer_pool.evictions p.Buffer_pool.flushes
    p.Buffer_pool.retried_reads p.Buffer_pool.retried_writes
    p.Buffer_pool.miss_wait_mean_ns p.Buffer_pool.miss_wait_p99_ns

let env_json b (e : Env.stats) =
  Printf.bprintf b
    "{\"pages_allocated\": %d, \"pages_freed\": %d, \"pages_reused\": %d, \
     \"completions_run\": %d, \"checkpoints\": %d, \"ckpt_pages_written\": \
     %d, \"ckpt_records_truncated\": %d, \"ckpt_bytes_truncated\": %d, \
     \"page_images\": %d, \"page_images_skipped\": %d, \
     \"page_image_bytes\": %d}"
    e.Env.pages_allocated e.Env.pages_freed e.Env.pages_reused
    e.Env.completions_run e.Env.checkpoints e.Env.ckpt_pages_written
    e.Env.ckpt_records_truncated e.Env.ckpt_bytes_truncated e.Env.page_images
    e.Env.page_images_skipped e.Env.page_image_bytes

let faults_json b (f : Disk.Faulty.counters) =
  Printf.bprintf b
    "{\"torn_writes\": %d, \"transient_reads\": %d, \"transient_writes\": %d, \
     \"bit_flips\": %d, \"fail_stops\": %d}"
    f.Disk.Faulty.torn_writes f.Disk.Faulty.transient_reads
    f.Disk.Faulty.transient_writes f.Disk.Faulty.bit_flips
    f.Disk.Faulty.fail_stops

let combine_json b (c : Combine.stats) =
  Printf.bprintf b
    "{\"reqs\": %d, \"batches\": %d, \"combined\": %d, \"handbacks\": %d, \
     \"window_waits\": %d, \"batch_mean\": %.2f, \"batch_p99\": %d, \
     \"batch_max\": %d, \"follower_wait_mean_ns\": %.0f, \
     \"follower_wait_p99_ns\": %d}"
    c.Combine.reqs c.Combine.batches c.Combine.combined c.Combine.handbacks
    c.Combine.window_waits c.Combine.batch_mean c.Combine.batch_p99
    c.Combine.batch_max c.Combine.follower_wait_mean_ns
    c.Combine.follower_wait_p99_ns

let mvcc_json b (m : Mvcc.stats) =
  Printf.bprintf b
    "{\"begun\": %d, \"committed\": %d, \"conflicts\": %d, \"aborted\": %d, \
     \"si_reads\": %d, \"stale_aborts\": %d}"
    m.Mvcc.begun m.Mvcc.committed m.Mvcc.conflicts m.Mvcc.aborted
    m.Mvcc.si_reads m.Mvcc.stale_aborts

let to_json s =
  let b = Buffer.create 1024 in
  let field name opt j =
    Printf.bprintf b "\"%s\": " name;
    (match opt with None -> Buffer.add_string b "null" | Some v -> j b v)
  in
  Buffer.add_string b "{";
  field "wal" s.wal wal_json;
  Buffer.add_string b ", ";
  field "pool" s.pool pool_json;
  Buffer.add_string b ", ";
  field "env" s.env env_json;
  Buffer.add_string b ", ";
  field "faults" s.faults faults_json;
  Buffer.add_string b ", ";
  field "combine" s.combine combine_json;
  Buffer.add_string b ", ";
  field "mvcc" s.mvcc mvcc_json;
  Buffer.add_string b "}";
  Buffer.contents b
