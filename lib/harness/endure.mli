(** Endurance rig: YCSB-shaped mixes against a file-backed environment,
    run for wall-clock time under three concurrent adversaries — the
    log-growth checkpointer (with physical truncation), a seeded
    [Disk.Faulty] plan the buffer pool's retry/backoff path must absorb,
    and periodic crash+recover cycles that reopen the environment mid-run.

    Every run is gated by declared SLOs (zero lost committed writes,
    complete scans, well-formedness after every recovery, a point-read p99
    bound, a WAL size bound), turning "survives chaos" into a pass/fail
    regression property. Results serialize to the [BENCH_endure.json]
    shape consumed by CI.

    {2 Correctness oracle}

    Keys [0, keys) are preloaded and never deleted, so every point read
    must return [Some] and a scan of [scan_len] records starting inside
    the preloaded range must yield exactly [scan_len] records (freshly
    inserted keys sort after the whole preloaded range). Writes are
    partitioned by ownership — each worker overwrites only keys congruent
    to its index mod [domains] and inserts only fresh keys with the same
    stride — so each worker keeps an exact model of its own committed
    writes, checked continuously by its own reads and sampled after every
    recovery. *)

type mix = A | B | C | D | E | F | Mixed | Storm
(** YCSB-shaped operation mixes (percentages read/update/insert/scan/rmw):
    A = 50/50/0/0/0, B = 95/5/0/0/0, C = 100 reads, D = 95/0/5/0/0
    (insert-fresh; the "latest" read distribution is approximated by the
    configured skew), E = 0/0/5/95/0 (scans), F = 50/0/0/0/50
    (read-modify-write), Mixed = 40/20/10/10/20 — the default, so every
    op kind appears in the report. Storm = 0/100/0/0/0: an update-only
    write storm, meant to be paired with a skewed [theta] so hot keys
    collide and the write-combining funnel engages. *)

val mix_of_string : string -> mix option
val mix_to_string : mix -> string

type config = {
  keys : int;  (** preloaded key-space size *)
  seconds : float;  (** measured wall-clock duration (excludes preload) *)
  domains : int;
  mix : mix;
  theta : float;  (** Zipf skew for key picks; <= 0 means uniform *)
  value_len : int;
  scan_len : int;
  page_size : int;
  pool_capacity : int;
  ckpt_log_bytes : int;  (** log-growth checkpoint trigger *)
  faults : bool;  (** drive the seeded fault plan + torn crash flushes *)
  crash_cycles : int;  (** mid-run crash+recover cycles, evenly spaced *)
  verify_sample : int;  (** model keys re-checked after each recovery *)
  seed : int64;
  dir : string option;
      (** directory for the page file and WAL ([None]: a fresh temp
          directory, removed when the run ends) *)
  combine : bool;
      (** hot-key write combining ([Env.config.combine]) for the run's
          environments; when on and the mix has writes, the report gains a
          [combine_reqs] SLO row asserting the funnel actually engaged *)
  slo_p99_read_ns : int;  (** point-read p99 bound *)
  slo_wal_bytes : int;  (** WAL file size bound at end of run *)
}

val default_config : config
(** 1M keys, 60s, 4 domains, Mixed, Zipf 0.99, 64-byte values, 50-record
    scans, 4 KiB pages, 8192-frame pool, 4 MiB checkpoint trigger, faults
    on, 3 crash cycles, 2000-key verify sample, temp dir, p99 read <= 50ms,
    WAL <= 64 MiB. *)

type kind_stats = {
  kind : string;
  count : int;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}
(** Latency summary for one op kind, merged across domains. *)

type slo = {
  name : string;
  cmp : string;  (** ["<="] or [">="] *)
  target : float;
  actual : float;
  ok : bool;
}

type result = {
  config : config;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
  kinds : kind_stats list;  (** op kinds with at least one sample *)
  stats : Stats.t;
      (** env and fault counters are true run deltas (they survive crash
          cycles); WAL and pool counters cover the interval since the last
          recovery (their volatile holders are rebuilt by each cycle) *)
  cycles_done : int;
  recovery_ms : float list;  (** per-cycle recovery wall time, in order *)
  torn_pages : int list;
      (** per-cycle count of pages whose durable image failed verification
          and were rebuilt from the log ([Recovery.report.torn_pages]), one
          entry per recovery that returned, in order *)
  verified_keys : int;  (** model keys checked across all verifications *)
  lost_writes : int;
      (** committed writes a read, scan-side check or post-recovery model
          check failed to observe — the headline zero-loss SLO *)
  scan_shortfalls : int;  (** scans returning fewer records than promised *)
  wellformed_failures : int;
  op_errors : int;  (** operations that raised (fault past retry budget) *)
  wal_file_bytes : int;  (** WAL file size at end of run *)
  errors : string list;  (** detail sample for failures, capped *)
  slos : slo list;
  passed : bool;  (** all SLOs ok *)
}

val env_config : config -> wal_path:string -> Pitree_env.Env.config
(** The environment configuration [run] builds for each lifetime,
    exposed so tests can assert the derived knobs — notably that the
    buffer pool's shard count is pinned to at least [2 * domains] rather
    than left to the core-count default (which collapses to one shard on
    single-CPU hosts and silently serializes every pin). *)

val run : ?log:(string -> unit) -> config -> result
(** Execute the rig: preload, checkpoint, then [config.seconds] of load
    with the adversary schedule, then final verification. [log] receives
    one-line progress messages (preload done, each crash cycle, final
    verify). *)

val to_json : result -> string
(** The [BENCH_endure.json] document: config echo, throughput, per-kind
    latency percentiles, unified [Stats] (including fault injection
    counters), crash-cycle summary and the SLO table with [passed]. *)

val pp_result : Format.formatter -> result -> unit
