(** Multi-domain benchmark driver.

    Spawns worker domains that each execute a fixed number of workload
    operations against one engine instance, measuring wall-clock throughput
    and per-operation latency (merged histogram). This is the engine room
    of experiments E1-E4. *)

type result = {
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  stats : Stats.t option;
      (** present when [run] was given the environment: WAL, buffer-pool
          and env counters as deltas across the run (see {!Stats.delta}
          for which fields stay cumulative) *)
}

val pp_result : Format.formatter -> result -> unit

val preload : Pitree_core.Engine.instance -> Workload.spec -> n:int -> unit
(** Insert keys 0..n-1 (of the spec's canonical encoding) so measurements
    run against a warm tree. *)

val run :
  ?env:Pitree_env.Env.t ->
  ?faults:Pitree_storage.Disk.Faulty.ctl ->
  domains:int ->
  ops_per_domain:int ->
  seed:int64 ->
  Pitree_core.Engine.instance ->
  Workload.spec ->
  result
(** Pass [?env] to capture a {!Stats.t} delta (WAL group-commit counters,
    buffer-pool hit/eviction/miss-wait, checkpoint activity) alongside
    throughput; add [?faults] (the env disk's [Faulty.ctl]) to include
    injected-fault counters in the delta. *)
