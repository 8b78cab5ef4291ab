(* pitree: a small CLI for poking at the Pi-tree engines.

   The environments here are in-memory (the disk substrate is crash-faithful
   rather than file-persistent by default), so each invocation builds its
   own database; commands are demonstrations and smoke tools:

     pitree demo                    # load, query, crash, recover, verify
     pitree load -n 50000           # bulk load + verify + stats
     pitree crash-test -p POINT     # inject a crash at a named point
     pitree workload --domains 4    # mixed workload throughput
     pitree dump -n 50              # print a small tree's structure
     pitree chaos --seed 42         # crash-sweep + randomized fault runs
     pitree persist --dir DIR       # file-backed DB; --reopen recovers it
                                    # in a fresh process *)

open Cmdliner

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Crash_point = Pitree_util.Crash_point
module Workload = Pitree_harness.Workload
module Driver = Pitree_harness.Driver

let mk_env page_size consolidation page_oriented_undo =
  Env.create
    {
      Env.default_config with
      page_size;
      pool_capacity = 65536;
      page_oriented_undo;
      consolidation;
    }

let key i = Printf.sprintf "key%08d" i

let print_stats t =
  let s = Blink.stats t in
  Printf.printf
    "stats: inserts=%d searches=%d leaf_splits=%d index_splits=%d \
     root_splits=%d side_traversals=%d postings=%d/%d consolidations=%d\n"
    s.Blink.inserts s.Blink.searches s.Blink.leaf_splits s.Blink.index_splits
    s.Blink.root_splits s.Blink.side_traversals s.Blink.postings_completed
    s.Blink.postings_scheduled s.Blink.consolidations

let verify_and_report t =
  let report = Blink.verify t in
  Format.printf "%a@." Wellformed.pp_report report;
  if Wellformed.ok report then 0 else 1

(* --- demo --- *)

let demo () =
  let env = mk_env 512 true false in
  let t = Blink.create env ~name:"demo" in
  Printf.printf "loading 10000 records...\n%!";
  for i = 0 to 9_999 do
    Blink.insert t ~key:(key i) ~value:(Printf.sprintf "value-%d" i)
  done;
  ignore (Env.drain env);
  Printf.printf "height=%d nodes=%d count=%d\n" (Blink.height t)
    (Blink.node_count t) (Blink.count t);
  Printf.printf "find key00004242 -> %s\n"
    (Option.value (Blink.find t "key00004242") ~default:"<missing>");
  Printf.printf "simulating power failure...\n%!";
  Env.crash env;
  let report = Env.recover env in
  Format.printf "%a@." Pitree_wal.Recovery.pp_report report;
  let t = Option.get (Blink.open_existing env ~name:"demo") in
  Printf.printf "after recovery: count=%d find key00004242 -> %s\n"
    (Blink.count t)
    (Option.value (Blink.find t "key00004242") ~default:"<missing>");
  print_stats t;
  verify_and_report t

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Load, query, crash, recover, verify.")
    Term.(const demo $ const ())

(* --- load --- *)

let load n page_size consolidation =
  let env = mk_env page_size consolidation false in
  let t = Blink.create env ~name:"t" in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:(Printf.sprintf "v%d" i)
  done;
  ignore (Env.drain env);
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "loaded %d records in %.2fs (%.0f/s); height=%d nodes=%d\n" n dt
    (float_of_int n /. dt) (Blink.height t) (Blink.node_count t);
  print_stats t;
  verify_and_report t

let n_arg =
  Arg.(value & opt int 50_000 & info [ "n" ] ~docv:"N" ~doc:"Records to load.")

let page_arg =
  Arg.(value & opt int 4096 & info [ "page-size" ] ~docv:"BYTES" ~doc:"Page size.")

let consolidation_arg =
  Arg.(value & opt bool true & info [ "consolidation" ] ~doc:"CP vs CNS invariant.")

let load_cmd =
  Cmd.v (Cmd.info "load" ~doc:"Bulk load a B-link Pi-tree; verify and print stats.")
    Term.(const load $ n_arg $ page_arg $ consolidation_arg)

(* --- crash-test --- *)

let crash_test point after n =
  Crash_point.disarm_all ();
  (* The aggressive log-bytes trigger makes the ckpt.* points reachable:
     fuzzy checkpoints fire on the committing thread during the insert
     loop below, exactly as in the chaos harness. *)
  let env =
    Env.create
      {
        Env.default_config with
        page_size = 512;
        pool_capacity = 65536;
        ckpt_log_bytes = Some 65_536;
      }
  in
  let t = Blink.create env ~name:"t" in
  Crash_point.arm point ~after;
  let crashed = ref false in
  (try
     for i = 0 to n - 1 do
       Blink.insert t ~key:(key i) ~value:"v"
     done
   with Crash_point.Crash_requested p ->
     crashed := true;
     Printf.printf "crashed at %s\n" p);
  Crash_point.disarm_all ();
  if not !crashed then Printf.printf "point %S never fired\n" point;
  Env.crash env;
  let report = Env.recover env in
  Format.printf "%a@." Pitree_wal.Recovery.pp_report report;
  let t = Option.get (Blink.open_existing env ~name:"t") in
  Printf.printf "recovered: count=%d\n" (Blink.count t);
  verify_and_report t

let point_arg =
  Arg.(
    value
    & opt string "blink.split.committed"
    & info [ "p"; "point" ] ~docv:"POINT"
        ~doc:
          "Crash point: blink.split.linked, blink.split.committed, \
           blink.root.grown, blink.post.latched, blink.post.updated, \
           blink.post.done, blink.consolidate.linked, combine.applied, \
           ckpt.begin.logged, ckpt.end.logged, ckpt.truncated.")

let after_arg =
  Arg.(value & opt int 3 & info [ "after" ] ~doc:"Fire on the (N+1)-th hit.")

let crash_cmd =
  Cmd.v
    (Cmd.info "crash-test" ~doc:"Inject a crash at a named structure-change point.")
    Term.(const crash_test $ point_arg $ after_arg $ n_arg)

(* --- workload --- *)

let workload domains ops reads inserts deletes zipf no_combine =
  let env =
    Env.create
      {
        Env.default_config with
        page_size = 1024;
        pool_capacity = 65536;
        combine = not no_combine;
      }
  in
  let t = Blink.create env ~name:"t" in
  let inst = Pitree_blink.Blink_engine.inst t in
  let dist = if zipf > 0.0 then Workload.Zipf zipf else Workload.Uniform in
  let spec =
    Workload.spec ~key_space:100_000 ~read_pct:reads ~insert_pct:inserts
      ~delete_pct:deletes ~dist ()
  in
  Driver.preload inst spec ~n:20_000;
  ignore (Env.drain env);
  let r =
    Driver.run ~env ~domains ~ops_per_domain:(ops / domains) ~seed:1L inst spec
  in
  Format.printf "%a@." Driver.pp_result r;
  verify_and_report t

let domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~doc:"Worker domains.")

let ops_arg = Arg.(value & opt int 40_000 & info [ "ops" ] ~doc:"Total operations.")
let reads_arg = Arg.(value & opt int 70 & info [ "reads" ] ~doc:"Read percent.")
let inserts_arg = Arg.(value & opt int 20 & info [ "inserts" ] ~doc:"Insert percent.")
let deletes_arg = Arg.(value & opt int 10 & info [ "deletes" ] ~doc:"Delete percent.")
let zipf_arg = Arg.(value & opt float 0.9 & info [ "zipf" ] ~doc:"Zipf theta (0 = uniform).")

let w_no_combine_arg =
  Arg.(value & flag & info [ "no-combine" ]
       ~doc:"Disable hot-key write combining (one descent per write).")

let workload_cmd =
  Cmd.v (Cmd.info "workload" ~doc:"Run a mixed workload across domains.")
    Term.(
      const workload $ domains_arg $ ops_arg $ reads_arg $ inserts_arg
      $ deletes_arg $ zipf_arg $ w_no_combine_arg)

(* --- dump --- *)

let dump n =
  let env = mk_env 256 true false in
  let t = Blink.create env ~name:"t" in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  ignore (Env.drain env);
  Blink.dump t Format.std_formatter;
  Format.print_newline ();
  0

let dump_n_arg =
  Arg.(value & opt int 40 & info [ "n" ] ~doc:"Records (keep small: prints the tree).")

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"Print a small tree's node structure.")
    Term.(const dump $ dump_n_arg)

(* --- chaos --- *)

let chaos seed iters ops sweep_only quiet =
  let trace = if quiet then fun _ -> () else print_endline in
  let module Chaos = Pitree_harness.Chaos in
  let sweep_summary = Chaos.sweep ~trace ~ops () in
  Format.printf "%a@." Chaos.pp_summary sweep_summary;
  let random_summary =
    if sweep_only then None
    else begin
      let s = Chaos.random_runs ~trace ~ops ~iters ~seed:(Int64.of_int seed) () in
      Format.printf "%a@." Chaos.pp_summary s;
      Some s
    end
  in
  if Chaos.ok sweep_summary && Option.fold ~none:true ~some:Chaos.ok random_summary
  then 0
  else 1

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed for the randomized runs.")

let iters_arg =
  Arg.(value & opt int 25 & info [ "iters" ] ~docv:"N" ~doc:"Randomized runs after the deterministic sweep.")

let chaos_ops_arg =
  Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Workload operations per run.")

let sweep_only_arg =
  Arg.(value & flag & info [ "sweep" ] ~doc:"Deterministic sweep only; skip the randomized runs.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the per-run trace lines.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Crash-sweep every registered crash point across all engines, then \
          randomized crash x fault-plan runs (torn writes, transient errors, \
          bit flips); exits non-zero if any run fails recovery checks. Each \
          trace line carries the (point, after, seed, plan) tuple that \
          reproduces the run.")
    Term.(const chaos $ seed_arg $ iters_arg $ chaos_ops_arg $ sweep_only_arg $ quiet_arg)

(* --- persist --- *)

let persist dir n reopen =
  let pages = Filename.concat dir "pages.db" in
  let wal = Filename.concat dir "wal.log" in
  let cfg =
    { Env.default_config with page_size = 4096; pool_capacity = 65536; page_oriented_undo = false; consolidation = true }
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  if reopen then begin
    let env =
      Env.open_from ~disk:(Pitree_storage.Disk.file ~page_size:4096 ~path:pages)
        { cfg with Env.log_path = Some wal }
    in
    let report = Env.recover env in
    Format.printf "%a@." Pitree_wal.Recovery.pp_report report;
    match Blink.open_existing env ~name:"t" with
    | None ->
        print_endline "no tree found (run without --reopen first)";
        1
    | Some t ->
        Printf.printf "reopened: count=%d height=%d
" (Blink.count t) (Blink.height t);
        let rc = verify_and_report t in
        Env.close env;
        rc
  end
  else begin
    let env =
      Env.create ~disk:(Pitree_storage.Disk.file ~page_size:4096 ~path:pages)
        { cfg with Env.log_path = Some wal }
    in
    let t = Blink.create env ~name:"t" in
    for i = 0 to n - 1 do
      Blink.insert t ~key:(key i) ~value:(Printf.sprintf "v%d" i)
    done;
    ignore (Env.drain env);
    Printf.printf "persisted %d records under %s (rerun with --reopen)
" n dir;
    Env.close env;
    0
  end

let dir_arg =
  Arg.(value & opt string "/tmp/pitree-db" & info [ "dir" ] ~docv:"DIR" ~doc:"Database directory.")

let reopen_arg =
  Arg.(value & flag & info [ "reopen" ] ~doc:"Reopen an existing database instead of creating one.")

let persist_n_arg =
  Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Records to load on create.")

let persist_cmd =
  Cmd.v
    (Cmd.info "persist"
       ~doc:"Create a file-backed database, or --reopen one from a previous run (cross-process recovery).")
    Term.(const persist $ dir_arg $ persist_n_arg $ reopen_arg)

(* --- sim --- *)

let sim engine threads ops keys preload seed walks systematic depth preemptions
    max_schedules consolidation no_olc combine no_combine del_heavy si bug
    expect_bug replay_s quiet =
  let module Scenario = Pitree_sim.Scenario in
  let module Sim = Pitree_sim.Sim in
  let module Mvcc = Pitree_txn.Mvcc in
  (* SI protocol bugs select the snapshot-isolation scenario (and with it
     the TSB engine); structure bugs stay on the blink injection arm. *)
  let mvcc_bug, bug =
    match Mvcc.Testing.of_name bug with
    | Some b -> (b, Blink.Testing.No_bug)
    | None -> (
        ( Mvcc.Testing.No_bug,
          match bug with
          | "none" -> Blink.Testing.No_bug
          | "early-unlatch" -> Blink.Testing.Early_unlatch_split
          | "early-unlatch-merge" -> Blink.Testing.Early_unlatch_merge
          | "bad-post-sep" -> Blink.Testing.Bad_post_sep
          | "no-version-bump" -> Blink.Testing.No_version_bump
          | "ack-before-durable" -> Blink.Testing.Ack_before_durable
          | _ ->
              failwith
                "unknown bug \
                 (none|early-unlatch|early-unlatch-merge|bad-post-sep|no-version-bump|ack-before-durable|stale-snapshot-read|lost-first-committer)"
        ))
  in
  let si = si || mvcc_bug <> Mvcc.Testing.No_bug in
  let engine = if si then "tsb" else engine in
  let engine =
    match Scenario.engine_of_string engine with
    | Some e -> e
    | None -> failwith "unknown engine (blink|tsb|hb)"
  in
  (* [No_version_bump] only misbehaves where a stale node can be acted
     on, i.e. under CP de-allocation: force consolidation on — as does
     [Early_unlatch_merge], which lives inside the consolidation action.
     Likewise [Ack_before_durable] lives in the combining layer: force it
     on. *)
  let consolidation =
    consolidation
    || bug = Blink.Testing.No_version_bump
    || bug = Blink.Testing.Early_unlatch_merge
  in
  let combine =
    (combine || bug = Blink.Testing.Ack_before_durable) && not no_combine
  in
  let cfg =
    {
      Scenario.default with
      Scenario.engine;
      threads;
      ops_per_thread = ops;
      key_space = keys;
      preload;
      seed;
      consolidation;
      olc = not no_olc;
      combine;
      del_heavy;
      bug;
      si;
      mvcc_bug;
    }
  in
  let say fmt =
    if quiet then Format.ifprintf Format.std_formatter fmt
    else Format.printf fmt
  in
  let report_failure what (r : Scenario.report) sched =
    Format.printf "%s FOUND a failing schedule@." what;
    Format.printf "  %a@." Scenario.pp_report r;
    let minimized = Scenario.minimize cfg sched in
    Format.printf
      "  replay: pitree sim --engine %s --threads %d --ops %d --keys %d \
       --preload %d --seed %Ld %s--replay '%s'@."
      (Scenario.engine_to_string engine)
      threads ops keys preload seed
      ((if consolidation then "--consolidation " else "")
      ^ (if no_olc then "--no-olc " else "")
      ^ (if combine then "--combine " else "")
      ^ (if del_heavy then "--del-heavy " else "")
      ^ (if si && mvcc_bug = Mvcc.Testing.No_bug then "--si " else "")
      ^ (match mvcc_bug with
        | Mvcc.Testing.No_bug -> ""
        | Mvcc.Testing.Stale_snapshot_read -> "--bug stale-snapshot-read "
        | Mvcc.Testing.Lost_first_committer -> "--bug lost-first-committer ")
      ^
      match bug with
      | Blink.Testing.No_bug -> ""
      | Blink.Testing.Early_unlatch_split -> "--bug early-unlatch "
      | Blink.Testing.Early_unlatch_merge -> "--bug early-unlatch-merge "
      | Blink.Testing.Bad_post_sep -> "--bug bad-post-sep "
      | Blink.Testing.No_version_bump -> "--bug no-version-bump "
      | Blink.Testing.Ack_before_durable -> "--bug ack-before-durable ")
      (Sim.schedule_to_string minimized)
  in
  let found = ref false in
  (match replay_s with
  | Some s ->
      let sched = Sim.schedule_of_string s in
      let r = Scenario.replay cfg sched in
      Format.printf "replay: %a@." Scenario.pp_report r;
      if Scenario.failed r then found := true
  | None ->
      if systematic then begin
        let stats, failing =
          Scenario.systematic ~max_preemptions:preemptions ~branch_depth:depth
            ~max_schedules cfg
        in
        say "systematic: %d schedules run, %d branches pruned@."
          stats.Sim.schedules_run stats.Sim.pruned;
        match failing with
        | Some (prefix, r) ->
            found := true;
            report_failure "systematic" r
              (match (Scenario.outcome_of r).Sim.failure with
              | Some _ -> r.Scenario.outcome.Sim.schedule
              | None -> prefix)
        | None -> ()
      end;
      if (not !found) && walks > 0 then begin
        let done_, failing = Scenario.random_walks cfg ~walks ~seed in
        say "random walks: %d run@." done_;
        match failing with
        | Some (wseed, r) ->
            found := true;
            Format.printf "walk seed %Ld failed@." wseed;
            report_failure "random walk" r r.Scenario.outcome.Sim.schedule
        | None -> ()
      end);
  if expect_bug then
    if !found then begin
      say "expected bug caught by the oracle@.";
      0
    end
    else begin
      Format.printf "EXPECTED a failure but every schedule passed@.";
      1
    end
  else if !found then 1
  else begin
    say "all schedules passed (linearizable, well-formed)@.";
    0
  end

let sim_engine_arg =
  Arg.(value & opt string "blink" & info [ "engine" ] ~docv:"ENGINE" ~doc:"blink, tsb or hb.")

let sim_threads_arg =
  Arg.(value & opt int 3 & info [ "threads" ] ~doc:"Logical threads (fibers).")

let sim_ops_arg =
  Arg.(value & opt int 4 & info [ "ops" ] ~doc:"Operations per thread.")

let sim_keys_arg =
  Arg.(value & opt int 24 & info [ "keys" ] ~doc:"Distinct keys in the op stream.")

let sim_preload_arg =
  Arg.(value & opt int 8 & info [ "preload" ] ~doc:"Keys inserted before the run.")

let sim_seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Op-stream and walk master seed.")

let sim_walks_arg =
  Arg.(value & opt int 200 & info [ "walks" ] ~doc:"Random-walk schedules to try.")

let sim_systematic_arg =
  Arg.(value & flag & info [ "systematic" ] ~doc:"Run the preemption-bounded DFS first.")

let sim_depth_arg =
  Arg.(value & opt int 6 & info [ "depth" ] ~doc:"Systematic branch depth (decisions).")

let sim_preemptions_arg =
  Arg.(value & opt int 2 & info [ "preemptions" ] ~doc:"Systematic preemption bound.")

let sim_max_schedules_arg =
  Arg.(value & opt int 2000 & info [ "max-schedules" ] ~doc:"Systematic schedule cap.")

let sim_consolidation_arg =
  Arg.(value & flag & info [ "consolidation" ]
         ~doc:"Run under the CP invariant (node consolidation/de-allocation enabled).")

let sim_no_olc_arg =
  Arg.(value & flag & info [ "no-olc" ]
         ~doc:"Disable optimistic latch-free reads (always-latched descent).")

let sim_combine_arg =
  Arg.(value & flag & info [ "combine" ]
         ~doc:"Enable hot-key write combining (off by default in the \
               simulator so the un-combined protocol keeps its compact \
               schedule space; implied by --bug ack-before-durable).")

let sim_no_combine_arg =
  Arg.(value & flag & info [ "no-combine" ]
         ~doc:"Force write combining off (overrides --combine; accepted \
               for flag symmetry with workload/endure).")

let sim_del_heavy_arg =
  Arg.(value & flag & info [ "del-heavy" ]
         ~doc:"Skew the op mix to 50% deletes so leaves drain below the \
               consolidation threshold and merge/free actions run \
               mid-schedule (pair with --consolidation).")

let sim_si_arg =
  Arg.(value & flag & info [ "si" ]
         ~doc:"Run snapshot-isolation transactions (TSB engine forced): \
               each fiber executes a sequence of SI transactions judged \
               by the SI oracle (consistent-cut reads, \
               first-committer-wins) instead of single linearizable ops.")

let sim_bug_arg =
  Arg.(value & opt string "none" & info [ "bug" ] ~docv:"BUG"
         ~doc:"Inject a protocol bug: none, early-unlatch, \
               early-unlatch-merge, bad-post-sep, no-version-bump or \
               ack-before-durable (blink only; no-version-bump and \
               early-unlatch-merge imply --consolidation, \
               ack-before-durable implies --combine), or an SI protocol \
               bug: stale-snapshot-read or lost-first-committer (imply \
               --si).")

let sim_expect_bug_arg =
  Arg.(value & flag & info [ "expect-bug" ]
         ~doc:"Exit 0 iff a failing schedule IS found (oracle validation).")

let sim_replay_arg =
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"SCHEDULE"
         ~doc:"Replay a comma-separated decision list instead of exploring.")

let sim_quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only report failures.")

let sim_cmd =
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Deterministic schedule exploration: run N logical threads over a \
          tree under controlled interleavings (seeded random walks and/or \
          preemption-bounded systematic search), checking linearizability \
          against a map model and well-formedness at quiesced yield points. \
          Failures print a minimized, replayable schedule.")
    Term.(
      const sim $ sim_engine_arg $ sim_threads_arg $ sim_ops_arg $ sim_keys_arg
      $ sim_preload_arg $ sim_seed_arg $ sim_walks_arg $ sim_systematic_arg
      $ sim_depth_arg $ sim_preemptions_arg $ sim_max_schedules_arg
      $ sim_consolidation_arg $ sim_no_olc_arg $ sim_combine_arg
      $ sim_no_combine_arg $ sim_del_heavy_arg $ sim_si_arg $ sim_bug_arg
      $ sim_expect_bug_arg $ sim_replay_arg $ sim_quiet_arg)

(* --- endure --- *)

let endure keys seconds domains mix theta value_len scan_len pool ckpt_kb
    faults cycles sample seed dir out quiet no_combine slo_p99_ms slo_wal_mb =
  let module Endure = Pitree_harness.Endure in
  match Endure.mix_of_string mix with
  | None ->
      Printf.eprintf "endure: unknown mix %S (A..F, mixed or storm)\n" mix;
      2
  | Some mix ->
      let faults =
        match String.lowercase_ascii faults with
        | "on" | "true" | "1" -> true
        | _ -> false
      in
      let cfg =
        {
          Endure.default_config with
          Endure.keys;
          seconds;
          domains;
          mix;
          theta;
          value_len;
          scan_len;
          pool_capacity = pool;
          ckpt_log_bytes = ckpt_kb * 1024;
          faults;
          crash_cycles = cycles;
          verify_sample = sample;
          seed = Int64.of_int seed;
          dir;
          combine = not no_combine;
          slo_p99_read_ns = slo_p99_ms * 1_000_000;
          slo_wal_bytes = slo_wal_mb * 1024 * 1024;
        }
      in
      let log =
        if quiet then fun s ->
          (* Quiet suppresses progress, not autopsies: on verification
             failure the forensic dump is the only diagnostic artifact. *)
          (if String.length s >= 9 && String.sub s 0 9 = "FORENSICS" then
             Printf.eprintf "endure: %s\n%!" s)
        else fun s -> Printf.printf "endure: %s\n%!" s
      in
      let r = Endure.run ~log cfg in
      let oc = open_out out in
      output_string oc (Endure.to_json r);
      close_out oc;
      if not quiet then Format.printf "%a@." Endure.pp_result r;
      Printf.printf "wrote %s\n%!" out;
      if r.Endure.passed then 0 else 1

let e_keys_arg =
  Arg.(value & opt int 1_000_000 & info [ "keys" ] ~doc:"Preloaded key-space size.")

let e_seconds_arg =
  Arg.(value & opt float 60. & info [ "seconds" ] ~doc:"Measured run duration.")

let e_domains_arg =
  Arg.(value & opt int 4 & info [ "domains" ] ~doc:"Worker domains.")

let e_mix_arg =
  Arg.(value & opt string "mixed"
       & info [ "mix" ] ~doc:"YCSB-shaped mix: A..F, mixed, or storm (update-only skewed write storm).")

let e_theta_arg =
  Arg.(value & opt float 0.99 & info [ "theta" ] ~doc:"Zipf theta (<=0 = uniform).")

let e_value_len_arg =
  Arg.(value & opt int 64 & info [ "value-len" ] ~doc:"Value bytes.")

let e_scan_len_arg =
  Arg.(value & opt int 50 & info [ "scan-len" ] ~doc:"Records per scan op.")

let e_pool_arg =
  Arg.(value & opt int 8192 & info [ "pool" ] ~doc:"Buffer-pool frames.")

let e_ckpt_kb_arg =
  Arg.(value & opt int 4096
       & info [ "ckpt-kb" ] ~doc:"Checkpoint after this much log growth (KiB).")

let e_faults_arg =
  Arg.(value & opt string "on" & info [ "faults" ] ~doc:"Fault injection: on|off.")

let e_cycles_arg =
  Arg.(value & opt int 3 & info [ "cycles" ] ~doc:"Mid-run crash+recover cycles.")

let e_sample_arg =
  Arg.(value & opt int 2000
       & info [ "sample" ] ~doc:"Model keys re-verified per recovery.")

let e_seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let e_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Directory for the page file and WAL (default: fresh temp \
                 dir, removed afterwards).")

let e_out_arg =
  Arg.(value & opt string "BENCH_endure.json"
       & info [ "out" ] ~doc:"Where to write the JSON report.")

let e_quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only write the JSON report.")

let e_no_combine_arg =
  Arg.(value & flag & info [ "no-combine" ]
       ~doc:"Disable hot-key write combining (one descent per write).")

let e_slo_p99_arg =
  Arg.(value & opt int 50
       & info [ "slo-p99-read-ms" ] ~doc:"SLO: point-read p99 bound (ms).")

let e_slo_wal_arg =
  Arg.(value & opt int 64
       & info [ "slo-wal-mb" ] ~doc:"SLO: WAL file size bound (MiB).")

let endure_cmd =
  Cmd.v
    (Cmd.info "endure"
       ~doc:
         "Endurance rig: YCSB-shaped mixes against a file-backed database \
          under fault injection, automatic checkpointing with log \
          truncation, and mid-run crash+recover cycles — gated by SLOs \
          (zero lost committed writes, complete scans, well-formedness, \
          p99 point-read and WAL-size bounds). Exits 0 iff every SLO \
          passes.")
    Term.(
      const endure $ e_keys_arg $ e_seconds_arg $ e_domains_arg $ e_mix_arg
      $ e_theta_arg $ e_value_len_arg $ e_scan_len_arg $ e_pool_arg
      $ e_ckpt_kb_arg $ e_faults_arg $ e_cycles_arg $ e_sample_arg
      $ e_seed_arg $ e_dir_arg $ e_out_arg $ e_quiet_arg $ e_no_combine_arg
      $ e_slo_p99_arg $ e_slo_wal_arg)

(* ---------- churn ---------- *)

let churn cycles keys band value_len page_size pool out quiet =
  let module Churn = Pitree_harness.Churn in
  let cfg =
    {
      Churn.cycles;
      keys;
      band;
      value_bytes = value_len;
      page_size;
      pool_capacity = pool;
    }
  in
  let log =
    if quiet then fun _ -> () else fun s -> Printf.printf "%s\n%!" s
  in
  let r = Churn.run ~log cfg in
  let oc = open_out out in
  output_string oc (Churn.to_json cfg r);
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  if r.Churn.passed then 0 else 1

let ch_cycles_arg =
  Arg.(value & opt int 1_000_000
       & info [ "cycles" ] ~doc:"Insert/delete pairs per engine.")

let ch_keys_arg =
  Arg.(value & opt int 4_096 & info [ "keys" ] ~doc:"Fixed key population.")

let ch_band_arg =
  Arg.(value & opt int 256
       & info [ "band" ] ~doc:"Contiguous keys deleted and re-inserted per \
                               rotation.")

let ch_value_len_arg =
  Arg.(value & opt int 16 & info [ "value-len" ] ~doc:"Value bytes.")

let ch_page_size_arg =
  Arg.(value & opt int 512 & info [ "page-size" ] ~doc:"Page size in bytes.")

let ch_pool_arg =
  Arg.(value & opt int 4096 & info [ "pool" ] ~doc:"Buffer-pool frames.")

let ch_out_arg =
  Arg.(value & opt string "BENCH_churn.json"
       & info [ "out" ] ~doc:"Where to write the JSON report.")

let ch_quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only write the JSON report.")

let churn_cmd =
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Churn rig: alternating insert/delete cycles over all three \
          engines. Band deletes empty whole leaves, online merges push \
          their pages onto the free list, and the re-insert splits must be \
          served off it — gated on a bounded file (final extent within \
          1.5x the live-page high-water mark) and on the free list serving \
          at least 80% of steady-state allocations. Exits 0 iff every \
          engine passes both gates well-formed.")
    Term.(
      const churn $ ch_cycles_arg $ ch_keys_arg $ ch_band_arg
      $ ch_value_len_arg $ ch_page_size_arg $ ch_pool_arg $ ch_out_arg
      $ ch_quiet_arg)

let main =
  Cmd.group
    (Cmd.info "pitree" ~version:"1.0.0"
       ~doc:"Pi-tree index structures with concurrency and recovery (Lomet & Salzberg, SIGMOD 1992).")
    [ demo_cmd; load_cmd; crash_cmd; workload_cmd; dump_cmd; chaos_cmd; persist_cmd; sim_cmd; endure_cmd; churn_cmd ]

let () = exit (Cmd.eval' main)
