(* Multi-domain stress tests: the engines must stay correct under true
   parallel execution (latches, lock manager, buffer pool, WAL all shared).
   On a single-core host these still exercise preemption interleavings. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Btc = Pitree_baseline.Bt_coupling
module Btl = Pitree_baseline.Bt_treelatch
module Rng = Pitree_util.Rng

let cfg ?(consolidation = true) () =
  {
    Env.default_config with
    page_size = 512;
    pool_capacity = 8192;
    page_oriented_undo = false;
    consolidation;
  }

let key i = Printf.sprintf "key%06d" i

let check_wf t =
  let report = Blink.verify t in
  if not (Wellformed.ok report) then
    Alcotest.failf "tree not well-formed: %a" Wellformed.pp_report report

(* Partitioned writers: each domain owns a disjoint key slice, so the final
   contents are fully deterministic even under races in the structure. *)
let test_blink_partitioned_writers () =
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let domains = 4 and per = 400 in
  let work d () =
    for i = 0 to per - 1 do
      let k = key ((d * per) + i) in
      Blink.insert t ~key:k ~value:("v" ^ k)
    done
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join hs;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "all present" (domains * per) (Blink.count t);
  for i = 0 to (domains * per) - 1 do
    match Blink.find t (key i) with
    | Some v when v = "v" ^ key i -> ()
    | _ -> Alcotest.failf "lost %s" (key i)
  done

(* Contending writers on the same keys: last write wins nondeterministically,
   but the structure must stay well-formed, keys unique, values valid. *)
let test_blink_contending_writers () =
  Seeds.with_seed "concurrency.blink.contending" @@ fun seed ->
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let domains = 4 and ops = 1200 and space = 300 in
  let work d () =
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + d))) in
    for _ = 1 to ops do
      let k = key (Rng.int rng space) in
      match Rng.int rng 3 with
      | 0 -> Blink.insert t ~key:k ~value:(Printf.sprintf "d%d" d)
      | 1 -> ignore (Blink.delete t k)
      | _ -> ignore (Blink.find t k)
    done
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join hs;
  ignore (Env.drain env);
  check_wf t;
  (* Every surviving record must carry a value some domain wrote. *)
  let n =
    Blink.range t ?low:None ?high:None ~init:0 ~f:(fun n k v ->
        if String.length v <> 2 || v.[0] <> 'd' then
          Alcotest.failf "corrupt value %S at %s" v k;
        n + 1)
  in
  Alcotest.(check bool) "cardinality sane" true (n <= space);
  (* No duplicate keys across leaves. *)
  let seen = Hashtbl.create 64 in
  ignore
    (Blink.range t ?low:None ?high:None ~init:() ~f:(fun () k _ ->
         if Hashtbl.mem seen k then Alcotest.failf "duplicate key %s" k;
         Hashtbl.replace seen k ()))

let test_blink_readers_vs_writers () =
  Seeds.with_seed "concurrency.blink.readers-vs-writers" @@ fun seed ->
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 499 do
    Blink.insert t ~key:(key i) ~value:"init"
  done;
  ignore (Env.drain env);
  let stop = Atomic.make false in
  let reader () =
    let rng = Rng.create seed in
    let reads = ref 0 in
    while not (Atomic.get stop) do
      let k = key (Rng.int rng 500) in
      (match Blink.find t k with
      | Some _ -> ()
      | None -> Alcotest.failf "reader lost pre-loaded key %s" k);
      incr reads
    done;
    !reads
  in
  let writer () =
    for i = 500 to 1499 do
      Blink.insert t ~key:(key i) ~value:"w"
    done;
    Atomic.set stop true
  in
  let r = Domain.spawn reader in
  let w = Domain.spawn writer in
  Domain.join w;
  Atomic.set stop true;
  let reads = Domain.join r in
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check bool) "reader made progress" true (reads > 0);
  Alcotest.(check int) "all data" 1500 (Blink.count t)

let test_blink_olc_storm_tight_pool () =
  (* Optimistic readers hammering a pool with almost no headroom while a
     writer churns the tree. Each abandoned attempt must drop its pins
     before retrying: a single leaked pin per restart would wedge a
     16-frame pool within seconds, surfacing as [Pool_exhausted] from
     [find] — which must never escape the optimistic ladder. *)
  Seeds.with_seed "concurrency.blink.olc-storm" @@ fun seed ->
  let env =
    Env.create { (cfg ()) with Env.pool_capacity = 16; pool_shards = Some 1 }
  in
  let t = Blink.create env ~name:"t" in
  let n = 400 in
  for i = 0 to n - 1 do
    Blink.insert t ~key:(key i) ~value:"init"
  done;
  ignore (Env.drain env);
  let stop = Atomic.make false in
  let reader d () =
    let rng = Rng.create (Int64.add seed (Int64.of_int d)) in
    let reads = ref 0 in
    while not (Atomic.get stop) do
      let k = key (Rng.int rng n) in
      (match Blink.find t k with
      | Some _ -> ()
      | None -> Alcotest.failf "reader lost pre-loaded key %s" k);
      incr reads
    done;
    !reads
  in
  let writer () =
    (* Overwrites bump versions (forcing restarts) without changing the
       key population the readers assert on. *)
    let rng = Rng.create (Int64.add seed 1000L) in
    for i = 1 to 4_000 do
      Blink.insert t ~key:(key (Rng.int rng n)) ~value:(string_of_int i)
    done;
    Atomic.set stop true
  in
  let rs = List.init 3 (fun d -> Domain.spawn (reader d)) in
  let w = Domain.spawn writer in
  Domain.join w;
  Atomic.set stop true;
  let reads = List.map Domain.join rs in
  ignore (Env.drain env);
  check_wf t;
  List.iter
    (fun r -> Alcotest.(check bool) "reader made progress" true (r > 0))
    reads;
  Alcotest.(check int) "population intact" n (Blink.count t);
  (* The pool still has its full (tiny) capacity: nothing leaked. *)
  for i = 0 to n - 1 do
    ignore (Blink.find t (key i))
  done

let test_blink_cns_parallel () =
  let env = Env.create (cfg ~consolidation:false ()) in
  let t = Blink.create env ~name:"t" in
  let domains = 3 and per = 400 in
  let work d () =
    for i = 0 to per - 1 do
      Blink.insert t ~key:(key ((d * per) + i)) ~value:"x"
    done
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join hs;
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "all present" (domains * per) (Blink.count t)

let test_coupling_parallel () =
  let env = Env.create (cfg ()) in
  let t = Btc.create env ~name:"c" in
  let domains = 4 and per = 300 in
  let work d () =
    for i = 0 to per - 1 do
      Btc.insert t ~key:(key ((d * per) + i)) ~value:"x"
    done
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join hs;
  Alcotest.(check int) "all present" (domains * per) (Btc.count t)

let test_treelatch_parallel () =
  let env = Env.create (cfg ()) in
  let t = Btl.create env ~name:"l" in
  let domains = 4 and per = 300 in
  let work d () =
    for i = 0 to per - 1 do
      Btl.insert t ~key:(key ((d * per) + i)) ~value:"x"
    done
  in
  let hs = List.init domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join hs;
  Alcotest.(check int) "all present" (domains * per) (Btl.count t)

let test_driver_smoke () =
  Seeds.with_seed "concurrency.driver.smoke" @@ fun seed ->
  (* The benchmark driver end to end on a small mixed workload. *)
  let env = Env.create (cfg ()) in
  let t = Blink.create env ~name:"t" in
  let inst = Pitree_blink.Blink_engine.inst t in
  let spec =
    Pitree_harness.Workload.spec ~key_space:500 ~read_pct:60 ~insert_pct:30
      ~delete_pct:10 ~dist:(Pitree_harness.Workload.Zipf 0.9) ()
  in
  Pitree_harness.Driver.preload inst spec ~n:200;
  let r = Pitree_harness.Driver.run ~domains:2 ~ops_per_domain:500 ~seed inst spec in
  ignore (Env.drain env);
  check_wf t;
  Alcotest.(check int) "ops counted" 1000 r.Pitree_harness.Driver.total_ops;
  Alcotest.(check bool) "throughput positive" true (r.Pitree_harness.Driver.ops_per_s > 0.0)

let suites =
  [
    ( "concurrency.blink",
      [
        Alcotest.test_case "partitioned writers" `Slow test_blink_partitioned_writers;
        Alcotest.test_case "contending writers" `Slow test_blink_contending_writers;
        Alcotest.test_case "readers vs writers" `Slow test_blink_readers_vs_writers;
        Alcotest.test_case "olc storm at tight pool" `Slow
          test_blink_olc_storm_tight_pool;
        Alcotest.test_case "CNS parallel" `Slow test_blink_cns_parallel;
      ] );
    ( "concurrency.baselines",
      [
        Alcotest.test_case "coupling parallel" `Slow test_coupling_parallel;
        Alcotest.test_case "treelatch parallel" `Slow test_treelatch_parallel;
      ] );
    ( "concurrency.driver",
      [ Alcotest.test_case "driver smoke" `Slow test_driver_smoke ] );
  ]
