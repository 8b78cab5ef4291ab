(* Churn rig: alternating insert/delete cycles that prove node deletion
   and online merge keep the file bounded.

   A fixed key population is churned by a rotating band: delete [band]
   contiguous keys (emptying whole leaves, so consolidation merges them
   away and pushes their pages onto the free list), then re-insert the
   same band (the splits this forces must be served by popping the free
   list, not by extending the file). Each delete+re-insert pair counts
   as one cycle. The tsb engine additionally expires and collects
   between the delete and re-insert halves of every band, so history
   chains drain and tombstones purge instead of accumulating.

   Two gates make "bounded" concrete, per engine:
   - extent: the file's final page count is at most [extent_gate] times
     the steady-state high-water mark of live pages (extent minus free
     list) observed during the measured phase;
   - reuse: at least [reuse_gate] of post-warmup allocations were served
     by the free list.
   Warm-up is the initial population plus one full rotation, so the gates
   judge the steady state, not the growth phase. *)

module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Tsb = Pitree_tsb.Tsb
module Hb = Pitree_hb.Hb
module Wellformed = Pitree_core.Wellformed
module Engine = Pitree_core.Engine

type config = {
  cycles : int;  (** insert/delete pairs per engine *)
  keys : int;  (** fixed key population *)
  band : int;  (** contiguous keys deleted/re-inserted per rotation *)
  value_bytes : int;
  page_size : int;
  pool_capacity : int;
}

let default_config =
  {
    cycles = 1_000_000;
    keys = 4_096;
    band = 256;
    value_bytes = 16;
    page_size = 512;
    pool_capacity = 4_096;
  }

let extent_gate = 1.5
let reuse_gate = 0.8

type run = {
  r_engine : string;
  r_cycles : int;
  r_elapsed_s : float;
  r_cycles_per_s : float;
  r_used_hwm : int;  (** high-water mark of extent - free-list length *)
  r_extent_hwm : int;
  r_extent_final : int;
  r_free_final : int;
  r_post_allocated : int;  (** allocations after warm-up *)
  r_post_reused : int;  (** of which served by the free list *)
  r_reuse_ratio : float;
  r_pages_freed : int;
  r_extent_ratio : float;  (** extent_final / used_hwm *)
  r_bounded : bool;
  r_reuse_ok : bool;
  r_well_formed : bool;
}

type result = { runs : run list; passed : bool }

let ok r = r.r_bounded && r.r_reuse_ok && r.r_well_formed

(* One engine's churn run. [mk] builds the tree and returns the uniform
   engine instance plus the engine's between-halves pulse (tsb's
   expire-and-collect; a no-op elsewhere) and its verifier. *)
let run_one ~cfg ~engine ~(mk : Env.t -> Engine.instance * (unit -> unit) * (unit -> bool)) =
  let env =
    Env.create
      {
        Env.default_config with
        page_size = cfg.page_size;
        pool_capacity = cfg.pool_capacity;
        consolidation = true;
      }
  in
  Fun.protect ~finally:(fun () -> try Env.close env with _ -> ())
  @@ fun () ->
  let inst, pulse, verify = mk env in
  let key i = Printf.sprintf "ck%07d" (i mod cfg.keys) in
  let value = String.make cfg.value_bytes 'v' in
  let rotate start =
    for i = start to start + cfg.band - 1 do
      ignore (Engine.delete inst (key i) : bool)
    done;
    pulse ();
    for i = start to start + cfg.band - 1 do
      Engine.insert inst ~key:(key i) ~value
    done
  in
  for i = 0 to cfg.keys - 1 do
    Engine.insert inst ~key:(key i) ~value
  done;
  ignore (Env.drain env);
  (* warm-up: one full rotation reaches the churned steady state *)
  let pos = ref 0 in
  let turned = ref 0 in
  while !turned < cfg.keys do
    rotate !pos;
    pos := (!pos + cfg.band) mod cfg.keys;
    turned := !turned + cfg.band
  done;
  ignore (Env.drain env);
  let s0 = Env.stats env in
  let used () = Env.allocated_extent env - Env.free_list_length env in
  let used_hwm = ref (used ()) in
  let extent_hwm = ref (Env.allocated_extent env) in
  let t0 = Unix.gettimeofday () in
  let done_ = ref 0 in
  while !done_ < cfg.cycles do
    rotate !pos;
    pos := (!pos + cfg.band) mod cfg.keys;
    done_ := !done_ + cfg.band;
    let u = used () and e = Env.allocated_extent env in
    if u > !used_hwm then used_hwm := u;
    if e > !extent_hwm then extent_hwm := e
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Env.drain env);
  let s1 = Env.stats env in
  let post_allocated = s1.Env.pages_allocated - s0.Env.pages_allocated in
  let post_reused = s1.Env.pages_reused - s0.Env.pages_reused in
  let reuse_ratio =
    if post_allocated = 0 then 0.0
    else float_of_int post_reused /. float_of_int post_allocated
  in
  let extent_final = Env.allocated_extent env in
  let extent_ratio =
    if !used_hwm = 0 then Float.infinity
    else float_of_int extent_final /. float_of_int !used_hwm
  in
  {
    r_engine = engine;
    r_cycles = !done_;
    r_elapsed_s = elapsed;
    r_cycles_per_s = float_of_int !done_ /. elapsed;
    r_used_hwm = !used_hwm;
    r_extent_hwm = !extent_hwm;
    r_extent_final = extent_final;
    r_free_final = Env.free_list_length env;
    r_post_allocated = post_allocated;
    r_post_reused = post_reused;
    r_reuse_ratio = reuse_ratio;
    r_pages_freed = s1.Env.pages_freed;
    r_extent_ratio = extent_ratio;
    r_bounded = float_of_int extent_final <= extent_gate *. float_of_int !used_hwm;
    r_reuse_ok = reuse_ratio >= reuse_gate;
    r_well_formed = verify ();
  }

let run ?(log = fun _ -> ()) cfg =
  let one ?(cfg = cfg) engine mk =
    let r = run_one ~cfg ~engine ~mk in
    log
      (Printf.sprintf
         "churn %-5s: %d cycles, %.0f/s, used hwm %d, extent %d (%.2fx), \
          reuse %d/%d (%.1f%%)%s"
         engine r.r_cycles r.r_cycles_per_s r.r_used_hwm r.r_extent_final
         r.r_extent_ratio r.r_post_reused r.r_post_allocated
         (100.0 *. r.r_reuse_ratio)
         (if ok r then "" else " FAIL"));
    r
  in
  let noop () = () in
  let runs =
    [
      one "blink" (fun env ->
          let t = Blink.create env ~name:"churn" in
          (Pitree_blink.Blink_engine.inst t, noop, fun () -> Wellformed.ok (Blink.verify t)));
      one "tsb" (fun env ->
          let t = Tsb.create env ~name:"churn" in
          let pulse () =
            Tsb.set_horizon t (Tsb.now t);
            ignore (Tsb.gc t : int)
          in
          (Pitree_tsb.Tsb_engine.inst t, pulse, fun () -> Wellformed.ok (Tsb.verify t)));
      (* The hB adapter hashes string keys over the unit cube, so a
         contiguous key band scatters spatially and no region ever
         empties. Churn it in full-population waves instead — delete
         everything, re-insert everything — which is the spatial analog:
         every data region drains, consolidation collapses the tree onto
         the free list, and the re-insert wave's splits pop it back. *)
      one ~cfg:{ cfg with band = cfg.keys } "hb" (fun env ->
          let t = Hb.create env ~name:"churn" ~dims:2 in
          (Pitree_hb.Hb_engine.inst t, noop, fun () -> Wellformed.ok (Hb.verify t)));
    ]
  in
  { runs; passed = List.for_all ok runs }

let to_json (cfg : config) (res : result) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"bench\": \"churn\",\n";
  Printf.bprintf b
    "  \"cycles_per_engine\": %d, \"keys\": %d, \"band\": %d, \
     \"value_bytes\": %d, \"page_size\": %d,\n"
    cfg.cycles cfg.keys cfg.band cfg.value_bytes cfg.page_size;
  Printf.bprintf b
    "  \"gates\": {\"extent_ratio_le\": %.2f, \"reuse_ratio_ge\": %.2f, \
     \"passed\": %b},\n"
    extent_gate reuse_gate res.passed;
  Buffer.add_string b "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"engine\": %S, \"cycles\": %d, \"elapsed_s\": %.3f, \
         \"cycles_per_s\": %.1f, \"used_hwm\": %d, \"extent_hwm\": %d, \
         \"extent_final\": %d, \"free_final\": %d, \"extent_ratio\": %.3f, \
         \"post_allocated\": %d, \"post_reused\": %d, \"reuse_ratio\": %.4f, \
         \"pages_freed\": %d, \"bounded\": %b, \"reuse_ok\": %b, \
         \"well_formed\": %b}%s\n"
        r.r_engine r.r_cycles r.r_elapsed_s r.r_cycles_per_s r.r_used_hwm
        r.r_extent_hwm r.r_extent_final r.r_free_final r.r_extent_ratio
        r.r_post_allocated r.r_post_reused r.r_reuse_ratio r.r_pages_freed
        r.r_bounded r.r_reuse_ok r.r_well_formed
        (if i = List.length res.runs - 1 then "" else ","))
    res.runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
