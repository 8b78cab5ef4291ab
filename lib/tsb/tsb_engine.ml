(* The TSB-tree behind [Pitree_core.Engine.S]: the engine interface sees
   the current state only — [insert] stamps a new version, [delete] a
   tombstone, [find]/[scan] read as of now. The version store underneath
   (history chains, as-of reads) stays reachable through [Tsb] directly.

   When the transaction carries snapshot-isolation state (opened with
   [Mvcc.begin_snapshot]), every operation dispatches through the
   snapshot instead: reads are as-of reads at the pinned read timestamp
   overlaid with the transaction's own buffered writes — no lock-manager
   calls, no latch waits on the OLC path — and writes only buffer; the
   version store is untouched until commit. *)

module Engine = Pitree_core.Engine
module Mvcc = Pitree_txn.Mvcc
module Env = Pitree_env.Env

module Impl = struct
  type t = Tsb.t

  let engine_name = "tsb-tree"

  (* The transaction's SI state, validated against the current allocator
     (a snapshot that straddled a crash raises Stale_snapshot here). *)
  let si_of t txn =
    match txn with
    | None -> None
    | Some txn -> (
        match Mvcc.si_of txn with
        | None -> None
        | Some si ->
            Mvcc.check_current (Env.txns (Tsb.env t)) si;
            Some si)

  let insert ?txn t ~key ~value =
    match si_of t txn with
    | Some si -> Mvcc.buffer_write si ~tree:(Tsb.tree_id t) ~key (Some value)
    | None -> ignore (Tsb.put ?txn t ~key ~value : int)

  let find ?txn t key =
    match si_of t txn with
    | Some si -> (
        Mvcc.note_read si;
        match Mvcc.buffered si ~tree:(Tsb.tree_id t) ~key with
        | Some v -> v
        | None -> Tsb.get_asof ?txn t key ~time:(Mvcc.read_time si))
    | None -> Tsb.get ?txn t key

  (* A tombstone for an absent key would create a version of nothing;
     mirror the other engines' contract instead: write the tombstone only
     when the key is currently live, and report whether it was. Under SI,
     "currently" means as of the snapshot (plus own writes), and the
     tombstone only buffers. *)
  let delete ?txn t key =
    match si_of t txn with
    | Some si ->
        let tree = Tsb.tree_id t in
        Mvcc.note_read si;
        let live =
          match Mvcc.buffered si ~tree ~key with
          | Some v -> v <> None
          | None -> Tsb.get_asof ?txn t key ~time:(Mvcc.read_time si) <> None
        in
        if live then Mvcc.buffer_write si ~tree ~key None;
        live
    | None -> (
        match Tsb.get ?txn t key with
        | None -> false
        | Some _ ->
            ignore (Tsb.remove ?txn t key : int);
            true)

  exception Done of int

  let scan ?txn t ~low ~n =
    if n <= 0 then 0
    else
      match si_of t txn with
      | Some si ->
          (* Snapshot scan overlaid with the write buffer: buffered
             inserts join the key set, buffered tombstones leave it. *)
          let module SS = Set.Make (String) in
          Mvcc.note_read si;
          let base =
            Tsb.range_asof t ~time:(Mvcc.read_time si) ~low ?high:None
              ~init:SS.empty
              ~f:(fun acc k _ -> SS.add k acc)
          in
          let keys =
            List.fold_left
              (fun acc (k, v) ->
                if String.compare k low >= 0 then
                  match v with Some _ -> SS.add k acc | None -> SS.remove k acc
                else acc)
              base
              (Mvcc.writes_for si ~tree:(Tsb.tree_id t))
          in
          min n (SS.cardinal keys)
      | None -> (
          try
            Tsb.range_asof t ~time:(Tsb.now t) ~low ?high:None ~init:0
              ~f:(fun acc _ _ ->
                if acc + 1 >= n then raise (Done (acc + 1)) else acc + 1)
          with Done c -> c)
end

include Impl

let inst t = Engine.Inst ((module Impl), t)
