module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Olc = Pitree_storage.Olc
module Latch = Pitree_sync.Latch
module Page_op = Pitree_wal.Page_op
module Lsn = Pitree_wal.Lsn
module Log_record = Pitree_wal.Log_record
module Log_manager = Pitree_wal.Log_manager
module Logical = Pitree_wal.Logical
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Crash_point = Pitree_util.Crash_point
module Env = Pitree_env.Env
module Wellformed = Pitree_core.Wellformed
module Saved_path = Pitree_core.Saved_path
module Traversal = Pitree_core.Traversal

(* Every Crash_point.hit site in this engine, pre-registered so sweep
   harnesses can enumerate them before any fires. *)
let () =
  List.iter Crash_point.register
    [
      "hb.split.linked";
      "hb.root.grown";
      "hb.post.updated";
      "hb.consolidate.linked";
      "hb.merge.freed";
    ]
module Codec = Pitree_util.Codec
module Combine = Pitree_combine.Combine
open Hb_space

type stats = {
  inserts : int;
  searches : int;
  data_splits : int;
  index_splits : int;
  root_splits : int;
  side_traversals : int;
  postings_completed : int;
  clipped_postings : int;
  multi_parent_marks : int;
  consolidations : int;
  consolidations_skipped : int;
}

(* Outcome of a combined insert: applied inside the leader's batch
   transaction, or handed back for the caller to retry on the ordinary
   one-insert-one-txn path. *)
type comb_res = Applied | Handback

type t = {
  env : Env.t;
  name : string;
  root : int;
  k : int;
  mutable combiner : (float array * string, comb_res) Combine.t option;
  c_inserts : int Atomic.t;
  c_searches : int Atomic.t;
  c_data_splits : int Atomic.t;
  c_index_splits : int Atomic.t;
  c_root_splits : int Atomic.t;
  c_posted : int Atomic.t;
  c_clipped : int Atomic.t;
  c_multi : int Atomic.t;
  c_consol : int Atomic.t;
  c_consol_skip : int Atomic.t;
  trav : Traversal.state;
  consol : Traversal.dedup;  (* queued consolidations, keyed by pid *)
}

let env t = t.env
let dims t = t.k

let pool t = Env.pool t.env
let mgr t = Env.txns t.env
let pin t pid = Buffer_pool.pin (pool t) pid
let unpin t fr = Buffer_pool.unpin (pool t) fr
let page = Traversal.page
let latch = Traversal.latch
let unlatch = Traversal.unlatch
let promote = Traversal.promote
let update t txn fr op =
  if not (Page_op.is_noop op) then ignore (Txn_mgr.update (mgr t) txn fr op)

let multi_parent_flag = 1

(* ---------- cell codecs ---------- *)

(* slot 0: the node's brick (its responsible space). *)
let brick_cell (b : brick) =
  let buf = Buffer.create 32 in
  Codec.put_u8 buf (Array.length b.low);
  Array.iter (Codec.put_float buf) b.low;
  Array.iter (Codec.put_float buf) b.high;
  Buffer.contents buf

let brick_of_cell s =
  let r = Codec.reader s in
  let k = Codec.get_u8 r in
  let low = Array.init k (fun _ -> Codec.get_float r) in
  let high = Array.init k (fun _ -> Codec.get_float r) in
  { low; high }

let node_brick p = brick_of_cell (Page.get p 0)

(* slot 1: the kd-tree. *)
let node_kd p = Hkd.decode (Page.get p 1)

let set_kd t txn fr kd =
  update t txn fr
    (Page_op.Replace_slot
       { slot = 1; old_cell = Page.get (page fr) 1; new_cell = Hkd.encode kd })

(* slots 2..: point records. *)
let record_cell ~point ~value =
  let b = Buffer.create 32 in
  Codec.put_u8 b (Array.length point);
  Array.iter (Codec.put_float b) point;
  Codec.put_bytes b value;
  Buffer.contents b

let record_of_cell s =
  let r = Codec.reader s in
  let k = Codec.get_u8 r in
  let point = Array.init k (fun _ -> Codec.get_float r) in
  let value = Codec.get_bytes r in
  (point, value)

let base = 2
let record_count p = Page.slot_count p - base

let find_record p point =
  let n = record_count p in
  let rec go i =
    if i >= n then None
    else
      let pt, v = record_of_cell (Page.get p (base + i)) in
      if pt = point then Some (base + i, v) else go (i + 1)
  in
  go 0

(* ---------- traversal (see Pitree_core.Traversal) ---------- *)

let post_action : (t -> level:int -> address:int -> anchor:float array -> unit) ref =
  ref (fun _ ~level:_ ~address:_ ~anchor:_ -> assert false)

module Tr = Traversal.Make (struct
  type nonrec t = t
  type key = float array

  let state t = t.trav

  (* The kd-tree walk over the node's sibling markers and index terms. A
     level-0 [Child] marker, like [Here], means this node. *)
  let route p point =
    match Hkd.walk (node_kd p) point with
    | Hkd.Here -> Traversal.Here
    | Hkd.Sibling s -> Traversal.Side s
    | Hkd.Child c -> Traversal.Child (c, 0)

  let may_post _ ~container:_ = true
  let post t ~level ~path:_ ~address anchor = !post_action t ~level ~address ~anchor
end)

(* ---------- splits ---------- *)

(* Extract a sub-brick of [region] holding between 1/3 and 2/3 of [points]
   (the hB splitting guarantee), by walking medians. *)
let choose_extraction ~k ~region ~points =
  let n = List.length points in
  let lo_t = n / 3 and hi_t = 2 * n / 3 in
  let rec go region points depth =
    let n_here = List.length points in
    if depth > 8 * k || n_here < 2 then region
    else begin
      let dim = depth mod k in
      let coords = List.map (fun (p, _) -> p.(dim)) points |> List.sort compare in
      let coord = List.nth coords (List.length coords / 2) in
      let lo, hi = split_brick region ~dim ~coord in
      let in_lo = List.filter (fun (p, _) -> brick_contains lo p) points in
      let n_lo = List.length in_lo in
      let n_hi = n_here - n_lo in
      if n_lo = 0 || n_hi = 0 then go region points (depth + 1)
      else if n_lo >= lo_t && n_lo <= hi_t then lo
      else if n_hi >= lo_t && n_hi <= hi_t then hi
      else if n_lo > n_hi then go lo in_lo (depth + 1)
      else go hi (List.filter (fun (p, _) -> brick_contains hi p) points) (depth + 1)
    end
  in
  go region points 0

(* Fill the new sibling [into] with its header cells [head] and the cells
   at [slots] of [from] (ascending), and remove those cells from [from],
   in one log record. *)
let move_records t txn ~from ~into ~head slots =
  let p = page from in
  ignore
    (Txn_mgr.move (mgr t) txn
       [
         (into, Page_op.insert_run ~slot:0 (head @ List.map (Page.get p) slots));
         (from, Page_op.delete_where p (fun i -> List.mem i slots));
       ])

(* Fallback data split for nodes whose kd-tree is fragmented (no single
   Here leaf holds two points): extract the heavier kd-root subtree with
   its points and markers — the general hB subtree extraction. *)
let split_data_subtree t txn fr =
  let p = page fr in
  let brick = node_brick p in
  match node_kd p with
  | Hkd.Leaf _ -> None
  | Hkd.Split { dim; coord; left; right } ->
      let take_right = Hkd.size right >= Hkd.size left in
      let moved_kd = if take_right then right else left in
      let blo, bhi = split_brick brick ~dim ~coord in
      let bq = if take_right then bhi else blo in
      let records =
        List.init (record_count p) (fun i ->
            let pt, v = record_of_cell (Page.get p (base + i)) in
            (pt, (base + i, v)))
      in
      let moving = List.filter (fun (pt, _) -> brick_contains bq pt) records in
      let qfr = Env.alloc_page t.env txn ~kind:Page.Data ~level:0 in
      move_records t txn ~from:fr ~into:qfr ~head:[ brick_cell bq; Hkd.encode moved_kd ]
        (List.map (fun (_, (slot, _)) -> slot) moving);
      let qpid = Page.id (page qfr) in
      set_kd t txn fr
        (if take_right then
           Hkd.Split { dim; coord; left; right = Hkd.Leaf (Hkd.Sibling qpid) }
         else Hkd.Split { dim; coord; left = Hkd.Leaf (Hkd.Sibling qpid); right });
      Atomic.incr t.c_data_splits;
      unpin t qfr;
      Some (qpid, bq)

(* Split the data node in [fr] (X-latched): extract a brick of points into
   a new sibling and leave a sibling marker behind (one atomic action).
   Returns the sibling and its brick, or None if the node cannot split. *)
let split_data_node t txn fr =
  let p = page fr in
  let kd = node_kd p in
  let brick = node_brick p in
  (* Points grouped by the Here leaf that owns them; split the fullest. *)
  let regions =
    Hkd.leaf_regions kd brick
    |> List.filter (fun (_, tgt) -> tgt = Hkd.Here)
  in
  let records =
    List.init (record_count p) (fun i ->
        let pt, v = record_of_cell (Page.get p (base + i)) in
        (pt, (base + i, v)))
  in
  let best =
    List.fold_left
      (fun acc (region, _) ->
        let mine = List.filter (fun (pt, _) -> brick_contains region pt) records in
        match acc with
        | Some (_, best_pts) when List.length best_pts >= List.length mine -> acc
        | _ -> Some (region, mine))
      None regions
  in
  match best with
  | None -> split_data_subtree t txn fr
  | Some (_, pts) when List.length pts < 2 -> split_data_subtree t txn fr
  | Some (region, pts) ->
      let b = choose_extraction ~k:t.k ~region ~points:pts in
      let moving = List.filter (fun (pt, _) -> brick_contains b pt) pts in
      if moving = [] || List.length moving = List.length records then None
      else begin
        let qfr = Env.alloc_page t.env txn ~kind:Page.Data ~level:0 in
        move_records t txn ~from:fr ~into:qfr
          ~head:[ brick_cell b; Hkd.encode (Hkd.Leaf Hkd.Here) ]
          (List.map (fun (_, (slot, _)) -> slot) moving);
        let qpid = Page.id (page qfr) in
        set_kd t txn fr (Hkd.carve kd ~region:brick ~brick:b (Hkd.Sibling qpid));
        Atomic.incr t.c_data_splits;
        Crash_point.hit "hb.split.linked";
        unpin t qfr;
        Some (qpid, b)
      end

(* Split the index node in [fr] (X-latched) at its kd root hyperplane: the
   right subtree moves to a new sibling; one kd-root child now points at it
   (the section 2.2.3 adjustment). Children referenced on both sides become
   multi-parent and are marked (section 3.3). *)
let split_index_node t txn fr =
  let p = page fr in
  let brick = node_brick p in
  match node_kd p with
  | Hkd.Leaf _ -> None
  | Hkd.Split { dim; coord; left; right } ->
      let total = Hkd.size left + Hkd.size right in
      let balanced =
        let smaller = min (Hkd.size left) (Hkd.size right) in
        4 * smaller >= total
      in
      let kept, moved, bq, new_kd =
        if balanced then begin
          (* Simple case (section 3.2.2): delegate a whole kd-root subtree —
             a union of child subspaces; one kd-root child then points at
             the new sibling (the section 2.2.3 hyperplane-split
             adjustment). Placeholder 0 is patched once the sibling's pid
             is known. *)
          let take_right = Hkd.size right >= Hkd.size left in
          let moved = if take_right then right else left in
          let blo, bhi = split_brick brick ~dim ~coord in
          if take_right then
            ( left, moved, bhi,
              fun q -> Hkd.Split { dim; coord; left; right = Hkd.Leaf (Hkd.Sibling q) } )
          else
            ( right, moved, blo,
              fun q -> Hkd.Split { dim; coord; left = Hkd.Leaf (Hkd.Sibling q); right } )
        end
        else begin
          (* Unbalanced: split by a fresh hyperplane through the node's
             space, CLIPPING the child terms that straddle it (section
             3.2.2). Cut along the widest finite extent of the brick at the
             median of leaf-region centres. *)
          let leaves = Hkd.leaf_regions (Hkd.Split { dim; coord; left; right }) brick in
          let finite v lo hi = if v = neg_infinity then lo else if v = infinity then hi else v in
          let centers d =
            List.map
              (fun ((r : Hb_space.brick), _) ->
                (finite r.low.(d) 0.0 1.0 +. finite r.high.(d) 0.0 1.0) /. 2.0)
              leaves
            |> List.sort compare
          in
          let d = dim in
          let cs = centers d in
          let cut = List.nth cs (List.length cs / 2) in
          let blo, bhi = split_brick brick ~dim:d ~coord:cut in
          let kd0 = Hkd.Split { dim; coord; left; right } in
          let kd_lo = Hkd.prune kd0 ~region:brick ~box:blo in
          let kd_hi = Hkd.prune kd0 ~region:brick ~box:bhi in
          ( kd_lo, kd_hi, bhi,
            fun q ->
              Hkd.Split
                { dim = d; coord = cut; left = kd_lo; right = Hkd.Leaf (Hkd.Sibling q) } )
        end
      in
      if Hkd.size moved < 1 || (balanced && Hkd.size moved < 2) then None
      else begin
      let qfr = Env.alloc_page t.env txn ~kind:Page.Index ~level:(Page.level p) in
      update t txn qfr
        (Page_op.insert_run ~slot:0 [ brick_cell bq; Hkd.encode moved ]);
      let qpid = Page.id (page qfr) in
      set_kd t txn fr (new_kd qpid);
      (* Multi-parent marking: children appearing under both halves —
         their index terms were clipped. *)
      let lc = Hkd.children kept and rc = Hkd.children moved in
      List.iter (fun c -> if List.mem c rc then Atomic.incr t.c_clipped) lc;
      List.iter
        (fun c ->
          if List.mem c rc then begin
            let cfr = pin t c in
            latch cfr Latch.X;
            let flags = Page.flags (page cfr) in
            if flags land multi_parent_flag = 0 then begin
              update t txn cfr
                (Page_op.Set_flags
                   { old_flags = flags; new_flags = flags lor multi_parent_flag });
              Atomic.incr t.c_multi
            end;
            unlatch cfr Latch.X;
            unpin t cfr
          end)
        lc;
      Atomic.incr t.c_index_splits;
      unpin t qfr;
      Some (qpid, bq)
      end

(* Root overflow: demote the root's entire content into a fresh left child
   L, extract a sibling Q from L, and turn the (immovable) root into an
   index node routing to both. One atomic action; no posting needed. *)
let grow_root t txn fr ~split_node =
  let p = page fr in
  let brick = node_brick p in
  let lfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
  (* The root's contents move to L in one log record. *)
  move_records t txn ~from:fr ~into:lfr ~head:[] (List.init (Page.slot_count p) Fun.id);
  (* The root's page is X-latched by us; nothing reaches L yet, so we can
     split L without latching it. *)
  latch lfr Latch.X;
  let split_result = split_node t txn lfr in
  unlatch lfr Latch.X;
  update t txn fr
    (Page_op.Reformat
       {
         old_kind = Page.kind p;
         new_kind = Page.Index;
         old_level = Page.level p;
         new_level = Page.level p + 1;
       });
  let lpid = Page.id (page lfr) in
  let root_kd =
    match split_result with
    | Some (qpid, bq) ->
        Hkd.carve (Hkd.Leaf (Hkd.Child lpid)) ~region:brick ~brick:bq
          (Hkd.Child qpid)
    | None -> Hkd.Leaf (Hkd.Child lpid)
  in
  update t txn fr
    (Page_op.insert_run ~slot:0 [ brick_cell brick; Hkd.encode root_kd ]);
  Atomic.incr t.c_root_splits;
  Crash_point.hit "hb.root.grown";
  unpin t lfr

(* One split attempt for the data node owning [point]; separate atomic
   action, re-tested after descending. *)
let split_for_insert t ~point ~need =
  Atomic_action.run (mgr t) (fun txn ->
      let _, fr = Tr.descend t ~key:point ~target:0 ~mode:Latch.U in
      let p = page fr in
      if Page.will_fit p (need + Page.slot_overhead) then begin
        unlatch fr Latch.U;
        unpin t fr
      end
      else begin
        promote fr;
        if Page.id p = t.root then
          grow_root t txn fr ~split_node:split_data_node
        else begin
          match split_data_node t txn fr with
          | Some (qpid, b) ->
              let anchor =
                Array.init t.k (fun i ->
                    if b.low.(i) = neg_infinity then
                      if b.high.(i) = infinity then 0.0 else b.high.(i) -. 1e-9
                    else b.low.(i))
              in
              Txn.add_on_commit txn (fun () ->
                  Tr.schedule_posting t ~level:0 ~container:(Page.id p) ~sibling:qpid
                    ~path:Saved_path.empty anchor)
          | None -> ()
        end;
        unlatch fr Latch.X;
        unpin t fr
      end)

(* ---------- index-term posting ---------- *)

let do_post_action t ~level ~address ~anchor =
  Atomic_action.run (mgr t) (fun txn ->
      let rec attempt tries =
        if tries > 50 then failwith "hb: posting cannot make progress";
        let _, fr = Tr.descend t ~key:anchor ~target:level ~mode:Latch.U in
        let p = page fr in
        let kd = node_kd p in
        if List.mem address (Hkd.children kd) then begin
          (* Already posted: the state was re-tested and needs nothing
             (idempotent completion). *)
          unlatch fr Latch.U;
          unpin t fr
        end
        else begin
          match Hkd.walk kd anchor with
          | Hkd.Here | Hkd.Sibling _ ->
              unlatch fr Latch.U;
              unpin t fr
          | Hkd.Child n ->
              (* Recover the delegated brick from the splitting node's own
                 sibling marker (Verify Split: the posting may no longer be
                 needed). *)
              let nfr = pin t n in
              latch nfr Latch.S;
              let b =
                Hkd.region_of_target (node_kd (page nfr)) (node_brick (page nfr))
                  (Hkd.Sibling address)
              in
              let n_multi = Page.flags (page nfr) land multi_parent_flag <> 0 in
              unlatch nfr Latch.S;
              unpin t nfr;
              (match b with
              | None ->
                  unlatch fr Latch.U;
                  unpin t fr
              | Some b ->
                  (* The delegated brick came from a splitting node that is
                     itself multi-parent: descents arriving through its
                     other parents side-step the same sibling marker and
                     re-post [address] into THEIR parent, so the child is
                     about to gain a second index term in a different
                     node. It must carry the multi-parent flag before that
                     second term can exist — consolidation re-tests the
                     flag and would otherwise free the child behind the
                     extra parent's back (section 3.3 forbids
                     consolidating multi-parent nodes). *)
                  let dead = ref false in
                  if n_multi then begin
                    let afr = pin t address in
                    latch afr Latch.X;
                    let ap = page afr in
                    if Page.kind ap = Page.Free then dead := true
                    else begin
                      let flags = Page.flags ap in
                      if flags land multi_parent_flag = 0 then begin
                        update t txn afr
                          (Page_op.Set_flags
                             {
                               old_flags = flags;
                               new_flags = flags lor multi_parent_flag;
                             });
                        Atomic.incr t.c_multi
                      end
                    end;
                    unlatch afr Latch.X;
                    unpin t afr
                  end;
                  if !dead then begin
                    (* The sibling was consolidated away while this
                       posting was queued; nothing to index. *)
                    unlatch fr Latch.U;
                    unpin t fr
                  end
                  else begin
                  promote fr;
                  let brick = node_brick p in
                  let kd' = Hkd.carve kd ~region:brick ~brick:b (Hkd.Child address) in
                  let cell = Hkd.encode kd' in
                  let old_cell = Page.get p 1 in
                  ignore old_cell;
                  if Page.can_replace p 1 (String.length cell) then begin
                    set_kd t txn fr kd';
                    (* Count clipped postings: the child now occupies more
                       than one kd leaf. *)
                    let occurrences =
                      Hkd.leaf_regions kd' brick
                      |> List.filter (fun (_, tgt) -> tgt = Hkd.Child address)
                      |> List.length
                    in
                    if occurrences > 1 then Atomic.incr t.c_clipped;
                    Atomic.incr t.c_posted;
                    Crash_point.hit "hb.post.updated";
                    unlatch fr Latch.X;
                    unpin t fr
                  end
                  else begin
                    (* No room for the bigger kd-tree: split this index
                       node (or grow the root) and retry. *)
                    (if Page.id p = t.root then
                       grow_root t txn fr ~split_node:split_index_node
                     else
                       match split_index_node t txn fr with
                       | Some (qpid, bq) ->
                           let anchor_q =
                             Array.init t.k (fun i ->
                                 if bq.low.(i) = neg_infinity then
                                   if bq.high.(i) = infinity then 0.0
                                   else bq.high.(i) -. 1e-9
                                 else bq.low.(i))
                           in
                           Tr.schedule_posting t ~level:(Page.level p)
                             ~container:(Page.id p) ~sibling:qpid
                             ~path:Saved_path.empty anchor_q
                       | None -> failwith "hb: index node cannot split");
                    unlatch fr Latch.X;
                    unpin t fr;
                    attempt (tries + 1)
                  end
                  end)
        end
      in
      attempt 0)

(* ---------- creation ---------- *)


(* ---------- empty-node consolidation (section 3.3) ----------

   When a data node C becomes empty it can be consolidated away, under the
   paper's constraints: C must be referenced by index terms in a single
   parent (multi-parent nodes — flagged when a clipped child's parents
   separated — are never consolidated), and its CONTAINING node N (the one
   holding the Sibling(C) marker) must be referenced by the same parent.
   The action re-tests everything (idempotent completion); on success the
   delegated space folds back into N's directly-contained space, every
   Child(C) marker in the parent is rerouted to N (which is responsible for
   that space), and C is de-allocated as a logged node update. *)

let consolidate_action : (t -> pid:int -> anchor:float array -> unit) ref =
  ref (fun _ ~pid:_ ~anchor:_ -> assert false)

let maybe_schedule_consolidation t ~pid ~anchor =
  if pid <> t.root then
    ignore
      (Traversal.schedule_once t.env t.consol pid (fun () ->
           !consolidate_action t ~pid ~anchor))

let do_consolidate t ~pid ~anchor =
  let skipped () = Atomic.incr t.c_consol_skip in
  Atomic_action.run (mgr t) (fun txn ->
      let tall_enough =
        let rf = pin t t.root in
        let h = Page.level (page rf) in
        unpin t rf;
        h >= 1
      in
      if not tall_enough then skipped ()
      else begin
        let _, pfr = Tr.descend t ~key:anchor ~target:1 ~mode:Latch.U in
        let pp = page pfr in
        let give_up () =
          unlatch pfr Latch.U;
          unpin t pfr;
          skipped ()
        in
        let pkd = node_kd pp in
        if not (List.mem pid (Hkd.children pkd)) then give_up ()
        else begin
          (* Find the containing node among this parent's other children. *)
          let container =
            List.find_opt
              (fun c ->
                c <> pid
                &&
                match pin t c with
                | exception Not_found -> false
                | cf ->
                    latch cf Latch.S;
                    let has = List.mem pid (Hkd.siblings (node_kd (page cf))) in
                    unlatch cf Latch.S;
                    unpin t cf;
                    has)
              (Hkd.children pkd)
          in
          match container with
          | None -> give_up ()
          | Some n_pid ->
              promote pfr;
              let nfr = pin t n_pid in
              latch nfr Latch.X;
              let cfr = pin t pid in
              latch cfr Latch.X;
              let release_all () =
                unlatch cfr Latch.X;
                unpin t cfr;
                unlatch nfr Latch.X;
                unpin t nfr;
                unlatch pfr Latch.X;
                unpin t pfr
              in
              let cp = page cfr and np = page nfr in
              (* Re-test: still empty, still a data node, not multi-parent,
                 container still references it. *)
              if
                Page.kind cp <> Page.Data
                || Page.level cp <> 0
                || record_count cp > 0
                || Page.flags cp land multi_parent_flag <> 0
                || not (List.mem pid (Hkd.siblings (node_kd np)))
                || Hkd.siblings (node_kd cp) <> []
                (* C delegating onward would need its markers moved; the
                   simple (and common: fresh empty node) case only. *)
              then begin
                release_all ();
                skipped ()
              end
              else begin
                (* The delegated space folds back into the container; the
                   kd-tree is simplified so repeated consolidations do not
                   fragment it into slivers. *)
                set_kd t txn nfr
                  (Hkd.simplify
                     (Hkd.replace_target (node_kd np) ~from:(Hkd.Sibling pid)
                        ~to_:Hkd.Here));
                (* All of the parent's markers for C reroute to N. *)
                set_kd t txn pfr
                  (Hkd.simplify
                     (Hkd.replace_target (node_kd pp) ~from:(Hkd.Child pid)
                        ~to_:(Hkd.Child n_pid)));
                Crash_point.hit "hb.consolidate.linked";
                Env.dealloc_page t.env txn cfr;
                Crash_point.hit "hb.merge.freed";
                Atomic.incr t.c_consol;
                release_all ()
              end
        end
      end)

let () = consolidate_action := fun t ~pid ~anchor -> do_consolidate t ~pid ~anchor

let rec logical_undo t ~comp ~txn ~prev ~undo_next =
  (* Compensations are keyed by the record cell (which embeds the point):
     Remove undoes an insert, Put restores a deleted/overwritten record —
     wherever committed structure changes have moved the point since. *)
  let cell_of = function Logical.Remove { key } -> key | Logical.Put { cell } -> cell in
  let point, _ = record_of_cell (cell_of comp) in
  let _, fr = Tr.descend t ~key:point ~target:0 ~mode:Latch.U in
  let p = page fr in
  let apply_clr op =
    (* Dirty (logging the full-page image if one is due) before the CLR
       is appended: the image must precede every record it covers. *)
    Buffer_pool.mark_dirty fr;
    let lsn =
      Log_manager.append (Env.log t.env) ~prev ~txn
        (Log_record.Clr { page = Page.id p; op; undo_next })
    in
    Page_op.redo p op;
    Page.set_lsn p lsn;
    lsn
  in
  match comp with
  | Logical.Remove _ -> (
      match find_record p point with
      | Some (slot, _) ->
          promote fr;
          let cell = Page.get p slot in
          let lsn = apply_clr (Page_op.Delete_slot { slot; cell }) in
          unlatch fr Latch.X;
          unpin t fr;
          lsn
      | None ->
          unlatch fr Latch.U;
          unpin t fr;
          Lsn.null)
  | Logical.Put { cell } -> (
      match find_record p point with
      | Some (slot, _) ->
          let old_cell = Page.get p slot in
          if String.equal old_cell cell then begin
            unlatch fr Latch.U;
            unpin t fr;
            Lsn.null
          end
          else if
            String.length cell <= String.length old_cell
            || Page.will_fit p (String.length cell)
          then begin
            promote fr;
            let lsn = apply_clr (Page_op.Replace_slot { slot; old_cell; new_cell = cell }) in
            unlatch fr Latch.X;
            unpin t fr;
            lsn
          end
          else begin
            unlatch fr Latch.U;
            unpin t fr;
            split_for_insert t ~point ~need:(String.length cell);
            logical_undo t ~comp ~txn ~prev ~undo_next
          end
      | None ->
          if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
            promote fr;
            let lsn =
              apply_clr (Page_op.Insert_slot { slot = Page.slot_count p; cell })
            in
            unlatch fr Latch.X;
            unpin t fr;
            lsn
          end
          else begin
            unlatch fr Latch.U;
            unpin t fr;
            split_for_insert t ~point ~need:(String.length cell);
            logical_undo t ~comp ~txn ~prev ~undo_next
          end)

let attach env ~name ~root ~k =
  {
    env;
    name;
    root;
    k;
    combiner = None;
    c_inserts = Atomic.make 0;
    c_searches = Atomic.make 0;
    c_data_splits = Atomic.make 0;
    c_index_splits = Atomic.make 0;
    c_root_splits = Atomic.make 0;
    c_posted = Atomic.make 0;
    c_clipped = Atomic.make 0;
    c_multi = Atomic.make 0;
    c_consol = Atomic.make 0;
    c_consol_skip = Atomic.make 0;
    trav = Traversal.state env ~root;
    consol = Traversal.dedup ();
  }

let attach env ~name ~root ~k =
  let t = attach env ~name ~root ~k in
  Logical.register_tree root (fun ~tree:_ ~comp ~txn ~prev ~undo_next ->
      logical_undo t ~comp ~txn ~prev ~undo_next);
  t

(* Combiner construction needs the insert path below; wired up after
   [apply_batch] is defined. *)
let attach_combiner_fwd : (t -> unit) ref = ref (fun _ -> ())

let create env ~name ~dims:k =
  if k < 1 || k > 8 then invalid_arg "Hb.create: dims must be in 1..8";
  let root = Env.create_tree env ~name:("hb:" ^ name) ~kind:Page.Data ~level:0 in
  let t = attach env ~name ~root ~k in
  !attach_combiner_fwd t;
  Atomic_action.run (mgr t) (fun txn ->
      let fr = pin t root in
      latch fr Latch.X;
      update t txn fr
        (Page_op.insert_run ~slot:0
           [ brick_cell (whole_brick k); Hkd.encode (Hkd.Leaf Hkd.Here) ]);
      (* Remember the dimensionality in the root's flag bits. *)
      update t txn fr (Page_op.Set_flags { old_flags = 0; new_flags = k lsl 8 });
      unlatch fr Latch.X;
      unpin t fr);
  t

let open_existing env ~name =
  match Env.find_tree env ~name:("hb:" ^ name) with
  | None -> None
  | Some root ->
      let pool = Env.pool env in
      let fr = Buffer_pool.pin pool root in
      let k = Page.flags (page fr) lsr 8 in
      Buffer_pool.unpin pool fr;
      if k = 0 then None
      else begin
        let t = attach env ~name ~root ~k in
        !attach_combiner_fwd t;
        Some t
      end

(* ---------- operations ---------- *)

let check_point t point =
  if Array.length point <> t.k then
    invalid_arg (Printf.sprintf "hb: expected %d dimensions" t.k)

let insert_in_txn t txn ~point ~value =
  let cell = record_cell ~point ~value in
  (fun txn ->
      let rec attempt tries =
        if tries > 200 then failwith "hb.insert: too many restarts";
        let _, fr = Tr.descend t ~key:point ~target:0 ~mode:Latch.U in
        let p = page fr in
        let lundo comp =
          if (Env.config t.env).Env.page_oriented_undo then None
          else Some { Log_record.tree = t.root; comp }
        in
        match find_record p point with
        | Some (slot, _) ->
            let old_cell = Page.get p slot in
            if
              String.length cell <= String.length old_cell
              || Page.will_fit p (String.length cell)
            then begin
              promote fr;
              ignore
                (Txn_mgr.update
                   ?lundo:(lundo (Logical.Put { cell = old_cell }))
                   (mgr t) txn fr
                   (Page_op.Replace_slot { slot; old_cell; new_cell = cell }));
              unlatch fr Latch.X;
              unpin t fr
            end
            else begin
              unlatch fr Latch.U;
              unpin t fr;
              split_for_insert t ~point ~need:(String.length cell);
              attempt (tries + 1)
            end
        | None ->
            if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
              promote fr;
              ignore
                (Txn_mgr.update
                   ?lundo:(lundo (Logical.Remove { key = cell }))
                   (mgr t) txn fr
                   (Page_op.Insert_slot { slot = Page.slot_count p; cell }));
              unlatch fr Latch.X;
              unpin t fr
            end
            else begin
              unlatch fr Latch.U;
              unpin t fr;
              split_for_insert t ~point ~need:(String.length cell);
              attempt (tries + 1)
            end
      in
      attempt 0)
    txn

(* Combined insert batch: the leader applies every request its slot
   drained inside one User transaction, so one WAL flush enrollment
   (credited with the batch's fan-in via [~commits]) covers them all.
   Each point still takes its own CNS descent — spatial keys rarely share
   a brick — but N commit flushes collapse into one. A failure aborts the
   batch transaction and propagates (Combine broadcasts it to the parked
   followers): retrying on the direct path instead would deadlock against
   whatever latch the failed descent left behind, and mask the defect. *)
let apply_batch t (reqs : (float array * string) array) =
  let n = Array.length reqs in
  let results = Array.make n Handback in
  let txn = Txn_mgr.begin_txn (mgr t) Txn.User in
  (try
     Array.iteri
       (fun i (point, value) ->
         insert_in_txn t txn ~point ~value;
         results.(i) <- Applied)
       reqs;
     Crash_point.hit Combine.crash_point_applied;
     Txn_mgr.commit ~commits:n (mgr t) txn
   with
   | Crash_point.Crash_requested _ as e -> raise e
   | e ->
       if Txn.is_active txn then Txn_mgr.abort (mgr t) txn;
       raise e);
  results

let () =
  attach_combiner_fwd :=
    fun t ->
      let c = Env.config t.env in
      if c.Env.combine then
        t.combiner <-
          Some
            (Combine.create ~slots:c.Env.combine_slots
               ~window_us:c.Env.combine_window_us
               ~apply:(fun reqs -> apply_batch t reqs)
               ())

let insert ?txn t ~point ~value =
  check_point t point;
  Atomic.incr t.c_inserts;
  match (txn, t.combiner) with
  | None, Some combiner -> (
      match
        Combine.submit combiner ~hash:(Hashtbl.hash point) (point, value)
      with
      | Applied -> ()
      | Handback ->
          Combine.note_handback ();
          Tr.with_autocommit t None (fun txn -> insert_in_txn t txn ~point ~value))
  | _ -> Tr.with_autocommit t txn (fun txn -> insert_in_txn t txn ~point ~value)

let delete ?txn t point =
  check_point t point;
  Tr.with_autocommit t txn (fun txn ->
      let _, fr = Tr.descend t ~key:point ~target:0 ~mode:Latch.U in
      let p = page fr in
      match find_record p point with
      | Some (slot, _) ->
          promote fr;
          let cell = Page.get p slot in
          let lundo =
            if (Env.config t.env).Env.page_oriented_undo then None
            else Some { Log_record.tree = t.root; comp = Logical.Put { cell } }
          in
          ignore
            (Txn_mgr.update ?lundo (mgr t) txn fr
               (Page_op.Delete_slot { slot; cell }));
          let now_empty = record_count p = 0 in
          let pid = Page.id p in
          unlatch fr Latch.X;
          unpin t fr;
          if now_empty && (Env.config t.env).Env.consolidation then
            maybe_schedule_consolidation t ~pid ~anchor:point;
          true
      | None ->
          unlatch fr Latch.U;
          unpin t fr;
          false)

let find_latched t point =
  let _, fr = Tr.descend t ~key:point ~target:0 ~mode:Latch.S in
  let r = Option.map snd (find_record (page fr) point) in
  unlatch fr Latch.S;
  unpin t fr;
  r

let find_olc t point =
  let fr, v = Tr.olc_descend t point in
  match
    let r =
      Olc.decoding fr v (fun () ->
          Option.map snd (find_record (page fr) point))
    in
    (* The record bytes were copied out above; prove the reads were not
       torn before anyone sees them. *)
    Olc.validate fr v;
    r
  with
  | r ->
      unpin t fr;
      r
  | exception e ->
      unpin t fr;
      raise e

let find ?txn t point =
  check_point t point;
  Atomic.incr t.c_searches;
  Tr.read ~drain:(txn = None) t
    ~optimistic:(fun () -> find_olc t point)
    ~latched:(fun () -> find_latched t point)

let query t ~low ~high ~init ~f =
  let box = { low; high } in
  let visited = Hashtbl.create 32 in
  let rec visit pid acc =
    if Hashtbl.mem visited pid then acc
    else begin
      Hashtbl.replace visited pid ();
      let fr = pin t pid in
      latch fr Latch.S;
      let p = page fr in
      let brick = node_brick p in
      let kd = node_kd p in
      (* Collect matching records (leaves) and the pages to visit next,
         releasing the latch before recursing. *)
      let here =
        if Page.level p = 0 then
          List.init (record_count p) (fun i -> record_of_cell (Page.get p (base + i)))
          |> List.filter (fun (pt, _) -> brick_contains box pt)
        else []
      in
      let next =
        Hkd.leaf_regions kd brick
        |> List.filter_map (fun (region, tgt) ->
               if not (brick_intersects region box) then None
               else
                 match tgt with
                 | Hkd.Here -> None
                 | Hkd.Sibling s -> Some s
                 | Hkd.Child c -> Some c)
      in
      unlatch fr Latch.S;
      unpin t fr;
      let acc = List.fold_left (fun acc (pt, v) -> f acc pt v) acc here in
      List.fold_left (fun acc pid -> visit pid acc) acc next
    end
  in
  visit t.root init

let count t =
  query t
    ~low:(Array.make t.k neg_infinity)
    ~high:(Array.make t.k infinity)
    ~init:0
    ~f:(fun n _ _ -> n + 1)

(* ---------- verification ---------- *)

let verify t =
  let module K = Hb_space.Make (struct
    let k = t.k
  end) in
  let module W = Wellformed.Make (K) in
  let read pid =
    match pin t pid with
    | exception Not_found -> None
    | fr ->
        let p = page fr in
        let view =
          match Page.kind p with
          | Page.Free | Page.Meta -> None
          | Page.Data | Page.Index ->
              let brick = node_brick p in
              let kd = node_kd p in
              let leaves = Hkd.leaf_regions kd brick in
              let sib_regions =
                List.filter_map
                  (fun (r, tgt) ->
                    match tgt with Hkd.Sibling s -> Some (r, s) | _ -> None)
                  leaves
              in
              let child_regions =
                List.filter_map
                  (fun (r, tgt) ->
                    match tgt with Hkd.Child c -> Some (r, c) | _ -> None)
                  leaves
              in
              let holey_of b = { outer = b; holes = [] } in
              Some
                {
                  W.id = pid;
                  level = Page.level p;
                  responsible = holey_of brick;
                  directly_contained =
                    { outer = brick; holes = List.map fst sib_regions };
                  index_terms = List.map (fun (r, c) -> (holey_of r, c)) child_regions;
                  sibling_terms = List.map (fun (r, s) -> (holey_of r, s)) sib_regions;
                }
        in
        unpin t fr;
        view
  in
  W.check ~root:t.root ~read

let stats t =
  {
    inserts = Atomic.get t.c_inserts;
    searches = Atomic.get t.c_searches;
    data_splits = Atomic.get t.c_data_splits;
    index_splits = Atomic.get t.c_index_splits;
    root_splits = Atomic.get t.c_root_splits;
    side_traversals = Atomic.get t.trav.side_traversals;
    postings_completed = Atomic.get t.c_posted;
    clipped_postings = Atomic.get t.c_clipped;
    multi_parent_marks = Atomic.get t.c_multi;
    consolidations = Atomic.get t.c_consol;
    consolidations_skipped = Atomic.get t.c_consol_skip;
  }

let () =
  post_action :=
    fun t ~level ~address ~anchor -> do_post_action t ~level ~address ~anchor
