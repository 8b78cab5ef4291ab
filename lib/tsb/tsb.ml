module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Olc = Pitree_storage.Olc
module Latch = Pitree_sync.Latch
module Page_op = Pitree_wal.Page_op
module Lsn = Pitree_wal.Lsn
module Log_record = Pitree_wal.Log_record
module Log_manager = Pitree_wal.Log_manager
module Logical = Pitree_wal.Logical
module Lock_mode = Pitree_lock.Lock_mode
module Lock_manager = Pitree_lock.Lock_manager
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Snapshot = Pitree_txn.Snapshot
module Mvcc = Pitree_txn.Mvcc
module Atomic_action = Pitree_txn.Atomic_action
module Crash_point = Pitree_util.Crash_point
module Env = Pitree_env.Env
module Wellformed = Pitree_core.Wellformed
module Keyspace = Pitree_core.Keyspace
module Saved_path = Pitree_core.Saved_path
module Traversal = Pitree_core.Traversal
module Ordkey = Pitree_util.Ordkey
module Bnode = Pitree_blink.Node
module Combine = Pitree_combine.Combine

(* Every Crash_point.hit site in this engine, pre-registered so sweep
   harnesses can enumerate them before any fires. *)
let () =
  List.iter Crash_point.register
    [
      "tsb.timesplit.linked";
      "tsb.keysplit.linked";
      "tsb.drain.cut";
      "tsb.drain.freed";
      "tsb.merge.unlinked";
      "tsb.merge.freed";
    ]

type stats = {
  puts : int;
  time_splits : int;
  key_splits : int;
  root_splits : int;
  history_nodes : int;
  side_traversals : int;
  postings_completed : int;
  history_nodes_freed : int;
  tombstones_purged : int;
  merges : int;
}

(* What a combined put gets back: the version timestamp the leader's
   batch assigned to it, or a handback when the batch aborted (lock
   conflict past the deadlock detector, split pressure, ...) — the caller
   retries on the direct path. *)
type comb_res = Applied of int | Handback

type t = {
  env : Env.t;
  name : string;
  root : int;
  mutable combiner : (string * string, comb_res) Combine.t option;
  clock : int Atomic.t;
  horizon : int Atomic.t;
  c_puts : int Atomic.t;
  c_time_splits : int Atomic.t;
  c_key_splits : int Atomic.t;
  c_root_splits : int Atomic.t;
  c_history_nodes : int Atomic.t;
  c_posted : int Atomic.t;
  c_drained : int Atomic.t;
  c_purged : int Atomic.t;
  c_merges : int Atomic.t;
  trav : Traversal.state;
  gc_mu : Mutex.t;
}

let env t = t.env
let tree_id t = t.root

let pool t = Env.pool t.env
let mgr t = Env.txns t.env
let locks t = Env.locks t.env

let si_enabled t = (Env.config t.env).Env.si_txns
let snap t = Txn_mgr.snapshots (mgr t)

(* Allocate the next version timestamp. Under snapshot isolation every
   stamp — user writes and structural time splits alike — comes from the
   transaction manager's commit-ts allocator and is tracked for
   retirement, so the snapshot watermark cannot advance past a
   still-uncommitted version. The per-tree clock is CAS-maxed along so
   [now] and the clock-only paths stay monotone. *)
let alloc_ts t txn =
  if si_enabled t then begin
    let ts = Snapshot.allocate (snap t) in
    Txn.track_ts txn ts;
    let rec bump () =
      let c = Atomic.get t.clock in
      if ts + 1 > c && not (Atomic.compare_and_set t.clock c (ts + 1)) then
        bump ()
    in
    bump ();
    ts
  end
  else Atomic.fetch_and_add t.clock 1

let pin t pid = Buffer_pool.pin (pool t) pid
let unpin t fr = Buffer_pool.unpin (pool t) fr
let page = Traversal.page
let latch = Traversal.latch
let unlatch = Traversal.unlatch
let promote = Traversal.promote
let update t txn fr op =
  if not (Page_op.is_noop op) then ignore (Txn_mgr.update (mgr t) txn fr op)

(* One logged change over several pages (frames X-latched). *)
let move t txn parts = ignore (Txn_mgr.move (mgr t) txn parts)

(* [part] if [cond], for building a move's part list. *)
let part_if cond part = if cond then [ part ] else []

let is_history p = Page.flags p land Tnode.history_flag <> 0

let dummy_time = Tnode.time_cell { Tnode.t_low = 0; t_high = None }

(* ---------- traversal (see Pitree_core.Traversal) ----------

   Single-latch (CNS) by design: the TSB-tree never consolidates a node
   a traversal can reach outside its quiesced GC pass. *)

let post_action :
    (t -> level:int -> address:int -> key:string -> unit) ref =
  ref (fun _ ~level:_ ~address:_ ~key:_ -> assert false)

module Tr = Traversal.Make (struct
  type nonrec t = t
  type key = string

  let state t = t.trav

  let route p ckey =
    if not (Tnode.contains p ckey) then Traversal.Side (Page.side_ptr p)
    else if Page.level p = 0 then Traversal.Here
    else
      match Tnode.floor_entry p ckey with
      | Some i -> Traversal.Child (snd (Tnode.index_term p i), i)
      | None -> Traversal.Here

  let may_post _ ~container:_ = true
  let post t ~level ~path:_ ~address key = !post_action t ~level ~address ~key
end)

(* ---------- splits ---------- *)

(* Alive = the newest version of each user key in this node (tombstones
   included: they mask older versions). Entry i is alive iff it is the last
   entry of its key's contiguous run. *)
let alive_flags p =
  let n = Tnode.entry_count p in
  Array.init n (fun i ->
      if i = n - 1 then true
      else
        let k, _ = Ordkey.decompose (Tnode.entry_key p i) in
        let k', _ = Ordkey.decompose (Tnode.entry_key p (i + 1)) in
        not (String.equal k k'))

(* Time split (section 2.2.2): the node's entire contents go to a fresh
   history node prepended to the history chain; the current node keeps only
   alive versions and a raised t_low. One atomic action, no index change. *)
let time_split t txn fr =
  let p = page fr in
  let ts = alloc_ts t txn in
  let tc = Tnode.time_of p in
  let hfr = Env.alloc_page t.env txn ~kind:Page.Data ~level:0 in
  (* The current node is trimmed to its alive versions and linked to the
     history node in the same log record; the dead versions it drops are
     logged as positions in the history node's copy. *)
  let alive = alive_flags p in
  let first = Tnode.slot_of_entry 0 in
  move t txn
    ([
       ( hfr,
         Page_op.insert_run ~slot:0
           (Page.get p 0
           :: Tnode.time_cell { Tnode.t_low = tc.Tnode.t_low; t_high = Some ts }
           :: Page_op.cells_from p ~slot:(Tnode.slot_of_entry 0)) );
       (hfr, Page_op.Set_flags { old_flags = 0; new_flags = Tnode.history_flag });
     ]
    @ part_if (Page.aux_ptr p <> Page.nil)
        (hfr, Page_op.Set_aux_ptr { old_ptr = Page.nil; new_ptr = Page.aux_ptr p })
    @ [
        (fr, Page_op.delete_where p (fun i -> i >= first && not alive.(i - first)));
        ( fr,
          Page_op.Replace_slot
            {
              slot = 1;
              old_cell = Tnode.time_cell tc;
              new_cell = Tnode.time_cell { Tnode.t_low = ts; t_high = None };
            } );
        (fr, Page_op.Set_aux_ptr { old_ptr = Page.aux_ptr p; new_ptr = Page.id (page hfr) });
      ]);
  Atomic.incr t.c_time_splits;
  Atomic.incr t.c_history_nodes;
  Crash_point.hit "tsb.timesplit.linked";
  unpin t hfr

(* The split node's parts of a key or index split: it drops entries [s..],
   keeps [low, sep) and points its side pointer at the new sibling. *)
let split_truncation p fr ~s ~sep ~f ~sibling =
  [
    (fr, Page_op.delete_where p (fun i -> i >= Tnode.slot_of_entry s));
    ( fr,
      Page_op.Replace_slot
        {
          slot = 0;
          old_cell = Tnode.fence_cell f;
          new_cell =
            Tnode.fence_cell
              { Bnode.low = f.Bnode.low; high = Some sep; resp_high = f.Bnode.resp_high };
        } );
    (fr, Page_op.Set_side_ptr { old_ptr = Page.side_ptr p; new_ptr = sibling });
  ]

(* Snap a split entry index to the start of its user key's version run;
   returns None when the node holds a single key. *)
let key_boundary p s =
  let n = Tnode.entry_count p in
  let user i = fst (Ordkey.decompose (Tnode.entry_key p i)) in
  let rec back i = if i > 0 && String.equal (user i) (user (i - 1)) then back (i - 1) else i in
  let s = back (max 1 (min s (n - 1))) in
  if s > 0 then Some s
  else
    let k0 = user 0 in
    let rec fwd i = if i < n && String.equal (user i) k0 then fwd (i + 1) else i in
    let s = fwd 1 in
    if s < n then Some s else None

(* Key split: the ordinary B-link split over composite keys, on a key
   boundary, copying BOTH the key sibling pointer and the history sibling
   pointer into the new node (Figure 1). Returns (sep, sibling pid) or None
   if the node cannot key-split. *)
let key_split t txn fr =
  let p = page fr in
  let n = Tnode.entry_count p in
  if n < 2 then None
  else
    match key_boundary p (Tnode.split_point p) with
    | None -> None
    | Some s ->
        let user_key = fst (Ordkey.decompose (Tnode.entry_key p s)) in
        let sep = Ordkey.composite user_key 0 in
        let f = Tnode.fence p in
        let qfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
        (* The copy of the history pointer makes the new node responsible
           for the entire history of its key space (Figure 1). *)
        move t txn
          (( qfr,
             Page_op.insert_run ~slot:0
               (Tnode.fence_cell
                  { Bnode.low = Some sep; high = f.Bnode.high; resp_high = f.Bnode.resp_high }
               :: Page.get p 1
               :: Page_op.cells_from p ~slot:(Tnode.slot_of_entry s)) )
           :: part_if (Page.side_ptr p <> Page.nil)
                (qfr, Page_op.Set_side_ptr { old_ptr = Page.nil; new_ptr = Page.side_ptr p })
          @ part_if (Page.aux_ptr p <> Page.nil)
              (qfr, Page_op.Set_aux_ptr { old_ptr = Page.nil; new_ptr = Page.aux_ptr p })
          @ split_truncation p fr ~s ~sep ~f ~sibling:(Page.id (page qfr)));
        Atomic.incr t.c_key_splits;
        Crash_point.hit "tsb.keysplit.linked";
        let qpid = Page.id (page qfr) in
        unpin t qfr;
        Some (sep, qpid)

(* Root growth: contents (and, for a leaf root, the history pointer) move
   down to a fresh left child; the immovable root becomes an index node. *)
let grow_root t txn fr ~sep ~right =
  let p = page fr in
  let lfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
  let aux = Page.aux_ptr p <> Page.nil in
  move t txn
    ([
       (lfr, Page_op.insert_run ~slot:0 (Page_op.cells_from p ~slot:0));
       (lfr, Page_op.Set_side_ptr { old_ptr = Page.nil; new_ptr = right });
     ]
    @ part_if aux (lfr, Page_op.Set_aux_ptr { old_ptr = Page.nil; new_ptr = Page.aux_ptr p })
    @ part_if aux (fr, Page_op.Set_aux_ptr { old_ptr = Page.aux_ptr p; new_ptr = Page.nil })
    @ [
        (fr, Page_op.delete_where p (fun _ -> true));
        (fr, Page_op.Set_side_ptr { old_ptr = Page.side_ptr p; new_ptr = Page.nil });
        ( fr,
          Page_op.Reformat
            {
              old_kind = Page.kind p;
              new_kind = Page.Index;
              old_level = Page.level p;
              new_level = Page.level p + 1;
            } );
        ( fr,
          Page_op.insert_run ~slot:0
            [
              Tnode.fence_cell Bnode.whole_fence;
              dummy_time;
              Tnode.index_term_cell ~sep:"" ~child:(Page.id (page lfr));
              Tnode.index_term_cell ~sep ~child:right;
            ] );
      ]);
  Atomic.incr t.c_root_splits;
  unpin t lfr

(* Make room in the full leaf that owns [ckey]. One atomic action; re-tests
   state after re-descending (idempotent completion discipline). *)
let split_current t ~ckey ~need =
  Atomic_action.run (mgr t) (fun txn ->
      let _, fr = Tr.descend t ~key:ckey ~target:0 ~mode:Latch.U in
      let p = page fr in
      if Page.will_fit p (need + Page.slot_overhead) then begin
        unlatch fr Latch.U;
        unpin t fr
      end
      else begin
        promote fr;
        let n = Tnode.entry_count p in
        let alive = alive_flags p in
        let dead_bytes =
          let acc = ref 0 in
          for i = 0 to n - 1 do
            if not alive.(i) then
              acc := !acc + String.length (Page.get p (Tnode.slot_of_entry i))
          done;
          !acc
        in
        let garbage_heavy = 2 * dead_bytes >= Page.used_space p - dead_bytes in
        let hopeless = ref false in
        if garbage_heavy && dead_bytes > 0 then time_split t txn fr
        else begin
          match key_split t txn fr with
          | Some (sep, q) ->
              if Page.id p = t.root then grow_root t txn fr ~sep ~right:q
              else
                Txn.add_on_commit txn (fun () ->
                    Tr.schedule_posting t ~level:0 ~container:(Page.id p) ~sibling:q
                      ~path:Saved_path.empty sep)
          | None ->
              if n >= 1 && dead_bytes > 0 then time_split t txn fr
              else
                (* A lone alive version plus the incoming one exceed the
                   page. A time split cannot trim alive versions and a key
                   split needs a second key, so no split makes progress:
                   the record is too large for this page size. Fail loudly
                   rather than looping (each futile time split would leak a
                   history node). *)
                hopeless := true
        end;
        unlatch fr Latch.X;
        unpin t fr;
        if !hopeless then raise Page.Page_full
      end)

(* ---------- index posting (section 5.3, simplified search) ---------- *)

let index_need sep = String.length (Tnode.index_term_cell ~sep ~child:0)

let rec ensure_space_index t txn fr ~poskey ~need =
  let p = page fr in
  if Page.will_fit p (need + Page.slot_overhead) then fr
  else if Page.id p = t.root then begin
    match index_split t txn fr with
    | None -> failwith "tsb: cannot split index root"
    | Some (sep, q) ->
        grow_root t txn fr ~sep ~right:q;
        (* Re-descend one level. *)
        let child =
          if String.compare poskey sep < 0 then
            let _, c = Tnode.index_term p 0 in
            c
          else q
        in
        let cfr = pin t child in
        latch cfr Latch.X;
        unlatch fr Latch.X;
        unpin t fr;
        ensure_space_index t txn cfr ~poskey ~need
  end
  else
    match index_split t txn fr with
    | None -> failwith "tsb: cannot split index node"
    | Some (sep, q) ->
        Tr.schedule_posting t ~level:(Page.level p) ~container:(Page.id p)
          ~sibling:q ~path:Saved_path.empty sep;
        if String.compare poskey sep < 0 then
          ensure_space_index t txn fr ~poskey ~need
        else begin
          let qfr = pin t q in
          latch qfr Latch.X;
          unlatch fr Latch.X;
          unpin t fr;
          ensure_space_index t txn qfr ~poskey ~need
        end

(* Index-node split over composites: same as key_split but without history
   pointers and with arbitrary separators. *)
and index_split t txn fr =
  let p = page fr in
  let n = Tnode.entry_count p in
  if n < 2 then None
  else begin
    let s = Tnode.split_point p in
    let sep = Tnode.entry_key p s in
    let f = Tnode.fence p in
    let qfr = Env.alloc_page t.env txn ~kind:Page.Index ~level:(Page.level p) in
    move t txn
      (( qfr,
         Page_op.insert_run ~slot:0
           (Tnode.fence_cell
              { Bnode.low = Some sep; high = f.Bnode.high; resp_high = f.Bnode.resp_high }
           :: dummy_time
           :: Page_op.cells_from p ~slot:(Tnode.slot_of_entry s)) )
       :: part_if (Page.side_ptr p <> Page.nil)
            (qfr, Page_op.Set_side_ptr { old_ptr = Page.nil; new_ptr = Page.side_ptr p })
      @ split_truncation p fr ~s ~sep ~f ~sibling:(Page.id (page qfr)));
    Atomic.incr t.c_key_splits;
    let qpid = Page.id (page qfr) in
    unpin t qfr;
    Some (sep, qpid)
  end

let do_post_action t ~level ~address ~key =
  Atomic_action.run (mgr t) (fun txn ->
      let _, fr = Tr.descend t ~key ~target:level ~mode:Latch.U in
      if Tnode.find_child_term (page fr) address <> None then begin
        unlatch fr Latch.U;
        unpin t fr
      end
      else begin
        match Tnode.floor_entry (page fr) key with
        | None ->
            unlatch fr Latch.U;
            unpin t fr
        | Some i ->
            let _, child = Tnode.index_term (page fr) i in
            let cfr = pin t child in
            latch cfr Latch.S;
            let cp = page cfr in
            if Tnode.contains cp key then begin
              unlatch cfr Latch.S;
              unpin t cfr;
              unlatch fr Latch.U;
              unpin t fr
            end
            else begin
              let sib = Page.side_ptr cp in
              let sep =
                match (Tnode.fence cp).Bnode.high with
                | Some h -> h
                | None -> assert false
              in
              unlatch cfr Latch.S;
              unpin t cfr;
              if Tnode.find_child_term (page fr) sib <> None then begin
                unlatch fr Latch.U;
                unpin t fr
              end
              else begin
                promote fr;
                let fr =
                  ensure_space_index t txn fr ~poskey:sep ~need:(index_need sep)
                in
                (match Tnode.find (page fr) sep with
                | `Found _ -> ()
                | `Not_found j ->
                    update t txn fr
                      (Page_op.Insert_slot
                         {
                           slot = Tnode.slot_of_entry j;
                           cell = Tnode.index_term_cell ~sep ~child:sib;
                         });
                    Atomic.incr t.c_posted);
                unlatch fr Latch.X;
                unpin t fr
              end
            end
      end)

(* ---------- creation / registration ---------- *)

let record_res t key = Lock_manager.Record { tree = t.root; key }

let logical_undo t ~comp ~txn ~prev ~undo_next =
  let ckey =
    match comp with
    | Logical.Remove { key } -> key
    | Logical.Put { cell } -> fst (Bnode.entry_of_cell cell)
  in
  let _, fr = Tr.descend t ~key:ckey ~target:0 ~mode:Latch.U in
  let p = page fr in
  let apply_clr op =
    (* Dirty (logging the full-page image if one is due) before the CLR
       is appended: the image must precede every record it covers. *)
    Buffer_pool.mark_dirty fr;
    let lsn =
      Log_manager.append (Env.log t.env) ~prev ~txn:txn
        (Log_record.Clr { page = Page.id p; op; undo_next })
    in
    Page_op.redo p op;
    Page.set_lsn p lsn;
    lsn
  in
  let r =
    match comp with
    | Logical.Remove _ -> (
        match Tnode.find p ckey with
        | `Found i ->
            promote fr;
            let cell = Page.get p (Tnode.slot_of_entry i) in
            let lsn =
              apply_clr (Page_op.Delete_slot { slot = Tnode.slot_of_entry i; cell })
            in
            unlatch fr Latch.X;
            unpin t fr;
            lsn
        | `Not_found _ ->
            unlatch fr Latch.U;
            unpin t fr;
            Lsn.null)
    | Logical.Put { cell } -> (
        match Tnode.find p ckey with
        | `Found _ ->
            unlatch fr Latch.U;
            unpin t fr;
            Lsn.null
        | `Not_found i ->
            promote fr;
            let lsn =
              apply_clr (Page_op.Insert_slot { slot = Tnode.slot_of_entry i; cell })
            in
            unlatch fr Latch.X;
            unpin t fr;
            lsn)
  in
  r

let attach env ~name ~root =
  let t =
    {
      env;
      name;
      root;
      combiner = None;
      clock = Atomic.make 1;
      horizon = Atomic.make 0;
      c_puts = Atomic.make 0;
      c_time_splits = Atomic.make 0;
      c_key_splits = Atomic.make 0;
      c_root_splits = Atomic.make 0;
      c_history_nodes = Atomic.make 0;
      c_posted = Atomic.make 0;
      c_drained = Atomic.make 0;
      c_purged = Atomic.make 0;
      c_merges = Atomic.make 0;
      trav = Traversal.state ~always_cns:true env ~root;
      gc_mu = Mutex.create ();
    }
  in
  Logical.register_tree root (fun ~tree:_ ~comp ~txn ~prev ~undo_next ->
      logical_undo t ~comp ~txn ~prev ~undo_next);
  t

(* The tree clock must move past every timestamp ever issued; scan the
   current leaf level for the maximum on open. Structural stamps (time
   splits) may exceed every entry stamp, but a time split raises the
   current node's t_low to its stamp, so scanning both entry stamps and
   time-cell floors covers them. *)
let recover_clock t =
  let rec leftmost fr =
    let p = page fr in
    if Page.level p = 0 then fr
    else begin
      let _, child = Tnode.index_term p 0 in
      let cfr = pin t child in
      unpin t fr;
      leftmost cfr
    end
  in
  let rec walk fr acc =
    let p = page fr in
    let acc =
      let m = ref acc in
      for i = 0 to Tnode.entry_count p - 1 do
        let _, time = Ordkey.decompose (Tnode.entry_key p i) in
        if time > !m then m := time
      done;
      let tl = (Tnode.time_of p).Tnode.t_low in
      if tl > !m then m := tl;
      !m
    in
    let sib = Page.side_ptr p in
    unpin t fr;
    if sib = Page.nil then acc else walk (pin t sib) acc
  in
  let top = pin t t.root in
  let max_time = walk (leftmost top) 0 in
  Atomic.set t.clock (max_time + 1);
  (* Under SI the allocator, not the tree clock, is the stamp source;
     push it past everything this tree ever issued. *)
  if si_enabled t then Snapshot.observe_floor (snap t) max_time

(* Combiner construction and the Mvcc vtable need the read/write paths
   below; wired up after they are defined. *)
let attach_combiner_fwd : (t -> unit) ref = ref (fun _ -> ())
let register_mvcc_fwd : (t -> unit) ref = ref (fun _ -> ())

let create env ~name =
  let root = Env.create_tree env ~name:("tsb:" ^ name) ~kind:Page.Data ~level:0 in
  let t = attach env ~name ~root in
  !attach_combiner_fwd t;
  !register_mvcc_fwd t;
  Atomic_action.run (mgr t) (fun txn ->
      let fr = pin t root in
      latch fr Latch.X;
      update t txn fr
        (Page_op.insert_run ~slot:0
           [
             Tnode.fence_cell Bnode.whole_fence;
             Tnode.time_cell { Tnode.t_low = 0; t_high = None };
           ]);
      unlatch fr Latch.X;
      unpin t fr);
  t

let open_existing env ~name =
  match Env.find_tree env ~name:("tsb:" ^ name) with
  | None -> None
  | Some root ->
      let t = attach env ~name ~root in
      recover_clock t;
      !attach_combiner_fwd t;
      !register_mvcc_fwd t;
      Some t

(* ---------- writes ---------- *)

let write_version ?time t txn ~key version =
  (* [time] is given only by Mvcc's commit-time install: the whole SI
     write set shares one already-allocated (and tracked) timestamp. *)
  let time = match time with Some ts -> ts | None -> alloc_ts t txn in
  let ckey = Ordkey.composite key time in
  let cell = Tnode.version_cell ~composite:ckey version in
  let rec attempt tries =
    if tries > 200 then failwith "tsb.put: too many restarts";
    let _, fr = Tr.descend t ~key:ckey ~target:0 ~mode:Latch.U in
    let p = page fr in
    if
      not
        (Lock_manager.try_acquire (locks t) ~owner:txn.Txn.id (record_res t key)
           Lock_mode.X)
    then begin
      unlatch fr Latch.U;
      unpin t fr;
      Lock_manager.acquire (locks t) ~owner:txn.Txn.id (record_res t key) Lock_mode.X;
      attempt (tries + 1)
    end
    else
      match Tnode.find p ckey with
      | `Found _ -> failwith "tsb: duplicate timestamp"
      | `Not_found i ->
          if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
            promote fr;
            let lundo =
              if txn.Txn.kind = Txn.User && not (Env.config t.env).Env.page_oriented_undo
              then Some { Log_record.tree = t.root; comp = Logical.Remove { key = ckey } }
              else None
            in
            ignore
              (Txn_mgr.update ?lundo (mgr t) txn fr
                 (Page_op.Insert_slot { slot = Tnode.slot_of_entry i; cell }));
            unlatch fr Latch.X;
            unpin t fr
          end
          else begin
            unlatch fr Latch.U;
            unpin t fr;
            split_current t ~ckey ~need:(String.length cell);
            attempt (tries + 1)
          end
  in
  attempt 0;
  time

(* Combined write batch: one User transaction covers every request the
   leader drained from its slot, so one WAL flush enrollment (with
   [~commits] crediting the fan-in) makes the whole batch durable.
   Unlike blink, each key still takes its own CNS descent here — versioned
   keys are composites of (key, fresh timestamp) so two requests rarely
   share a leaf — but the shared txn collapses N commit flushes into one.
   Lock acquisition may block, which is safe because the lock manager's
   wait-for graph raises [Deadlock] instead of hanging; any batch failure
   aborts the txn and hands every request back to the direct path. *)
let apply_batch t (reqs : (string * string) array) =
  let n = Array.length reqs in
  let results = Array.make n Handback in
  let txn = Txn_mgr.begin_txn (mgr t) Txn.User in
  (try
     let applied = ref 0 in
     Array.iteri
       (fun i (key, value) ->
         let time = write_version t txn ~key (Tnode.Value value) in
         results.(i) <- Applied time;
         incr applied)
       reqs;
     Crash_point.hit Combine.crash_point_applied;
     Txn_mgr.commit ~commits:(max 1 !applied) (mgr t) txn
   with
   | Crash_point.Crash_requested _ as e -> raise e
   | _ ->
       if Txn.is_active txn then Txn_mgr.abort (mgr t) txn;
       Array.fill results 0 n Handback);
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

let put_direct ?txn t ~key ~value =
  Tr.with_autocommit t txn (fun txn -> write_version t txn ~key (Tnode.Value value))

let put ?txn t ~key ~value =
  Atomic.incr t.c_puts;
  match (txn, t.combiner) with
  | None, Some combiner -> (
      match Combine.submit combiner ~hash:(Hashtbl.hash key) (key, value) with
      | Applied time -> time
      | Handback ->
          Combine.note_handback ();
          put_direct t ~key ~value)
  | _ -> put_direct ?txn t ~key ~value

let remove ?txn t key =
  Tr.with_autocommit t txn (fun txn -> write_version t txn ~key Tnode.Tombstone)

let now t = Atomic.get t.clock - 1

(* ---------- reads ---------- *)

(* Search the current node, then the history chain (newest slice first),
   for the newest version of [key] stamped <= [time]. The caller holds no
   latches on [fr] paths; history nodes are immutable so plain pins are
   safe once reached. *)
let version_in_page p ~key ~time =
  match Tnode.floor_entry p (Ordkey.composite key time) with
  | None -> None
  | Some i ->
      let ck = Tnode.entry_key p i in
      if Ordkey.belongs_to ck ~key then
        let _, payload = Tnode.entry p i in
        let _, stamp = Ordkey.decompose ck in
        Some (stamp, Tnode.version_of_payload payload)
      else None

(* Walk the history sibling chain, newest first (Figure 1: the current
   node is responsible for all previous time through its historical
   pointers). History nodes are immutable once linked, so plain pins
   suffice regardless of how the caller reached [pid] — with one
   carve-out: the GC drain ({!gc}) frees fully-expired chain tails, and
   key-split siblings share chains, so a walk may step onto a page the
   drain already freed (or the allocator re-used). Such a page fails the
   history-flag test and terminates the walk: everything past it is
   below the GC horizon, which no surviving read asks for. *)
let walk_history t ~key ~time pid =
  let rec walk pid =
    if pid = Page.nil then None
    else
      match pin t pid with
      | exception Not_found -> None
      | hfr ->
          let hp = page hfr in
          if not (is_history hp) then begin
            unpin t hfr;
            None
          end
          else begin
            let v = version_in_page hp ~key ~time in
            let next = Page.aux_ptr hp in
            unpin t hfr;
            match v with Some _ -> v | None -> walk next
          end
  in
  walk pid

let lookup_asof_latched t ~key ~time =
  let ckey = Ordkey.composite key time in
  let _, fr = Tr.descend t ~key:ckey ~target:0 ~mode:Latch.S in
  let p = page fr in
  let current = version_in_page p ~key ~time in
  let r =
    match current with
    | Some v -> Some v
    | None ->
        (* Hold the S latch across the chain walk: the GC drain takes X
           on this current node before cutting or freeing its chain, so
           the chain head stays live while we hold it. *)
        walk_history t ~key ~time (Page.aux_ptr p)
  in
  unlatch fr Latch.S;
  unpin t fr;
  r

(* Latch-free variant: the current node's version and history pointer
   are read under a validated snapshot. The chain walk re-validates the
   current node afterwards: a GC drain bumps its version word before
   cutting the chain, so a walk that raced a cut (or the re-use of freed
   chain pages) is discarded and the descent restarts. *)
let lookup_asof_olc t ~key ~time =
  let ckey = Ordkey.composite key time in
  let fr, v = Tr.olc_descend t ckey in
  match
    (* The whole read — current-node decode AND chain walk — is guarded
       by [fr]'s version word: the GC drain bumps it before cutting or
       freeing chain pages, so [Olc.decoding] keyed to [fr] correctly
       arbitrates decode blow-ups anywhere along the walk. *)
    Olc.decoding fr v (fun () ->
        let p = page fr in
        let current = version_in_page p ~key ~time in
        let chain = Page.aux_ptr p in
        Olc.validate fr v;
        match current with
        | Some _ -> current
        | None ->
            let r = walk_history t ~key ~time chain in
            Olc.validate fr v;
            r)
  with
  | exception e ->
      unpin t fr;
      raise e
  | r ->
      unpin t fr;
      r

let lookup_asof ~drain t ~key ~time =
  Tr.read ~drain t
    ~optimistic:(fun () -> lookup_asof_olc t ~key ~time)
    ~latched:(fun () -> lookup_asof_latched t ~key ~time)

let value_asof ~drain t key ~time =
  match lookup_asof ~drain t ~key ~time with
  | Some (_, Tnode.Value v) -> Some v
  | Some (_, Tnode.Tombstone) | None -> None

let get_asof ?txn t key ~time = value_asof ~drain:(txn = None) t key ~time

let get ?txn t key = get_asof ?txn t key ~time:max_int

(* Version-store vtable for snapshot-isolation commits (Mvcc): the FCW
   check reads the newest stamp of a key (tombstones count — a delete is
   a conflicting write), and [apply] installs the already-validated write
   set at the transaction's single commit timestamp. *)
let () =
  register_mvcc_fwd :=
    fun t ->
      Mvcc.register_tree t.root
        {
          Mvcc.newest =
            (fun key ->
              Option.map fst (lookup_asof ~drain:false t ~key ~time:max_int));
          apply =
            (fun txn ~time ~key ~value ->
              Atomic.incr t.c_puts;
              ignore
                (write_version ~time t txn ~key
                   (match value with
                   | Some v -> Tnode.Value v
                   | None -> Tnode.Tombstone)));
        }

let history t key =
  let ckey = Ordkey.composite key max_int in
  let _, fr = Tr.descend t ~key:ckey ~target:0 ~mode:Latch.S in
  let collect p acc =
    let rec go i acc =
      if i >= Tnode.entry_count p then acc
      else
        let ck = Tnode.entry_key p i in
        if Ordkey.belongs_to ck ~key then
          let _, stamp = Ordkey.decompose ck in
          let _, payload = Tnode.entry p i in
          go (i + 1) ((stamp, Tnode.version_of_payload payload) :: acc)
        else go (i + 1) acc
    in
    match Tnode.find p (Ordkey.composite key 0) with
    | `Found i | `Not_found i -> go i acc
  in
  let p = page fr in
  let acc = collect p [] in
  let chain = Page.aux_ptr p in
  (* As in [lookup_asof_latched]: the S latch held across the walk keeps
     the GC drain off this chain; a freed shared tail ends the walk. *)
  let rec walk pid acc =
    if pid = Page.nil then acc
    else
      match pin t pid with
      | exception Not_found -> acc
      | hfr ->
          if not (is_history (page hfr)) then begin
            unpin t hfr;
            acc
          end
          else begin
            let acc = collect (page hfr) acc in
            let next = Page.aux_ptr (page hfr) in
            unpin t hfr;
            walk next acc
          end
  in
  let all = walk chain acc in
  unlatch fr Latch.S;
  unpin t fr;
  (* Alive versions are duplicated into each history slice; dedup by
     stamp. *)
  let seen = Hashtbl.create 16 in
  all
  |> List.filter (fun (stamp, _) ->
         if Hashtbl.mem seen stamp then false
         else begin
           Hashtbl.replace seen stamp ();
           true
         end)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (stamp, v) ->
         (stamp, match v with Tnode.Value s -> Some s | Tnode.Tombstone -> None))

let range_asof t ~time ?low ?high ~init ~f =
  let start = Ordkey.composite (Option.value low ~default:"") 0 in
  let beyond k = match high with None -> false | Some h -> String.compare k h >= 0 in
  let before k = match low with None -> false | Some l -> String.compare k l < 0 in
  (* Collect the distinct user keys present at the current level (every key
     ever written retains at least its newest version there), then resolve
     each as of [time]. *)
  let _, fr = Tr.descend t ~key:start ~target:0 ~mode:Latch.S in
  let rec leaves fr acc =
    let p = page fr in
    let acc =
      let a = ref acc in
      for i = 0 to Tnode.entry_count p - 1 do
        let k, _ = Ordkey.decompose (Tnode.entry_key p i) in
        if (not (before k)) && not (beyond k) then
          match !a with
          | k' :: _ when String.equal k' k -> ()
          | _ -> a := k :: !a
      done;
      !a
    in
    let sib = Page.side_ptr p in
    let continue_ =
      sib <> Page.nil
      &&
      match ((Tnode.fence p).Bnode.high, high) with
      | None, _ -> false
      | Some _, None -> true
      | Some fh, Some h ->
          let fk, _ = Ordkey.decompose fh in
          String.compare fk h < 0
    in
    if continue_ then leaves (Tr.hop t fr Latch.S sib Latch.S) acc
    else begin
      unlatch fr Latch.S;
      unpin t fr;
      acc
    end
  in
  let keys = List.rev (leaves fr []) in
  List.fold_left
    (fun acc k ->
      match value_asof ~drain:false t k ~time with
      | Some v -> f acc k v
      | None -> acc)
    init keys

(* ---------- GC: horizon, history drain, tombstone purge, merge ----------

   [set_horizon] declares that no future read will ask for a time at or
   below the horizon. [gc] then reclaims what such reads can no longer
   reach, in three steps per current leaf, each a well-formed atomic
   action (section 2.1.3 — a crash at any point leaves a searchable tree
   and recovers with no merge-specific code):

   - {b drain}: cut the longest fully-expired tail off the history chain
     and free its nodes onto the environment free list. Slices are
     contiguous and ordered newest-first, so the first node with
     [t_high <= horizon] starts an all-expired tail. Key splits share
     chains (Figure 1 copies the history pointer into the new sibling),
     so a tail may already have been freed through the other sibling: a
     non-history node terminates the walk, and the cut frees nothing at
     or past it.
   - {b purge}: once the leaf's chain is fully drained, drop version
     runs whose newest entry is a tombstone stamped at or below the
     horizon — the key then reads as absent at every surviving time,
     which is exactly what the tombstone said. (With history remaining,
     a purge would be unsafe unless the tombstone also lives in a
     history slice; we keep the conservative chain-empty rule.)
   - {b merge}: a leaf left empty with no history merges away
     blink-style — the inverse of a key split, as one atomic action: its
     containing (left) sibling under the same parent takes over its
     fence and key-sibling pointer, the parent drops its index term, and
     the page is freed.

   [gc] is a maintenance pass: it serializes against itself, and callers
   must quiesce {e writers} on this tree while it runs (the engine's CNS
   invariant promises traversals that reachable nodes are never
   consolidated; we keep that promise by consolidating only inside this
   pass). Concurrent {e readers} stay safe: latched readers hold S on
   the current node across chain walks, which the drain's X excludes,
   and optimistic readers re-validate the current node after the walk. *)

let set_horizon t time =
  (* Under snapshot isolation the horizon may not pass what a live
     snapshot can still read, nor the allocator watermark as of the last
     completed checkpoint: min(oldest live snapshot - 1, checkpoint
     floor). Requests beyond the cap are clamped, not rejected — callers
     re-request as snapshots retire and checkpoints complete. *)
  let time = if si_enabled t then min time (Snapshot.gc_cap (snap t)) else time in
  let rec bump () =
    let h = Atomic.get t.horizon in
    if time > h && not (Atomic.compare_and_set t.horizon h time) then bump ()
  in
  bump ()

let horizon t = Atomic.get t.horizon

(* Cut and free [fr]'s expired chain tail; [fr] is the X-latched current
   node, inside [txn]. Returns pages freed. *)
let drain_chain t txn fr =
  let h = Atomic.get t.horizon in
  let expired hp =
    match (Tnode.time_of hp).Tnode.t_high with
    | Some th -> th <= h
    | None -> false
  in
  (* Walk to the first expired (or already-freed) node, keeping the frame
     whose [aux_ptr] names it pinned: the current node itself, or a
     history node (latched only for the logged cut). *)
  let rec find_cut holder pid =
    if pid = Page.nil then begin
      (match holder with `Hist f -> unpin t f | `Current -> ());
      None
    end
    else
      match pin t pid with
      | exception Not_found -> Some (holder, pid, false)
      | hfr ->
          let hp = page hfr in
          if not (is_history hp) then begin
            (* Freed through a chain-sharing sibling; sever, free nothing. *)
            unpin t hfr;
            Some (holder, pid, false)
          end
          else if expired hp then begin
            unpin t hfr;
            Some (holder, pid, true)
          end
          else begin
            let next = Page.aux_ptr hp in
            (match holder with `Hist f -> unpin t f | `Current -> ());
            find_cut (`Hist hfr) next
          end
  in
  match find_cut `Current (Page.aux_ptr (page fr)) with
  | None -> 0
  | Some (holder, first, free_tail) ->
      (match holder with
      | `Current ->
          update t txn fr
            (Page_op.Set_aux_ptr { old_ptr = first; new_ptr = Page.nil })
      | `Hist hfr ->
          latch hfr Latch.X;
          update t txn hfr
            (Page_op.Set_aux_ptr { old_ptr = first; new_ptr = Page.nil });
          unlatch hfr Latch.X;
          unpin t hfr);
      Crash_point.hit "tsb.drain.cut";
      if not free_tail then 0
      else begin
        let rec free pid n =
          if pid = Page.nil then n
          else
            match pin t pid with
            | exception Not_found -> n
            | hfr ->
                latch hfr Latch.X;
                if not (is_history (page hfr)) then begin
                  unlatch hfr Latch.X;
                  unpin t hfr;
                  n
                end
                else begin
                  let next = Page.aux_ptr (page hfr) in
                  Env.dealloc_page t.env txn hfr;
                  Crash_point.hit "tsb.drain.freed";
                  unlatch hfr Latch.X;
                  unpin t hfr;
                  Atomic.incr t.c_drained;
                  free next (n + 1)
                end
        in
        free first 0
      end

(* Purge expired-tombstone runs from the X-latched current [fr]. Only
   legal once the chain is empty: with history behind the node, dropping
   the tombstone from the current level would let a read fall through to
   an older live value and resurrect the deleted key. Returns entries
   purged. *)
let purge_runs t txn fr =
  let p = page fr in
  if Page.aux_ptr p <> Page.nil then 0
  else begin
    let h = Atomic.get t.horizon in
    let n = Tnode.entry_count p in
    let doomed = Array.make (max n 1) false in
    (* Entries sort by (key, time) ascending, so each run's last entry is
       its newest version. *)
    let i = ref (n - 1) in
    while !i >= 0 do
      let k, stamp = Ordkey.decompose (Tnode.entry_key p !i) in
      let s = ref !i in
      while
        !s > 0 && String.equal (fst (Ordkey.decompose (Tnode.entry_key p (!s - 1)))) k
      do
        decr s
      done;
      (match Tnode.version_of_payload (snd (Tnode.entry p !i)) with
      | Tnode.Tombstone when stamp <= h ->
          for j = !s to !i do
            doomed.(j) <- true
          done
      | _ -> ());
      i := !s - 1
    done;
    let first = Tnode.slot_of_entry 0 in
    update t txn fr (Page_op.delete_where p (fun j -> j >= first && doomed.(j - first)));
    let purged = Array.fold_left (fun a d -> if d then a + 1 else a) 0 doomed in
    ignore (Atomic.fetch_and_add t.c_purged purged);
    purged
  end

(* Merge an empty, history-less leaf into its containing (left) sibling —
   the same contained-into-containing action as the B-link engine's
   consolidation (section 3.3), re-tested from scratch inside the action
   (idempotent completion, section 5.1). [ckey] routes into the victim. *)
let merge_empty t ~ckey =
  let merged = ref 0 in
  Atomic_action.run (mgr t) (fun txn ->
      let _, fr = Tr.descend t ~key:ckey ~target:1 ~mode:Latch.U in
      let pp = page fr in
      let give_up () =
        unlatch fr Latch.U;
        unpin t fr
      in
      match Tnode.floor_entry pp ckey with
      | None -> give_up ()
      | Some 0 ->
          (* Leftmost child: its containing node lives under a different
             parent, so both section 3.3 conditions fail. *)
          give_up ()
      | Some i ->
          let _, c_pid = Tnode.index_term pp i in
          let _, ln_pid = Tnode.index_term pp (i - 1) in
          promote fr;
          let lnfr = pin t ln_pid in
          latch lnfr Latch.X;
          let cfr = pin t c_pid in
          latch cfr Latch.X;
          let release_all () =
            unlatch cfr Latch.X;
            unpin t cfr;
            unlatch lnfr Latch.X;
            unpin t lnfr;
            unlatch fr Latch.X;
            unpin t fr
          in
          let lnp = page lnfr and cp = page cfr in
          let still_linked = Page.side_ptr lnp = c_pid in
          let still_empty =
            Page.level cp = 0
            && Tnode.entry_count cp = 0
            && Page.aux_ptr cp = Page.nil
            && not (is_history cp)
          in
          if not (still_linked && still_empty) then release_all ()
          else begin
            (* LN takes over C's delegation boundary, responsibility and
               key-sibling chain; no records to move. *)
            let lnf = Tnode.fence lnp and cf = Tnode.fence cp in
            update t txn lnfr
              (Page_op.Replace_slot
                 {
                   slot = 0;
                   old_cell = Tnode.fence_cell lnf;
                   new_cell =
                     Tnode.fence_cell
                       {
                         Bnode.low = lnf.Bnode.low;
                         high = cf.Bnode.high;
                         resp_high = cf.Bnode.resp_high;
                       };
                 });
            update t txn lnfr
              (Page_op.Set_side_ptr { old_ptr = c_pid; new_ptr = Page.side_ptr cp });
            let term_cell = Page.get pp (Tnode.slot_of_entry i) in
            update t txn fr
              (Page_op.Delete_slot { slot = Tnode.slot_of_entry i; cell = term_cell });
            Crash_point.hit "tsb.merge.unlinked";
            Env.dealloc_page t.env txn cfr;
            Crash_point.hit "tsb.merge.freed";
            Atomic.incr t.c_merges;
            merged := 1;
            release_all ()
          end);
  !merged

let gc t =
  Mutex.lock t.gc_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.gc_mu) @@ fun () ->
  let freed = ref 0 in
  let empties = ref [] in
  let rec leftmost pid =
    let fr = pin t pid in
    let p = page fr in
    if Page.level p = 0 then begin
      unpin t fr;
      pid
    end
    else begin
      let _, child = Tnode.index_term p 0 in
      unpin t fr;
      leftmost child
    end
  in
  (* One atomic action per leaf: drain, then purge, then note an emptied
     leaf's low key for the merge sweep below (merging re-descends from
     the root, so a stale candidate is simply re-tested away). *)
  let rec sweep pid =
    if pid <> Page.nil then begin
      let next =
        Atomic_action.run (mgr t) (fun txn ->
            let fr = pin t pid in
            latch fr Latch.X;
            let p = page fr in
            let next = Page.side_ptr p in
            freed := !freed + drain_chain t txn fr;
            ignore (purge_runs t txn fr : int);
            if
              Tnode.entry_count p = 0
              && Page.aux_ptr p = Page.nil
              && Page.id p <> t.root
            then empties := (Tnode.fence p).Bnode.low :: !empties;
            unlatch fr Latch.X;
            unpin t fr;
            next)
      in
      sweep next
    end
  in
  sweep (leftmost t.root);
  List.iter
    (function
      | Some low -> freed := !freed + merge_empty t ~ckey:low
      | None -> ())
    (List.rev !empties);
  !freed

(* ---------- inspection ---------- *)

module WF = Wellformed.Make (Keyspace.Interval)

let read_view t pid =
  match pin t pid with
  | exception Not_found -> None
  | fr ->
      let p = page fr in
      let view =
        match Page.kind p with
        | Page.Free | Page.Meta -> None
        | Page.Data | Page.Index ->
            if is_history p then None
            else begin
              let f = Tnode.fence p in
              let responsible =
                Keyspace.Interval.make ~low:f.Bnode.low ~high:f.Bnode.resp_high
              in
              let directly = Keyspace.Interval.make ~low:f.Bnode.low ~high:f.Bnode.high in
              let sibling_terms =
                if Page.side_ptr p = Page.nil then []
                else
                  [
                    ( Keyspace.Interval.make ~low:f.Bnode.high ~high:f.Bnode.resp_high,
                      Page.side_ptr p );
                  ]
              in
              let index_terms =
                if Page.kind p <> Page.Index then []
                else
                  Tnode.(
                    let n = entry_count p in
                    let rec terms i acc =
                      if i >= n then List.rev acc
                      else
                        let sep, child = index_term p i in
                        let low = if i = 0 then f.Bnode.low else Some sep in
                        let high =
                          if i = n - 1 then f.Bnode.high
                          else Some (fst (index_term p (i + 1)))
                        in
                        terms (i + 1) ((Keyspace.Interval.make ~low ~high, child) :: acc)
                    in
                    terms 0 [])
              in
              Some
                {
                  WF.id = pid;
                  level = Page.level p;
                  responsible;
                  directly_contained = directly;
                  index_terms;
                  sibling_terms;
                }
            end
      in
      unpin t fr;
      view

(* History-chain sanity: every chain node is a history node; time slices
   are ordered oldest-outward and contiguous with the referencing node. *)
let check_chains t =
  let errors = ref [] in
  let err node message =
    errors := { Wellformed.node; condition = 2; message } :: !errors
  in
  let rec leaf_walk pid =
    if pid <> Page.nil then begin
      let fr = pin t pid in
      let p = page fr in
      if Page.level p = 0 then begin
        let rec chain pid expected_high =
          if pid <> Page.nil then begin
            match pin t pid with
            | exception Not_found -> ()
            | hfr ->
                let hp = page hfr in
                if not (is_history hp) then
                  (* End of chain, not corruption: key splits copy the
                     history pointer into both siblings, and a
                     chain-sharing sibling's drain may have freed (and
                     reused) everything from here down. Reads
                     ([walk_history]) and the gc drain ([find_cut])
                     both stop here — everything past a freed node is
                     below the horizon — so the verifier accepts the
                     dangle the same way; the next drain through the
                     holder severs it. *)
                  unpin t hfr
                else begin
                  let tc = Tnode.time_of hp in
                  (match (tc.Tnode.t_high, expected_high) with
                  | Some th, Some exp when th <> exp ->
                      err pid
                        (Printf.sprintf
                           "time slice not contiguous: t_high=%d expected %d" th exp)
                  | None, _ -> err pid "history node with open time slice"
                  | _ -> ());
                  let next = Page.aux_ptr hp in
                  let nlow = tc.Tnode.t_low in
                  unpin t hfr;
                  chain next (Some nlow)
                end
          end
        in
        let tc = Tnode.time_of p in
        chain (Page.aux_ptr p) (Some tc.Tnode.t_low)
      end;
      let next = Page.side_ptr p in
      let lvl = Page.level p in
      unpin t fr;
      if lvl = 0 then leaf_walk next
    end
  in
  (* Find the leftmost leaf. *)
  let rec leftmost pid =
    let fr = pin t pid in
    let p = page fr in
    if Page.level p = 0 then begin
      unpin t fr;
      pid
    end
    else begin
      let _, child = Tnode.index_term p 0 in
      unpin t fr;
      leftmost child
    end
  in
  leaf_walk (leftmost t.root);
  !errors

let verify t =
  let report = WF.check ~root:t.root ~read:(read_view t) in
  let chain_errors = check_chains t in
  {
    report with
    Wellformed.errors = report.Wellformed.errors @ chain_errors;
  }

let stats t =
  {
    puts = Atomic.get t.c_puts;
    time_splits = Atomic.get t.c_time_splits;
    key_splits = Atomic.get t.c_key_splits;
    root_splits = Atomic.get t.c_root_splits;
    history_nodes = Atomic.get t.c_history_nodes;
    side_traversals = Atomic.get t.trav.side_traversals;
    postings_completed = Atomic.get t.c_posted;
    history_nodes_freed = Atomic.get t.c_drained;
    tombstones_purged = Atomic.get t.c_purged;
    merges = Atomic.get t.c_merges;
  }

(* Tie the posting knot. *)
let () =
  post_action := fun t ~level ~address ~key -> do_post_action t ~level ~address ~key
