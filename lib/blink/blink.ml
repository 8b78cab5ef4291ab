module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch
module Version = Pitree_sync.Version
module Olc = Pitree_storage.Olc
module Page_op = Pitree_wal.Page_op
module Lsn = Pitree_wal.Lsn
module Log_record = Pitree_wal.Log_record
module Log_manager = Pitree_wal.Log_manager
module Logical = Pitree_wal.Logical
module Lock_mode = Pitree_lock.Lock_mode
module Lock_manager = Pitree_lock.Lock_manager
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Crash_point = Pitree_util.Crash_point
module Combine = Pitree_combine.Combine
module Env = Pitree_env.Env
module Saved_path = Pitree_core.Saved_path
module Wellformed = Pitree_core.Wellformed
module Keyspace = Pitree_core.Keyspace
module Traversal = Pitree_core.Traversal

(* Every Crash_point.hit site in this engine, pre-registered so sweep
   harnesses can enumerate them before any fires. *)
let () =
  List.iter Crash_point.register
    [
      "blink.split.linked";
      "blink.split.committed";
      "blink.root.grown";
      "blink.post.latched";
      "blink.post.updated";
      "blink.post.done";
      "blink.consolidate.linked";
      "blink.merge.moved";
      "blink.merge.freed";
    ]

type stats = {
  searches : int;
  inserts : int;
  deletes : int;
  leaf_splits : int;
  index_splits : int;
  root_splits : int;
  side_traversals : int;
  postings_scheduled : int;
  postings_completed : int;
  postings_noop : int;
  consolidations : int;
  consolidations_skipped : int;
  path_reuse_hits : int;
  full_retraversals : int;
  lock_restarts : int;
  olc_restarts : int;
  olc_fallbacks : int;
  descents : int;
}

(* Mutable atomic counters behind the frozen [stats] snapshot. *)
type counters = {
  c_searches : int Atomic.t;
  c_inserts : int Atomic.t;
  c_deletes : int Atomic.t;
  c_leaf_splits : int Atomic.t;
  c_index_splits : int Atomic.t;
  c_root_splits : int Atomic.t;
  c_postings_completed : int Atomic.t;
  c_postings_noop : int Atomic.t;
  c_consolidations : int Atomic.t;
  c_consolidations_skipped : int Atomic.t;
  c_path_reuse_hits : int Atomic.t;
  c_full_retraversals : int Atomic.t;
  c_lock_restarts : int Atomic.t;
}

let fresh_counters () =
  {
    c_searches = Atomic.make 0;
    c_inserts = Atomic.make 0;
    c_deletes = Atomic.make 0;
    c_leaf_splits = Atomic.make 0;
    c_index_splits = Atomic.make 0;
    c_root_splits = Atomic.make 0;
    c_postings_completed = Atomic.make 0;
    c_postings_noop = Atomic.make 0;
    c_consolidations = Atomic.make 0;
    c_consolidations_skipped = Atomic.make 0;
    c_path_reuse_hits = Atomic.make 0;
    c_full_retraversals = Atomic.make 0;
    c_lock_restarts = Atomic.make 0;
  }

let bump c = Atomic.incr c

type t = {
  env : Env.t;
  name : string;
  root : int;
  c : counters;
  (* The shared traversal's per-tree state: root pin cache, queued
     postings and the descent / side-step / OLC counters. *)
  trav : Traversal.state;
  (* Dedup of queued consolidation tasks, keyed by under-utilized pid. *)
  consol : Traversal.dedup;
  (* How move locks are realized under page-oriented UNDO (section 4.2.2):
     one node-granule lock, or one U lock per record to be moved. *)
  mutable move_granularity : [ `Node | `Record ];
  (* Hot-key write combining: non-transactional inserts funnel through
     this per-tree combiner ([Env.config.combine]). A combined request
     the batch could not serve is [Handback]: the caller re-runs it on
     the normal single-op path. *)
  mutable combiner : (string * string, comb_res) Combine.t option;
}

and comb_res = Applied | Handback

let env t = t.env
let name t = t.name
let root t = t.root
let set_move_granularity t g = t.move_granularity <- g
let move_granularity t = t.move_granularity

(* ---------- frame helpers ---------- *)

let pool t = Env.pool t.env
let mgr t = Env.txns t.env
let locks t = Env.locks t.env
let cfg t = Env.config t.env

let pin t pid = Buffer_pool.pin (pool t) pid
let unpin t fr = Buffer_pool.unpin (pool t) fr
let page = Traversal.page
let rank = Traversal.rank
let latch = Traversal.latch
let unlatch = Traversal.unlatch
let unlatch_at = Traversal.unlatch_at
let promote = Traversal.promote

(* Test-only protocol-bug injection (validated by lib/sim's schedule
   explorer): deliberately break the split protocol so the oracles —
   linearizability and well-formedness — can be shown to catch it. *)
type injected_bug =
  | No_bug
  | Early_unlatch_split
  | Early_unlatch_merge
      (* drop every latch mid-merge, after the containing node took over
         the contained node's space but before the parent's index term is
         removed: two nodes directly claim the same key space *)
  | Bad_post_sep
  | No_version_bump
      (* writers take and release X latches correctly but never touch the
         node's version word, so optimistic readers validate stale reads *)
  | Ack_before_durable
      (* the combining leader broadcasts success to its followers before
         the batch is applied or committed (Combine.Testing) *)

let injected_bug = ref No_bug

(* Logged page update under [txn]; caller holds the X latch. *)
let update t txn fr op =
  if not (Page_op.is_noop op) then ignore (Txn_mgr.update (mgr t) txn fr op)

(* One logged change over several pages (frames X-latched): a structure
   change that moves cells logs its fill and its truncation together. *)
let move t txn parts = ignore (Txn_mgr.move (mgr t) txn parts)

(* Leaf-record update by a user transaction. Under non-page-oriented UNDO
   it carries a logical-undo descriptor, because committed independent
   structure changes may move the record before this transaction
   finishes (sections 4.2, 6). *)
let update_record t txn fr op ~comp =
  let lundo =
    if (cfg t).Env.page_oriented_undo || txn.Txn.kind <> Txn.User then None
    else Some { Log_record.tree = t.root; comp }
  in
  ignore (Txn_mgr.update ?lundo (mgr t) txn fr op)

(* ---------- creation ---------- *)

(* Forward declaration: creation registers trees with the logical-undo
   registry defined further down. *)
let register_tree_fwd : (t -> unit) ref = ref (fun _ -> ())
let register_tree_hook t = !register_tree_fwd t

(* Forward declaration: the combiner's batch apply needs the whole
   traversal/lock machinery below. *)
let attach_combiner_fwd : (t -> unit) ref = ref (fun _ -> ())
let attach_combiner t = !attach_combiner_fwd t

let make e ~name ~root =
  {
    env = e;
    name;
    root;
    c = fresh_counters ();
    trav = Traversal.state e ~root;
    consol = Traversal.dedup ();
    move_granularity = `Node;
    combiner = None;
  }

let create e ~name =
  let root = Env.create_tree e ~name ~kind:Page.Data ~level:0 in
  let t = make e ~name ~root in
  (* Give the root its fence cell (responsible for the whole space). *)
  Atomic_action.run (mgr t) (fun txn ->
      let fr = pin t root in
      latch fr Latch.X;
      update t txn fr
        (Page_op.Insert_slot { slot = 0; cell = Node.fence_cell Node.whole_fence });
      unlatch fr Latch.X;
      unpin t fr);
  register_tree_hook t;
  attach_combiner t;
  t

(* For file-persistent databases restarted in a fresh process: recovery may
   need this tree's logical-undo handler BEFORE the catalog is readable, so
   callers that persist root pids externally can pre-register. *)
let register_for_recovery e ~root =
  register_tree_hook (make e ~name:(Printf.sprintf "<recovery:%d>" root) ~root)

let open_existing e ~name =
  match Env.find_tree e ~name with
  | None -> None
  | Some root ->
      let t = make e ~name ~root in
      register_tree_hook t;
      attach_combiner t;
      Some t

(* ---------- traversal (sections 2.1, 5.1; see Pitree_core.Traversal) ---------- *)

let move_locked t pid =
  List.exists
    (fun (_, m) -> m = Lock_mode.Move || m = Lock_mode.X)
    (Lock_manager.holders (locks t) (Lock_manager.Node { tree = t.root; page = pid }))

(* Forward declaration: the posting action needs the traversal machinery
   and vice versa. *)
let post_action :
    (t -> level:int -> path:Saved_path.t -> address:int -> key:string -> unit) ref
  =
  ref (fun _ ~level:_ ~path:_ ~address:_ ~key:_ -> assert false)

module Tr = Traversal.Make (struct
  type nonrec t = t
  type key = string

  let state t = t.trav

  let route p key =
    if not (Node.contains p key) then Traversal.Side (Page.side_ptr p)
    else if Page.level p = 0 then Traversal.Here
    else
      (* Index nodes always carry a least separator <= every key they
         directly contain (the leftmost uses ""); none means a torn read. *)
      match Node.floor_entry p key with
      | Some i -> Traversal.Child (snd (Node.index_term p i), i)
      | None -> Traversal.Here

  (* A move lock on the split node means the split's transaction has not
     committed: do not post its index term (section 4.2.2). *)
  let may_post t ~container =
    (not (cfg t).Env.page_oriented_undo) || not (move_locked t container)

  let post t ~level ~path ~address key = !post_action t ~level ~path ~address ~key
end)

let pending_postings t = Traversal.queued t.trav.posts

(* ---------- node split (section 3.2.1) ---------- *)

(* Split the node in [fr] (X-latched, pinned) under [txn]. Returns
   (separator, sibling frame) with the sibling pinned but not latched —
   nothing else can reach it until the caller releases [fr]'s X latch.
   Steps 1-5 of section 3.2.1; step 6 (posting) is the caller's business
   because its timing depends on the transactional context. *)
(* Pick the split position and separator. Normally the byte-balanced
   midpoint; a single-entry node (possible with near-page-size records)
   splits around the pending key so that the retried insert finds room. *)
let choose_split p ~pending =
  let n = Node.entry_count p in
  if n >= 2 then begin
    let s = Node.split_point p in
    (s, fst (Node.entry p s))
  end
  else begin
    assert (n = 1);
    let k0, _ = Node.entry p 0 in
    match pending with
    | Some k when String.compare k k0 > 0 -> (1, k)
    | _ -> (0, k0)
  end

let split_node t txn fr ~pending =
  let p = page fr in
  let s, sep = choose_split p ~pending in
  let f = Node.fence p in
  let qfr =
    Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p)
  in
  let q = page qfr in
  (* New sibling: delegated [sep, old high); responsible through the old
     sibling chain, so it inherits fence.high/resp_high and the side
     pointer (section 3.2.1 step 3: "include any sibling terms to subspaces
     for which the new node is now responsible"). The original node keeps
     [low, sep): the moved records leave it in the same log record. *)
  move t txn
    (( qfr,
       Page_op.insert_run ~slot:0
         (Node.fence_cell
            { Node.low = Some sep; high = f.Node.high; resp_high = f.Node.resp_high }
         :: Page_op.cells_from p ~slot:(Node.slot_of_entry s)) )
     :: (if Page.side_ptr p = Page.nil then []
         else [ (qfr, Page_op.Set_side_ptr { old_ptr = Page.nil; new_ptr = Page.side_ptr p }) ])
    @ [ (fr, Page_op.delete_where p (fun i -> i >= Node.slot_of_entry s)) ]);
  (* Injected bug 1: drop the X latch after moving the upper records out
     but before shrinking the fence — a reader slipping into the window
     sees the node still claiming [low, old high) with those records
     gone, and wrongly reports their keys absent. *)
  if !injected_bug = Early_unlatch_split then begin
    unlatch fr Latch.X;
    Pitree_util.Sched_hook.yield Point "blink.bug.window";
    latch fr Latch.X
  end;
  update t txn fr
    (Page_op.Replace_slot
       {
         slot = 0;
         old_cell = Node.fence_cell f;
         new_cell =
           Node.fence_cell
             { Node.low = f.Node.low; high = Some sep; resp_high = f.Node.resp_high };
       });
  update t txn fr
    (Page_op.Set_side_ptr { old_ptr = Page.side_ptr p; new_ptr = Page.id q });
  if Page.level p = 0 then bump t.c.c_leaf_splits else bump t.c.c_index_splits;
  Crash_point.hit "blink.split.linked";
  (sep, qfr)

(* Root growth (section 5.3 Space Test, root case). [fr] is the root,
   X-latched and full. The root's contents move to fresh nodes one level
   down; the root itself becomes an index node one level up and never
   moves. Returns the two children (pinned, unlatched): (left, sep, right). *)
let grow_root t txn fr ~pending =
  let sep, qfr = split_node t txn fr ~pending in
  let p = page fr in
  let lfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
  (* Left child takes everything the (post-split) root still holds; the
     root is stripped and raised one level, all in one log record. *)
  move t txn
    [
      (lfr, Page_op.insert_run ~slot:0 (Page_op.cells_from p ~slot:0));
      (lfr, Page_op.Set_side_ptr { old_ptr = Page.nil; new_ptr = Page.id (page qfr) });
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
            Node.fence_cell Node.whole_fence;
            Node.index_term_cell ~sep:"" ~child:(Page.id (page lfr));
            Node.index_term_cell ~sep ~child:(Page.id (page qfr));
          ] );
    ];
  bump t.c.c_root_splits;
  Crash_point.hit "blink.root.grown";
  (lfr, sep, qfr)

(* ---------- the index-term posting action (section 5.3) ---------- *)

(* Step 1 (Search): reach the node at [level] whose directly-contained
   space includes [key], U-latched — reusing the saved path when state
   identifiers allow (section 5.2). *)
let search_for_posting t ~key ~level ~path =
  let cp = Tr.cp t in
  (* Candidate re-entry points, nearest level first. *)
  let candidates =
    List.filter (fun e -> e.Saved_path.level >= level) path
    |> List.sort (fun a b -> compare a.Saved_path.level b.Saved_path.level)
  in
  let from_root () =
    bump t.c.c_full_retraversals;
    let _, fr = Tr.descend t ~key ~target:level ~mode:Latch.U in
    fr
  in
  let rec try_candidates = function
    | [] -> from_root ()
    | e :: rest -> (
        match pin t e.Saved_path.pid with
        | exception Not_found -> try_candidates rest
        | fr
          when cp
               && (let w = Version.peek (Latch.version fr.Buffer_pool.latch) in
                   (not (Version.is_locked w)) && not (Saved_path.matches e ~version:w))
          ->
            (* Latch-free rejection: an even version word that disagrees
               with the remembered state identifier proves the node has
               changed — no point latching it just to discover that. (An
               odd word proves nothing either way; fall through to the
               latched check.) *)
            unpin t fr;
            try_candidates rest
        | fr ->
            let m = if e.Saved_path.level = level then Latch.U else Latch.S in
            latch fr m;
            let p = page fr in
            let usable =
              if cp then
                (* CP + "de-allocation is a node update": an unchanged state
                   identifier proves the node is still the one we saw
                   (section 5.2.2 strategy (b)). *)
                Page.lsn p = e.Saved_path.state_id
              else
                (* CNS: nodes are immortal; any index node at the right
                   level can be re-searched. *)
                Page.kind p = Page.Index && Page.level p = e.Saved_path.level
            in
            if not usable then begin
              unlatch fr m;
              unpin t fr;
              try_candidates rest
            end
            else begin
              bump t.c.c_path_reuse_hits;
              if e.Saved_path.level = level then
                fst (Tr.settle t ~key ~m:Latch.U ~path:Saved_path.empty fr)
              else
                let _, fr =
                  Tr.descend_from t ~key ~target:level ~mode:Latch.U fr
                    Saved_path.empty
                in
                fr
            end)
  in
  try_candidates candidates

(* Space Test (section 5.3 step 3): make room in the X-latched [fr] for
   [need] bytes at [poskey], splitting (or growing the root) as necessary.
   Returns the X-latched frame whose space contains [poskey]. Splits
   performed here schedule their own postings through [on_split]. *)
let rec ensure_space t txn fr ~poskey ~need ~on_split =
  let p = page fr in
  if Page.will_fit p (need + Page.slot_overhead) then fr
  else if Page.id p = t.root then begin
    let rank0 = rank p in
    let lfr, sep, qfr = grow_root t txn fr ~pending:(Some poskey) in
    (* Descend one level to whichever new node owns [poskey]. *)
    let target, other =
      if String.compare poskey sep < 0 then (lfr, qfr) else (qfr, lfr)
    in
    latch target Latch.X;
    unpin t other;
    unlatch_at rank0 fr Latch.X;
    unpin t fr;
    ensure_space t txn target ~poskey ~need ~on_split
  end
  else begin
    let sep, qfr = split_node t txn fr ~pending:(Some poskey) in
    on_split ~node:fr ~sep ~sibling:(Page.id (page qfr));
    if String.compare poskey sep < 0 then begin
      unpin t qfr;
      ensure_space t txn fr ~poskey ~need ~on_split
    end
    else begin
      latch qfr Latch.X;
      unlatch fr Latch.X;
      unpin t fr;
      ensure_space t txn qfr ~poskey ~need ~on_split
    end
  end

(* The complete posting action. *)
let do_post_action t ~level ~path ~address ~key =
  let finished = ref false in
  let deferred = ref [] in
  Atomic_action.run (mgr t) (fun txn ->
      (* 1. Search. *)
      let fr = search_for_posting t ~key ~level ~path in
      let release_u () =
        unlatch fr Latch.U;
        unpin t fr
      in
      (* 2. Verify Split: the tree state is testable; posting may already
         be done or no longer needed (section 5.1). *)
      if Node.find_child_term (page fr) address <> None then begin
        release_u ();
        bump t.c.c_postings_noop
      end
      else begin
        match Node.floor_entry (page fr) key with
        | None ->
            release_u ();
            bump t.c.c_postings_noop
        | Some i ->
            let _, child = Node.index_term (page fr) i in
            let cfr = pin t child in
            latch cfr Latch.S;
            let cp = page cfr in
            if Node.contains cp key then begin
              (* The child directly contains the key: the split we were
                 told about has been consolidated away. *)
              unlatch cfr Latch.S;
              unpin t cfr;
              release_u ();
              bump t.c.c_postings_noop
            end
            else begin
              (* The child delegates the key's space to its sibling: that
                 sibling is the node whose term we post (it may differ from
                 ADDRESS if splits raced us). *)
              let sib = Page.side_ptr cp in
              let sep =
                match (Node.fence cp).Node.high with
                | Some h -> h
                | None -> assert false (* cannot delegate without a bound *)
              in
              unlatch cfr Latch.S;
              unpin t cfr;
              if Node.find_child_term (page fr) sib <> None then begin
                release_u ();
                bump t.c.c_postings_noop
              end
              else begin
                promote fr;
                Crash_point.hit "blink.post.latched";
                (* Injected bug 2: post a separator one byte short, so the
                   index term claims space the child is not responsible
                   for (well-formedness condition 3). *)
                let sep =
                  if !injected_bug = Bad_post_sep && String.length sep > 1
                  then String.sub sep 0 (String.length sep - 1)
                  else sep
                in
                (* 3. Space Test. *)
                let cell = Node.index_term_cell ~sep ~child:sib in
                let this_level = Page.level (page fr) in
                let on_split ~node ~sep ~sibling =
                  deferred :=
                    `Post (this_level, Page.id (page node), sep, sibling)
                    :: !deferred
                in
                let fr =
                  ensure_space t txn fr ~poskey:sep
                    ~need:(String.length cell) ~on_split
                in
                (* 4. Update NODE. *)
                let slot =
                  match Node.find (page fr) sep with
                  | `Found _ ->
                      (* A term with this separator exists but points
                         elsewhere; posting is not needed after all. *)
                      None
                  | `Not_found i -> Some (Node.slot_of_entry i)
                in
                (match slot with
                | Some slot ->
                    update t txn fr (Page_op.Insert_slot { slot; cell });
                    finished := true
                | None -> bump t.c.c_postings_noop);
                Crash_point.hit "blink.post.updated";
                unlatch fr Latch.X;
                unpin t fr
              end
            end
      end);
  if !finished then bump t.c.c_postings_completed;
  (* Postings for index-node splits performed by the space test are
     scheduled only now, after the action committed (section 3.2.1 step 6). *)
  List.iter
    (fun (`Post (lvl, container, sep, sibling)) ->
      (* The saved path above [lvl] is still a fine starting hint. *)
      Tr.schedule_posting t ~level:lvl ~container ~sibling
        ~path:(Saved_path.above path lvl) sep)
    !deferred;
  Crash_point.hit "blink.post.done"

(* Tie the forward knot. *)
let () =
  post_action :=
    fun t ~level ~path ~address ~key -> do_post_action t ~level ~path ~address ~key

(* ---------- leaf split orchestration (section 4.2) ---------- *)

(* Runs one split attempt for the leaf containing [key] as an independent
   atomic action. Returns [true] if it split (or found the split already
   done). Raises [Busy] never — converts it into a blocking wait + retry
   by the caller. *)
let split_leaf_independent t ~key ~need =
  let page_undo = (cfg t).Env.page_oriented_undo in
  let run_action () =
    Atomic_action.run (mgr t) (fun txn ->
        (* Acquire the move-lock protection with the no-wait rule: try
           while latched; on failure release the latch, block-acquire the
           conflicting lock under this same action transaction (so it
           cannot be snatched away), and re-descend. Two realizations per
           section 4.2.2: a node-granule Move lock, or per-record U locks
           on exactly the records to be moved. *)
        let rec attempt tries =
          if tries > 200 then failwith "blink: split cannot acquire move locks";
          let path, fr = Tr.descend t ~key ~target:0 ~mode:Latch.U in
          let p = page fr in
          if
            Node.entry_count p < 1
            || Page.will_fit p (need + Page.slot_overhead)
            (* Someone else already made room: re-tested, nothing to do
               (section 5.1). *)
          then begin
            unlatch fr Latch.U;
            unpin t fr;
            `Done
          end
          else begin
            let blocked =
              if not page_undo then None
              else
                match t.move_granularity with
                | `Node ->
                    let res = Lock_manager.Node { tree = t.root; page = Page.id p } in
                    if
                      Lock_manager.try_acquire (locks t) ~owner:txn.Txn.id res
                        Lock_mode.Move
                    then None
                    else Some (res, Lock_mode.Move)
                | `Record ->
                    let s, _ = choose_split p ~pending:(Some key) in
                    let n = Node.entry_count p in
                    let rec lock_from i =
                      if i >= n then None
                      else
                        let k, _ = Node.entry p i in
                        let res = Lock_manager.Record { tree = t.root; key = k } in
                        if
                          Lock_manager.try_acquire (locks t) ~owner:txn.Txn.id res
                            Lock_mode.U
                        then lock_from (i + 1)
                        else Some (res, Lock_mode.U)
                    in
                    lock_from s
            in
            match blocked with
            | Some (res, mode) ->
                bump t.c.c_lock_restarts;
                unlatch fr Latch.U;
                unpin t fr;
                (* Latch-free blocking wait, keeping the lock for the next
                   attempt (the paper's re-examination loop: re-descending
                   recomputes which records need moving). *)
                Lock_manager.acquire (locks t) ~owner:txn.Txn.id res mode;
                attempt (tries + 1)
            | None ->
                promote fr;
                if Page.id p = t.root then begin
                  let rank0 = rank p in
                  let lfr, _, qfr = grow_root t txn fr ~pending:(Some key) in
                  unpin t lfr;
                  unpin t qfr;
                  unlatch_at rank0 fr Latch.X;
                  unpin t fr;
                  `Done
                end
                else begin
                  let sep, qfr = split_node t txn fr ~pending:(Some key) in
                  let sibling = Page.id (page qfr) in
                  unpin t qfr;
                  unlatch fr Latch.X;
                  unpin t fr;
                  `Split (path, Page.id p, sep, sibling)
                end
          end
        in
        attempt 0)
  in
  let rec go tries =
    let result =
      match run_action () with
      | r -> r
      | exception Lock_manager.Deadlock _ ->
          (* The action was chosen as deadlock victim and aborted (its
             locks are gone); retry from scratch. *)
          bump t.c.c_lock_restarts;
          if tries > 100 then failwith "blink: split deadlock livelock";
          `Retry
    in
    match result with
    | `Done -> ()
    | `Retry -> go (tries + 1)
    | `Split (path, pid, sep, sibling) ->
        Crash_point.hit "blink.split.committed";
        (* Step 6: schedule the posting in a separate atomic action. *)
        Tr.schedule_posting t ~level:0 ~container:pid ~sibling ~path sep
  in
  go 0

(* Split inside the user transaction (page-oriented undo, and the
   transaction already updated records in this node - section 4.2.1/4.2.2).
   The caller holds no latches. The move lock is the transaction's
   node-level lock converted upward; it stays until commit/abort. The index
   term is posted only if/after the transaction commits. *)
let split_leaf_in_txn t txn ~key ~need =
  let rec go tries =
    if tries > 100 then failwith "blink: move lock starvation (in txn)";
    let path, fr = Tr.descend t ~key ~target:0 ~mode:Latch.U in
    let p = page fr in
    if Node.entry_count p < 1 || Page.will_fit p (need + Page.slot_overhead)
    then begin
      unlatch fr Latch.U;
      unpin t fr
    end
    else begin
      let res = Lock_manager.Node { tree = t.root; page = Page.id p } in
      if not (Lock_manager.try_acquire (locks t) ~owner:txn.Txn.id res Lock_mode.Move)
      then begin
        unlatch fr Latch.U;
        unpin t fr;
        bump t.c.c_lock_restarts;
        Lock_manager.acquire (locks t) ~owner:txn.Txn.id res Lock_mode.Move;
        go (tries + 1)
      end
      else begin
        promote fr;
        if Page.id p = t.root then begin
          let rank0 = rank p in
          let lfr, _, qfr = grow_root t txn fr ~pending:(Some key) in
          unpin t lfr;
          unpin t qfr;
          unlatch_at rank0 fr Latch.X;
          unpin t fr
        end
        else begin
          let sep, qfr = split_node t txn fr ~pending:(Some key) in
          let pid = Page.id p in
          let sibling = Page.id (page qfr) in
          unpin t qfr;
          unlatch fr Latch.X;
          unpin t fr;
          (* Defer the posting to commit; abort undoes the split and no
             term must ever be posted (section 4.2.2). *)
          Txn.add_on_commit txn (fun () ->
              Tr.schedule_posting t ~level:0 ~container:pid ~sibling ~path sep)
        end
      end
    end
  in
  go 0

(* ---------- record-level operations ---------- *)

let record_res t key = Lock_manager.Record { tree = t.root; key }
let node_res t pid = Lock_manager.Node { tree = t.root; page = pid }

(* Acquire the update-time locks (X record; IX node when move locks are in
   play) under the no-wait rule: latches are held, so only try_acquire is
   allowed; on failure the caller backs off. *)
let try_update_locks t txn ~pid ~key =
  let lk = locks t in
  let need_node = (cfg t).Env.page_oriented_undo in
  let ok_node =
    (not need_node)
    || Lock_manager.try_acquire lk ~owner:txn.Txn.id (node_res t pid) Lock_mode.IX
  in
  ok_node
  && Lock_manager.try_acquire lk ~owner:txn.Txn.id (record_res t key) Lock_mode.X

let blocking_update_locks t txn ~pid ~key =
  let lk = locks t in
  if (cfg t).Env.page_oriented_undo then
    Lock_manager.acquire lk ~owner:txn.Txn.id (node_res t pid) Lock_mode.IX;
  Lock_manager.acquire lk ~owner:txn.Txn.id (record_res t key) Lock_mode.X

(* Release speculative locks taken for an update that could not proceed
   (the transaction has not touched the node under them). *)
let release_speculative t txn ~pid ~key =
  let lk = locks t in
  if not (List.mem (t.root, pid) txn.Txn.updated_nodes) then begin
    Lock_manager.release lk ~owner:txn.Txn.id (record_res t key);
    if (cfg t).Env.page_oriented_undo then
      Lock_manager.release lk ~owner:txn.Txn.id (node_res t pid)
  end

(* An autocommit operation picked as deadlock victim (its transaction is
   aborted, its locks are gone) retries transparently: the client never
   held a transaction to re-run. Explicit transactions surface the
   exception — only the client knows what else the transaction did. *)
let rec autocommit_deadlock_retry ?txn t ~tries op =
  match op () with
  | v -> v
  | exception Lock_manager.Deadlock _ when txn = None ->
      bump t.c.c_lock_restarts;
      if tries > 100 then failwith "blink: autocommit deadlock livelock";
      autocommit_deadlock_retry ?txn t ~tries:(tries + 1) op

let rec insert_direct ?txn t ~key ~value =
  autocommit_deadlock_retry ?txn t ~tries:0 (fun () ->
      insert_direct_once ?txn t ~key ~value)

and insert_direct_once ?txn t ~key ~value =
  let cell = Node.record_cell ~key ~value in
  Tr.with_autocommit t txn (fun txn ->
      let rec attempt tries =
        if tries > 200 then failwith "blink.insert: too many restarts";
        let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.U in
        let p = page fr in
        let pid = Page.id p in
        if not (try_update_locks t txn ~pid ~key) then begin
          unlatch fr Latch.U;
          unpin t fr;
          bump t.c.c_lock_restarts;
          (* No-wait rule: wait for the locks without holding latches, then
             revalidate by re-descending. *)
          blocking_update_locks t txn ~pid ~key;
          attempt (tries + 1)
        end
        else begin
          match Node.find p key with
          | `Found i ->
              let old_cell = Page.get p (Node.slot_of_entry i) in
              if
                Page.will_fit p (String.length cell)
                || String.length cell <= String.length old_cell
              then begin
                promote fr;
                update_record t txn fr
                  (Page_op.Replace_slot
                     { slot = Node.slot_of_entry i; old_cell; new_cell = cell })
                  ~comp:(Logical.Put { cell = old_cell });
                txn.Txn.updated_nodes <- (t.root, pid) :: txn.Txn.updated_nodes;
                unlatch fr Latch.X;
                unpin t fr
              end
              else begin
                unlatch fr Latch.U;
                unpin t fr;
                split_for t txn ~pid ~key ~need:(String.length cell);
                attempt (tries + 1)
              end
          | `Not_found i ->
              if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
                promote fr;
                update_record t txn fr
                  (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell })
                  ~comp:(Logical.Remove { key });
                txn.Txn.updated_nodes <- (t.root, pid) :: txn.Txn.updated_nodes;
                unlatch fr Latch.X;
                unpin t fr
              end
              else begin
                unlatch fr Latch.U;
                unpin t fr;
                split_for t txn ~pid ~key ~need:(String.length cell);
                attempt (tries + 1)
              end
        end
      in
      attempt 0)

(* Decide the split regime (section 4.2.1) and run it. The caller holds no
   latches. *)
and split_for t txn ~pid ~key ~need =
  let page_undo = (cfg t).Env.page_oriented_undo in
  if page_undo && List.mem (t.root, pid) txn.Txn.updated_nodes then
    split_leaf_in_txn t txn ~key ~need
  else begin
    release_speculative t txn ~pid ~key;
    split_leaf_independent t ~key ~need
  end

(* ---------- hot-key write combining (ROADMAP item 3) ----------

   The combining leader applies a whole batch of puts with ONE descent,
   ONE X latch and ONE commit: a §2.1.3 well-formed atomic action (all
   latches acquired inside, all released before it ends, every update
   logged physiologically under one transaction), so crash recovery
   already knows how to undo a half-applied batch. Per-key obstacles —
   key outside the reached leaf, record lock busy, cell does not fit —
   hand that request back to the caller's normal single-op path; the
   no-wait rule is preserved because the leader NEVER blocks on a lock
   while latched (it does not block on locks at all).

   The batch transaction holds the X record locks of every applied key
   until its commit, which precedes the followers' wake-up, so a handed
   back follower re-running [insert_direct] never deadlocks against its
   own batch. *)

let apply_batch t (reqs : (string * string) array) =
  let n = Array.length reqs in
  let results = Array.make n Handback in
  let txn = Txn_mgr.begin_txn (mgr t) Txn.User in
  let applied = ref 0 in
  match
    let key0, _ = reqs.(0) in
    let _, fr = Tr.descend t ~key:key0 ~target:0 ~mode:Latch.U in
    let p = page fr in
    let pid = Page.id p in
    let f = Node.fence p in
    (* [Node.contains] checks only the upper bound (descents approach from
       the left); batch members other than [key0] need both. *)
    let in_leaf key =
      (match f.Node.low with None -> true | Some l -> String.compare key l >= 0)
      && match f.Node.high with None -> true | Some h -> String.compare key h < 0
    in
    let locked = Hashtbl.create (min n 16) in
    let promoted = ref false in
    Array.iteri
      (fun i (key, value) ->
        let cell = Node.record_cell ~key ~value in
        let lock_ok () =
          Hashtbl.mem locked key
          ||
          if try_update_locks t txn ~pid ~key then begin
            Hashtbl.replace locked key ();
            true
          end
          else false
        in
        if in_leaf key && lock_ok () then begin
          let ensure_x () =
            if not !promoted then begin
              promote fr;
              promoted := true
            end
          in
          match Node.find p key with
          | `Found j ->
              let old_cell = Page.get p (Node.slot_of_entry j) in
              if
                Page.will_fit p (String.length cell)
                || String.length cell <= String.length old_cell
              then begin
                ensure_x ();
                update_record t txn fr
                  (Page_op.Replace_slot
                     { slot = Node.slot_of_entry j; old_cell; new_cell = cell })
                  ~comp:(Logical.Put { cell = old_cell });
                if not (List.mem (t.root, pid) txn.Txn.updated_nodes) then
                  txn.Txn.updated_nodes <- (t.root, pid) :: txn.Txn.updated_nodes;
                results.(i) <- Applied;
                incr applied
              end
          | `Not_found j ->
              if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
                ensure_x ();
                update_record t txn fr
                  (Page_op.Insert_slot { slot = Node.slot_of_entry j; cell })
                  ~comp:(Logical.Remove { key });
                if not (List.mem (t.root, pid) txn.Txn.updated_nodes) then
                  txn.Txn.updated_nodes <- (t.root, pid) :: txn.Txn.updated_nodes;
                results.(i) <- Applied;
                incr applied
              end
        end)
      reqs;
    unlatch fr (if !promoted then Latch.X else Latch.U);
    unpin t fr
  with
  | () ->
      (* Between the leaf updates and the commit: a crash here must roll
         the whole batch back (no follower has been acked yet). *)
      Crash_point.hit Combine.crash_point_applied;
      Txn_mgr.commit ~commits:(max 1 !applied) (mgr t) txn;
      results
  | exception (Crash_point.Crash_requested _ as e) -> raise e
  | exception e ->
      if Txn.is_active txn then Txn_mgr.abort (mgr t) txn;
      raise e

let () =
  attach_combiner_fwd :=
    fun t ->
      let c = cfg t in
      if c.Env.combine then
        t.combiner <-
          Some
            (Combine.create ~slots:c.Env.combine_slots
               ~window_us:c.Env.combine_window_us ~early_res:Applied
               ~apply:(fun reqs -> apply_batch t reqs)
               ())

let insert ?txn t ~key ~value =
  bump t.c.c_inserts;
  match (txn, t.combiner) with
  | None, Some combiner ->
      (match Combine.submit combiner ~hash:(Hashtbl.hash key) (key, value) with
      | Applied -> ()
      | Handback ->
          Combine.note_handback ();
          insert_direct t ~key ~value)
  | _ -> insert_direct ?txn t ~key ~value

let consolidate_action : (t -> key:string -> level:int -> unit) ref =
  ref (fun _ ~key:_ ~level:_ -> assert false)

let maybe_schedule_consolidation t ~key ~pid ~level =
  if (cfg t).Env.consolidation && pid <> t.root then
    ignore
      (Traversal.schedule_once t.env t.consol pid (fun () ->
           !consolidate_action t ~key ~level))

let underutilized p = Node.utilization p < 0.25

let delete ?txn t key =
  bump t.c.c_deletes;
  autocommit_deadlock_retry ?txn t ~tries:0 @@ fun () ->
  Tr.with_autocommit t txn (fun txn ->
      let rec attempt tries =
        if tries > 200 then failwith "blink.delete: too many restarts";
        let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.U in
        let p = page fr in
        let pid = Page.id p in
        match Node.find p key with
        | `Not_found _ ->
            unlatch fr Latch.U;
            unpin t fr;
            false
        | `Found i ->
            if not (try_update_locks t txn ~pid ~key) then begin
              unlatch fr Latch.U;
              unpin t fr;
              bump t.c.c_lock_restarts;
              blocking_update_locks t txn ~pid ~key;
              attempt (tries + 1)
            end
            else begin
              promote fr;
              let cell = Page.get p (Node.slot_of_entry i) in
              update_record t txn fr
                (Page_op.Delete_slot { slot = Node.slot_of_entry i; cell })
                ~comp:(Logical.Put { cell });
              txn.Txn.updated_nodes <- (t.root, pid) :: txn.Txn.updated_nodes;
              let low = underutilized p in
              unlatch fr Latch.X;
              unpin t fr;
              if low then maybe_schedule_consolidation t ~key ~pid ~level:0;
              true
            end
      in
      attempt 0)

(* The classic S-latched search — still the fallback when optimistic
   descents keep failing, and the whole path when [olc_reads] is off. *)
let find_latched t key =
  let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.S in
  let p = page fr in
  let r =
    match Node.find p key with
    | `Found i -> Some (snd (Node.record p i))
    | `Not_found _ -> None
  in
  unlatch fr Latch.S;
  unpin t fr;
  r

let find_olc t key =
  let fr, v = Tr.olc_descend t key in
  match
    let p = page fr in
    let r =
      Olc.decoding fr v (fun () ->
          match Node.find p key with
          | `Found i -> Some (snd (Node.record p i))
          | `Not_found _ -> None)
    in
    (* The record bytes were copied out above; prove they were not torn
       before anyone sees them. *)
    Olc.validate fr v;
    r
  with
  | r ->
      unpin t fr;
      r
  | exception e ->
      unpin t fr;
      raise e

(* Locked read: the record's S lock is taken under the no-wait rule (only
   try_acquire while latched; on failure wait latch-free, then revalidate
   by re-descending) and held to the transaction's commit — repeatable
   reads for explicit transactions. *)
let find_in_txn ~txn t key =
  let rec attempt tries =
    if tries > 200 then failwith "blink.find: too many restarts";
    let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.S in
    if
      Lock_manager.try_acquire (locks t) ~owner:txn.Txn.id (record_res t key)
        Lock_mode.S
    then begin
      let p = page fr in
      let r =
        match Node.find p key with
        | `Found i -> Some (snd (Node.record p i))
        | `Not_found _ -> None
      in
      unlatch fr Latch.S;
      unpin t fr;
      r
    end
    else begin
      unlatch fr Latch.S;
      unpin t fr;
      bump t.c.c_lock_restarts;
      Lock_manager.acquire (locks t) ~owner:txn.Txn.id (record_res t key)
        Lock_mode.S;
      attempt (tries + 1)
    end
  in
  attempt 0

let find ?txn t key =
  bump t.c.c_searches;
  match txn with
  | Some txn -> find_in_txn ~txn t key
  | None ->
      Tr.read t
        ~optimistic:(fun () -> find_olc t key)
        ~latched:(fun () -> find_latched t key)

(* Records of [p] in [[start, high)), in key order. *)
let collect_batch ~start ~beyond p =
  Node.(
    let n = entry_count p in
    let rec collect i acc =
      if i >= n then List.rev acc
      else
        let k, v = record p i in
        if String.compare k start < 0 then collect (i + 1) acc
        else if beyond k then List.rev acc
        else collect (i + 1) ((k, v) :: acc)
    in
    collect 0 [])

let range_latched t ~start ~high ~init ~f =
  let beyond k = match high with None -> false | Some h -> String.compare k h >= 0 in
  let _, fr = Tr.descend t ~key:start ~target:0 ~mode:Latch.S in
  let rec walk fr acc =
    let p = page fr in
    (* Copy the in-range records out, then release before calling [f]. *)
    let batch = collect_batch ~start ~beyond p in
    let fence_high = (Node.fence p).Node.high in
    let sib = Page.side_ptr p in
    let continue_ =
      match fence_high with
      | None -> false
      | Some h -> (not (beyond h)) && sib <> Page.nil
    in
    let next =
      if continue_ then Some (Tr.hop t fr Latch.S sib Latch.S)
      else begin
        unlatch fr Latch.S;
        unpin t fr;
        None
      end
    in
    let acc = List.fold_left (fun acc (k, v) -> f acc k v) acc batch in
    match next with None -> acc | Some sfr -> walk sfr acc
  in
  walk fr init

(* Latch-free scan. Per-leaf validation is not enough here: a scan that
   commits leaf batches one at a time can miss a put into a leaf it has
   passed while observing a later put into a leaf still ahead, an
   inversion no single linearization point explains (the latched scan's
   latch coupling forbids it for adjacent leaves, which is why it never
   shows there). So the whole range is read as ONE optimistic unit:
   every visited leaf stays pinned (pins block both eviction and frame
   reuse, keeping each version word bound to its page) with the snapshot
   its batch was read under, and after the last leaf the entire chain is
   re-proved in one pass. Success means no visited leaf changed between
   its read and that pass — every batch was simultaneously current at
   the final validation, making the scan a point-in-time read. Any
   failed proof restarts the scan from [start]; a chain too long for the
   pool raises [Pool_exhausted] (dropping all pins) and, like every
   other transient, falls back to the latched protocol after the retry
   budget. *)
let range_olc t ~start ~high ~init ~f =
  let beyond k = match high with None -> false | Some h -> String.compare k h >= 0 in
  let attempt () =
    (* Visited leaves, pinned, newest first, each with the version its
       batch must still match at the end. A frame enters the chain the
       moment this attempt owns its pin, so the [exception] arm below
       can always release everything. *)
    let chain = ref [] in
    let unpin_chain () = List.iter (fun (fr, _) -> unpin t fr) !chain in
    let snapshot_into_chain fr =
      chain := (fr, 0) :: !chain;
      let v = Olc.snapshot fr in
      chain := (fr, v) :: List.tl !chain;
      v
    in
    match
      let fr0, _ = Tr.olc_descend t start in
      let rec leaves fr pos batches =
        let v = snapshot_into_chain fr in
        let p = page fr in
        (* The descent (or the previous leaf's side pointer) proved [fr]
           was the right leaf THEN; re-prove it under this snapshot — in
           the window in between the root can grow (leaf becomes index,
           in place) or a split can shrink the fence past [pos]. The
           final chain pass would catch a stale read anyway; failing
           here is just cheaper than scanning garbage. *)
        Olc.live p;
        (* Decode region for THIS leaf only (the recursion happens outside
           it so a deeper failure is judged against its own frame). *)
        let batches, next =
          Olc.decoding fr v (fun () ->
              if Page.level p <> 0 || not (Node.contains p pos) then
                raise Olc.Restart;
              let batches = collect_batch ~start:pos ~beyond p :: batches in
              match (Node.fence p).Node.high with
              | None -> (batches, None)
              | Some h when beyond h || Page.side_ptr p = Page.nil ->
                  (batches, None)
              | Some h -> (batches, Some (Page.side_ptr p, h)))
        in
        match next with
        | None -> batches
        | Some (sib, h) ->
            bump t.trav.side_traversals;
            leaves (pin t sib) h batches
      in
      let batches = leaves fr0 start [] in
      List.iter (fun (fr, v) -> Olc.validate fr v) !chain;
      batches
    with
    | exception e ->
        unpin_chain ();
        raise e
    | batches ->
        unpin_chain ();
        List.fold_left
          (fun acc batch ->
            List.fold_left (fun acc (k, v) -> f acc k v) acc batch)
          init (List.rev batches)
  in
  Tr.read t ~optimistic:attempt
    ~latched:(fun () -> range_latched t ~start ~high ~init ~f)

let range t ?low ?high ~init ~f =
  range_olc t ~start:(Option.value low ~default:"") ~high ~init ~f

let count t = range t ?low:None ?high:None ~init:0 ~f:(fun n _ _ -> n + 1)

(* ---------- consolidation (section 3.3) ---------- *)

let do_consolidate t ~key ~level =
  let lk = locks t in
  let page_undo = (cfg t).Env.page_oriented_undo in
  let skipped () = bump t.c.c_consolidations_skipped in
  Atomic_action.run (mgr t) (fun txn ->
        (* Find the parent whose space contains [key]; the candidate
           contained node C is the child the key routes to. *)
        let _, pfr = Tr.descend t ~key ~target:(level + 1) ~mode:Latch.U in
        let pp = page pfr in
        let give_up () =
          unlatch pfr Latch.U;
          unpin t pfr;
          skipped ()
        in
        match Node.floor_entry pp key with
        | None -> give_up ()
        | Some 0 ->
            (* C is the parent's leftmost child: its containing node is
               referenced from a different parent; both conditions of
               section 3.3 fail. *)
            give_up ()
        | Some i ->
            let _, c_pid = Node.index_term pp i in
            let _, ln_pid = Node.index_term pp (i - 1) in
            promote pfr;
            let lnfr = pin t ln_pid in
            latch lnfr Latch.X;
            let cfr = pin t c_pid in
            latch cfr Latch.X;
            let c_rank0 = rank (page cfr) in
            let release_all () =
              unlatch_at c_rank0 cfr Latch.X;
              unpin t cfr;
              unlatch lnfr Latch.X;
              unpin t lnfr;
              unlatch pfr Latch.X;
              unpin t pfr
            in
            let lnp = page lnfr and cp = page cfr in
            (* Re-test the tree state (idempotence, section 5.1): LN must
               still be the containing node of C, C still under-utilized,
               and the merge must fit. *)
            let still_linked = Page.side_ptr lnp = c_pid in
            let still_low = underutilized cp || Node.entry_count cp = 0 in
            let c_bytes =
              Node.(
                let rec total i acc =
                  if i >= entry_count cp then acc
                  else
                    total (i + 1)
                      (acc
                      + String.length (Page.get cp (slot_of_entry i))
                      + Page.slot_overhead)
                in
                total 0 0)
            in
            let fits = Page.free_space lnp > c_bytes + 64 in
            if not (still_linked && still_low && fits) then begin
              release_all ();
              skipped ()
            end
            else if
              page_undo
              && not
                   (Lock_manager.try_acquire lk ~owner:txn.Txn.id
                      (node_res t c_pid) Lock_mode.Move
                   && Lock_manager.try_acquire lk ~owner:txn.Txn.id
                        (node_res t ln_pid) Lock_mode.Move)
            then begin
              release_all ();
              bump t.c.c_lock_restarts;
              skipped ()
            end
            else begin
              (* Move C's records into LN (always contained -> containing,
                 section 3.3). *)
              let first = Node.slot_of_entry 0 in
              move t txn
                [
                  ( lnfr,
                    Page_op.insert_run ~slot:(Page.slot_count lnp)
                      (Page_op.cells_from cp ~slot:first) );
                  (cfr, Page_op.delete_where cp (fun j -> j >= first));
                ];
              Crash_point.hit "blink.merge.moved";
              (* LN takes over C's delegation boundary, responsibility and
                 sibling chain. *)
              let lnf = Node.fence lnp and cf = Node.fence cp in
              update t txn lnfr
                (Page_op.Replace_slot
                   {
                     slot = 0;
                     old_cell = Node.fence_cell lnf;
                     new_cell =
                       Node.fence_cell
                         {
                           Node.low = lnf.Node.low;
                           high = cf.Node.high;
                           resp_high = cf.Node.resp_high;
                         };
                   });
              update t txn lnfr
                (Page_op.Set_side_ptr
                   { old_ptr = c_pid; new_ptr = Page.side_ptr cp });
              (* Injected bug: drop every latch after LN took over C's
                 space but before C's index term leaves the parent — the
                 tree transiently has two nodes directly claiming
                 [c_low, c_high) (LN via its widened fence, C via its
                 unshrunk one), which well-formedness condition 1 (spaces
                 partition) must reject, and a reader routed to the
                 emptied C misses committed keys. *)
              if !injected_bug = Early_unlatch_merge then begin
                unlatch_at c_rank0 cfr Latch.X;
                unlatch lnfr Latch.X;
                unlatch pfr Latch.X;
                Pitree_util.Sched_hook.yield Point "blink.bug.window";
                latch pfr Latch.X;
                latch lnfr Latch.X;
                latch cfr Latch.X
              end;
              (* Delete C's index term from the parent and de-allocate C
                 (a logged node update, section 5.2.2 (b)). *)
              let term_cell = Page.get pp (Node.slot_of_entry i) in
              update t txn pfr
                (Page_op.Delete_slot { slot = Node.slot_of_entry i; cell = term_cell });
              Crash_point.hit "blink.consolidate.linked";
              Env.dealloc_page t.env txn cfr;
              Crash_point.hit "blink.merge.freed";
              bump t.c.c_consolidations;
              release_all ();
              (* The parent may now be under-utilized: consolidation
                 escalates up the tree like splitting does (section 5). *)
              if underutilized pp && Page.id pp <> t.root then
                maybe_schedule_consolidation t ~key ~pid:(Page.id pp)
                  ~level:(level + 1)
            end)

let () = consolidate_action := fun t ~key ~level -> do_consolidate t ~key ~level


(* ---------- logical undo (non-page-oriented UNDO) ---------- *)

(* Registry of live trees by root pid, so the rollback machinery in the
   recovery layer can dispatch logical compensations to us. The Env object
   survives crash/recover in place, so entries registered before a crash
   remain valid during restart recovery. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 8
let registry_mu = Mutex.create ()

(* Apply one compensation through the access method: re-traverse to the
   leaf now holding [key]'s space, apply the inverse record operation there
   and log it as a CLR (redo-only, chained past the undone record). May
   trigger an ordinary independent split if a restored record no longer
   fits. Returns the CLR's LSN, or null if the compensation found nothing
   to do. *)
let logical_undo t ~comp ~txn ~prev ~undo_next =
  let key =
    match comp with
    | Logical.Remove { key } -> key
    | Logical.Put { cell } -> fst (Node.entry_of_cell cell)
  in
  let rec go tries =
    if tries > 100 then failwith "blink: logical undo cannot make progress";
    let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.U in
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
    let finish_x lsn =
      unlatch fr Latch.X;
      unpin t fr;
      lsn
    in
    match comp with
    | Logical.Remove _ -> (
        match Node.find p key with
        | `Found i ->
            promote fr;
            let cell = Page.get p (Node.slot_of_entry i) in
            finish_x
              (apply_clr (Page_op.Delete_slot { slot = Node.slot_of_entry i; cell }))
        | `Not_found _ ->
            (* Already gone (e.g. a prior crash completed this step). *)
            unlatch fr Latch.U;
            unpin t fr;
            Lsn.null)
    | Logical.Put { cell } -> (
        match Node.find p key with
        | `Found i ->
            let old_cell = Page.get p (Node.slot_of_entry i) in
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
              finish_x
                (apply_clr
                   (Page_op.Replace_slot
                      { slot = Node.slot_of_entry i; old_cell; new_cell = cell }))
            end
            else begin
              unlatch fr Latch.U;
              unpin t fr;
              split_leaf_independent t ~key ~need:(String.length cell);
              go (tries + 1)
            end
        | `Not_found i ->
            if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
              promote fr;
              finish_x
                (apply_clr (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell }))
            end
            else begin
              unlatch fr Latch.U;
              unpin t fr;
              split_leaf_independent t ~key ~need:(String.length cell);
              go (tries + 1)
            end)
  in
  go 0

let register_tree t =
  Mutex.lock registry_mu;
  Hashtbl.replace registry t.root t;
  Mutex.unlock registry_mu;
  Logical.register_tree t.root (fun ~tree:_ ~comp ~txn ~prev ~undo_next ->
      logical_undo t ~comp ~txn ~prev ~undo_next)

let () = register_tree_fwd := register_tree

(* ---------- inspection ---------- *)

let height t =
  let fr = pin t t.root in
  let h = Page.level (page fr) + 1 in
  unpin t fr;
  h

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
            let f = Node.fence p in
            let responsible =
              Keyspace.Interval.make ~low:f.Node.low ~high:f.Node.resp_high
            in
            let directly =
              Keyspace.Interval.make ~low:f.Node.low ~high:f.Node.high
            in
            let sibling_terms =
              if Page.side_ptr p = Page.nil then []
              else
                [
                  ( Keyspace.Interval.make ~low:f.Node.high ~high:f.Node.resp_high,
                    Page.side_ptr p );
                ]
            in
            let index_terms =
              if Page.kind p <> Page.Index then []
              else
                Node.(
                  let n = entry_count p in
                  let rec terms i acc =
                    if i >= n then List.rev acc
                    else
                      let sep, child = index_term p i in
                      let low = if i = 0 then f.Node.low else Some sep in
                      let high =
                        if i = n - 1 then f.Node.high
                        else Some (fst (index_term p (i + 1)))
                      in
                      terms (i + 1)
                        ((Keyspace.Interval.make ~low ~high, child) :: acc)
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
      in
      unpin t fr;
      view

let verify t = WF.check ~root:t.root ~read:(read_view t)

let node_count t =
  let seen = Hashtbl.create 64 in
  let rec go pid =
    if not (Hashtbl.mem seen pid) then begin
      Hashtbl.replace seen pid ();
      match read_view t pid with
      | None -> ()
      | Some v ->
          List.iter (fun (_, c) -> go c) v.WF.index_terms;
          List.iter (fun (_, s) -> go s) v.WF.sibling_terms
    end
  in
  go t.root;
  Hashtbl.length seen

let dump t ppf =
  let rec node pid indent =
    match pin t pid with
    | exception Not_found -> Format.fprintf ppf "%s<missing %d>@," indent pid
    | fr ->
        let p = page fr in
        let f = Node.fence p in
        let b = function None -> "inf" | Some s -> Printf.sprintf "%S" s in
        Format.fprintf ppf "%s%s %d L%d [%s,%s|%s) side=%d lsn=%d {%d entries}@,"
          indent
          (match Page.kind p with Page.Data -> "leaf" | _ -> "index")
          pid (Page.level p) (b f.Node.low) (b f.Node.high) (b f.Node.resp_high)
          (Page.side_ptr p) (Page.lsn p) (Node.entry_count p);
        if Page.kind p = Page.Index then begin
          let n = Node.entry_count p in
          for i = 0 to n - 1 do
            let sep, child = Node.index_term p i in
            Format.fprintf ppf "%s  %S ->@," indent sep;
            node child (indent ^ "    ")
          done
        end;
        unpin t fr
  in
  Format.fprintf ppf "@[<v>";
  node t.root "";
  Format.fprintf ppf "@]"

let stats t =
  {
    searches = Atomic.get t.c.c_searches;
    inserts = Atomic.get t.c.c_inserts;
    deletes = Atomic.get t.c.c_deletes;
    leaf_splits = Atomic.get t.c.c_leaf_splits;
    index_splits = Atomic.get t.c.c_index_splits;
    root_splits = Atomic.get t.c.c_root_splits;
    side_traversals = Atomic.get t.trav.side_traversals;
    postings_scheduled = Atomic.get t.trav.postings_scheduled;
    postings_completed = Atomic.get t.c.c_postings_completed;
    postings_noop = Atomic.get t.c.c_postings_noop;
    consolidations = Atomic.get t.c.c_consolidations;
    consolidations_skipped = Atomic.get t.c.c_consolidations_skipped;
    path_reuse_hits = Atomic.get t.c.c_path_reuse_hits;
    full_retraversals = Atomic.get t.c.c_full_retraversals;
    lock_restarts = Atomic.get t.c.c_lock_restarts;
    olc_restarts = Atomic.get t.trav.olc_restarts;
    olc_fallbacks = Atomic.get t.trav.olc_fallbacks;
    descents = Atomic.get t.trav.descents;
  }

let reset_stats t =
  let c = t.c in
  List.iter
    (fun a -> Atomic.set a 0)
    ([
       c.c_searches; c.c_inserts; c.c_deletes; c.c_leaf_splits; c.c_index_splits;
       c.c_root_splits; c.c_postings_completed; c.c_postings_noop;
       c.c_consolidations; c.c_consolidations_skipped; c.c_path_reuse_hits;
       c.c_full_retraversals; c.c_lock_restarts;
     ]
    @ Traversal.counters t.trav)

module Internal = struct
  let leaf_for t key =
    let _, fr = Tr.descend t ~key ~target:0 ~mode:Latch.S in
    fr

  let pin_pid t pid =
    match pin t pid with
    | exception Not_found -> None
    | fr ->
        latch fr Latch.S;
        Some fr

  (* Pin + S-latch [pid] only if it still has the remembered state
     identifier. The version word rejects stale frames without touching
     the latch; a survivor is re-checked under the latch, since the word
     can move between the peek and the acquire. *)
  let pin_pid_if t pid ~state_id =
    match pin t pid with
    | exception Not_found -> None
    | fr ->
        let w = Version.peek (Latch.version fr.Buffer_pool.latch) in
        if (not (Version.is_locked w)) && w <> 2 * state_id then begin
          unpin t fr;
          None
        end
        else begin
          latch fr Latch.S;
          if Page.lsn (page fr) = state_id then Some fr
          else begin
            unlatch fr Latch.S;
            unpin t fr;
            None
          end
        end

  let release_s t fr =
    unlatch fr Latch.S;
    unpin t fr

  let step_right t fr =
    let sib = Page.side_ptr (page fr) in
    if sib = Page.nil then begin
      release_s t fr;
      None
    end
    else Some (Tr.hop t fr Latch.S sib Latch.S)
end

module Testing = struct
  type bug = injected_bug =
    | No_bug
    | Early_unlatch_split
    | Early_unlatch_merge
    | Bad_post_sep
    | No_version_bump
    | Ack_before_durable

  let set_bug b =
    injected_bug := b;
    (* [No_version_bump] is realized one layer down: latches simply stop
       maintaining their version words, which is exactly the mistake a
       writer path would make by mutating without the bump discipline.
       [Ack_before_durable] likewise lives in the combining layer: the
       leader broadcasts success before applying the batch. *)
    Latch.Testing.set_version_bumps (b <> No_version_bump);
    Combine.Testing.set_ack_before_durable (b = Ack_before_durable)

  let bug () = !injected_bug
end
