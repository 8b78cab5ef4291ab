module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch
module Page_op = Pitree_wal.Page_op
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Atomic_action = Pitree_txn.Atomic_action
module Env = Pitree_env.Env
module Node = Pitree_blink.Node

type t = {
  env : Env.t;
  root : int;
  c_searches : int Atomic.t;
  c_inserts : int Atomic.t;
  c_splits : int Atomic.t;
  c_unsafe : int Atomic.t;
}

type stats = { searches : int; inserts : int; splits : int; unsafe_retained : int }

let pool t = Env.pool t.env
let mgr t = Env.txns t.env

let pin t pid = Buffer_pool.pin (pool t) pid
let unpin t fr = Buffer_pool.unpin (pool t) fr
let page fr = fr.Buffer_pool.page
let latch fr m = Latch.acquire fr.Buffer_pool.latch m
let unlatch fr m = Latch.release fr.Buffer_pool.latch m
let update t txn fr op =
  if not (Page_op.is_noop op) then ignore (Txn_mgr.update (mgr t) txn fr op)

(* One logged change over several pages: a split's fill and truncation. *)
let move t txn parts = ignore (Txn_mgr.move (mgr t) txn parts)

let create env ~name =
  let root = Env.create_tree env ~name:("btc:" ^ name) ~kind:Page.Data ~level:0 in
  let t =
    {
      env;
      root;
      c_searches = Atomic.make 0;
      c_inserts = Atomic.make 0;
      c_splits = Atomic.make 0;
      c_unsafe = Atomic.make 0;
    }
  in
  Atomic_action.run (mgr t) (fun txn ->
      let fr = pin t root in
      latch fr Latch.X;
      update t txn fr
        (Page_op.Insert_slot { slot = 0; cell = Node.fence_cell Node.whole_fence });
      unlatch fr Latch.X;
      unpin t fr);
  t

(* A node is safe for an insertion wave if it can absorb one more entry of
   roughly this operation's size without splitting. *)
let safe_for p ~need = Page.will_fit p (need + Page.slot_overhead + 32)

let find t key =
  Atomic.incr t.c_searches;
  let rec down fr =
    let p = page fr in
    if Page.level p = 0 then begin
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
      let i = Option.value (Node.floor_entry p key) ~default:0 in
      let _, child = Node.index_term p i in
      let cfr = pin t child in
      latch cfr Latch.S;
      unlatch fr Latch.S;
      unpin t fr;
      down cfr
    end
  in
  let fr = pin t t.root in
  latch fr Latch.S;
  down fr

(* Split the node at [idx] in the retained X-latched [stack] (root-first;
   every entry except possibly the head may need a split). The new sibling
   term goes into the node above, which is split first if necessary. After
   return, [stack.(idx)] is the node that now owns [key]'s range. *)
let rec make_room t txn stack idx ~key ~need =
  let fr = stack.(idx) in
  let p = page fr in
  if Page.will_fit p (need + Page.slot_overhead) then ()
  else if idx = 0 then begin
    if Page.id p <> t.root then failwith "bt_coupling: safety margin violated";
    (* Root split: contents move to two fresh children; the root page
       itself stays put and gains a level. *)
    Atomic.incr t.c_splits;
    let n = Node.entry_count p in
    let s, sep =
      if n >= 2 then
        let s = Node.split_point p in
        (s, fst (Node.entry p s))
      else
        let k0 = fst (Node.entry p 0) in
        if String.compare key k0 > 0 then (1, key) else (0, k0)
    in
    let lfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
    let rfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
    let entries = Page_op.cells_from p ~slot:(Node.slot_of_entry 0) in
    let half keep =
      Page_op.insert_run ~slot:0
        (Node.fence_cell Node.whole_fence :: List.filteri (fun i _ -> keep i) entries)
    in
    (* The root's truncation comes first, so both halves are logged as
       positions in its cells. *)
    move t txn
      [
        (fr, Page_op.delete_where p (fun _ -> true));
        (lfr, half (fun i -> i < s));
        (rfr, half (fun i -> i >= s));
      ];
    update t txn fr
      (Page_op.Reformat
         {
           old_kind = Page.kind p;
           new_kind = Page.Index;
           old_level = Page.level p;
           new_level = Page.level p + 1;
         });
    update t txn fr
      (Page_op.insert_run ~slot:0
         [
           Node.fence_cell Node.whole_fence;
           Node.index_term_cell ~sep:"" ~child:(Page.id (page lfr));
           Node.index_term_cell ~sep ~child:(Page.id (page rfr));
         ]);
    (* Replace the root in the stack by the child owning [key]; X-latch it
       (fresh pages are unreachable by others while we hold the root X). *)
    let target, other = if String.compare key sep < 0 then (lfr, rfr) else (rfr, lfr) in
    latch target Latch.X;
    unpin t other;
    unlatch fr Latch.X;
    unpin t fr;
    stack.(0) <- target;
    make_room t txn stack 0 ~key ~need
  end
  else begin
    (* Ordinary split: upper half to a new right sibling; term into the
       parent (make room there first — the parent is retained exactly
       because this node was unsafe). *)
    Atomic.incr t.c_splits;
    let n = Node.entry_count p in
    let s, sep =
      if n >= 2 then
        let s = Node.split_point p in
        (s, fst (Node.entry p s))
      else
        let k0 = fst (Node.entry p 0) in
        if String.compare key k0 > 0 then (1, key) else (0, k0)
    in
    let qfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
    move t txn
      [
        ( qfr,
          Page_op.insert_run ~slot:0
            (Node.fence_cell Node.whole_fence
            :: Page_op.cells_from p ~slot:(Node.slot_of_entry s)) );
        (fr, Page_op.delete_where p (fun i -> i >= Node.slot_of_entry s));
      ];
    let term = Node.index_term_cell ~sep ~child:(Page.id (page qfr)) in
    make_room t txn stack (idx - 1) ~key:sep ~need:(String.length term);
    let parent = page stack.(idx - 1) in
    (match Node.find parent sep with
    | `Found _ -> failwith "bt_coupling: duplicate separator"
    | `Not_found i ->
        update t txn stack.(idx - 1)
          (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell = term }));
    if String.compare key sep < 0 then unpin t qfr
    else begin
      latch qfr Latch.X;
      unlatch fr Latch.X;
      unpin t fr;
      stack.(idx) <- qfr
    end;
    make_room t txn stack idx ~key ~need
  end

let with_autocommit t f =
  let txn = Txn_mgr.begin_txn (mgr t) Txn.User in
  match f txn with
  | v ->
      Txn_mgr.commit (mgr t) txn;
      v
  | exception e ->
      if Txn.is_active txn then Txn_mgr.abort (mgr t) txn;
      raise e

(* X-latch-coupled descent retaining the unsafe suffix of the path.
   Returns the retained frames, root-of-retained first, leaf last. *)
let descend_retaining t ~key ~need =
  let fr = pin t t.root in
  latch fr Latch.X;
  let rec down retained fr =
    let p = page fr in
    if Page.level p = 0 then List.rev (fr :: retained)
    else begin
      let i = Option.value (Node.floor_entry p key) ~default:0 in
      let _, child = Node.index_term p i in
      let cfr = pin t child in
      latch cfr Latch.X;
      if safe_for (page cfr) ~need then begin
        (* Child cannot split: everything above is releasable. *)
        List.iter
          (fun a ->
            unlatch a Latch.X;
            unpin t a)
          (fr :: retained);
        down [] cfr
      end
      else begin
        Atomic.incr t.c_unsafe;
        down (fr :: retained) cfr
      end
    end
  in
  down [] fr

let insert t ~key ~value =
  Atomic.incr t.c_inserts;
  let cell = Node.record_cell ~key ~value in
  with_autocommit t (fun txn ->
      let stack = Array.of_list (descend_retaining t ~key ~need:(String.length cell)) in
      let release_all () =
        Array.iter
          (fun fr ->
            unlatch fr Latch.X;
            unpin t fr)
          stack
      in
      let leaf_idx = Array.length stack - 1 in
      let p = page stack.(leaf_idx) in
      (match Node.find p key with
      | `Found i ->
          let old_cell = Page.get p (Node.slot_of_entry i) in
          update t txn stack.(leaf_idx)
            (Page_op.Replace_slot
               { slot = Node.slot_of_entry i; old_cell; new_cell = cell })
      | `Not_found _ ->
          make_room t txn stack leaf_idx ~key ~need:(String.length cell);
          let p = page stack.(leaf_idx) in
          (match Node.find p key with
          | `Found _ -> failwith "bt_coupling: key appeared during split"
          | `Not_found i ->
              update t txn stack.(leaf_idx)
                (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell })));
      release_all ())

let delete t key =
  with_autocommit t (fun txn ->
      let rec down fr =
        let p = page fr in
        if Page.level p = 0 then begin
          let r =
            match Node.find p key with
            | `Found i ->
                let cell = Page.get p (Node.slot_of_entry i) in
                update t txn fr
                  (Page_op.Delete_slot { slot = Node.slot_of_entry i; cell });
                true
            | `Not_found _ -> false
          in
          unlatch fr Latch.X;
          unpin t fr;
          r
        end
        else begin
          let i = Option.value (Node.floor_entry p key) ~default:0 in
          let _, child = Node.index_term p i in
          let cfr = pin t child in
          latch cfr Latch.X;
          unlatch fr Latch.X;
          unpin t fr;
          down cfr
        end
      in
      let fr = pin t t.root in
      latch fr Latch.X;
      down fr)

let count t =
  let rec go pid =
    let fr = pin t pid in
    let p = page fr in
    let n =
      if Page.level p = 0 then Node.entry_count p
      else
        Node.(
          let total = ref 0 in
          for i = 0 to entry_count p - 1 do
            let _, child = index_term p i in
            total := !total + go child
          done;
          !total)
    in
    unpin t fr;
    n
  in
  go t.root

let height t =
  let fr = pin t t.root in
  let h = Page.level (page fr) + 1 in
  unpin t fr;
  h

let stats t =
  {
    searches = Atomic.get t.c_searches;
    inserts = Atomic.get t.c_inserts;
    splits = Atomic.get t.c_splits;
    unsafe_retained = Atomic.get t.c_unsafe;
  }
