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
  tree_latch : Latch.t;
  c_searches : int Atomic.t;
  c_inserts : int Atomic.t;
  c_splits : int Atomic.t;
  c_smo_waits : int Atomic.t;
}

type stats = { searches : int; inserts : int; splits : int; smo_waits : int }

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
  let root = Env.create_tree env ~name:("btl:" ^ name) ~kind:Page.Data ~level:0 in
  let t =
    {
      env;
      root;
      tree_latch = Latch.create ~name:"tree-latch" ();
      c_searches = Atomic.make 0;
      c_inserts = Atomic.make 0;
      c_splits = Atomic.make 0;
      c_smo_waits = Atomic.make 0;
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

let acquire_tree t m =
  if not (Latch.try_acquire t.tree_latch m) then begin
    Atomic.incr t.c_smo_waits;
    Latch.acquire t.tree_latch m
  end

(* Descend with page S-latch coupling; the tree latch (held in S by the
   caller) keeps SMOs away. *)
let rec down_s t fr key =
  let p = page fr in
  if Page.level p = 0 then fr
  else begin
    let i = Option.value (Node.floor_entry p key) ~default:0 in
    let _, child = Node.index_term p i in
    let cfr = pin t child in
    latch cfr Latch.S;
    unlatch fr Latch.S;
    unpin t fr;
    down_s t cfr key
  end

let find t key =
  Atomic.incr t.c_searches;
  acquire_tree t Latch.S;
  let fr = pin t t.root in
  latch fr Latch.S;
  let leaf = down_s t fr key in
  let p = page leaf in
  let r =
    match Node.find p key with
    | `Found i -> Some (snd (Node.record p i))
    | `Not_found _ -> None
  in
  unlatch leaf Latch.S;
  unpin t leaf;
  Latch.release t.tree_latch Latch.S;
  r

let with_autocommit t f =
  let txn = Txn_mgr.begin_txn (mgr t) Txn.User in
  match f txn with
  | v ->
      Txn_mgr.commit (mgr t) txn;
      v
  | exception e ->
      if Txn.is_active txn then Txn_mgr.abort (mgr t) txn;
      raise e

let choose_split p ~key =
  let n = Node.entry_count p in
  if n >= 2 then
    let s = Node.split_point p in
    (s, fst (Node.entry p s))
  else
    let k0 = fst (Node.entry p 0) in
    if String.compare key k0 > 0 then (1, key) else (0, k0)

(* Recursive insert under the X tree latch (no page latches needed: we are
   alone in the tree). Returns the (sep, new sibling) the parent must
   absorb, if this node split. *)
let rec insert_rec t txn pid ~key ~cell =
  let fr = pin t pid in
  let p = page fr in
  let result =
    if Page.level p = 0 then begin
      match Node.find p key with
      | `Found i ->
          let old_cell = Page.get p (Node.slot_of_entry i) in
          update t txn fr
            (Page_op.Replace_slot
               { slot = Node.slot_of_entry i; old_cell; new_cell = cell });
          None
      | `Not_found i ->
          if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
            update t txn fr (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell });
            None
          end
          else Some (split_and_insert t txn fr ~key ~cell)
    end
    else begin
      let i = Option.value (Node.floor_entry p key) ~default:0 in
      let _, child = Node.index_term p i in
      match insert_rec t txn child ~key ~cell with
      | None -> None
      | Some (sep, q) ->
          let term = Node.index_term_cell ~sep ~child:q in
          if Page.will_fit p (String.length term + Page.slot_overhead) then begin
            (match Node.find p sep with
            | `Found _ -> failwith "bt_treelatch: duplicate separator"
            | `Not_found j ->
                update t txn fr
                  (Page_op.Insert_slot { slot = Node.slot_of_entry j; cell = term }));
            None
          end
          else Some (split_and_insert t txn fr ~key:sep ~cell:term)
    end
  in
  unpin t fr;
  result

(* Split [fr] and place [cell] (an entry keyed [key]) in the proper half.
   Returns the (sep, sibling pid) for the parent. *)
and split_and_insert t txn fr ~key ~cell =
  Atomic.incr t.c_splits;
  let p = page fr in
  let s, sep = choose_split p ~key in
  let qfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
  move t txn
    [
      ( qfr,
        Page_op.insert_run ~slot:0
          (Node.fence_cell Node.whole_fence
          :: Page_op.cells_from p ~slot:(Node.slot_of_entry s)) );
      (fr, Page_op.delete_where p (fun i -> i >= Node.slot_of_entry s));
    ];
  let target = if String.compare key sep < 0 then fr else qfr in
  (match Node.find (page target) key with
  | `Found _ -> failwith "bt_treelatch: key reappeared"
  | `Not_found j ->
      update t txn target (Page_op.Insert_slot { slot = Node.slot_of_entry j; cell }));
  let qpid = Page.id (page qfr) in
  unpin t qfr;
  (sep, qpid)

(* Root overflow: move everything into two children, raise the root. *)
let grow_root t txn ~sep ~right =
  let fr = pin t t.root in
  let p = page fr in
  let lfr = Env.alloc_page t.env txn ~kind:(Page.kind p) ~level:(Page.level p) in
  move t txn
    [
      (fr, Page_op.delete_where p (fun _ -> true));
      ( lfr,
        Page_op.insert_run ~slot:0
          (Node.fence_cell Node.whole_fence :: Page_op.cells_from p ~slot:1) );
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
         Node.index_term_cell ~sep ~child:right;
       ]);
  unpin t lfr;
  unpin t fr

let insert t ~key ~value =
  Atomic.incr t.c_inserts;
  let cell = Node.record_cell ~key ~value in
  (* Optimistic fast path: S tree latch, X only on the leaf. *)
  let fast_path () =
    acquire_tree t Latch.S;
    let fr = pin t t.root in
    latch fr Latch.S;
    let leaf = down_s t fr key in
    (* Re-latch the leaf exclusively. Safe without re-validation: the tree
       latch in S blocks any SMO, so the leaf still owns this key range. *)
    unlatch leaf Latch.S;
    latch leaf Latch.X;
    let p = page leaf in
    let done_ =
      match Node.find p key with
      | `Found i ->
          let old_cell = Page.get p (Node.slot_of_entry i) in
          if
            String.length cell <= String.length old_cell
            || Page.will_fit p (String.length cell)
          then begin
            with_autocommit t (fun txn ->
                update t txn leaf
                  (Page_op.Replace_slot
                     { slot = Node.slot_of_entry i; old_cell; new_cell = cell }));
            true
          end
          else false
      | `Not_found i ->
          if Page.will_fit p (String.length cell + Page.slot_overhead) then begin
            with_autocommit t (fun txn ->
                update t txn leaf
                  (Page_op.Insert_slot { slot = Node.slot_of_entry i; cell }));
            true
          end
          else false
    in
    unlatch leaf Latch.X;
    unpin t leaf;
    Latch.release t.tree_latch Latch.S;
    done_
  in
  if not (fast_path ()) then begin
    (* SMO path: exclusive tree latch serializes the whole structure
       change against every other operation — the property the Pi-tree
       removes. *)
    acquire_tree t Latch.X;
    with_autocommit t (fun txn ->
        match insert_rec t txn t.root ~key ~cell with
        | None -> ()
        | Some (sep, right) -> grow_root t txn ~sep ~right);
    Latch.release t.tree_latch Latch.X
  end

let delete t key =
  acquire_tree t Latch.S;
  let fr = pin t t.root in
  latch fr Latch.S;
  let leaf = down_s t fr key in
  unlatch leaf Latch.S;
  latch leaf Latch.X;
  let p = page leaf in
  let r =
    match Node.find p key with
    | `Found i ->
        let cell = Page.get p (Node.slot_of_entry i) in
        with_autocommit t (fun txn ->
            update t txn leaf
              (Page_op.Delete_slot { slot = Node.slot_of_entry i; cell }));
        true
    | `Not_found _ -> false
  in
  unlatch leaf Latch.X;
  unpin t leaf;
  Latch.release t.tree_latch Latch.S;
  r

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
    smo_waits = Atomic.get t.c_smo_waits;
  }
