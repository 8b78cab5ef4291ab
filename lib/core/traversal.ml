module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Olc = Pitree_storage.Olc
module Latch = Pitree_sync.Latch
module Latch_order = Pitree_sync.Latch_order
module Env = Pitree_env.Env
module Txn = Pitree_txn.Txn
module Txn_mgr = Pitree_txn.Txn_mgr
module Crash_point = Pitree_util.Crash_point

(* ---------- latching ---------- *)

let page fr = fr.Buffer_pool.page

(* Latch rank for deadlock-avoidance checking: parents (higher levels)
   before children. *)
let rank page = 255 - Page.level page

let latch fr m =
  Latch.acquire fr.Buffer_pool.latch m;
  Latch_order.acquired (rank fr.Buffer_pool.page)

let unlatch fr m =
  Latch_order.released (rank fr.Buffer_pool.page);
  Latch.release fr.Buffer_pool.latch m

let unlatch_at rank0 fr m =
  Latch_order.released rank0;
  Latch.release fr.Buffer_pool.latch m

let promote fr =
  Latch_order.promoting (rank fr.Buffer_pool.page);
  Latch.promote fr.Buffer_pool.latch

(* ---------- deduplicated background tasks ---------- *)

type dedup = { keys : (int, unit) Hashtbl.t; mu : Mutex.t }

let dedup () = { keys = Hashtbl.create 16; mu = Mutex.create () }

let schedule_once env d key f =
  Mutex.lock d.mu;
  let fresh = not (Hashtbl.mem d.keys key) in
  if fresh then Hashtbl.replace d.keys key ();
  Mutex.unlock d.mu;
  if fresh then
    Env.schedule env (fun () ->
        Mutex.lock d.mu;
        Hashtbl.remove d.keys key;
        Mutex.unlock d.mu;
        f ());
  fresh

let queued d =
  Mutex.lock d.mu;
  let n = Hashtbl.length d.keys in
  Mutex.unlock d.mu;
  n

(* ---------- per-tree state ---------- *)

type state = {
  env : Env.t;
  root : int;
  always_cns : bool;
  posts : dedup;
  root_cache : (Buffer_pool.t * Buffer_pool.frame) option Atomic.t;
  side_traversals : int Atomic.t;
  descents : int Atomic.t;
  olc_restarts : int Atomic.t;
  olc_fallbacks : int Atomic.t;
  postings_scheduled : int Atomic.t;
}

let state ?(always_cns = false) env ~root =
  {
    env;
    root;
    always_cns;
    posts = dedup ();
    root_cache = Atomic.make None;
    side_traversals = Atomic.make 0;
    descents = Atomic.make 0;
    olc_restarts = Atomic.make 0;
    olc_fallbacks = Atomic.make 0;
    postings_scheduled = Atomic.make 0;
  }

let counters s =
  [ s.side_traversals; s.descents; s.olc_restarts; s.olc_fallbacks; s.postings_scheduled ]

(* ---------- the protocol ---------- *)

type route = Here | Side of int | Child of int * int

module type TREE = sig
  type t
  type key

  val state : t -> state
  val route : Page.t -> key -> route
  val may_post : t -> container:int -> bool
  val post : t -> level:int -> path:Saved_path.t -> address:int -> key -> unit
end

module Make (T : TREE) = struct
  let pool t = Env.pool (T.state t).env
  let pin t pid = Buffer_pool.pin (pool t) pid
  let unpin t fr = Buffer_pool.unpin (pool t) fr

  let cp t =
    let s = T.state t in
    (not s.always_cns) && (Env.config s.env).Env.consolidation

  let hop t fr m pid m' =
    let nfr = pin t pid in
    if cp t then begin
      latch nfr m';
      unlatch fr m;
      unpin t fr
    end
    else begin
      unlatch fr m;
      unpin t fr;
      latch nfr m'
    end;
    nfr

  let schedule_posting t ~level ~container ~sibling ~path key =
    let s = T.state t in
    if
      T.may_post t ~container
      && schedule_once s.env s.posts sibling (fun () ->
             T.post t ~level:(level + 1) ~path ~address:sibling key)
    then Atomic.incr s.postings_scheduled

  let rec settle t ~key ~m ~path fr =
    let p = page fr in
    match T.route p key with
    | Side sib ->
        assert (sib <> Page.nil);
        Atomic.incr (T.state t).side_traversals;
        schedule_posting t ~level:(Page.level p) ~container:(Page.id p) ~sibling:sib
          ~path key;
        settle t ~key ~m ~path (hop t fr m sib m)
    | r -> (fr, r)

  let rec descend_from t ~key ~target ~mode fr path =
    let level = Page.level (page fr) in
    let m = if level > target then Latch.S else mode in
    let fr, r = settle t ~key ~m ~path fr in
    if level = target then (path, fr)
    else
      match r with
      | Child (child, slot) ->
          let p = page fr in
          let path =
            Saved_path.push path ~pid:(Page.id p) ~level ~state_id:(Page.lsn p) ~slot
          in
          let cm = if level - 1 > target then Latch.S else mode in
          descend_from t ~key ~target ~mode (hop t fr m child cm) path
      | Here | Side _ -> assert false

  let rec descend t ~key ~target ~mode =
    let s = T.state t in
    if target = 0 then Atomic.incr s.descents;
    let fr = pin t s.root in
    let guess_above = Page.level (page fr) > target in
    let m = if guess_above then Latch.S else mode in
    latch fr m;
    if Page.level (page fr) > target <> guess_above then begin
      (* The root grew between the unlatched peek and the latch. *)
      unlatch fr m;
      unpin t fr;
      descend t ~key ~target ~mode
    end
    else descend_from t ~key ~target ~mode fr Saved_path.empty

  (* Keyed by pool identity: a crash replaces the pool object, orphaning
     the old entry (and its pin) along with the pool itself. The CAS race
     on first installation is benign — the loser drops the extra pin it
     took for the cache. *)
  let pin_root t =
    let s = T.state t in
    let pl = pool t in
    match Atomic.get s.root_cache with
    | Some (p, fr) when p == pl ->
        Buffer_pool.repin pl fr;
        fr
    | stale ->
        let fr = pin t s.root in
        Buffer_pool.repin pl fr (* the cache's own, permanent pin *);
        if not (Atomic.compare_and_set s.root_cache stale (Some (pl, fr))) then
          unpin t fr;
        fr

  (* One node of the optimistic descent: decide where [key] routes without
     holding any latch, proving every pointer read against the version
     word before returning it. *)
  let olc_eval ~key fr =
    let v = Olc.snapshot fr in
    let p = page fr in
    (* A stale pointer can land on a page a consolidation already freed
       (free-listed pages keep their latch and version word): a transient
       state — restart, don't decode free-list bytes as a node. *)
    Olc.live p;
    (* The routing reads parse unvalidated bytes; [Olc.decoding] turns a
       decode blow-up on a torn snapshot into a restart while letting the
       same failure on stable bytes escape as a real bug. *)
    Olc.decoding fr v @@ fun () ->
    (* Capture everything the caller acts on (the root's level can change
       in place) BEFORE the validation that proves it was not torn. *)
    let level = Page.level p in
    match T.route p key with
    | Side sib ->
        Olc.validate fr v;
        if sib = Page.nil then raise Olc.Restart;
        `Next (v, sib, `Side (level, Page.id p))
    | _ when level = 0 ->
        (* Prove this really is the leaf for [key] before the caller
           reads records out of it. *)
        Olc.validate fr v;
        `Leaf v
    | Child (child, _) ->
        Olc.validate fr v;
        `Next (v, child, `Child)
    | Here -> raise Olc.Restart

  let rec olc_step t ~key fr =
    match olc_eval ~key fr with
    | exception e ->
        unpin t fr;
        raise e
    | `Leaf v -> (fr, v)
    | `Next (v, next, kind) -> (
        let nfr =
          match pin t next with
          | nfr -> nfr
          | exception e ->
              unpin t fr;
              raise e
        in
        (* CP de-allocation defence (see the interface): re-validate the
           node the pointer came from now that its target is pinned. *)
        match Olc.validate fr v with
        | exception e ->
            unpin t nfr;
            unpin t fr;
            raise e
        | () ->
            (match kind with
            | `Side (level, container) ->
                Atomic.incr (T.state t).side_traversals;
                (* Only validated side chases reach here, so the posting
                   queue never sees a pid (or level) from a torn read. *)
                schedule_posting t ~level ~container ~sibling:next
                  ~path:Saved_path.empty key
            | `Child -> ());
            unpin t fr;
            olc_step t ~key nfr)

  let olc_descend t key = olc_step t ~key (pin_root t)

  let read ?(drain = true) t ~optimistic ~latched =
    let s = T.state t in
    let v =
      if (Env.config s.env).Env.olc_reads then
        Olc.protect ~restarts:s.olc_restarts ~fallbacks:s.olc_fallbacks
          ~attempt:optimistic ~fallback:latched ()
      else latched ()
    in
    (* The reader holds no latch now. A read inside a transaction (which
       may hold locks) passes [~drain:false]: its commit or abort runs the
       queue instead. *)
    if drain then ignore (Env.drain_some s.env);
    v

  let with_autocommit t txn f =
    match txn with
    | Some txn -> f txn
    | None -> (
        let mgr = Env.txns (T.state t).env in
        let txn = Txn_mgr.begin_txn mgr Txn.User in
        match f txn with
        | v ->
            Txn_mgr.commit mgr txn;
            v
        | exception (Crash_point.Crash_requested _ as e) -> raise e
        | exception e ->
            if Txn.is_active txn then Txn_mgr.abort mgr txn;
            raise e)
end
