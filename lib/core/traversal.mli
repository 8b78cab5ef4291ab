(** The one Π-tree search protocol (paper sections 2.1, 5.1, 5.2), shared
    by every engine.

    A node is responsible for a subspace and may delegate part of it to a
    sibling. An engine supplies only its {e routing decision}: given a
    page and a search point, is the point directly contained here, does
    the node delegate it to a sibling, or does an index term name the
    child to descend into. Everything else lives here, once:

    - the latched descent, which records the {!Saved_path.t} it took;
    - the single latch hop between nodes. Under the CP invariant
      ([Env.config.consolidation]) the target is latched before the
      source is released, so it cannot be de-allocated while its pointer
      is de-referenced (section 5.2.2). Under CNS nodes are immortal and
      one latch at a time suffices;
    - the optimistic (latch-free) descent, described below;
    - the posting scheduler: following a side pointer means the index
      term for the sibling may be missing one level up, so the engine's
      posting action is queued once per sibling through [Env.schedule];
    - the autocommit wrapper;
    - the one read exit that runs queued completions ({!Make.read}).

    {2 Optimistic descent}

    Reads normally descend without taking a single latch. Each frame
    latch carries a version word (twice the page LSN when quiescent, odd
    while a writer holds the X latch — see {!Pitree_sync.Version}). A
    reader proves each node read consistent by snapshotting the word
    before reading and re-checking it before acting on anything it read.
    A failed check raises [Olc.Restart] and the whole descent restarts
    from the root; after [Olc.max_restarts] failures the reader falls back
    to the latched protocol, so write storms degrade to the paper's
    protocol instead of livelocking.

    Pins are still taken (frames must not be recycled under the reader),
    but the root — the hottest pin in the tree — comes from a permanently
    pinned cached frame, so it costs one atomic increment instead of a
    shard mutex. Every root is immovable, so the cache never goes stale
    within one buffer pool.

    Under CP a node reached through a validated pointer can still be
    de-allocated before the reader pins it: de-allocation is a node
    update (section 5.2.2 strategy (b)) that bumps the victim's version
    word, but the reader holds no latch, so nothing blocks the
    consolidator. The defence: after pinning the next node, re-validate
    the node the pointer was read from. Unchanged means the index term or
    side pointer still stood once the pin made the target un-recyclable.
    The check is cheap, so every engine makes it under either invariant. *)

module Page := Pitree_storage.Page
module Buffer_pool := Pitree_storage.Buffer_pool
module Latch := Pitree_sync.Latch
module Env := Pitree_env.Env

(** {2 Latching}

    Frame latches with the section 4.1.1 latch-order checker
    ({!Pitree_sync.Latch_order}) kept informed: a node's rank is derived
    from its level, parents before children. *)

val page : Buffer_pool.frame -> Page.t
val rank : Page.t -> int
val latch : Buffer_pool.frame -> Latch.mode -> unit
val unlatch : Buffer_pool.frame -> Latch.mode -> unit

val unlatch_at : int -> Buffer_pool.frame -> Latch.mode -> unit
(** For callers that changed the node's level while holding its X latch
    (root growth, de-allocation): release the checker entry at the rank
    recorded when the latch was taken. *)

val promote : Buffer_pool.frame -> unit
(** U -> X. *)

(** {2 Deduplicated background tasks} *)

type dedup
(** A set of queued task keys. *)

val dedup : unit -> dedup

val schedule_once : Env.t -> dedup -> int -> (unit -> unit) -> bool
(** [schedule_once env d key f] queues [f] through [Env.schedule] unless
    a task with [key] is already queued in [d], and says whether it
    queued. The key leaves [d] when the task starts, so a later request
    re-queues. Purely an optimization: every queued action re-tests the
    tree state it acts on. *)

val queued : dedup -> int

(** {2 Per-tree state} *)

type state = private {
  env : Env.t;
  root : int;
  always_cns : bool;
  posts : dedup;  (** queued postings, keyed by the sibling to index *)
  root_cache : (Buffer_pool.t * Buffer_pool.frame) option Atomic.t;
  side_traversals : int Atomic.t;
  descents : int Atomic.t;  (** latched descents to the leaf level *)
  olc_restarts : int Atomic.t;
  olc_fallbacks : int Atomic.t;
  postings_scheduled : int Atomic.t;
}

val state : ?always_cns:bool -> Env.t -> root:int -> state
(** [always_cns] pins the hop discipline to CNS whatever the environment
    says (the TSB-tree never consolidates reachable nodes). *)

val counters : state -> int Atomic.t list
(** Every counter above, for resets. *)

(** {2 The protocol} *)

type route =
  | Here  (** the node directly contains the point *)
  | Side of int  (** the node delegates the point to this sibling *)
  | Child of int * int  (** descend into this child, found at this slot *)

module type TREE = sig
  type t
  type key

  val state : t -> state

  val route : Page.t -> key -> route
  (** The routing decision. It may read unvalidated bytes (optimistic
      descents call it inside [Olc.decoding]). An index node that answers
      [Here] has no route for the point: a torn read, or a bug. *)

  val may_post : t -> container:int -> bool
  (** Guard checked before a posting is queued for a side pointer found
      in [container]. *)

  val post : t -> level:int -> path:Saved_path.t -> address:int -> key -> unit
  (** The posting action: make sure the node at [level] carries an index
      term for the node [address], whose space includes the key. [path]
      holds the nodes at [level] and above the finder traversed. *)
end

module Make (T : TREE) : sig
  val cp : T.t -> bool
  (** Whether the CP invariant governs this tree's hops. *)

  val hop :
    T.t -> Buffer_pool.frame -> Latch.mode -> int -> Latch.mode -> Buffer_pool.frame
  (** [hop t fr m pid m'] moves from [fr] (pinned, latched in [m]) to node
      [pid], returned pinned and latched in [m']; [fr] ends unpinned. *)

  val schedule_posting :
    T.t -> level:int -> container:int -> sibling:int -> path:Saved_path.t -> T.key -> unit
  (** A traversal at [level] followed [container]'s side pointer to
      [sibling]: queue the posting of [sibling]'s index term at
      [level + 1], once per sibling, if [T.may_post] allows. *)

  val settle :
    T.t -> key:T.key -> m:Latch.mode -> path:Saved_path.t -> Buffer_pool.frame ->
    Buffer_pool.frame * route
  (** Follow side pointers from [fr] (latched in [m]) until a node that
      does not delegate [key]; returns it latched in [m], with its route. *)

  val descend_from :
    T.t -> key:T.key -> target:int -> mode:Latch.mode -> Buffer_pool.frame ->
    Saved_path.t -> Saved_path.t * Buffer_pool.frame
  (** Descend from [fr] (latched: S above [target], [mode] at it) to the
      node at level [target] whose directly contained space includes
      [key]. Returns the path of the levels above [target], extended from
      the given one, and that node latched in [mode]. *)

  val descend :
    T.t -> key:T.key -> target:int -> mode:Latch.mode ->
    Saved_path.t * Buffer_pool.frame
  (** {!descend_from} the root. *)

  val olc_descend : T.t -> T.key -> Buffer_pool.frame * int
  (** Optimistic descent from the root (pinned through its permanent
      cached pin) to the leaf for [key]: returns the leaf pinned, never
      latched, with a validated snapshot of its version word. Every exit,
      including every raise, drops every other pin it took. *)

  val read :
    ?drain:bool -> T.t -> optimistic:(unit -> 'a) -> latched:(unit -> 'a) -> 'a
  (** Run [optimistic] under the counted restart loop with [latched] as
      the fallback when [Env.config.olc_reads] is on; [latched] alone
      otherwise. Then, unless [~drain:false], run a few queued completions
      ([Env.drain_some]). A read inside a transaction, or one that is a
      step of a larger operation, passes [~drain:false]: the
      transaction's commit or abort runs the queue instead. *)

  val with_autocommit : T.t -> Pitree_txn.Txn.t option -> (Pitree_txn.Txn.t -> 'a) -> 'a
  (** Run [f] in the given transaction, or in a fresh user transaction
      committed afterwards (whose commit runs queued completions) and
      aborted on an exception. *)
end
