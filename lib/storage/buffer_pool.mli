(** Buffer pool: the volatile page cache, enforcing write-ahead logging.

    The pool is hash-sharded (LeanStore-style): each shard owns a mutex, a
    frame table and a second-chance clock ring, so pins of unrelated pages
    contend only when they hash to the same shard, and eviction is
    O(1) amortized instead of a full-table scan. No shard mutex is ever
    held across disk I/O: a miss installs a [Loading] placeholder and
    reads off-mutex; eviction of a dirty victim flips the frame to
    [Writing] and writes off-mutex. Concurrent requesters of an in-flight
    page wait on the frame's own condition variable — one slow or
    retrying read never blocks hits on other pages. [unpin] is a plain
    atomic decrement with no lock at all.

    Frames hold page images plus the page's latch. The discipline callers
    must follow:

    + [pin] before touching a page; [unpin] when the reference is dropped.
    + latch only while pinned (an unpinned frame may be evicted and its
      latch abandoned).
    + never write page bytes without logging through the WAL layer, which
      advances the page LSN; the pool refuses to evict a dirty page whose
      LSN has not been flushed by calling the [wal_flush] callback first
      (the WAL protocol).

    [crash] models power failure: every frame vanishes, clean or dirty.

    {2 Storage-fault resilience}

    The pool is the checksum boundary: every flush stamps the page's CRC32
    ([Page.stamp_checksum]) and every fetch verifies it ([Page.of_durable]).
    Transient disk errors ([Disk.Disk_error] with [transient = true]) and
    transient read-path corruption (a fetched image failing its checksum)
    are absorbed by retrying with capped exponential backoff, observable
    via [stats.retried_reads] / [stats.retried_writes]. A corrupt image
    that reads back identically twice is persistent — the durable image is
    torn or rotten — and surfaces as [Page.Corrupt]; recovery rebuilds such
    pages purely from redo history. *)

type t

(** Life cycle of a resident frame. [Loading]: a miss is reading the
    durable image off-mutex into the placeholder page's own buffer (a
    zeroed [Free] page until the read lands), so a miss allocates one
    page buffer. [Writing]: eviction is writing the (formerly dirty)
    image off-mutex. Pins are
    granted only on [Ready] frames; requesters of a frame in either
    transitional state wait on its condition variable. *)
type state = Loading | Ready | Writing

type frame = private {
  pid : int;
  page : Page.t;  (** one buffer for the frame's life: reads land in it *)
  latch : Pitree_sync.Latch.t;
  mutable dirty : bool;
  mutable rec_lsn : int;
      (** recovery LSN, captured at the clean→dirty transition: a lower
          bound on the first log record whose effect is missing from the
          page's durable image (meaningful only while [dirty]) *)
  pins : int Atomic.t;
  cond : Condition.t;
  mutable state : state;
  mutable referenced : bool;  (** second-chance bit, set on every pin *)
  mutable waiters : int;  (** threads blocked on [cond] for this frame *)
  slot : int;  (** position in the owning shard's clock ring *)
  img_log : (int -> Page.t -> unit) option ref;
      (** shared with the pool: full-page-write hook, see
          {!set_image_logger} *)
  lsn_src : (unit -> int) option ref;
      (** shared with the pool: WAL-tail source for fresh-page rec_lsns,
          see {!set_lsn_source} *)
}

exception Pool_exhausted
(** Raised when every frame in the target shard stays pinned through the
    full bounded-backoff retry ladder ([pin_attempts] waits, ~40ms total by
    default). Size the pool above the maximum number of simultaneously
    pinned pages (ops pin O(tree height) pages). *)

val create :
  ?capacity:int ->
  ?shards:int ->
  ?max_retries:int ->
  ?backoff_base:float ->
  ?pin_attempts:int ->
  ?backoff_seed:int ->
  disk:Disk.t ->
  wal_flush:(int -> unit) ->
  unit ->
  t
(** [wal_flush lsn] must make the log durable up to and including [lsn]
    before returning; the pool invokes it before writing any dirty page.
    [shards] (default: the domain count rounded up to a power of two,
    capped at 64) is rounded up to a power of two and reduced until every
    shard holds at least 8 frames; [?shards:1] reproduces the legacy
    single-mutex pool for baseline comparison. [max_retries] (default 12)
    bounds re-issues of a failed disk op; [backoff_base] (default 0.2ms)
    seeds the exponential backoff, capped at 2ms per wait. [pin_attempts]
    (default 20) bounds the full-shard retry ladder before
    {!Pool_exhausted}. Every backoff wait — pin retries and disk-op
    retries alike — is scaled by a jitter factor in [0.5, 1.5) drawn from
    a seeded generator ([backoff_seed], default 0), so a burst of waiters
    desynchronizes instead of stampeding back in lockstep; equal seeds and
    draw orders reproduce equal waits. *)

val capacity : t -> int
(** Total frames across all shards (shard count × per-shard capacity;
    may round the requested capacity up). *)

val shards : t -> int

val pin_attempts : t -> int
(** The configured full-shard retry budget (see {!create}). *)

val pin : t -> int -> frame
(** Pin page [pid], reading it from disk on a miss. Raises [Not_found] if
    the page does not exist on disk (caller bug or corrupt pointer);
    [Page.Corrupt] if its durable image is torn or fails its checksum
    persistently (media damage — recovery rebuilds it from the log, see
    {!pin_or_blank}); [Disk.Disk_error] if the disk keeps failing past
    the retry budget. A miss that raises withdraws its frame. *)

val pin_new : t -> int -> frame
(** Pin a frame for a page known not to require a disk read (freshly
    allocated). The page buffer is zeroed; the caller must format it via a
    logged operation. *)

(** Why {!pin_or_blank} left a page blank: it has no durable image at
    all ([Missing]), or its durable image failed verification
    persistently ([Torn], what {!pin} reports as [Page.Corrupt]). *)
type blank = Missing | Torn

exception Blank of frame * blank
(** Raised by {!pin_or_blank} with the blank frame, pinned, and why. *)

val pin_or_blank : t -> int -> frame
(** Recovery's pin: like {!pin}, but a page that is [Missing] or [Torn]
    on disk is not an error. Its frame stays resident, [Ready], as the
    zeroed [Free] page {!pin_new} would give, and the miss raises
    [Blank] carrying it; redo rebuilds it from the log. Either way it
    costs one miss and one page buffer, and a pin that returns normally
    allocates nothing for its result (restart pins once per redone
    record). Later pins of the page, concurrent ones included, return
    the blank frame normally. Raises [Disk.Disk_error] (withdrawing the
    frame) if the disk keeps failing past the retry budget. *)

val unpin : t -> frame -> unit
(** Drop one pin. Lock-free (an atomic decrement). *)

val repin : t -> frame -> unit
(** Add a pin to a frame the caller {e already holds pinned}. Lock-free
    (an atomic increment), and sound only under that precondition —
    pinned frames are never evicted, so the count cannot race a victim
    selection. Pinning a frame from scratch must go through {!pin}. *)

val mark_dirty : frame -> unit
(** Record that the page is about to diverge from its durable image. Call
    BEFORE mutating the page (and before appending the log record for the
    change), while holding the frame's X latch. The clean→dirty transition
    runs in this order:
    + sample [rec_lsn] from the installed {!set_lsn_source} WAL tail (or
      the page's current LSN without one) — only a sound redo lower bound
      if the page has not yet been touched;
    + set the dirty bit;
    + call the image logger, if one is installed (see
      {!set_image_logger}) and the page has history (LSN > 0).

    The order is part of the contract: by the time the logger decides
    whether the page needs a full-page image, the page is already visible
    to every later dirty-page listing, so a checkpoint the decision misses
    writes the page back. *)

val set_image_logger : t -> (int -> Page.t -> unit) option -> unit
(** Install (or clear) the full-page-write hook fired at each clean→dirty
    transition of a page with history (LSN > 0), after the dirty bit flips
    and before the caller's first update record. The hook receives the
    page id and the exact pre-update image. The environment wires this to
    its full-page-write rule: append a [Page_image] log record unless the
    log already holds an image of the page at or above the latest
    [Begin_checkpoint]. Either way the page keeps a base record at or
    above the redo point of any checkpoint that can see it dirty, so a
    torn durable image can be rebuilt from that base plus the retained
    suffix, even though the page's older history has been truncated.
    Recovery disables the hook during redo (replaying history must not
    re-log it). *)

val image_logger : t -> (int -> Page.t -> unit) option
(** The currently installed full-page-write hook. *)

val set_lsn_source : t -> (unit -> int) option -> unit
(** Install (or clear) the WAL-tail source consulted at each clean→dirty
    transition: the first record not yet in the durable image is the one
    the dirtier is about to append, which lands strictly above the tail,
    so [tail () + 1] is a sound [rec_lsn] — and a tight one. Without a
    source the fallback is [page LSN + 1]: equally sound, but one update
    to a page whose LSN predates the last checkpoint drags the redo floor
    (hence the truncation point) below the retained log — under steady
    traffic over a large key space the log then never shrinks, and a
    freshly created page (LSN 0) floors it at the origin outright. The
    tail is sampled before the image logger runs, keeping [rec_lsn] at or
    below the LSN of any image it logs. The environment wires this to
    [Log_manager.last_lsn]; recovery disables it during redo alongside
    the image logger (rebuilt pages are flushed before restart completes,
    so their conservative rec_lsn dies with the dirty bit). *)

val lsn_source : t -> (unit -> int) option
(** The currently installed WAL-tail source. *)

val flush_page : t -> frame -> unit
(** WAL-flush then write this page to disk; clears [dirty]. *)

val flush_all : t -> unit
(** Repeat {!write_back} sweeps until no resident page is dirty. Safe
    against concurrent page mutators (each page is written under its own
    S latch); pages re-dirtied mid-sweep are caught by the next round, so
    termination assumes writers eventually quiesce. *)

val dirty_pages : t -> (int * int) list
(** Snapshot of the dirty-page table — (page id, [rec_lsn]) for every
    dirty resident frame — collected shard by shard under each shard's
    mutex, without stopping writers. The checkpoint input:
    [min rec_lsn] bounds recovery's redo point. *)

val write_back : t -> int
(** Incremental write-back for fuzzy checkpoints: flush each currently
    dirty frame one at a time, holding only that page's S latch (and no
    shard mutex) across the I/O — readers proceed, writers wait at most
    one page write. Frames that vanish or go clean concurrently are
    skipped; a frame an eviction is writing out is waited for, and written
    here if that write-out failed. So every page dirty when its shard is
    listed is clean on return, unless write-back raises. Returns the
    number of pages written. *)

val crash_flush : t -> unit
(** Power-failure image dump for crash simulation: write every dirty
    frame as-is, taking {e no} page latches — a dying machine's cache
    write-back does not coordinate with the application, so the crashing
    workload may still hold X latches (a latched flush would
    self-deadlock on them) and the images written may be mid-mutation
    (and torn, through a faulty disk). Dirty bits are left set; per-page
    disk errors are swallowed. Only meaningful immediately before
    {!crash} — never a substitute for {!flush_all}. *)

val crash : t -> unit
(** Discard all frames without flushing. The pool is unusable afterwards;
    open a fresh one to recover. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  retried_reads : int;
      (** disk reads re-issued after a transient error or a transiently
          corrupt image *)
  retried_writes : int;  (** disk writes re-issued after a transient error *)
  shards : int;
  shard_evictions : int array;  (** evictions per shard, index = shard *)
  hit_ratio : float;  (** hits / (hits + misses); 0 when no pins yet *)
  miss_wait_mean_ns : float;
      (** mean nanoseconds a missing pin spent in off-mutex disk I/O *)
  miss_wait_p99_ns : int;  (** 99th percentile of the same *)
}

val stats : t -> stats

(** Test-only introspection. *)
module Testing : sig
  val backoff_duration : t -> attempt:int -> float
  (** The jittered sleep the pool would take before retry [attempt]
      (0-based); advances the shared jitter state exactly like a real
      backoff, without sleeping. *)
end
