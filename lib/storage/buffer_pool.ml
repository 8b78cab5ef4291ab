module Latch = Pitree_sync.Latch
module Version = Pitree_sync.Version
module Clock = Pitree_sync.Clock
module Histogram = Pitree_util.Histogram

(* The pool is hash-sharded: each shard has its own mutex, frame table and
   second-chance clock ring, so pins of unrelated pages never serialize on
   one lock. The shard mutex is never held across disk I/O — a miss
   installs a [Loading] placeholder and reads off-mutex; eviction of a
   dirty victim flips it to [Writing] and writes off-mutex. Concurrent
   requesters of an in-flight page wait on the frame's own condition
   variable, not the shard, so one slow read cannot freeze hits. *)

type state = Loading | Ready | Writing

type blank = Missing | Torn

(* What a miss does once its placeholder (a zeroed [Free] page, the only
   page buffer the miss allocates) is installed. *)
type miss =
  | Fresh  (* no read: the placeholder is the page ([pin_new]) *)
  | Read  (* read into it; withdraw the frame if that fails ([pin]) *)
  | Read_or_blank
      (* read into it; if there is no durable image, or only a torn one,
         keep it as a zeroed [Free] page and raise [Blank] ([pin_or_blank]) *)

type frame = {
  pid : int;
  page : Page.t;
  latch : Latch.t;
  mutable dirty : bool;
  mutable rec_lsn : int;
      (* recovery LSN: set at the clean->dirty transition to (WAL tail + 1)
         — falling back to (page LSN + 1) with no LSN source installed — a
         lower bound on the first log record whose effect is not yet in
         the durable image; meaningful only while [dirty] *)
  pins : int Atomic.t;
  cond : Condition.t;
  mutable state : state;
  mutable referenced : bool;
  mutable waiters : int;
  slot : int;
  img_log : (int -> Page.t -> unit) option ref;
      (* shared with the pool: full-page-write hook fired at each
         clean->dirty transition, after [dirty] is set (see mark_dirty) *)
  lsn_src : (unit -> int) option ref;
      (* shared with the pool: current WAL tail, consulted at the
         clean->dirty transition of a page with no history (LSN 0), whose
         own LSN cannot bound its first record (see mark_dirty) *)
}

type shard = {
  mu : Mutex.t;
  table : (int, frame) Hashtbl.t;
  ring : frame option array;
  mutable hand : int;
  mutable free : int list; (* unoccupied ring slots *)
  mutable used : int;
  miss_wait : Histogram.t; (* ns spent in off-mutex miss I/O *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
}

type t = {
  disk : Disk.t;
  shards : shard array;
  mask : int; (* Array.length shards - 1; shard count is a power of two *)
  shard_cap : int;
  max_retries : int;
  backoff_base : float;
  pin_attempts : int;
  jitter : int Atomic.t; (* shared splitmix-style state for backoff jitter *)
  wal_flush : int -> unit;
  img_log : (int -> Page.t -> unit) option ref;
  lsn_src : (unit -> int) option ref;
  mutable dead : bool; (* written under every shard mutex, read under one *)
  retried_reads : int Atomic.t;
  retried_writes : int Atomic.t;
}

exception Pool_exhausted

(* A [Read_or_blank] miss that found no usable durable image: the frame,
   pinned and [Ready] as a blank page, and why. An exception rather than a
   result so a pin that hits allocates nothing for it. *)
exception Blank of frame * blank

(* Bounded retries when every frame in the target shard is pinned: total
   sleep is ~40ms with the default budget and backoff, enough to ride out
   transient fan-in spikes without masking a genuinely undersized pool. *)
let default_pin_attempts = 20

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

let create ?(capacity = 1024) ?shards ?(max_retries = 12)
    ?(backoff_base = 0.0002) ?(pin_attempts = default_pin_attempts)
    ?(backoff_seed = 0) ~disk ~wal_flush () =
  if capacity < 8 then invalid_arg "Buffer_pool.create: capacity < 8";
  if pin_attempts < 0 then invalid_arg "Buffer_pool.create: pin_attempts < 0";
  let requested =
    match shards with
    | Some s ->
        if s < 1 then invalid_arg "Buffer_pool.create: shards < 1";
        next_pow2 s
    | None -> min 64 (next_pow2 (Domain.recommended_domain_count ()))
  in
  (* Tiny pools keep fewer shards so each ring still has room to breathe
     (and [?shards:1] with a small capacity reproduces the legacy
     single-mutex pool exactly). *)
  let nshards = ref requested in
  while !nshards > 1 && capacity / !nshards < 8 do
    nshards := !nshards / 2
  done;
  let nshards = !nshards in
  let shard_cap = max 8 ((capacity + nshards - 1) / nshards) in
  let mk_shard _ =
    {
      mu = Mutex.create ();
      table = Hashtbl.create shard_cap;
      ring = Array.make shard_cap None;
      hand = 0;
      free = List.init shard_cap Fun.id;
      used = 0;
      miss_wait = Histogram.create ();
      hits = 0;
      misses = 0;
      evictions = 0;
      flushes = 0;
    }
  in
  {
    disk;
    shards = Array.init nshards mk_shard;
    mask = nshards - 1;
    shard_cap;
    max_retries;
    backoff_base;
    pin_attempts;
    jitter = Atomic.make (backoff_seed land max_int);
    wal_flush;
    img_log = ref None;
    lsn_src = ref None;
    dead = false;
    retried_reads = Atomic.make 0;
    retried_writes = Atomic.make 0;
  }

let capacity t = Array.length t.shards * t.shard_cap
let shards t = Array.length t.shards
let pin_attempts t = t.pin_attempts

(* Fibonacci-hash the pid so adjacent pages (siblings under one parent)
   spread across shards instead of clustering. *)
let shard_of t pid = t.shards.((pid * 0x9E3779B1) land t.mask)

(* Seeded jitter for the backoff ladder: a multiplicative factor in
   [0.5, 1.5) drawn from a shared splitmix-style counter. Concurrent
   waiters (many threads hitting a full shard or a flapping disk at once)
   draw different factors and desynchronize instead of stampeding back in
   lockstep. Interleaving of concurrent draws only permutes the sequence;
   a fixed seed plus a deterministic draw order reproduces it exactly. *)
let jitter_factor t =
  let x = Atomic.fetch_and_add t.jitter 0x9E3779B9 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x21F0AAAD land max_int in
  let x = x lxor (x lsr 15) in
  let x = x * 0x735A2D97 land max_int in
  let x = x lxor (x lsr 15) in
  0.5 +. (float_of_int (x land 0xFFFFF) /. 1_048_576.)

(* Capped exponential backoff (with jitter) before retry [attempt]
   (0-based). *)
let backoff_duration t attempt =
  let d = t.backoff_base *. (2.0 ** float_of_int (min attempt 4)) in
  min d 0.002 *. jitter_factor t

let backoff t attempt = Thread.delay (backoff_duration t attempt)

(* Read page [pid]'s durable image into [buf] (the miss's placeholder
   buffer, so a miss allocates one page buffer), absorbing transient disk
   errors (with backoff) and transient read-path corruption (immediate
   re-read). A corrupt image that reads back byte-identical twice is
   persistent — the durable image itself is torn or rotten — so we stop
   retrying and let [Page.Corrupt] surface (recovery treats it as "no
   durable image"). On any exception [buf] holds whatever the last read
   left in it. Called without any shard mutex held. *)
let read_durable t pid buf =
  let rec go attempt last_corrupt =
    match
      t.disk.Disk.read pid buf;
      ignore (Page.of_durable ~id:pid buf : Page.t)
    with
    | () -> ()
    | exception Disk.Disk_error { transient = true; _ }
      when attempt < t.max_retries ->
        Atomic.incr t.retried_reads;
        backoff t attempt;
        go (attempt + 1) last_corrupt
    | exception (Page.Corrupt _ as e) when attempt < t.max_retries ->
        let image = Bytes.copy buf in
        (match last_corrupt with
        | Some prev when Bytes.equal prev image -> raise e
        | _ ->
            Atomic.incr t.retried_reads;
            go (attempt + 1) (Some image))
  in
  go 0 None

(* WAL-then-write one frame's image. The WAL protocol: the log must be
   durable up to the page's LSN before the page image may reach disk.
   Callers guarantee no concurrent mutator (the frame is [Writing] with no
   pins, or the caller holds the shard mutex on a pinned frame it owns). *)
let write_frame t fr =
  t.wal_flush (Page.lsn fr.page);
  Page.stamp_checksum fr.page;
  let rec put attempt =
    match t.disk.Disk.write (Page.id fr.page) (Page.raw fr.page) with
    | () -> ()
    | exception Disk.Disk_error { transient = true; _ }
      when attempt < t.max_retries ->
        Atomic.incr t.retried_writes;
        backoff t attempt;
        put (attempt + 1)
  in
  put 0

(* Caller holds [sh.mu]. *)
let remove_frame sh fr =
  Hashtbl.remove sh.table fr.pid;
  sh.ring.(fr.slot) <- None;
  sh.free <- fr.slot :: sh.free;
  sh.used <- sh.used - 1

(* Second-chance clock sweep. Caller holds [sh.mu]; the mutex is RELEASED
   and re-taken around the write-out of a dirty victim, so the caller must
   re-validate anything it learned before calling (the sweep budget of two
   full revolutions bounds the scan: pass one strips referenced bits, pass
   two finds a victim). Returns [true] if a slot was freed. On exception
   (e.g. a crash point firing inside [wal_flush]) the victim is restored
   to [Ready], waiters are woken, and [sh.mu] is UNLOCKED. *)
let try_evict_one t sh =
  let n = Array.length sh.ring in
  let budget = ref (2 * n) in
  let freed = ref false in
  while (not !freed) && !budget > 0 do
    decr budget;
    let slot = sh.hand in
    sh.hand <- (sh.hand + 1) mod n;
    match sh.ring.(slot) with
    | None -> ()
    | Some fr ->
        if fr.state <> Ready || Atomic.get fr.pins > 0 || fr.waiters > 0 then
          ()
        else if fr.referenced then fr.referenced <- false
        else if not fr.dirty then begin
          remove_frame sh fr;
          sh.evictions <- sh.evictions + 1;
          freed := true
        end
        else begin
          (* Dirty victim: write it out off-mutex. [Writing] bars new pins
             (they wait on [fr.cond]), and pins cannot appear from thin air
             because increments only happen under [sh.mu]. *)
          fr.state <- Writing;
          Mutex.unlock sh.mu;
          match write_frame t fr with
          | () ->
              Mutex.lock sh.mu;
              fr.dirty <- false;
              fr.state <- Ready;
              sh.flushes <- sh.flushes + 1;
              (* Someone may have started waiting for this page while we
                 wrote: resurrect the (now clean) frame instead of
                 evicting it out from under them. *)
              if Atomic.get fr.pins = 0 && fr.waiters = 0 then begin
                remove_frame sh fr;
                sh.evictions <- sh.evictions + 1;
                freed := true
              end;
              Condition.broadcast fr.cond
          | exception e ->
              Mutex.lock sh.mu;
              fr.state <- Ready;
              Condition.broadcast fr.cond;
              Mutex.unlock sh.mu;
              raise e
        end
  done;
  !freed

(* Wait until a [Loading] or [Writing] frame settles: [Ready], or removed
   or replaced. Entered and left holding [sh.mu]; callers re-look-up. A
   waiter keeps a [Writing] frame resident: the write-out resurrects it
   instead of evicting it. *)
let await_frame sh pid fr =
  if Pitree_util.Sched_hook.active () then begin
    Mutex.unlock sh.mu;
    Pitree_util.Sched_hook.wait Cond
      (Printf.sprintf "frame-%d" pid)
      (fun () ->
        match Hashtbl.find_opt sh.table pid with
        | Some fr' when fr' == fr -> fr.state = Ready
        | _ -> true);
    Mutex.lock sh.mu
  end
  else begin
    fr.waiters <- fr.waiters + 1;
    Condition.wait fr.cond sh.mu;
    fr.waiters <- fr.waiters - 1
  end

(* Invariant for [pin_loop]: entered holding [sh.mu]; returns or raises
   with [sh.mu] unlocked. *)
let rec pin_loop t sh pid ~miss ~attempt =
  if t.dead then begin
    Mutex.unlock sh.mu;
    failwith "Buffer_pool: used after crash"
  end;
  match Hashtbl.find_opt sh.table pid with
  | Some fr when fr.state = Ready ->
      Atomic.incr fr.pins;
      fr.referenced <- true;
      sh.hits <- sh.hits + 1;
      Mutex.unlock sh.mu;
      fr
  | Some fr ->
      (* Loading or Writing: wait on the frame, not the shard, then
         re-lookup (the frame may have been replaced or removed). *)
      await_frame sh pid fr;
      pin_loop t sh pid ~miss ~attempt
  | None ->
      if sh.used >= t.shard_cap then begin
        if try_evict_one t sh then
          (* A slot was freed, but the mutex may have been dropped during
             a dirty write-out: re-run the lookup from scratch. *)
          pin_loop t sh pid ~miss ~attempt
        else if attempt >= t.pin_attempts then begin
          Mutex.unlock sh.mu;
          raise Pool_exhausted
        end
        else begin
          (* Every frame transiently pinned: back off off-mutex and
             retry a bounded number of times before giving up.  Under the
             simulator, yield instead of sleeping so another fiber gets a
             chance to unpin. *)
          Mutex.unlock sh.mu;
          if Pitree_util.Sched_hook.active () then
            Pitree_util.Sched_hook.yield Cond
              (Printf.sprintf "pool-full-%d" pid)
          else backoff t attempt;
          Mutex.lock sh.mu;
          pin_loop t sh pid ~miss ~attempt:(attempt + 1)
        end
      end
      else begin
        sh.misses <- sh.misses + 1;
        let slot =
          match sh.free with
          | s :: rest ->
              sh.free <- rest;
              s
          | [] -> assert false (* used < shard_cap *)
        in
        let fr =
          {
            pid;
            (* Pre-formatted minimally so Page accessors are safe until the
               caller's logged Format operation ([Fresh]) or the durable
               image read into this same buffer replaces it. *)
            page =
              Page.create ~size:t.disk.Disk.page_size ~id:pid ~kind:Page.Free
                ~level:0;
            latch = Latch.create ~name:(Printf.sprintf "page-%d" pid) ();
            dirty = false;
            rec_lsn = 0;
            pins = Atomic.make 1;
            cond = Condition.create ();
            state = (if miss = Fresh then Ready else Loading);
            referenced = true;
            waiters = 0;
            slot;
            img_log = t.img_log;
            lsn_src = t.lsn_src;
          }
        in
        (* Optimistic readers validate against the latch's version word;
           key it to the page LSN so the published value equals
           2 * state_id for any saved-path entry naming this page,
           across evictions and re-loads (DESIGN.md section 14). The
           closure reads the LSN at publish time, so it tracks the image
           the off-mutex read below puts in the buffer. *)
        Latch.set_state_source fr.latch (fun () -> Page.lsn fr.page);
        sh.ring.(slot) <- Some fr;
        sh.used <- sh.used + 1;
        Hashtbl.replace sh.table pid fr;
        Mutex.unlock sh.mu;
        if miss = Fresh then fr
        else begin
          (* The expensive part — the durable read with its retry/backoff
             ladder — runs with no shard mutex held. Concurrent
             requesters of [pid] queue on [fr.cond]; hits on other pages
             in this shard proceed unimpeded. *)
          let t0 = Clock.now_ns () in
          let ready () =
            Mutex.lock sh.mu;
            Histogram.record sh.miss_wait (Clock.now_ns () - t0);
            (* Re-seed before [Ready] flips: a pin is granted only on
               Ready frames, so no optimistic reader can have
               snapshotted the placeholder's version. *)
            Version.seed (Latch.version fr.latch) (Page.lsn fr.page);
            fr.state <- Ready;
            Condition.broadcast fr.cond;
            Mutex.unlock sh.mu
          in
          let blank why =
            (* A failed read may have left part of an image behind. *)
            Page.format fr.page ~kind:Page.Free ~level:0;
            ready ();
            raise (Blank (fr, why))
          in
          let may_blank = miss = Read_or_blank in
          match read_durable t pid (Page.raw fr.page) with
          | () ->
              ready ();
              fr
          | exception Not_found when may_blank -> blank Missing
          | exception Page.Corrupt _ when may_blank -> blank Torn
          | exception e ->
              (* Failed load: withdraw the placeholder so waiters retry
                 (and observe the failure themselves if it persists). *)
              Mutex.lock sh.mu;
              remove_frame sh fr;
              Condition.broadcast fr.cond;
              Mutex.unlock sh.mu;
              raise e
        end
      end

let pin_common t pid ~miss =
  let sh = shard_of t pid in
  Mutex.lock sh.mu;
  pin_loop t sh pid ~miss ~attempt:0

let pin t pid = pin_common t pid ~miss:Read
let pin_new t pid = pin_common t pid ~miss:Fresh

let pin_or_blank t pid = pin_common t pid ~miss:Read_or_blank

(* Lock-free: the release of a pin is a plain atomic decrement.

   Memory-model audit (Multicore OCaml: all [Atomic] operations are
   seqcst and carry the writer's full frontier — there is no relaxed
   variant to get wrong). Two orderings matter here:

   - dirty-bit publication: a dirtying writer's [mark_dirty] (plain
     stores to [dirty]/[rec_lsn]) precedes its decrement in program
     order, so the decrement's frontier includes them; the evictor reads
     [pins] with [Atomic.get] before reading [dirty], acquiring that
     frontier — the dirty bit is always visible to whoever sees the pin
     drop. Were the decrement relaxed, the evictor could see pins = 0
     with a stale clean bit and drop the only copy of the update.

   - version-word publication: an X-latch release does
     [Version.publish] (an [Atomic.set] of the latch's version word)
     after the holder's last plain page write and before this unpin, so
     an optimistic reader whose [Version.validate] observes the
     published value also observes every page byte it covers. The sim
     regression (test_sim: olc torn-read window) pins the schedule that
     would expose a torn read if either edge were reorderable. *)
let unpin _t fr =
  let old = Atomic.fetch_and_add fr.pins (-1) in
  assert (old > 0)

(* Lock-free second pin on a frame the caller already holds pinned. Sound
   ONLY under that precondition: a pinned frame cannot be evicted or
   reused (the clock hand skips pins > 0 and [Writing] bars transitions
   while waiters exist), so the increment cannot race a victim selection
   the way a from-scratch [pin] could — which is exactly why [pin] must
   take the shard mutex and this must not. Used for the permanently
   pinned root-frame cache in the latch-free read path. *)
let repin _t fr =
  let old = Atomic.fetch_and_add fr.pins 1 in
  assert (old > 0)

(* Callers hold the frame's X latch (or are single-threaded recovery), so
   the clean->dirty transition cannot race with another dirtier; write-back
   paths clear [dirty] only while excluding mutators (shard mutex + no
   pins, or an S latch). The update protocol calls this BEFORE appending
   the log record, so at the instant any LSN is assigned to the change the
   page is already in every dirty-page snapshot. *)
let mark_dirty fr =
  if not fr.dirty then begin
    (* At the clean->dirty instant the durable image holds every update the
       page has ever seen, so the first record NOT yet in it is the one the
       caller is about to append — which lands strictly above the current
       WAL tail. [tail + 1] is therefore a sound rec_lsn, and a *tight*
       one. The fallback [page LSN + 1] (used when no source is installed:
       bare pools in tests, and recovery's redo pass) is equally sound but
       arbitrarily loose: one update to a cold page whose LSN predates the
       last checkpoint drags the redo floor — and with it the truncation
       point — back below the retained log, and under steady traffic over
       a large key space some checkpoint-interval always contains one, so
       the log never shrinks. Same for freshly created pages (LSN 0), whose
       fallback rec_lsn of 1 floors truncation at the log origin.

       Read the tail BEFORE the full-page-write hook runs: an image it
       logs is appended after the read, so image LSN >= rec_lsn and
       truncation keeps the image exactly as long as the page needs it. *)
    let bound =
      match !(fr.lsn_src) with
      | Some tail -> tail () + 1
      | None -> Page.lsn fr.page + 1
    in
    fr.rec_lsn <- bound;
    fr.dirty <- true;
    (* Full-page write: a clean page with history (LSN > 0) has a durable
       image that is about to become the only copy of everything below
       rec_lsn once the log is truncated past it; the hook decides whether
       the log already holds a recent enough image of it, and logs one if
       not. It runs AFTER [dirty] flips: a checkpoint that lists dirty
       pages after the hook's decision then writes this page back, so a
       decision that missed the checkpoint's Begin is always covered by
       its write-back (see Env's full-page-write rule). Still under the
       caller's X latch and before the caller's update record, so an image
       is the exact pre-update durable state. Freshly created pages (LSN 0)
       have no history to protect. *)
    match !(fr.img_log) with
    | Some logf when Page.lsn fr.page > 0 -> logf fr.pid fr.page
    | _ -> ()
  end

let set_image_logger t hook = t.img_log := hook
let image_logger t = !(t.img_log)
let set_lsn_source t hook = t.lsn_src := hook
let lsn_source t = !(t.lsn_src)

let check_alive t = if t.dead then failwith "Buffer_pool: used after crash"

(* Caller holds the shard mutex of [fr] and [fr] is Ready (checkpoint
   paths hold the mutex across the write; simplicity over concurrency —
   these are not hot paths). *)
let write_locked t sh fr =
  if fr.dirty then begin
    write_frame t fr;
    fr.dirty <- false;
    sh.flushes <- sh.flushes + 1
  end

let flush_page t fr =
  let sh = shard_of t fr.pid in
  Mutex.lock sh.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.mu)
    (fun () ->
      check_alive t;
      write_locked t sh fr)

(* Snapshot the dirty-page table — (page id, rec_lsn) for every dirty
   frame — without stopping writers: each shard is visited under its own
   mutex, one at a time. Frames mid-write-back ([Writing]) are still
   reported (their dirty bit clears only once the write completes), which
   is conservative: a stale entry can only lower the redo point. *)
let dirty_pages t =
  check_alive t;
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.mu;
      let acc =
        Hashtbl.fold
          (fun _ fr l -> if fr.dirty then (fr.pid, fr.rec_lsn) :: l else l)
          sh.table acc
      in
      Mutex.unlock sh.mu;
      acc)
    [] t.shards

(* Incremental write-back for fuzzy checkpoints: flush currently-dirty
   frames one at a time, holding no shard mutex across I/O and only an S
   latch on the page being written — concurrent readers proceed, and a
   writer blocks only for the one page's write, not the pool. Each frame is
   pinned (under the shard mutex, so eviction cannot race) and re-validated
   before writing. Returns the number of pages written. *)
let write_back t =
  check_alive t;
  let written = ref 0 in
  Array.iter
    (fun sh ->
      let candidates =
        Mutex.lock sh.mu;
        let l =
          Hashtbl.fold
            (fun _ fr l -> if fr.dirty then fr.pid :: l else l)
            sh.table []
        in
        Mutex.unlock sh.mu;
        l
      in
      List.iter
        (fun pid ->
          Mutex.lock sh.mu;
          (* An eviction already writing the page either cleans it or, if
             its write fails, leaves it dirty and [Ready] again: wait to
             see which, so that every page dirty when listed leaves here
             clean (or the write-back raises). The full-page-write rule
             relies on it. *)
          let rec settle () =
            match Hashtbl.find_opt sh.table pid with
            | Some fr when fr.state = Writing ->
                await_frame sh pid fr;
                settle ()
            | Some fr when fr.state = Ready && fr.dirty ->
                Atomic.incr fr.pins;
                Some fr
            | _ -> None
          in
          let fr = settle () in
          Mutex.unlock sh.mu;
          match fr with
          | None -> ()
          | Some fr ->
              Latch.acquire fr.latch Latch.S;
              Fun.protect
                ~finally:(fun () ->
                  Latch.release fr.latch Latch.S;
                  ignore (Atomic.fetch_and_add fr.pins (-1)))
                (fun () ->
                  (* The S latch excludes mutators; an eviction write-out
                     cannot be in flight (the frame is pinned). *)
                  if fr.dirty then begin
                    write_frame t fr;
                    Mutex.lock sh.mu;
                    fr.dirty <- false;
                    sh.flushes <- sh.flushes + 1;
                    Mutex.unlock sh.mu;
                    incr written
                  end))
        candidates)
    t.shards;
  !written

(* Power-failure image dump for crash simulation: write every dirty frame
   as-is, taking no page latches. A dying machine's cache write-back does
   not coordinate with the application — the workload may have unwound
   with X latches still held (a latched flush would self-deadlock on
   them), and a mid-mutation or torn image is precisely the durable state
   a power failure produces. Dirty bits are left set and per-page disk
   errors are swallowed (a fail-stopped device simply loses the rest);
   only meaningful immediately before [crash]. *)
let crash_flush t =
  check_alive t;
  Array.iter
    (fun sh ->
      let frames =
        Mutex.lock sh.mu;
        let l =
          Hashtbl.fold
            (fun _ fr l -> if fr.dirty then fr :: l else l)
            sh.table []
        in
        Mutex.unlock sh.mu;
        l
      in
      List.iter
        (fun fr -> try write_frame t fr with Disk.Disk_error _ -> ())
        frames)
    t.shards

let rec flush_all t =
  ignore (write_back t : int);
  if dirty_pages t <> [] then begin
    (* An eviction's off-mutex write-out ([Writing]) keeps the dirty bit
       until it completes; don't spin hot waiting for it. *)
    Thread.yield ();
    flush_all t
  end

let crash t =
  Array.iter (fun sh -> Mutex.lock sh.mu) t.shards;
  Array.iter
    (fun sh ->
      Hashtbl.reset sh.table;
      Array.fill sh.ring 0 (Array.length sh.ring) None;
      sh.free <- List.init (Array.length sh.ring) Fun.id;
      sh.used <- 0;
      sh.hand <- 0)
    t.shards;
  t.dead <- true;
  Array.iter (fun sh -> Mutex.unlock sh.mu) t.shards

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  flushes : int;
  retried_reads : int;
  retried_writes : int;
  shards : int;
  shard_evictions : int array;
  hit_ratio : float;
  miss_wait_mean_ns : float;
  miss_wait_p99_ns : int;
}

let stats (t : t) =
  let hits = ref 0
  and misses = ref 0
  and evictions = ref 0
  and flushes = ref 0 in
  let shard_evictions = Array.make (Array.length t.shards) 0 in
  let hist = ref (Histogram.create ()) in
  Array.iteri
    (fun i sh ->
      Mutex.lock sh.mu;
      hits := !hits + sh.hits;
      misses := !misses + sh.misses;
      evictions := !evictions + sh.evictions;
      flushes := !flushes + sh.flushes;
      shard_evictions.(i) <- sh.evictions;
      hist := Histogram.merge !hist sh.miss_wait;
      Mutex.unlock sh.mu)
    t.shards;
  let h = !hist in
  let pins = !hits + !misses in
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    flushes = !flushes;
    retried_reads = Atomic.get t.retried_reads;
    retried_writes = Atomic.get t.retried_writes;
    shards = Array.length t.shards;
    shard_evictions;
    hit_ratio = (if pins = 0 then 0. else float_of_int !hits /. float_of_int pins);
    miss_wait_mean_ns = (if Histogram.count h = 0 then 0. else Histogram.mean h);
    miss_wait_p99_ns = Histogram.percentile h 99.;
  }

module Testing = struct
  let backoff_duration t ~attempt = backoff_duration t attempt
end
