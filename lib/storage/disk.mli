(** Durable page stores.

    A disk is the durable medium under the buffer pool: pages written here
    survive a crash; everything else does not. Three implementations:

    - {!in_memory}: a crash-faithful store for tests and benchmarks. Writes
      are durable immediately (the volatile layer in the system is the
      buffer pool above, which decides {e when} to write, honoring WAL).
    - {!file}: a real file via [Unix], for the persistence examples.
    - {!Faulty.wrap}: a fault-injecting decorator over either, for
      adversarial recovery testing (torn writes, transient I/O errors, bit
      rot, fail-stop).

    Implementations are thread-safe. *)

exception Disk_error of { pid : int; op : string; transient : bool }
(** An I/O failure. [transient] failures may succeed when retried (the
    buffer pool does so with backoff); non-transient ones model a torn
    write being abandoned or a dead device. Only raised by {!Faulty}
    disks. *)

type t = {
  page_size : int;
  read : int -> bytes -> unit;
      (** [read pid buf] fills [buf] with page [pid]'s durable image.
          Raises [Not_found] when the page was never written. *)
  write : int -> bytes -> unit;  (** durably store page [pid] *)
  sync : unit -> unit;
  close : unit -> unit;
  read_count : unit -> int;
  write_count : unit -> int;
}

val in_memory : page_size:int -> t

val file : page_size:int -> path:string -> t
(** Opens (creating if needed) [path]. Page [pid] lives at byte offset
    [pid * page_size]. A page that was never written reads back as all
    zeroes and is reported via [Not_found] (detected by a zero magic). *)

(** Fault injection: wrap any disk in a decorator that corrupts or fails a
    seeded-random subset of operations, per a {!Faulty.plan}. The wrapped
    disk shares the inner disk's store and op counters; per-fault counters
    live on the returned {!Faulty.ctl}. *)
module Faulty : sig
  type plan = {
    torn_write : float;
        (** P(a write persists only a prefix of the page, then raises a
            non-transient {!Disk_error}) — the classic torn page. The cut
            falls after the first and at or before the last byte where the
            new image differs from the durable one, so a torn page is never
            byte-identical to either; a write that differs in fewer than two
            bytes cannot tear and passes uncounted. *)
    transient_read : float;
        (** P(a read raises a transient {!Disk_error} without touching the
            buffer); a retry re-draws *)
    transient_write : float;  (** same, for writes (nothing is written) *)
    bit_flip : float;
        (** P(a read succeeds but one random bit of the returned buffer is
            flipped) — transient read-path corruption; the durable image is
            intact, so a retry reads clean *)
    fail_stop_after : int option;
        (** once this many total operations have been observed, every
            subsequent read and write raises a non-transient error (device
            death); applies to {!plan.protected_pids} too *)
    protected_pids : int list;
        (** pages exempt from all per-op faults (e.g. the meta page, whose
            pre-checkpoint history may no longer be in the log, making a
            torn image unrecoverable by redo) *)
  }

  val no_faults : plan

  type counters = {
    torn_writes : int;
    transient_reads : int;
    transient_writes : int;
    bit_flips : int;
    fail_stops : int;  (** operations refused after the fail-stop point *)
  }

  type ctl
  (** Handle for steering a wrapped disk: swap the plan mid-run and read
      the per-fault counters. *)

  val wrap : ?seed:int64 -> ?plan:plan -> t -> t * ctl
  (** [wrap ~seed ~plan inner]: a disk with [inner]'s contents and [plan]'s
      faults. Equal seeds and operation sequences draw equal faults.
      [plan] defaults to {!no_faults} (swap one in later via {!set_plan}). *)

  val set_plan : ctl -> plan -> unit
  val plan : ctl -> plan
  val counters : ctl -> counters
  val reset_counters : ctl -> unit
end
