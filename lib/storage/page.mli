(** Fixed-size slotted pages.

    Every node of every index in the library lives on one of these pages, so
    that trees survive (simulated) crashes byte-for-byte. The layout is the
    classic slotted page: a fixed 40-byte header, a slot directory growing
    upward, and cell payloads growing downward from the end of the page.

    The header carries the {b page LSN}, which doubles as the paper's node
    {e state identifier} (section 5.2): any logged change to the page
    advances it, so a traversal can detect "has this node changed since I
    remembered it?" with one comparison.

    The header also reserves a {b CRC32 checksum} of the whole page image.
    The buffer pool stamps it on every flush and verifies it on every
    fetch, so torn writes and bit rot on the durable medium are detected
    at the storage boundary ({!Corrupt}) instead of surfacing as tree
    corruption. While a page is dirty in memory the field is stale.

    Mutations here are raw, unlogged primitives. Code above the WAL never
    calls them directly: it goes through [Pitree_wal.Page_ops] so that every
    change is redo/undo-loggable. *)

type kind =
  | Free        (** on the free list *)
  | Meta        (** page 0: catalog + allocation state *)
  | Data        (** leaf node: data records (level 0) *)
  | Index       (** index node: index/sibling terms (level >= 1) *)

val kind_to_int : kind -> int
val kind_of_int : int -> kind
val pp_kind : Format.formatter -> kind -> unit

type t

exception Page_full

type corruption =
  | Torn
      (** the header is invalid (bad magic): the write that should have
          produced this image never completed past the header, or the page
          was never fully written at all *)
  | Checksum of { stored : int32; computed : int32 }
      (** the header is valid but the body does not match the stamped
          checksum: a torn interior (old tail behind a new header) or
          silent corruption (bit rot) *)

exception Corrupt of { pid : int; what : corruption }
(** Raised by {!of_durable} when a durable image fails verification.
    Recovery treats this as "no durable image" and rebuilds the page
    purely from redo history. *)

val pp_corruption : Format.formatter -> corruption -> unit

val header_size : int
val slot_overhead : int
(** Bytes of slot-directory space consumed per cell (4). *)

val nil : int
(** The null page id (0). *)

val create : size:int -> id:int -> kind:kind -> level:int -> t
(** A freshly formatted page with no cells. *)

val format : t -> kind:kind -> level:int -> unit
(** Re-format in place: zero the whole image and write a fresh header
    with no cells, leaving the bytes {!create} would give, without a new
    buffer. *)

val of_bytes : id:int -> bytes -> t
(** Adopt [bytes] (not copied) as page [id]'s image. Raises
    [Pitree_util.Codec.Corrupt] on a bad magic number. Does {e not} verify
    the checksum (for in-memory copies and debugging); durable images read
    from disk go through {!of_durable}. *)

val of_durable : id:int -> bytes -> t
(** Adopt [bytes] (not copied) as page [id]'s durable image, verifying
    header magic and checksum. Raises {!Corrupt} — [Torn] on a bad header,
    [Checksum] on a body mismatch. *)

(** {2 Checksums} *)

val checksum : t -> int
(** The stamped checksum field (meaningless while the page is dirty). *)

val compute_checksum : t -> int32
(** CRC32 of the current image with the checksum field read as zero. *)

val stamp_checksum : t -> unit
(** Store {!compute_checksum} into the header (done by the buffer pool on
    every flush). *)

val checksum_ok : t -> bool
(** Does the stamped checksum match the current image? *)

val raw : t -> bytes
(** The live underlying buffer (for disk I/O). *)

val copy : t -> t

val size : t -> int
val id : t -> int

val lsn : t -> int
val set_lsn : t -> int -> unit

val kind : t -> kind
val set_kind : t -> kind -> unit

val level : t -> int
val set_level : t -> int -> unit

val side_ptr : t -> int
(** Sibling (side) pointer; [nil] when absent. For B-link nodes this is the
    right sibling; the TSB-tree also uses {!aux_ptr} for its history sibling. *)

val set_side_ptr : t -> int -> unit

val aux_ptr : t -> int
val set_aux_ptr : t -> int -> unit

val flags : t -> int
val set_flags : t -> int -> unit

val slot_count : t -> int
val get : t -> int -> string
(** [get p i] is the cell in slot [i]. Raises [Invalid_argument] when out of
    range. *)

val insert : t -> int -> string -> unit
(** [insert p i cell] inserts [cell] at slot index [i], shifting later slots
    up. Raises [Page_full] when the cell plus slot overhead does not fit
    even after compaction, [Invalid_argument] when [i] is out of range. *)

val delete : t -> int -> string
(** [delete p i] removes slot [i], shifting later slots down; returns the
    removed cell. *)

val replace : t -> int -> string -> unit
(** [replace p i cell] swaps the content of slot [i]. May compact; raises
    [Page_full] if the larger cell cannot fit. *)

val compact : t -> unit
(** Rewrite the cells tightly against the end of the page, in slot order,
    and zero everything between the slot directory and the first cell.
    Slot indices and contents are unchanged; only byte offsets move. *)

val free_space : t -> int
(** Bytes available for one more cell's payload, assuming compaction, net of
    slot overhead. *)

val will_fit : t -> int -> bool
(** [will_fit p n]: can a cell of [n] bytes be inserted? *)

val will_fit_all : t -> string list -> bool
(** Can all of these cells be inserted, one slot each? *)

val can_replace : t -> int -> int -> bool
(** [can_replace p i n]: can slot [i]'s cell be replaced by one of [n]
    bytes (no new slot is consumed)? *)

val used_space : t -> int
(** Bytes of cell payload currently stored (utilization numerator). *)

val fold : t -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** Fold over slots in index order. *)

val pp : Format.formatter -> t -> unit
