(** Log records.

    A record belongs to a {e transaction} in the broad sense: either a user
    database transaction or one of the paper's independent {e atomic actions}
    (identified to the recovery manager as a "system transaction",
    section 4.3.2 option (ii)). Records of one transaction are backchained
    through [prev] so rollback can walk them without scanning.

    [Clr] records are compensation log records: redo-only descriptions of an
    undo step. [undo_next] points at the next record of the transaction still
    requiring undo, which makes rollback idempotent across repeated
    crashes. *)

type txn_kind =
  | User  (** database transaction; commit forces the log *)
  | System
      (** atomic action; commit is only {e relatively} durable — no force
          (section 4.3.1) *)

val pp_txn_kind : Format.formatter -> txn_kind -> unit

type lundo = { tree : int; comp : Logical.comp }
(** Logical-undo descriptor attached to leaf-record updates of user
    transactions under non-page-oriented UNDO (see {!Logical}). The
    encoding stores a compensation's bytes once when the op already holds
    them: a [Put] whose cell equals a [Replace_slot]'s [old_cell] or a
    [Delete_slot]'s [cell], or a [Remove] whose key equals an
    [Insert_slot]'s [cell] or that cell's leading length-prefixed field
    (blink and TSB record cells start with their key), is written as a
    flag and the tree id, and rebuilt from the op on decode. Any other
    compensation is written in full. *)

type part = { page : int; op : Page_op.t }
(** One page's share of a {!Move}: the op applied to that page. *)

type body =
  | Begin of { kind : txn_kind }
      (** decoded, never appended: older logs start each transaction
          with one *)
  | Commit  (** the transaction's last record *)
  | Abort  (** rollback decided; CLRs follow *)
  | End  (** rollback finished (older logs also end commits with one) *)
  | Update of { page : int; op : Page_op.t; lundo : lundo option }
  | Clr of { page : int; op : Page_op.t; undo_next : Lsn.t }
  | Page_image of { page : int; image : string }
      (** full-page write: the page's complete pre-update image, logged at
          the first clean→dirty transition after a checkpoint's Begin
          (outside any transaction, redo-only). The page is compacted
          first, so its free space is one run of zeros; the encoding
          leaves the image's longest zero run of at least 64 bytes out of
          the frame (its "hole") and decode puts it back, so [image] is
          always the whole page.
          Because it is appended after the transition computes the frame's
          rec_lsn, its LSN is ≥ that rec_lsn and therefore ≥ every future
          redo point — it survives log truncation. Redo uses it to rebuild
          a page whose durable image is torn even though the page's older
          history has been truncated away. *)
  | Begin_checkpoint
      (** fence for a fuzzy checkpoint: the ATT in the matching
          [End_checkpoint] is exactly consistent as of this LSN, and
          analysis scans forward from here *)
  | End_checkpoint of {
      begin_lsn : Lsn.t;  (** LSN of the matching [Begin_checkpoint] *)
      dpt : (int * Lsn.t) list;
          (** dirty-page table: page id → rec_lsn (a lower bound on the
              first log record whose effect is not yet in the page's
              durable image); recovery's redo point is
              [min(begin_lsn, min rec_lsn)] *)
      att : (int * Lsn.t * bool) list;
          (** active-transaction table as of [begin_lsn]: txn id, last
              LSN, and a committed flag that only older checkpoints set
              (recovery skips such an entry: it is a winner) *)
    }
  | Commit_ts of { ts : int }
      (** the single commit timestamp an SI transaction stamped its write
          set with, logged just before its Commit record; analysis tracks
          the maximum so recovery can seed the reborn commit-timestamp
          allocator (see {!Pitree_txn.Snapshot}) *)
  | Move of { parts : part list }
      (** one structure change over several pages, such as a split that
          fills a sibling and truncates the split node: the parts apply in
          list order, each to its page. Redo applies a page's parts when
          the page's LSN is older than the record; undo writes one
          [Move_clr] of the inverse parts in reverse order. A page may
          carry several parts. The encoding writes a cell run whose cells
          are an in-order subsequence of an earlier part's run as
          positions in that run, not as bytes: a split's truncation costs
          a few bytes, not a second copy of the moved cells. *)
  | Move_clr of { parts : part list; undo_next : Lsn.t }
      (** the compensation of a [Move]: redo-only, like [Clr] *)

type t = { lsn : Lsn.t; prev : Lsn.t; txn : int; body : body }

val encode : t -> string
(** The record's frame: a u32 payload length, the payload, and a u32 CRC-32
    of the payload. Frames are stored back to back in the log. *)

val payload : Buffer.t -> t -> unit
(** Append the record's payload — its frame without the length prefix and
    CRC — to the buffer. With {!frame_payload}, this lets the log manager
    encode into a reused buffer and frame straight into its tail, making no
    per-record allocation that grows with the record. *)

val frame_payload : Buffer.t -> bytes -> pos:int -> unit
(** Write the frame whose payload is the buffer's contents at [pos]: the
    u32 length, the payload and its u32 CRC-32, [Buffer.length b + 8] bytes
    in all. *)

val decode : ?pos:int -> ?check:bool -> ?images:bool -> string -> t
(** Decode the frame starting at [pos] (default 0), checking its CRC in
    place — no copy of the frame or payload is made, so a caller can decode
    straight out of a block of frames. [~check:false] skips the CRC, for a
    frame already checked (the frame must still fit in the string).
    [~images:false] decodes a [Page_image] with an empty [image]; the
    caller reads the image with {!blit_image}. Raises
    [Pitree_util.Codec.Corrupt] on framing/CRC errors. *)

val blit_image : string -> pos:int -> bytes -> unit
(** Write the image of the [Page_image] frame at [pos] (CRC not checked)
    into the start of the buffer, putting its zero hole back: redo
    applies an image straight from the scanned block into the page, with
    no copy in between. Raises [Pitree_util.Codec.Corrupt] if the frame is
    not an image or the image is longer than the buffer. *)

val kinds : string array
(** Names of the record kinds the log's statistics count:
    update, move, clr (both compensation forms), image, commit, other. *)

val kind : body -> int
(** The body's index in {!kinds}. *)

val frame_kind : string -> pos:int -> int
(** The kind of the frame at [pos], read from its body tag alone. *)

val frame_length : string -> pos:int -> int
(** Total byte length of the frame whose header starts at [pos], read from
    its length prefix (the frame itself need not be complete). Raises
    [Pitree_util.Codec.Corrupt] if fewer than 4 bytes remain. *)

val verify : string -> pos:int -> Lsn.t * int
(** Check the complete frame at [pos] (length and CRC) without decoding its
    body; returns its LSN and transaction id. Raises
    [Pitree_util.Codec.Corrupt] like {!decode}. *)

val pp : Format.formatter -> t -> unit
