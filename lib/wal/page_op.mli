(** Physiological page operations: the unit of logging.

    Each operation describes one change to one page, carrying enough
    information to be both redone and undone page-locally. This is exactly
    what the paper's "page-oriented UNDO" recovery regime assumes: the undo
    of an update happens on the same page as the original update.

    Operations are applied with {!redo}; their page-local inverses come from
    {!invert} (used to generate compensation log records during rollback). *)

type t =
  | Format of { kind : Pitree_storage.Page.kind; level : int }
      (** Initialize a freshly allocated page. Inverse: format as [Free]. *)
  | Reformat of {
      old_kind : Pitree_storage.Page.kind;
      new_kind : Pitree_storage.Page.kind;
      old_level : int;
      new_level : int;
    }  (** Change header kind/level in place, keeping cells. *)
  | Insert_slot of { slot : int; cell : string }
  | Delete_slot of { slot : int; cell : string }
      (** [cell] is the deleted content, needed to undo. *)
  | Replace_slot of { slot : int; old_cell : string; new_cell : string }
  | Set_side_ptr of { old_ptr : int; new_ptr : int }
  | Set_aux_ptr of { old_ptr : int; new_ptr : int }
  | Set_flags of { old_flags : int; new_flags : int }
  | Insert_cells of { cells : (int * string) list }
      (** A run of [Insert_slot]s in list order, logged as one record: a
          structure change moves many cells into one page in one step
          (a split's sibling fill, a root's new child, a merge). *)
  | Delete_cells of { cells : (int * string) list }
      (** A run of [Delete_slot]s in list order; each [cell] is the deleted
          content, needed to undo. The two run ops invert to each other
          with the list reversed. {!redo} checks that the whole run
          applies (every slot in range as the run goes, every inserted
          cell fits) before it touches the page, raising
          [Invalid_argument] or [Page.Page_full] with the page
          unchanged. *)

val redo : Pitree_storage.Page.t -> t -> unit
(** Apply the operation's forward effect. Does NOT touch the page LSN; the
    caller stamps it with the log record's LSN. *)

val invert : t -> t
(** The page-local inverse. [redo p (invert op)] after [redo p op] restores
    the page's logical content. *)

val is_noop : t -> bool
(** An empty cell run: applying it changes nothing, so callers skip it
    rather than log it. *)

val insert_run : slot:int -> string list -> t
(** [insert_run ~slot cells] inserts [cells] at slots [slot], [slot + 1], …
    in order. *)

val delete_where : Pitree_storage.Page.t -> (int -> bool) -> t
(** Delete every slot [i] of the page with [f i], lowest slot first: the
    run's cells come in page order. *)

val cells_from : Pitree_storage.Page.t -> slot:int -> string list
(** The page's cells from slot [slot] to the last, in slot order. *)

val encode : Buffer.t -> t -> unit
(** A [Replace_slot] whose two cells share at least 16 bytes of prefix plus
    suffix is encoded as a delta: the old cell in full (undo and the
    update's shared logical undo, lundo flag 2, read it), then the prefix
    and suffix lengths (u16 each) and the new cell's middle bytes.
    {!decode} rebuilds the same op. Replacements sharing fewer bytes keep
    the full form, both cells whole. *)

val decode : Pitree_util.Codec.reader -> t

val pp : Format.formatter -> t -> unit
