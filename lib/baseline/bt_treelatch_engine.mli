(** [Pitree_core.Engine.S] over the tree-latch B+-tree baseline
    (structure changes serialized): [?txn] is ignored and [scan] reports
    0. *)

include Pitree_core.Engine.S with type t = Bt_treelatch.t

val inst : Bt_treelatch.t -> Pitree_core.Engine.instance
