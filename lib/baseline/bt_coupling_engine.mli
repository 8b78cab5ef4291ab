(** [Pitree_core.Engine.S] over the latch-coupling B+-tree baseline: [?txn] is ignored and [scan]
    reports 0. *)

include Pitree_core.Engine.S with type t = Bt_coupling.t

val inst : Bt_coupling.t -> Pitree_core.Engine.instance
