(* The latch-coupling B+-tree baseline behind the uniform
   [Pitree_core.Engine.S] interface. The baseline is non-transactional by
   construction: [?txn] is ignored so mixed workloads still run against
   it, and it exposes no ordered iteration, so [scan] reports 0. *)

module Engine = Pitree_core.Engine

module Impl = struct
  type t = Bt_coupling.t

  let engine_name = "lock-coupling"
  let insert ?txn:_ t ~key ~value = Bt_coupling.insert t ~key ~value
  let delete ?txn:_ t k = Bt_coupling.delete t k
  let find ?txn:_ t k = Bt_coupling.find t k
  let scan ?txn:_ _ ~low:_ ~n:_ = 0
end

include Impl

let inst t = Engine.Inst ((module Impl), t)
