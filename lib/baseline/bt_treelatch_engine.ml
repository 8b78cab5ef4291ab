(* The tree-latch B+-tree baseline (structure changes serialized) behind
   the uniform [Pitree_core.Engine.S] interface. The baseline is
   non-transactional by construction: [?txn] is ignored so mixed
   workloads still run against it, and it exposes no ordered iteration,
   so [scan] reports 0. *)

module Engine = Pitree_core.Engine

module Impl = struct
  type t = Bt_treelatch.t

  let engine_name = "tree-latch (serial SMO)"
  let insert ?txn:_ t ~key ~value = Bt_treelatch.insert t ~key ~value
  let delete ?txn:_ t k = Bt_treelatch.delete t k
  let find ?txn:_ t k = Bt_treelatch.find t k
  let scan ?txn:_ _ ~low:_ ~n:_ = 0
end

include Impl

let inst t = Engine.Inst ((module Impl), t)
