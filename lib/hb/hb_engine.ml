(* The hB-tree behind [Pitree_core.Engine.S]. The hB-tree indexes
   multiattribute points, not strings, so the adapter embeds each string
   key as a deterministic point: coordinate [i] hashes [(i, key)] into
   [0, 1). The embedding is injective for all practical purposes (a
   collision needs [dims] simultaneous 30-bit hash collisions) and spreads
   keys uniformly over the cube — exactly the workload the node splitter
   expects. *)

module Engine = Pitree_core.Engine

let point_of_key ~dims key =
  Array.init dims (fun i ->
      float_of_int (Hashtbl.hash (i, key)) /. 1073741824.0)

module Impl = struct
  type t = Hb.t

  let engine_name = "hb-tree"
  let point t key = point_of_key ~dims:(Hb.dims t) key
  let insert ?txn t ~key ~value = Hb.insert ?txn t ~point:(point t key) ~value
  let delete ?txn t key = Hb.delete ?txn t (point t key)
  let find ?txn t key = Hb.find ?txn t (point t key)

  (* Hashing destroys key order, so an ordered scan cannot be served;
     report 0 like the baselines (Engine.S documents this). *)
  let scan ?txn:_ _ ~low:_ ~n:_ = 0
end

include Impl

let inst t = Engine.Inst ((module Impl), t)
