(* Spans the benchmark records around the calls it makes into each layer.

   One recorder per client domain, so recording takes no lock. A span
   carries its request id (one per client request), its own id and its
   parent's id; spans stay in memory until the run ends. Self time — a
   span's duration minus the time its child spans cover — is summed per
   span name as each span closes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type name =
  | Op_read
  | Op_write
  | Op_scan
  | Op_txn
  | Engine_find
  | Engine_insert
  | Engine_scan
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Mvcc_begin
  | Mvcc_commit
  | Mvcc_abort
  | Env_checkpoint
  | Env_recover

let all =
  [ Op_read; Op_write; Op_scan; Op_txn; Engine_find; Engine_insert; Engine_scan;
    Txn_begin; Txn_commit; Txn_abort; Mvcc_begin; Mvcc_commit; Mvcc_abort;
    Env_checkpoint; Env_recover ]

(* Position in [all]: the slot of the name's counters. *)
let index n =
  let rec go i = function
    | x :: rest -> if x = n then i else go (i + 1) rest
    | [] -> invalid_arg "Trace.index"
  in
  go 0 all

let to_string = function
  | Op_read -> "op.read"
  | Op_write -> "op.write"
  | Op_scan -> "op.scan"
  | Op_txn -> "op.txn"
  | Engine_find -> "engine.find"
  | Engine_insert -> "engine.insert"
  | Engine_scan -> "engine.scan"
  | Txn_begin -> "txn.begin"
  | Txn_commit -> "txn.commit"
  | Txn_abort -> "txn.abort"
  | Mvcc_begin -> "mvcc.begin"
  | Mvcc_commit -> "mvcc.commit"
  | Mvcc_abort -> "mvcc.abort"
  | Env_checkpoint -> "env.checkpoint"
  | Env_recover -> "env.recover"

(* The layer a span's self time is charged to: the text before the dot,
   with "op" (the benchmark's own code between calls) named "client". *)
let layer n =
  let s = to_string n in
  match String.sub s 0 (String.index s '.') with "op" -> "client" | l -> l

(* The layers of a client request; "env" spans (checkpoint, recovery)
   run on the main domain, outside any client request. *)
let client_layers = [ "client"; "engine"; "txn"; "mvcc" ]
let n_names = List.length all

type frame = { f_name : name; f_id : int; f_t0 : int; mutable f_child : int }

type t = {
  client : int;
  mutable on : bool;  (** the current request is traced *)
  mutable req : int;
  mutable next : int;
  mutable stack : frame list;
  spans : Samples.t;  (** 6 ints per span: req, id, parent, name, t0, t1 *)
  count : int array;
  total : int array;
  self : int array;
}

let create ~client =
  {
    client;
    on = false;
    req = 0;
    next = 0;
    stack = [];
    spans = Samples.create ();
    count = Array.make n_names 0;
    total = Array.make n_names 0;
    self = Array.make n_names 0;
  }

let fresh t =
  t.next <- t.next + 1;
  (t.client lsl 40) lor t.next

let close t fr =
  let t1 = now_ns () in
  let dur = t1 - fr.f_t0 in
  let parent =
    match t.stack with
    | _ :: (p :: _ as rest) ->
        p.f_child <- p.f_child + dur;
        t.stack <- rest;
        p.f_id
    | _ ->
        t.stack <- [];
        0
  in
  let i = index fr.f_name in
  t.count.(i) <- t.count.(i) + 1;
  t.total.(i) <- t.total.(i) + dur;
  t.self.(i) <- t.self.(i) + (dur - fr.f_child);
  List.iter (Samples.add t.spans) [ t.req; fr.f_id; parent; i; fr.f_t0; t1 ]

let span t name f =
  if not t.on then f ()
  else begin
    let fr = { f_name = name; f_id = fresh t; f_t0 = now_ns (); f_child = 0 } in
    t.stack <- fr :: t.stack;
    match f () with
    | r ->
        close t fr;
        r
    | exception e ->
        close t fr;
        raise e
  end

(* A whole client request: a new request id and the root span. *)
let request t name f =
  if t.on then t.req <- fresh t;
  span t name f

type summary = { s_count : int array; s_total : int array; s_self : int array }

let summarize ts =
  let s =
    {
      s_count = Array.make n_names 0;
      s_total = Array.make n_names 0;
      s_self = Array.make n_names 0;
    }
  in
  List.iter
    (fun t ->
      for i = 0 to n_names - 1 do
        s.s_count.(i) <- s.s_count.(i) + t.count.(i);
        s.s_total.(i) <- s.s_total.(i) + t.total.(i);
        s.s_self.(i) <- s.s_self.(i) + t.self.(i)
      done)
    ts;
  s

(* Mean duration in microseconds of the spans named [ns] (0 when none
   were recorded). *)
let mean_us s ns =
  let c = List.fold_left (fun acc n -> acc + s.s_count.(index n)) 0 ns in
  let d = List.fold_left (fun acc n -> acc + s.s_total.(index n)) 0 ns in
  if c = 0 then 0. else float_of_int d /. float_of_int c /. 1e3

(* Self time of [layer] in microseconds, summed over its span names. *)
let self_us s layer_name =
  List.fold_left
    (fun acc n ->
      if layer n = layer_name then acc +. (float_of_int s.s_self.(index n) /. 1e3)
      else acc)
    0. all

(* One line per span after the header line:
   [request id, span id, parent id (0 = root), name, start ns, end ns]. *)
let write oc ts =
  let names = Array.of_list (List.map to_string all) in
  List.iter
    (fun t ->
      let a = t.spans.Samples.a in
      let n = Samples.count t.spans / 6 in
      for i = 0 to n - 1 do
        let o = 6 * i in
        Printf.fprintf oc "[%d,%d,%d,\"%s\",%d,%d]\n" a.(o) a.(o + 1) a.(o + 2)
          names.(a.(o + 3)) a.(o + 4) a.(o + 5)
      done)
    ts
