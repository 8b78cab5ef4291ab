module Histogram = Pitree_util.Histogram
module Engine = Pitree_core.Engine
module Clock = Pitree_sync.Clock

type result = {
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  stats : Stats.t option;
}

let pp_result ppf r =
  Fmt.pf ppf
    "%d domains: %.0f ops/s (mean %.0fns p50 %dns p99 %dns p999 %dns, %d ops in %.2fs)"
    r.domains r.ops_per_s r.mean_ns r.p50_ns r.p99_ns r.p999_ns r.total_ops
    r.elapsed_s;
  match r.stats with
  | None -> ()
  | Some s -> Fmt.pf ppf "@\n%a" Stats.pp s

let now () = Unix.gettimeofday ()

let preload inst spec ~n =
  let value = String.make spec.Workload.value_len 'P' in
  for i = 0 to n - 1 do
    Engine.insert inst ~key:(Workload.key_of i) ~value
  done

let apply inst = function
  | Workload.Find k -> ignore (Engine.find inst k)
  | Workload.Insert (k, v) -> ignore (Engine.insert inst ~key:k ~value:v)
  | Workload.Delete k -> ignore (Engine.delete inst k)
  | Workload.Scan (k, n) -> ignore (Engine.scan inst ~low:k ~n)
  | Workload.Rmw (k, v) ->
      ignore (Engine.find inst k);
      Engine.insert inst ~key:k ~value:v

let worker inst spec ~seed ~worker:w ~workers ~ops =
  let g = Workload.gen spec ~seed ~worker:w ~workers in
  let h = Histogram.create () in
  for _ = 1 to ops do
    let op = Workload.next g in
    let t0 = Clock.now_ns () in
    apply inst op;
    Histogram.record h (Clock.now_ns () - t0)
  done;
  h

let run ?env ?faults ~domains ~ops_per_domain ~seed inst spec =
  let before = Option.map (Stats.of_env ?faults) env in
  let t0 = now () in
  let hists =
    if domains = 1 then [ worker inst spec ~seed ~worker:0 ~workers:1 ~ops:ops_per_domain ]
    else begin
      let handles =
        List.init domains (fun w ->
            Domain.spawn (fun () ->
                worker inst spec ~seed ~worker:w ~workers:domains
                  ~ops:ops_per_domain))
      in
      List.map Domain.join handles
    end
  in
  let elapsed = now () -. t0 in
  let h = List.fold_left Histogram.merge (Histogram.create ()) hists in
  let total = domains * ops_per_domain in
  let stats =
    match (env, before) with
    | Some env, Some before ->
        Some (Stats.delta ~before ~after:(Stats.of_env ?faults env))
    | _ -> None
  in
  {
    domains;
    total_ops = total;
    elapsed_s = elapsed;
    ops_per_s = float_of_int total /. elapsed;
    mean_ns = Histogram.mean h;
    p50_ns = Histogram.percentile h 50.0;
    p99_ns = Histogram.percentile h 99.0;
    p999_ns = Histogram.p999 h;
    stats;
  }
