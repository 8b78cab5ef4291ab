(* Raw per-op latency samples in nanoseconds. Percentiles are exact
   nearest-rank values over every sample, not histogram buckets. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 4096 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

let concat ts =
  let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
  let a = Array.make (max n 1) 0 in
  let _ =
    List.fold_left
      (fun off t ->
        Array.blit t.a 0 a off t.n;
        off + t.n)
      0 ts
  in
  { a; n }

(* [percentiles t ps] sorts once; each p in [0, 100]. *)
let percentiles t ps =
  if t.n = 0 then List.map (fun _ -> 0) ps
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    List.map
      (fun p ->
        let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
        s.(max 0 (min (t.n - 1) (rank - 1))))
      ps
  end
