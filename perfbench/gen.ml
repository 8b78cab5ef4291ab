(* Input generation owned by the benchmark: seeded random numbers, Zipf
   ranks, a seeded scramble of ranks onto key indices, and the key and
   value formats. Nothing here comes from the library, so a change to the
   library's generators cannot change what the benchmark asks for. *)

(* SplitMix64. *)
type rng = { mutable s : int64 }

let rng seed = { s = seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A child generator for stream [i] of [seed]: clients and phases draw
   from separate streams so their inputs do not depend on each other. *)
let stream seed i =
  let r = rng (Int64.add (Int64.of_int seed) (Int64.mul 0x632BE59BD9B4E019L (Int64.of_int (i + 1)))) in
  ignore (next64 r);
  r

let int r bound = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int bound))

let float r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.

(* Zipf ranks in [0, n) with exponent [theta] (Gray et al., "Quickly
   generating billion-record synthetic databases", SIGMOD 1994). Rank 0 is
   the hottest. *)
type zipf = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zipf ~n ~theta =
  let zeta m =
    let s = ref 0. in
    for i = 1 to m do
      s := !s +. (1. /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    theta;
    alpha = 1. /. (1. -. theta);
    zetan;
    eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta 2 /. zetan));
  }

let zipf_rank z r =
  let u = float r in
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** z.theta) then 1
  else
    min (z.n - 1)
      (int_of_float (float_of_int z.n *. ((z.eta *. u) -. z.eta +. 1.) ** z.alpha))

(* A seeded bijection on [0, n): [i -> (i * mul + add) mod n] with [mul]
   coprime to [n]. It spreads the hot ranks over the key space, so the
   hottest keys do not all share the first leaf. *)
type scramble = { m : int; mul : int; add : int }

let scramble ~seed n =
  let r = stream seed 1_000 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec pick () =
    let c = 1 + int r (n - 1) in
    if gcd c n = 1 then c else pick ()
  in
  { m = n; mul = (if n <= 2 then 1 else pick ()); add = int r n }

let apply s i = ((i * s.mul) + s.add) mod s.m

(* Keys are fixed width so that lexicographic and numeric order agree.
   Every value starts with its key, which lets any read check that the
   value it got belongs to the key it asked for. *)
let key i = Printf.sprintf "k%010d" i

let value_len = 100

let value ~key ~tag =
  let v = Bytes.make value_len '.' in
  let s = key ^ ":" ^ tag in
  Bytes.blit_string s 0 v 0 (min value_len (String.length s));
  Bytes.unsafe_to_string v

let belongs ~key v =
  String.length v = value_len
  && String.length v > String.length key
  && String.sub v 0 (String.length key) = key
  && v.[String.length key] = ':'
