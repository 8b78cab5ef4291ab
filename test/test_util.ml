(* Tests for pitree.util: PRNG, Zipf, histogram, codec. *)

module Rng = Pitree_util.Rng
module Zipf = Pitree_util.Zipf
module Histogram = Pitree_util.Histogram
module Codec = Pitree_util.Codec
module Bits = Pitree_util.Bits

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r 3.5 in
    if f < 0.0 || f >= 3.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int64 a) in
  let ys = List.init 32 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_uniformity () =
  let r = Rng.create 99L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d wildly off: %d vs %d" i c expected)
    counts

let test_shuffle_permutes () =
  let r = Rng.create 3L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 Fun.id)

let test_zipf_uniform_theta0 () =
  let z = Zipf.create ~n:100 ~theta:0.0 in
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Zipf.sample z r in
    if v < 0 || v >= 100 then Alcotest.failf "zipf out of range: %d" v
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~theta:0.99 in
  let r = Rng.create 6L in
  let hot = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Zipf.sample z r < 10 then incr hot
  done;
  (* With theta=0.99 the top-10 of 1000 ranks should absorb far more than
     the uniform 1%. *)
  Alcotest.(check bool)
    (Printf.sprintf "top-10 ranks hot (%d/%d)" !hot n)
    true
    (float_of_int !hot /. float_of_int n > 0.2)

let test_zipf_bounds_high_skew () =
  let z = Zipf.create ~n:10 ~theta:1.2 in
  let r = Rng.create 11L in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z r in
    if v < 0 || v >= 10 then Alcotest.failf "out of range: %d" v
  done

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 4; 8; 1000 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "total" 1015 (Histogram.total h);
  Alcotest.(check int) "max" 1000 (Histogram.max_value h);
  Alcotest.(check bool) "mean" true (abs_float (Histogram.mean h -. 203.0) < 0.01)

let test_histogram_percentile () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h i
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p99 = Histogram.percentile h 99.0 in
  Alcotest.(check bool) (Printf.sprintf "p50=%d in [256,1024]" p50) true (p50 >= 256 && p50 <= 1024);
  Alcotest.(check bool) (Printf.sprintf "p99=%d >= p50" p99) true (p99 >= p50)

let test_histogram_percentile_exact () =
  (* A single sample of 100 lands in bucket [64,128); every percentile
     reports that bucket's geometric midpoint round(2^6.5) = 91, never the
     exclusive upper bound 128 that used to overestimate by up to 2x. *)
  let h = Histogram.create () in
  Histogram.record h 100;
  Alcotest.(check int) "p50 of singleton" 91 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p99 of singleton" 91 (Histogram.percentile h 99.0);
  (* 1..1000: rank ceil(500) falls in [256,512) -> 362; rank 990 falls in
     [512,1024) -> 724. *)
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h i
  done;
  Alcotest.(check int) "p50 of 1..1000" 362 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p99 of 1..1000" 724 (Histogram.percentile h 99.0);
  (* Nearest-rank: with samples {1, 1000}, p50 is rank ceil(0.5*2) = 1, the
     FIRST sample — the old truncation skipped to the second bucket and
     returned 1024. *)
  let h = Histogram.create () in
  Histogram.record h 1;
  Histogram.record h 1000;
  Alcotest.(check int) "p50 of {1,1000}" 1 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100 of {1,1000}" 724 (Histogram.percentile h 100.0);
  (* The zero bucket reports 0, not a midpoint. *)
  let h = Histogram.create () in
  Histogram.record h 0;
  Alcotest.(check int) "zero bucket" 0 (Histogram.percentile h 99.0)

let test_histogram_p999 () =
  (* 1..10000: rank ceil(9990) falls in [8192,16384) -> round(2^13.5) =
     11585; p999 sits at or above p99 and below max. *)
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.record h i
  done;
  Alcotest.(check int) "p999 of 1..10000" 11585 (Histogram.p999 h);
  Alcotest.(check bool) "p99 <= p999" true
    (Histogram.percentile h 99.0 <= Histogram.p999 h);
  (* With fewer than 1000 samples, nearest-rank p999 is the max sample's
     bucket — same as p100. *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3 ];
  Alcotest.(check int) "p999 of 3 samples = p100"
    (Histogram.percentile h 100.0)
    (Histogram.p999 h)

let test_histogram_merge_assoc () =
  (* merge is associative (and commutative): bucket-wise addition. Any
     grouping of per-domain histograms must report identical percentiles,
     count, total and max. *)
  let mk seed n =
    let st = Random.State.make [| seed |] in
    let h = Histogram.create () in
    for _ = 1 to n do
      Histogram.record h (Random.State.int st 1_000_000)
    done;
    h
  in
  let a = mk 1 500 and b = mk 2 700 and c = mk 3 300 in
  let l = Histogram.merge (Histogram.merge a b) c in
  let r = Histogram.merge a (Histogram.merge b c) in
  Alcotest.(check int) "count" (Histogram.count l) (Histogram.count r);
  Alcotest.(check int) "total" (Histogram.total l) (Histogram.total r);
  Alcotest.(check int) "max" (Histogram.max_value l) (Histogram.max_value r);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%.1f" p)
        (Histogram.percentile l p) (Histogram.percentile r p))
    [ 50.0; 90.0; 99.0; 99.9; 100.0 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 5;
  Histogram.record b 500;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Histogram.count m);
  Alcotest.(check int) "merged total" 505 (Histogram.total m);
  Alcotest.(check int) "a unchanged" 1 (Histogram.count a)

let test_codec_roundtrip () =
  let b = Buffer.create 64 in
  Codec.put_u8 b 200;
  Codec.put_u16 b 40000;
  Codec.put_u32 b 3_000_000_000;
  Codec.put_i64 b (-42L);
  Codec.put_int b 123456789;
  Codec.put_bytes b "hello \x00 world";
  Codec.put_float b 3.14159;
  let r = Codec.reader (Buffer.contents b) in
  Alcotest.(check int) "u8" 200 (Codec.get_u8 r);
  Alcotest.(check int) "u16" 40000 (Codec.get_u16 r);
  Alcotest.(check int) "u32" 3_000_000_000 (Codec.get_u32 r);
  Alcotest.(check int64) "i64" (-42L) (Codec.get_i64 r);
  Alcotest.(check int) "int" 123456789 (Codec.get_int r);
  Alcotest.(check string) "bytes" "hello \x00 world" (Codec.get_bytes r);
  Alcotest.(check (float 0.000001)) "float" 3.14159 (Codec.get_float r);
  Alcotest.(check int) "consumed all" 0 (Codec.remaining r)

let test_codec_short_read () =
  let r = Codec.reader "ab" in
  Alcotest.check_raises "short" (Codec.Corrupt "short read: need 4 at 0, have 2")
    (fun () -> ignore (Codec.get_u32 r))

let test_codec_bytes_inplace () =
  let b = Bytes.make 16 '\000' in
  Codec.set_u16 b 0 513;
  Codec.set_u32 b 2 70000;
  Codec.set_i64 b 6 99L;
  Alcotest.(check int) "u16" 513 (Codec.read_u16 b 0);
  Alcotest.(check int) "u32" 70000 (Codec.read_u32 b 2);
  Alcotest.(check int64) "i64" 99L (Codec.read_i64 b 6)

let test_crc32_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926 *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check bool) "differs" true (Codec.crc32 "a" <> Codec.crc32 "b")

(* Byte-at-a-time reference CRC-32 (IEEE), independent of the sliced
   kernel under test. *)
let reference_crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_sub_known () =
  Alcotest.(check int) "123456789" 0xCBF43926
    (Codec.crc32_sub "123456789" ~pos:0 ~len:9);
  Alcotest.(check int) "empty" 0 (Codec.crc32_sub "" ~pos:0 ~len:0);
  Alcotest.(check int) "sub-range" 0xCBF43926
    (Codec.crc32_sub "xx123456789yy" ~pos:2 ~len:9);
  Alcotest.(check int) "continued" 0xCBF43926
    (Codec.crc32_sub ~crc:(Codec.crc32_sub "1234" ~pos:0 ~len:4) "56789" ~pos:0
       ~len:5);
  Alcotest.check_raises "range outside" (Invalid_argument "Codec.crc32_sub")
    (fun () -> ignore (Codec.crc32_sub "abc" ~pos:2 ~len:2))

let test_crc32_differential () =
  let rng = Rng.create (Seeds.derive "crc32 differential") in
  let s = String.init (4200 + 8) (fun _ -> Char.chr (Rng.int rng 256)) in
  for off = 0 to 7 do
    for len = 0 to 4200 do
      let want = reference_crc s ~pos:off ~len in
      let got = Codec.crc32_sub s ~pos:off ~len in
      if got <> want then
        Alcotest.failf "crc32_sub off=%d len=%d: %08x, reference %08x" off len
          got want
    done
  done;
  Alcotest.(check int32) "crc32 agrees with the sub-range kernel"
    (Int32.of_int (reference_crc s ~pos:0 ~len:(String.length s)))
    (Codec.crc32 s)

let test_bits () =
  Alcotest.(check int) "clz 0" 64 (Bits.clz 0);
  Alcotest.(check int) "clz 1" 63 (Bits.clz 1);
  Alcotest.(check int) "clz 255" 56 (Bits.clz 255);
  Alcotest.(check int) "next_pow2 1" 1 (Bits.next_pow2 1);
  Alcotest.(check int) "next_pow2 5" 8 (Bits.next_pow2 5);
  Alcotest.(check int) "next_pow2 64" 64 (Bits.next_pow2 64)

(* Property: codec string roundtrip for arbitrary payloads. *)
let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"codec bytes roundtrip" ~count:500
    QCheck.(small_list string)
    (fun ss ->
      let b = Buffer.create 64 in
      List.iter (Codec.put_bytes b) ss;
      let r = Codec.reader (Buffer.contents b) in
      List.for_all (fun s -> String.equal s (Codec.get_bytes r)) ss)

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc32 detects single-byte flip" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 64)) small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let flipped = Bytes.of_string s in
      Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x01));
      Codec.crc32 s <> Codec.crc32 (Bytes.to_string flipped))

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "theta 0 uniform" `Quick test_zipf_uniform_theta0;
        Alcotest.test_case "skew" `Quick test_zipf_skew;
        Alcotest.test_case "bounds at high skew" `Quick test_zipf_bounds_high_skew;
      ] );
    ( "util.histogram",
      [
        Alcotest.test_case "basic" `Quick test_histogram_basic;
        Alcotest.test_case "percentile" `Quick test_histogram_percentile;
        Alcotest.test_case "percentile exact midpoints" `Quick
          test_histogram_percentile_exact;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "p999" `Quick test_histogram_p999;
        Alcotest.test_case "merge associativity" `Quick
          test_histogram_merge_assoc;
      ] );
    ( "util.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "short read" `Quick test_codec_short_read;
        Alcotest.test_case "in-place bytes" `Quick test_codec_bytes_inplace;
        Alcotest.test_case "crc32 vector" `Quick test_crc32_known;
        Alcotest.test_case "crc32_sub known answers" `Quick
          test_crc32_sub_known;
        Alcotest.test_case "crc32_sub vs byte-wise reference" `Quick
          test_crc32_differential;
        Alcotest.test_case "bits" `Quick test_bits;
        QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
        QCheck_alcotest.to_alcotest prop_crc_detects_flip;
      ] );
  ]
