exception Corrupt of string

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u16 b v = Buffer.add_uint16_le b (v land 0xffff)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b v
let put_int b v = put_i64 b (Int64.of_int v)

let put_bytes b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_float b f = put_i64 b (Int64.bits_of_float f)

type reader = { src : string; mutable off : int; lim : int }

let reader ?(pos = 0) ?len src =
  let lim = match len with None -> String.length src | Some n -> pos + n in
  if pos < 0 || lim < pos || lim > String.length src then
    invalid_arg "Codec.reader";
  { src; off = pos; lim }

let pos r = r.off
let remaining r = r.lim - r.off

let need r n =
  if r.off + n > r.lim then
    raise (Corrupt (Printf.sprintf "short read: need %d at %d, have %d" n r.off r.lim))

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.off] in
  r.off <- r.off + 1;
  v

let get_u16 r =
  need r 2;
  let v = String.get_uint16_le r.src r.off in
  r.off <- r.off + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.off) land 0xffffffff in
  r.off <- r.off + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.off in
  r.off <- r.off + 8;
  v

let get_int r = Int64.to_int (get_i64 r)

let get_bytes r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.off n in
  r.off <- r.off + n;
  s

let get_blit r dst ~pos ~len =
  need r len;
  Bytes.blit_string r.src r.off dst pos len;
  r.off <- r.off + len

let get_float r = Int64.float_of_bits (get_i64 r)

let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let set_i64 b off v = Bytes.set_int64_le b off v
let read_u16 b off = Bytes.get_uint16_le b off
let read_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let read_i64 b off = Bytes.get_int64_le b off

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by 8:
   table [k] maps a byte to its CRC contribution k positions further into
   the stream, so the main loop folds eight bytes per step with eight
   independent lookups. Everything stays an unboxed [int] (the value never
   exceeds 32 bits). *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)

let crc32_sub ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Codec.crc32_sub";
  let t = crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let p = !i in
    let one =
      !c lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
               lor (byte s (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (one land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((one lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((one lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (one lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte s (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte s (p + 5))
      lxor Array.unsafe_get t (256 + byte s (p + 6))
      lxor Array.unsafe_get t (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte s p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc32_sub s ~pos:0 ~len:(String.length s))
