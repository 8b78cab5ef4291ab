module Codec = Pitree_util.Codec

type kind = Free | Meta | Data | Index

let kind_to_int = function Free -> 0 | Meta -> 1 | Data -> 2 | Index -> 3

let kind_of_int = function
  | 0 -> Free
  | 1 -> Meta
  | 2 -> Data
  | 3 -> Index
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad page kind %d" n))

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Free -> "free" | Meta -> "meta" | Data -> "data" | Index -> "index")

(* Header layout (40 bytes):
   0  u16 magic
   2  u8  kind
   3  u8  level
   4  i64 page_lsn (state identifier)
   12 u32 self page id
   16 u16 slot_count
   18 u16 cell_start  (lowest offset occupied by cell payload)
   20 u32 side_ptr
   24 u32 aux_ptr
   28 u16 flags
   30 u16 reserved
   32 u32 checksum (CRC32 of the whole page with this field zeroed)
   36 u32 reserved *)

let magic = 0x5049
let header_size = 40
let checksum_off = 32
let slot_overhead = 4
let nil = 0

type t = { id : int; buf : bytes }

exception Page_full

type corruption =
  | Torn  (** header invalid: the write never completed past the header *)
  | Checksum of { stored : int32; computed : int32 }
      (** header valid but body mismatched: a torn interior or bit rot *)

exception Corrupt of { pid : int; what : corruption }

let pp_corruption ppf = function
  | Torn -> Format.pp_print_string ppf "torn (bad header)"
  | Checksum { stored; computed } ->
      Format.fprintf ppf "checksum mismatch (stored %08lx, computed %08lx)"
        stored computed

let () =
  Printexc.register_printer (function
    | Corrupt { pid; what } ->
        Some
          (Format.asprintf "Page.Corrupt (page %d: %a)" pid pp_corruption what)
    | _ -> None)

let size t = Bytes.length t.buf
let id t = t.id
let raw t = t.buf

let slot_count t = Codec.read_u16 t.buf 16
let set_slot_count t n = Codec.set_u16 t.buf 16 n
let cell_start t = Codec.read_u16 t.buf 18
let set_cell_start t n = Codec.set_u16 t.buf 18 n

let lsn t = Int64.to_int (Codec.read_i64 t.buf 4)
let set_lsn t v = Codec.set_i64 t.buf 4 (Int64.of_int v)

let kind t = kind_of_int (Char.code (Bytes.get t.buf 2))
let set_kind t k = Bytes.set t.buf 2 (Char.chr (kind_to_int k))

let level t = Char.code (Bytes.get t.buf 3)
let set_level t l = Bytes.set t.buf 3 (Char.chr l)

let side_ptr t = Codec.read_u32 t.buf 20
let set_side_ptr t v = Codec.set_u32 t.buf 20 v

let aux_ptr t = Codec.read_u32 t.buf 24
let set_aux_ptr t v = Codec.set_u32 t.buf 24 v

let flags t = Codec.read_u16 t.buf 28
let set_flags t v = Codec.set_u16 t.buf 28 v

let format t ~kind:k ~level:l =
  Bytes.fill t.buf 0 (Bytes.length t.buf) '\000';
  Codec.set_u16 t.buf 0 magic;
  set_kind t k;
  set_level t l;
  Codec.set_u32 t.buf 12 t.id;
  set_slot_count t 0;
  set_cell_start t (Bytes.length t.buf)

let create ~size ~id ~kind ~level =
  if size < header_size + 64 then invalid_arg "Page.create: size too small";
  let t = { id; buf = Bytes.make size '\000' } in
  format t ~kind ~level;
  t

let of_bytes ~id buf =
  let t = { id; buf } in
  if Codec.read_u16 buf 0 <> magic then
    raise (Codec.Corrupt (Printf.sprintf "page %d: bad magic" id));
  t

(* --- checksums ---

   The CRC covers the entire page image with the checksum field itself
   read as zero: it runs over the bytes around the field with four zero
   bytes in its place, so computing it never writes to the page. The
   buffer pool stamps on every flush and verifies on every fetch; the
   field is meaningless (stale) while the page is dirty in memory. *)

let checksum t = Codec.read_u32 t.buf checksum_off

let zero_field = "\000\000\000\000"

let compute_checksum t =
  let s = Bytes.unsafe_to_string t.buf in
  let crc = Codec.crc32_sub s ~pos:0 ~len:checksum_off in
  let crc = Codec.crc32_sub ~crc zero_field ~pos:0 ~len:4 in
  let rest = checksum_off + 4 in
  Int32.of_int
    (Codec.crc32_sub ~crc s ~pos:rest ~len:(Bytes.length t.buf - rest))

let stamp_checksum t =
  Codec.set_u32 t.buf checksum_off (Int32.to_int (compute_checksum t))

let checksum_ok t =
  Int32.equal (compute_checksum t)
    (Int32.of_int (checksum t))

let of_durable ~id buf =
  if Codec.read_u16 buf 0 <> magic then
    raise (Corrupt { pid = id; what = Torn });
  let t = { id; buf } in
  let computed = compute_checksum t in
  let stored = Int32.of_int (checksum t) in
  if not (Int32.equal computed stored) then
    raise (Corrupt { pid = id; what = Checksum { stored; computed } });
  t

let copy t = { id = t.id; buf = Bytes.copy t.buf }

let slot_off i = header_size + (slot_overhead * i)

let slot t i =
  let off = slot_off i in
  (Codec.read_u16 t.buf off, Codec.read_u16 t.buf (off + 2))

let set_slot t i (off, len) =
  let o = slot_off i in
  Codec.set_u16 t.buf o off;
  Codec.set_u16 t.buf (o + 2) len

let check_index t i ~insert:ins =
  let n = slot_count t in
  let hi = if ins then n else n - 1 in
  if i < 0 || i > hi then
    invalid_arg (Printf.sprintf "Page slot index %d out of range (count %d)" i n)

let get t i =
  check_index t i ~insert:false;
  let off, len = slot t i in
  Bytes.sub_string t.buf off len

let used_space t =
  let n = slot_count t in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let _, len = slot t i in
    acc := !acc + len
  done;
  !acc

let dir_end t = header_size + (slot_overhead * slot_count t)

(* Contiguous free gap between the slot directory and the cell heap. *)
let gap t = cell_start t - dir_end t

let free_space t =
  (* Total free = page size - header - directory - live payload, assuming
     compaction; net of the slot a future cell would consume. *)
  let total_free = size t - dir_end t - used_space t in
  max 0 (total_free - slot_overhead)

let will_fit t n = n + slot_overhead <= size t - dir_end t - used_space t

let will_fit_all t cells =
  List.fold_left (fun acc c -> acc + String.length c + slot_overhead) 0 cells
  <= size t - dir_end t - used_space t

let can_replace t i n =
  check_index t i ~insert:false;
  let _, old_len = slot t i in
  n <= size t - dir_end t - used_space t + old_len

(* Rewrite all cells tightly against the end of the page. *)
let compact t =
  let n = slot_count t in
  let cells = Array.init n (fun i -> get t i) in
  let pos = ref (size t) in
  (* Zero the old heap region: a logged image's free space must be one zero
     run, which the log codec leaves out of the frame. *)
  Bytes.fill t.buf (dir_end t) (size t - dir_end t) '\000';
  for i = n - 1 downto 0 do
    let c = cells.(i) in
    let len = String.length c in
    pos := !pos - len;
    Bytes.blit_string c 0 t.buf !pos len;
    set_slot t i (!pos, len)
  done;
  set_cell_start t !pos

let insert t i cell =
  check_index t i ~insert:true;
  let len = String.length cell in
  if not (will_fit t len) then raise Page_full;
  if gap t < len + slot_overhead then compact t;
  let n = slot_count t in
  (* Shift slots [i, n) up by one. *)
  let src = slot_off i in
  Bytes.blit t.buf src t.buf (src + slot_overhead) (slot_overhead * (n - i));
  let pos = cell_start t - len in
  Bytes.blit_string cell 0 t.buf pos len;
  set_cell_start t pos;
  set_slot t i (pos, len);
  set_slot_count t (n + 1)

let delete t i =
  check_index t i ~insert:false;
  let cell = get t i in
  let n = slot_count t in
  let dst = slot_off i in
  Bytes.blit t.buf (dst + slot_overhead) t.buf dst (slot_overhead * (n - 1 - i));
  set_slot_count t (n - 1);
  (* Heap space is reclaimed lazily by [compact]. [cell_start] may now be
     stale-low, which is safe: it only under-reports the gap. *)
  cell

let replace t i cell =
  check_index t i ~insert:false;
  let _, old_len = slot t i in
  let len = String.length cell in
  if len <= old_len then begin
    let off, _ = slot t i in
    Bytes.blit_string cell 0 t.buf off len;
    set_slot t i (off, len)
  end
  else begin
    if size t - dir_end t - used_space t + old_len < len then raise Page_full;
    ignore (delete t i);
    (* [insert] never raises here: we just checked capacity net of the old
       cell, and delete released its slot. *)
    insert t i cell
  end

let fold t ~init ~f =
  let n = slot_count t in
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := f !acc i (get t i)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>page %d: %a level=%d lsn=%d slots=%d side=%d aux=%d free=%d@]"
    t.id pp_kind (kind t) (level t) (lsn t) (slot_count t) (side_ptr t)
    (aux_ptr t) (free_space t)
