module Codec = Pitree_util.Codec

type txn_kind = User | System

let pp_txn_kind ppf k =
  Format.pp_print_string ppf (match k with User -> "user" | System -> "system")

type lundo = { tree : int; comp : Logical.comp }

type body =
  | Begin of { kind : txn_kind }
  | Commit
  | Abort
  | End
  | Update of { page : int; op : Page_op.t; lundo : lundo option }
  | Clr of { page : int; op : Page_op.t; undo_next : Lsn.t }
  | Page_image of { page : int; image : string }
  | Begin_checkpoint
  | End_checkpoint of {
      begin_lsn : Lsn.t;
      dpt : (int * Lsn.t) list;
      att : (int * Lsn.t * bool) list;
    }
  | Commit_ts of { ts : int }

type t = { lsn : Lsn.t; prev : Lsn.t; txn : int; body : body }

let body_tag = function
  | Begin _ -> 1
  | Commit -> 2
  | Abort -> 3
  | End -> 4
  | Update _ -> 5
  | Clr _ -> 6
  | Page_image _ -> 7
  | Begin_checkpoint -> 8
  | End_checkpoint _ -> 9
  | Commit_ts _ -> 10

(* An update's lundo flag: 0 none, 1 a compensation spelled out in full,
   2 a [Put] of the op's own before-image ([Replace_slot.old_cell] or
   [Delete_slot.cell]), 3 a [Remove] keyed by the op's own cell
   ([Insert_slot.cell]). Flags 2 and 3 carry only the tree: the shared
   bytes are stored once, in the op, and decode rebuilds the value. *)
let lundo_flag op comp =
  match (op, comp) with
  | ( (Page_op.Replace_slot { old_cell = c; _ } | Page_op.Delete_slot { cell = c; _ }),
      Logical.Put { cell } )
    when String.equal c cell ->
      2
  | Page_op.Insert_slot { cell; _ }, Logical.Remove { key } when String.equal cell key
    ->
      3
  | _ -> 1

let shared_lundo flag tree op =
  match (flag, op) with
  | 2, (Page_op.Replace_slot { old_cell = cell; _ } | Page_op.Delete_slot { cell; _ }) ->
      { tree; comp = Logical.Put { cell } }
  | 3, Page_op.Insert_slot { cell; _ } -> { tree; comp = Logical.Remove { key = cell } }
  | _ -> raise (Codec.Corrupt (Printf.sprintf "lundo tag %d on a foreign op" flag))

(* A page image's longest run of zero bytes (offset, length). Images are
   compacted before they are logged, so the run is the page's free space;
   a run of at least [min_hole] bytes is left out of the frame (tag 11),
   PostgreSQL's full-page-image "hole". Shorter runs keep tag 7, the whole
   image, so a frame's size stays linear in an image with no free space. *)
let min_hole = 64

let zero_hole s =
  let n = String.length s in
  let best_off = ref 0 and best_len = ref 0 and i = ref 0 in
  while !i < n do
    if String.unsafe_get s !i <> '\000' then incr i
    else begin
      let j = ref (!i + 1) in
      while !j < n && String.unsafe_get s !j = '\000' do
        incr j
      done;
      if !j - !i > !best_len then begin
        best_off := !i;
        best_len := !j - !i
      end;
      i := !j
    end
  done;
  (!best_off, !best_len)

let payload b t =
  Codec.put_int b t.lsn;
  Codec.put_int b t.prev;
  Codec.put_int b t.txn;
  let hole_off, hole_len =
    match t.body with Page_image { image; _ } -> zero_hole image | _ -> (0, 0)
  in
  Codec.put_u8 b (if hole_len >= min_hole then 11 else body_tag t.body);
  (match t.body with
  | Begin { kind } -> Codec.put_u8 b (match kind with User -> 0 | System -> 1)
  | Commit | Abort | End -> ()
  | Update { page; op; lundo } ->
      Codec.put_u32 b page;
      (match lundo with
      | None -> Codec.put_u8 b 0
      | Some { tree; comp } ->
          let flag = lundo_flag op comp in
          Codec.put_u8 b flag;
          Codec.put_u32 b tree;
          if flag = 1 then Logical.encode b comp);
      Page_op.encode b op
  | Clr { page; op; undo_next } ->
      Codec.put_u32 b page;
      Codec.put_int b undo_next;
      Page_op.encode b op
  | Page_image { page; image } when hole_len >= min_hole ->
      let len = String.length image in
      let tail = hole_off + hole_len in
      Codec.put_u32 b page;
      Codec.put_u32 b len;
      Codec.put_u32 b hole_off;
      Codec.put_u32 b hole_len;
      Buffer.add_substring b image 0 hole_off;
      Buffer.add_substring b image tail (len - tail)
  | Page_image { page; image } ->
      Codec.put_u32 b page;
      Codec.put_bytes b image
  | Begin_checkpoint -> ()
  | End_checkpoint { begin_lsn; dpt; att } ->
      Codec.put_int b begin_lsn;
      Codec.put_u32 b (List.length dpt);
      List.iter
        (fun (page, rec_lsn) ->
          Codec.put_u32 b page;
          Codec.put_int b rec_lsn)
        dpt;
      Codec.put_u32 b (List.length att);
      List.iter
        (fun (txn, lsn, committed) ->
          Codec.put_int b txn;
          Codec.put_int b lsn;
          Codec.put_u8 b (if committed then 1 else 0))
        att
  | Commit_ts { ts } -> Codec.put_int b ts)

let frame_payload b dst ~pos =
  let len = Buffer.length b in
  Codec.set_u32 dst pos len;
  Buffer.blit b 0 dst (pos + 4) len;
  Codec.set_u32 dst (pos + 4 + len)
    (Codec.crc32_sub (Bytes.unsafe_to_string dst) ~pos:(pos + 4) ~len)

let encode t =
  let b = Buffer.create 64 in
  payload b t;
  let framed = Bytes.create (Buffer.length b + 8) in
  frame_payload b framed ~pos:0;
  Bytes.unsafe_to_string framed

(* Frame: u32 payload length, payload, u32 CRC-32 of the payload. *)
let frame_length s ~pos =
  if pos < 0 || pos > String.length s - 4 then
    raise (Codec.Corrupt "log record header truncated");
  8 + (Int32.to_int (String.get_int32_le s pos) land 0xffffffff)

(* Check the frame at [pos] in place — that it fits in [s] and, when
   [check], its CRC; returns its payload length. *)
let checked_payload ?(check = true) s ~pos =
  let len = frame_length s ~pos - 8 in
  if len > String.length s - pos - 8 then
    raise (Codec.Corrupt "log record truncated");
  if check then begin
    let stored = Int32.to_int (String.get_int32_le s (pos + 4 + len)) land 0xffffffff in
    if stored <> Codec.crc32_sub s ~pos:(pos + 4) ~len then
      raise (Codec.Corrupt "log record CRC mismatch")
  end;
  len

let verify s ~pos =
  let len = checked_payload s ~pos in
  let r = Codec.reader ~pos:(pos + 4) ~len s in
  let lsn = Codec.get_int r in
  let _prev = Codec.get_int r in
  let txn = Codec.get_int r in
  (lsn, txn)

let decode ?(pos = 0) ?check s =
  let len = checked_payload ?check s ~pos in
  let r = Codec.reader ~pos:(pos + 4) ~len s in
  let lsn = Codec.get_int r in
  let prev = Codec.get_int r in
  let txn = Codec.get_int r in
  let body =
    match Codec.get_u8 r with
    | 1 ->
        let kind = if Codec.get_u8 r = 0 then User else System in
        Begin { kind }
    | 2 -> Commit
    | 3 -> Abort
    | 4 -> End
    | 5 ->
        let page = Codec.get_u32 r in
        let flag = Codec.get_u8 r in
        if flag > 3 then raise (Codec.Corrupt (Printf.sprintf "bad lundo tag %d" flag));
        let tree = if flag = 0 then 0 else Codec.get_u32 r in
        let comp = if flag = 1 then Some (Logical.decode r) else None in
        let op = Page_op.decode r in
        let lundo =
          match (flag, comp) with
          | 0, _ -> None
          | _, Some comp -> Some { tree; comp }
          | _, None -> Some (shared_lundo flag tree op)
        in
        Update { page; op; lundo }
    | 6 ->
        let page = Codec.get_u32 r in
        let undo_next = Codec.get_int r in
        let op = Page_op.decode r in
        Clr { page; op; undo_next }
    | 7 ->
        let page = Codec.get_u32 r in
        let image = Codec.get_bytes r in
        Page_image { page; image }
    | 8 -> Begin_checkpoint
    | 9 ->
        let begin_lsn = Codec.get_int r in
        let ndpt = Codec.get_u32 r in
        let dpt =
          List.init ndpt (fun _ ->
              let page = Codec.get_u32 r in
              let rec_lsn = Codec.get_int r in
              (page, rec_lsn))
        in
        let natt = Codec.get_u32 r in
        let att =
          List.init natt (fun _ ->
              let txn = Codec.get_int r in
              let lsn = Codec.get_int r in
              let committed = Codec.get_u8 r = 1 in
              (txn, lsn, committed))
        in
        End_checkpoint { begin_lsn; dpt; att }
    | 10 ->
        let ts = Codec.get_int r in
        Commit_ts { ts }
    | 11 ->
        let page = Codec.get_u32 r in
        let len = Codec.get_u32 r in
        let hole_off = Codec.get_u32 r in
        let hole_len = Codec.get_u32 r in
        let tail = hole_off + hole_len in
        if tail > len then raise (Codec.Corrupt "page image hole past its end");
        let image = Bytes.make len '\000' in
        Codec.get_blit r image ~pos:0 ~len:hole_off;
        Codec.get_blit r image ~pos:tail ~len:(len - tail);
        Page_image { page; image = Bytes.unsafe_to_string image }
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad log body tag %d" n))
  in
  { lsn; prev; txn; body }

let pp ppf t =
  let body ppf = function
    | Begin { kind } -> Fmt.pf ppf "begin(%a)" pp_txn_kind kind
    | Commit -> Fmt.string ppf "commit"
    | Abort -> Fmt.string ppf "abort"
    | End -> Fmt.string ppf "end"
    | Update { page; op; lundo } ->
        Fmt.pf ppf "update p%d %a%s" page Page_op.pp op
          (match lundo with None -> "" | Some _ -> " +lundo")
    | Clr { page; op; undo_next } ->
        Fmt.pf ppf "clr p%d %a undo_next=%d" page Page_op.pp op undo_next
    | Page_image { page; image } ->
        Fmt.pf ppf "page_image p%d %dB" page (String.length image)
    | Begin_checkpoint -> Fmt.string ppf "begin_checkpoint"
    | End_checkpoint { begin_lsn; dpt; att } ->
        Fmt.pf ppf "end_checkpoint(begin=%d %d dirty %d active)" begin_lsn
          (List.length dpt) (List.length att)
    | Commit_ts { ts } -> Fmt.pf ppf "commit_ts %d" ts
  in
  Fmt.pf ppf "[%d txn=%d prev=%d %a]" t.lsn t.txn t.prev body t.body
