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

let encode t =
  let b = Buffer.create 64 in
  Codec.put_int b t.lsn;
  Codec.put_int b t.prev;
  Codec.put_int b t.txn;
  Codec.put_u8 b (body_tag t.body);
  (match t.body with
  | Begin { kind } -> Codec.put_u8 b (match kind with User -> 0 | System -> 1)
  | Commit | Abort | End -> ()
  | Update { page; op; lundo } ->
      Codec.put_u32 b page;
      (match lundo with
      | None -> Codec.put_u8 b 0
      | Some { tree; comp } ->
          Codec.put_u8 b 1;
          Codec.put_u32 b tree;
          Logical.encode b comp);
      Page_op.encode b op
  | Clr { page; op; undo_next } ->
      Codec.put_u32 b page;
      Codec.put_int b undo_next;
      Page_op.encode b op
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
  | Commit_ts { ts } -> Codec.put_int b ts);
  let len = Buffer.length b in
  let framed = Bytes.create (len + 8) in
  Codec.set_u32 framed 0 len;
  Buffer.blit b 0 framed 4 len;
  Codec.set_u32 framed (4 + len)
    (Codec.crc32_sub (Bytes.unsafe_to_string framed) ~pos:4 ~len);
  Bytes.unsafe_to_string framed

(* Frame: u32 payload length, payload, u32 CRC-32 of the payload. *)
let frame_length s ~pos =
  if pos < 0 || pos > String.length s - 4 then
    raise (Codec.Corrupt "log record header truncated");
  8 + (Int32.to_int (String.get_int32_le s pos) land 0xffffffff)

(* Check the frame at [pos] in place; returns its payload length. *)
let checked_payload s ~pos =
  let len = frame_length s ~pos - 8 in
  if len > String.length s - pos - 8 then
    raise (Codec.Corrupt "log record truncated");
  let stored = Int32.to_int (String.get_int32_le s (pos + 4 + len)) land 0xffffffff in
  if stored <> Codec.crc32_sub s ~pos:(pos + 4) ~len then
    raise (Codec.Corrupt "log record CRC mismatch");
  len

let verify s ~pos =
  let len = checked_payload s ~pos in
  let r = Codec.reader ~pos:(pos + 4) ~len s in
  let lsn = Codec.get_int r in
  let _prev = Codec.get_int r in
  let txn = Codec.get_int r in
  (lsn, txn)

let decode ?(pos = 0) s =
  let len = checked_payload s ~pos in
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
        let lundo =
          match Codec.get_u8 r with
          | 0 -> None
          | 1 ->
              let tree = Codec.get_u32 r in
              let comp = Logical.decode r in
              Some { tree; comp }
          | n -> raise (Codec.Corrupt (Printf.sprintf "bad lundo tag %d" n))
        in
        let op = Page_op.decode r in
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
