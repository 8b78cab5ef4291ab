module Codec = Pitree_util.Codec

type txn_kind = User | System

let pp_txn_kind ppf k =
  Format.pp_print_string ppf (match k with User -> "user" | System -> "system")

type lundo = { tree : int; comp : Logical.comp }

type part = { page : int; op : Page_op.t }

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
  | Move of { parts : part list }
  | Move_clr of { parts : part list; undo_next : Lsn.t }

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
  | Move _ -> 12
  | Move_clr _ -> 13

let kinds = [| "update"; "move"; "clr"; "image"; "commit"; "other" |]

let kind_of_tag = function
  | 5 -> 0
  | 12 -> 1
  | 6 | 13 -> 2
  | 7 | 11 -> 3
  | 2 -> 4
  | _ -> 5

let kind body = kind_of_tag (body_tag body)

(* The body tag sits after the u32 length and the three 8-byte header
   words (lsn, prev, txn). *)
let frame_kind s ~pos =
  if pos < 0 || pos + 28 >= String.length s then
    raise (Codec.Corrupt "log record header truncated");
  kind_of_tag (Char.code (String.get s (pos + 28)))

(* Does [cell] begin with [key] as a length-prefixed field (u32 length,
   then the bytes)? Record cells of blink and TSB lead with their key so. *)
let leads_with cell key =
  let k = String.length key in
  String.length cell >= 4 + k
  && Int32.to_int (String.get_int32_le cell 0) land 0xffffffff = k
  &&
  let rec eq i = i >= k || (String.unsafe_get cell (4 + i) = String.unsafe_get key i && eq (i + 1)) in
  eq 0

(* An update's lundo flag: 0 none, 1 a compensation spelled out in full,
   2 a [Put] of the op's own before-image ([Replace_slot.old_cell] or
   [Delete_slot.cell]), 3 a [Remove] keyed by the op's own cell
   ([Insert_slot.cell]), 4 a [Remove] keyed by the leading field of the
   op's own cell ({!leads_with}). Flags 2-4 carry only the tree: the
   shared bytes are stored once, in the op, and decode rebuilds the
   value. *)
let lundo_flag op comp =
  match (op, comp) with
  | ( (Page_op.Replace_slot { old_cell = c; _ } | Page_op.Delete_slot { cell = c; _ }),
      Logical.Put { cell } )
    when String.equal c cell ->
      2
  | Page_op.Insert_slot { cell; _ }, Logical.Remove { key } when String.equal cell key
    ->
      3
  | Page_op.Insert_slot { cell; _ }, Logical.Remove { key } when leads_with cell key -> 4
  | _ -> 1

let shared_lundo flag tree op =
  match (flag, op) with
  | 2, (Page_op.Replace_slot { old_cell = cell; _ } | Page_op.Delete_slot { cell; _ }) ->
      { tree; comp = Logical.Put { cell } }
  | 3, Page_op.Insert_slot { cell; _ } -> { tree; comp = Logical.Remove { key = cell } }
  | 4, Page_op.Insert_slot { cell; _ } ->
      let k =
        if String.length cell < 4 then -1
        else Int32.to_int (String.get_int32_le cell 0) land 0xffffffff
      in
      if k < 0 || k > String.length cell - 4 then
        raise (Codec.Corrupt "lundo key past its cell");
      { tree; comp = Logical.Remove { key = String.sub cell 4 k } }
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

(* --- move parts ---

   A part whose op is a cell run ([Insert_cells]/[Delete_cells]) is
   written compactly; any other op is written as {!Page_op.encode} does
   (form 0). A run's form byte is [1 + bits]:
   - bit 0: a delete run (else an insert run);
   - bits 1-2: its slots — 0 one u16 each, 1 ascending by one from a
     first, 2 all equal to a first;
   - bit 3: its cells are an in-order subsequence of an earlier part's
     run, written as u16 positions in that part instead of bytes;
   - bit 4 (with bit 3): the positions ascend by one from a first.
   Then: u16 count; the slots (the first slot, or one u16 per cell);
   the cells (the source part's index and then the first position or
   one u16 position per cell, or one u16 length and the bytes per cell).
   Decode rebuilds the very op the engine built. A run with a slot or a
   cell of 64 KiB or more keeps form 0. *)

let run_of = function
  | Page_op.Insert_cells { cells } -> Some (false, cells)
  | Page_op.Delete_cells { cells } -> Some (true, cells)
  | _ -> None

let compact_run cells =
  List.length cells <= 0xffff
  && List.for_all (fun (slot, c) -> slot <= 0xffff && String.length c <= 0xffff) cells

let rec ascends_by step x = function
  | [] -> true
  | y :: rest -> y = x && ascends_by step (x + step) rest

(* Slot form and first slot: see above. *)
let slot_form = function
  | [] -> (2, 0)
  | (s, _) :: _ as cells ->
      let slots = List.map fst cells in
      if ascends_by 1 s slots then (1, s) else if ascends_by 0 s slots then (2, s) else (0, 0)

(* Positions of [cells] as an in-order subsequence of [src], if they are
   one. *)
let positions src cells =
  let n = Array.length src in
  let rec go j acc = function
    | [] -> Some (List.rev acc)
    | (_, c) :: rest -> (
        let rec find j =
          if j >= n then None else if String.equal src.(j) c then Some j else find (j + 1)
        in
        match find j with None -> None | Some k -> go (k + 1) (k :: acc) rest)
  in
  go 0 [] cells

(* [prior] holds the cells of the record's earlier run parts, oldest
   first, with their part index. *)
let put_part b prior { page; op } =
  Codec.put_u32 b page;
  match run_of op with
  | Some (del, cells) when compact_run cells ->
      let slots, first = slot_form cells in
      let source =
        if cells = [] then None
        else
          List.find_map
            (fun (j, src) -> Option.map (fun pos -> (j, pos)) (positions src cells))
            prior
      in
      let consec =
        match source with Some (_, (p :: _ as pos)) -> ascends_by 1 p pos | _ -> false
      in
      Codec.put_u8 b
        (1 + Bool.to_int del + (slots lsl 1)
        + (if source = None then 0 else 8)
        + if consec then 16 else 0);
      Codec.put_u16 b (List.length cells);
      if slots = 0 then List.iter (fun (slot, _) -> Codec.put_u16 b slot) cells
      else Codec.put_u16 b first;
      (match source with
      | None ->
          List.iter
            (fun (_, c) ->
              Codec.put_u16 b (String.length c);
              Buffer.add_string b c)
            cells
      | Some (j, pos) ->
          Codec.put_u16 b j;
          if consec then Codec.put_u16 b (List.hd pos)
          else List.iter (Codec.put_u16 b) pos)
  | _ ->
      Codec.put_u8 b 0;
      Page_op.encode b op

let put_parts b parts =
  Codec.put_u16 b (List.length parts);
  ignore
    (List.fold_left
       (fun (i, prior) part ->
         put_part b prior part;
         ( i + 1,
           match run_of part.op with
           | Some (_, cells) -> prior @ [ (i, Array.of_list (List.map snd cells)) ]
           | None -> prior ))
       (0, []) parts)

let get_string r n =
  let s = Bytes.create n in
  Codec.get_blit r s ~pos:0 ~len:n;
  Bytes.unsafe_to_string s

let get_part r prior i =
  let page = Codec.get_u32 r in
  let op =
    match Codec.get_u8 r with
    | 0 -> Page_op.decode r
    | form when form <= 32 ->
        let f = form - 1 in
        let slots = (f lsr 1) land 3 and shared = f land 8 <> 0 and consec = f land 16 <> 0 in
        if slots = 3 || (consec && not shared) then
          raise (Codec.Corrupt (Printf.sprintf "bad move part form %d" form));
        let n = Codec.get_u16 r in
        let slot =
          if slots = 0 then
            let a = Array.init n (fun _ -> Codec.get_u16 r) in
            Array.get a
          else
            let first = Codec.get_u16 r in
            if slots = 1 then fun k -> first + k else fun _ -> first
        in
        let cell =
          if not shared then fun _ -> get_string r (Codec.get_u16 r)
          else begin
            let j = Codec.get_u16 r in
            let src =
              match if j < i then prior.(j) else None with
              | Some src -> src
              | None -> raise (Codec.Corrupt "move part shares a foreign part")
            in
            let at p =
              if p >= Array.length src then
                raise (Codec.Corrupt "move part position past its source");
              src.(p)
            in
            if consec then
              let p0 = Codec.get_u16 r in
              fun k -> at (p0 + k)
            else fun _ -> at (Codec.get_u16 r)
          end
        in
        let cells = List.init n (fun k -> (slot k, cell k)) in
        if f land 1 = 1 then Page_op.Delete_cells { cells } else Page_op.Insert_cells { cells }
    | form -> raise (Codec.Corrupt (Printf.sprintf "bad move part form %d" form))
  in
  prior.(i) <- Option.map (fun (_, cells) -> Array.of_list (List.map snd cells)) (run_of op);
  { page; op }

let get_parts r =
  let n = Codec.get_u16 r in
  let prior = Array.make n None in
  List.init n (fun i -> get_part r prior i)

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
  | Commit_ts { ts } -> Codec.put_int b ts
  | Move { parts } -> put_parts b parts
  | Move_clr { parts; undo_next } ->
      Codec.put_int b undo_next;
      put_parts b parts)

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

(* Fill [dst] with an image of [len] bytes whose zero run
   [hole_off, hole_off + hole_len) is not in the frame. *)
let get_image r dst ~len ~hole_off ~hole_len =
  let tail = hole_off + hole_len in
  if tail > len then raise (Codec.Corrupt "page image hole past its end");
  if len > Bytes.length dst then raise (Codec.Corrupt "page image larger than its page");
  Codec.get_blit r dst ~pos:0 ~len:hole_off;
  Bytes.fill dst hole_off hole_len '\000';
  Codec.get_blit r dst ~pos:tail ~len:(len - tail)

let blit_image s ~pos dst =
  let len = checked_payload ~check:false s ~pos in
  let r = Codec.reader ~pos:(pos + 4 + 24) ~len:(len - 24) s in
  match Codec.get_u8 r with
  | 7 ->
      ignore (Codec.get_u32 r);
      let len = Codec.get_u32 r in
      get_image r dst ~len ~hole_off:len ~hole_len:0
  | 11 ->
      ignore (Codec.get_u32 r);
      let len = Codec.get_u32 r in
      let hole_off = Codec.get_u32 r in
      let hole_len = Codec.get_u32 r in
      get_image r dst ~len ~hole_off ~hole_len
  | n -> raise (Codec.Corrupt (Printf.sprintf "log body tag %d is not a page image" n))

let decode ?(pos = 0) ?check ?(images = true) s =
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
        if flag > 4 then raise (Codec.Corrupt (Printf.sprintf "bad lundo tag %d" flag));
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
    | (7 | 11) when not images -> Page_image { page = Codec.get_u32 r; image = "" }
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
        let image = Bytes.create len in
        get_image r image ~len ~hole_off ~hole_len;
        Page_image { page; image = Bytes.unsafe_to_string image }
    | 12 -> Move { parts = get_parts r }
    | 13 ->
        let undo_next = Codec.get_int r in
        Move_clr { parts = get_parts r; undo_next }
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad log body tag %d" n))
  in
  { lsn; prev; txn; body }

let pp_parts =
  Fmt.list ~sep:Fmt.comma (fun ppf { page; op } -> Fmt.pf ppf "p%d %a" page Page_op.pp op)

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
    | Move { parts } -> Fmt.pf ppf "move %a" pp_parts parts
    | Move_clr { parts; undo_next } ->
        Fmt.pf ppf "move_clr %a undo_next=%d" pp_parts parts undo_next
  in
  Fmt.pf ppf "[%d txn=%d prev=%d %a]" t.lsn t.txn t.prev body t.body
