module Page = Pitree_storage.Page
module Codec = Pitree_util.Codec

type t =
  | Format of { kind : Page.kind; level : int }
  | Reformat of {
      old_kind : Page.kind;
      new_kind : Page.kind;
      old_level : int;
      new_level : int;
    }
  | Insert_slot of { slot : int; cell : string }
  | Delete_slot of { slot : int; cell : string }
  | Replace_slot of { slot : int; old_cell : string; new_cell : string }
  | Set_side_ptr of { old_ptr : int; new_ptr : int }
  | Set_aux_ptr of { old_ptr : int; new_ptr : int }
  | Set_flags of { old_flags : int; new_flags : int }
  | Insert_cells of { cells : (int * string) list }
  | Delete_cells of { cells : (int * string) list }

(* A run must be known to apply whole before it touches the page: the
   caller applies an op before logging it, so a run raising halfway would
   leave an unlogged partial change. *)
let check_run page cells ~insert =
  ignore
    (List.fold_left
       (fun n (slot, _) ->
         if slot < 0 || slot > (if insert then n else n - 1) then
           invalid_arg
             (Printf.sprintf "Page_op: run slot %d out of range (count %d)" slot n);
         if insert then n + 1 else n - 1)
       (Page.slot_count page) cells);
  if insert && not (Page.will_fit_all page (List.map snd cells)) then
    raise Page.Page_full

let redo page op =
  match op with
  | Format { kind; level } -> Page.format page ~kind ~level
  | Reformat { new_kind; new_level; _ } ->
      Page.set_kind page new_kind;
      Page.set_level page new_level
  | Insert_slot { slot; cell } -> Page.insert page slot cell
  | Delete_slot { slot; cell = _ } -> ignore (Page.delete page slot)
  | Replace_slot { slot; new_cell; _ } -> Page.replace page slot new_cell
  | Set_side_ptr { new_ptr; _ } -> Page.set_side_ptr page new_ptr
  | Set_aux_ptr { new_ptr; _ } -> Page.set_aux_ptr page new_ptr
  | Set_flags { new_flags; _ } -> Page.set_flags page new_flags
  | Insert_cells { cells } ->
      check_run page cells ~insert:true;
      List.iter (fun (slot, cell) -> Page.insert page slot cell) cells
  | Delete_cells { cells } ->
      check_run page cells ~insert:false;
      List.iter (fun (slot, _) -> ignore (Page.delete page slot)) cells

let invert = function
  | Format _ -> Format { kind = Page.Free; level = 0 }
  | Reformat { old_kind; new_kind; old_level; new_level } ->
      Reformat
        { old_kind = new_kind; new_kind = old_kind; old_level = new_level; new_level = old_level }
  | Insert_slot { slot; cell } -> Delete_slot { slot; cell }
  | Delete_slot { slot; cell } -> Insert_slot { slot; cell }
  | Replace_slot { slot; old_cell; new_cell } ->
      Replace_slot { slot; old_cell = new_cell; new_cell = old_cell }
  | Set_side_ptr { old_ptr; new_ptr } ->
      Set_side_ptr { old_ptr = new_ptr; new_ptr = old_ptr }
  | Set_aux_ptr { old_ptr; new_ptr } ->
      Set_aux_ptr { old_ptr = new_ptr; new_ptr = old_ptr }
  | Set_flags { old_flags; new_flags } ->
      Set_flags { old_flags = new_flags; new_flags = old_flags }
  | Insert_cells { cells } -> Delete_cells { cells = List.rev cells }
  | Delete_cells { cells } -> Insert_cells { cells = List.rev cells }

let is_noop = function
  | Insert_cells { cells = [] } | Delete_cells { cells = [] } -> true
  | _ -> false

let insert_run ~slot cells =
  Insert_cells { cells = List.mapi (fun i cell -> (slot + i, cell)) cells }

let cells_from page ~slot =
  List.init (Page.slot_count page - slot) (fun i -> Page.get page (slot + i))

(* Lowest slot first, each entry's slot shifted down by the deletions
   before it: the run lists the deleted cells in page order, so a move's
   truncation is an in-order subsequence of its fill (see
   [Log_record]'s shared parts). *)
let delete_where page f =
  let rec go i gone acc =
    if i >= Page.slot_count page then List.rev acc
    else if f i then go (i + 1) (gone + 1) ((i - gone, Page.get page i) :: acc)
    else go (i + 1) gone acc
  in
  Delete_cells { cells = go 0 0 [] }

(* Encoding tags. 9 and 10 were the whole-page [Clear]/[Restore] ops; old
   frames carrying them still decode, as the equivalent cell runs. 13 is a
   [Replace_slot] logged as a delta (see [min_shared]). *)
let tag = function
  | Format _ -> 1
  | Reformat _ -> 2
  | Insert_slot _ -> 3
  | Delete_slot _ -> 4
  | Replace_slot _ -> 5
  | Set_side_ptr _ -> 6
  | Set_aux_ptr _ -> 7
  | Set_flags _ -> 8
  | Insert_cells _ -> 11
  | Delete_cells _ -> 12

(* A [Replace_slot] whose cells share at least [min_shared] bytes of
   prefix plus suffix logs the new cell as a delta of the old (tag 13),
   PostgreSQL's heap-update WAL compression; see the interface. *)
let min_shared = 16

let shared_ends a b =
  let n = String.length a and m = String.length b in
  let lim = min n m in
  let rec pre i = if i < lim && a.[i] = b.[i] then pre (i + 1) else i in
  let p = pre 0 in
  let rec suf i = if i < lim - p && a.[n - 1 - i] = b.[m - 1 - i] then suf (i + 1) else i in
  (min p 0xffff, min (suf 0) 0xffff)

let put_run b cells =
  Codec.put_u16 b (List.length cells);
  List.iter
    (fun (slot, cell) ->
      Codec.put_u16 b slot;
      Codec.put_bytes b cell)
    cells

let get_run r =
  let n = Codec.get_u16 r in
  List.init n (fun _ ->
      let slot = Codec.get_u16 r in
      (slot, Codec.get_bytes r))

let get_cells r =
  let n = Codec.get_u32 r in
  List.init n (fun i -> (i, Codec.get_bytes r))

let encode b op =
  let pre, suf =
    match op with
    | Replace_slot { old_cell; new_cell; _ } -> shared_ends old_cell new_cell
    | _ -> (0, 0)
  in
  let delta = pre + suf >= min_shared in
  Codec.put_u8 b (if delta then 13 else tag op);
  match op with
  | Format { kind; level } ->
      Codec.put_u8 b (Page.kind_to_int kind);
      Codec.put_u8 b level
  | Reformat { old_kind; new_kind; old_level; new_level } ->
      Codec.put_u8 b (Page.kind_to_int old_kind);
      Codec.put_u8 b (Page.kind_to_int new_kind);
      Codec.put_u8 b old_level;
      Codec.put_u8 b new_level
  | Insert_slot { slot; cell } ->
      Codec.put_u32 b slot;
      Codec.put_bytes b cell
  | Delete_slot { slot; cell } ->
      Codec.put_u32 b slot;
      Codec.put_bytes b cell
  | Replace_slot { slot; old_cell; new_cell } when delta ->
      let mid = String.length new_cell - pre - suf in
      Codec.put_u32 b slot;
      Codec.put_bytes b old_cell;
      Codec.put_u16 b pre;
      Codec.put_u16 b suf;
      Codec.put_u32 b mid;
      Buffer.add_substring b new_cell pre mid
  | Replace_slot { slot; old_cell; new_cell } ->
      Codec.put_u32 b slot;
      Codec.put_bytes b old_cell;
      Codec.put_bytes b new_cell
  | Set_side_ptr { old_ptr; new_ptr } ->
      Codec.put_u32 b old_ptr;
      Codec.put_u32 b new_ptr
  | Set_aux_ptr { old_ptr; new_ptr } ->
      Codec.put_u32 b old_ptr;
      Codec.put_u32 b new_ptr
  | Set_flags { old_flags; new_flags } ->
      Codec.put_u32 b old_flags;
      Codec.put_u32 b new_flags
  | Insert_cells { cells } | Delete_cells { cells } -> put_run b cells

let decode r =
  match Codec.get_u8 r with
  | 1 ->
      let kind = Page.kind_of_int (Codec.get_u8 r) in
      let level = Codec.get_u8 r in
      Format { kind; level }
  | 2 ->
      let old_kind = Page.kind_of_int (Codec.get_u8 r) in
      let new_kind = Page.kind_of_int (Codec.get_u8 r) in
      let old_level = Codec.get_u8 r in
      let new_level = Codec.get_u8 r in
      Reformat { old_kind; new_kind; old_level; new_level }
  | 3 ->
      let slot = Codec.get_u32 r in
      let cell = Codec.get_bytes r in
      Insert_slot { slot; cell }
  | 4 ->
      let slot = Codec.get_u32 r in
      let cell = Codec.get_bytes r in
      Delete_slot { slot; cell }
  | 5 ->
      let slot = Codec.get_u32 r in
      let old_cell = Codec.get_bytes r in
      let new_cell = Codec.get_bytes r in
      Replace_slot { slot; old_cell; new_cell }
  | 6 ->
      let old_ptr = Codec.get_u32 r in
      let new_ptr = Codec.get_u32 r in
      Set_side_ptr { old_ptr; new_ptr }
  | 7 ->
      let old_ptr = Codec.get_u32 r in
      let new_ptr = Codec.get_u32 r in
      Set_aux_ptr { old_ptr; new_ptr }
  | 8 ->
      let old_flags = Codec.get_u32 r in
      let new_flags = Codec.get_u32 r in
      Set_flags { old_flags; new_flags }
  | 9 -> Delete_cells { cells = List.rev (get_cells r) }
  | 10 -> Insert_cells { cells = get_cells r }
  | 11 -> Insert_cells { cells = get_run r }
  | 12 -> Delete_cells { cells = get_run r }
  | 13 ->
      let slot = Codec.get_u32 r in
      let old_cell = Codec.get_bytes r in
      let pre = Codec.get_u16 r in
      let suf = Codec.get_u16 r in
      let n = String.length old_cell in
      if pre + suf > n then raise (Codec.Corrupt "replace delta past its old cell");
      let mid = Codec.get_u32 r in
      if mid > Codec.remaining r then raise (Codec.Corrupt "replace delta past its frame");
      (* One allocation: the shared ends come from the old cell, the middle
         straight from the frame. *)
      let cell = Bytes.create (pre + mid + suf) in
      Bytes.blit_string old_cell 0 cell 0 pre;
      Codec.get_blit r cell ~pos:pre ~len:mid;
      Bytes.blit_string old_cell (n - suf) cell (pre + mid) suf;
      Replace_slot { slot; old_cell; new_cell = Bytes.unsafe_to_string cell }
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad page_op tag %d" n))

let pp ppf = function
  | Format { kind; level } ->
      Fmt.pf ppf "format(%a,l%d)" Page.pp_kind kind level
  | Reformat { new_kind; new_level; _ } ->
      Fmt.pf ppf "reformat(->%a,l%d)" Page.pp_kind new_kind new_level
  | Insert_slot { slot; cell } -> Fmt.pf ppf "ins(%d,%dB)" slot (String.length cell)
  | Delete_slot { slot; _ } -> Fmt.pf ppf "del(%d)" slot
  | Replace_slot { slot; _ } -> Fmt.pf ppf "repl(%d)" slot
  | Set_side_ptr { new_ptr; _ } -> Fmt.pf ppf "side->%d" new_ptr
  | Set_aux_ptr { new_ptr; _ } -> Fmt.pf ppf "aux->%d" new_ptr
  | Set_flags { new_flags; _ } -> Fmt.pf ppf "flags->%d" new_flags
  | Insert_cells { cells } -> Fmt.pf ppf "ins*(%d)" (List.length cells)
  | Delete_cells { cells } -> Fmt.pf ppf "del*(%d)" (List.length cells)
