module Page = Pitree_storage.Page
module Buffer_pool = Pitree_storage.Buffer_pool
module Latch = Pitree_sync.Latch

type report = {
  analyzed : int;
  redone : int;
  skipped : int;
  loser_txns : int list;
  clrs_written : int;
  torn_pages : int;
  retried_reads : int;
  max_commit_ts : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>recovery: analyzed=%d redone=%d skipped=%d losers=[%a] clrs=%d \
     torn=%d retried_reads=%d max_commit_ts=%d@]"
    r.analyzed r.redone r.skipped
    Fmt.(list ~sep:(any ",") int)
    r.loser_txns r.clrs_written r.torn_pages
    r.retried_reads r.max_commit_ts

(* Pages whose durable image failed verification during this restart: they
   were rebuilt from scratch by redo (repeating history from their Format
   record), exactly as if they had never reached disk. *)
let torn_count = Atomic.make 0

(* Pin the page, getting an empty frame when it has no durable image yet
   (its Format record is about to be redone) — or when the durable image is
   torn or corrupt: a page that cannot be trusted is a page that was never
   written, and redo rebuilds it from the log. When [rebuilding] is given,
   a page that came back as an empty frame is recorded in it: redo must
   withhold slot-level records from such a page until a base-establishing
   record (full-page image or Format) re-creates its contents. *)
let pin_or_new ?rebuilding pool pid =
  match Buffer_pool.pin_or_blank pool pid with
  | fr -> fr
  | exception Buffer_pool.Blank (fr, why) ->
      if why = Buffer_pool.Torn then Atomic.incr torn_count;
      Option.iter (fun tbl -> Hashtbl.replace tbl pid ()) rebuilding;
      fr

(* The distinct pages of [parts], in order of first appearance. *)
let pages_of parts =
  List.fold_left
    (fun acc { Log_record.page; _ } -> if List.mem page acc then acc else page :: acc)
    [] parts
  |> List.rev

(* Apply one undo step: the [inverse] parts of an Update (its op's
   inverse) or a Move (its parts' inverses, last part first), logged as
   the CLR [clr] that carries them. Returns the CLR's lsn. [prev] is the
   transaction's latest log record, to backchain. The pages are X-latched
   in the order the parts first name them. *)
let undo_parts ~log ~pool ~txn ~prev clr inverse =
  let frames =
    List.map
      (fun pid ->
        let fr = pin_or_new pool pid in
        Latch.acquire fr.Buffer_pool.latch Latch.X;
        (* Dirty before the CLR is appended and before mutating: rec_lsn
           must be captured from the pre-CLR page LSN (or a checkpoint's
           dirty-page table would claim the CLR's effect is already
           durable), and the full-page image the transition may log must
           precede the CLR it covers. *)
        Buffer_pool.mark_dirty fr;
        (pid, fr))
      (pages_of inverse)
  in
  let clr_lsn = Log_manager.append log ~prev ~txn clr in
  List.iter
    (fun { Log_record.page; op } -> Page_op.redo (List.assoc page frames).Buffer_pool.page op)
    inverse;
  List.iter
    (fun (_, fr) ->
      Page.set_lsn fr.Buffer_pool.page clr_lsn;
      Latch.release fr.Buffer_pool.latch Latch.X;
      Buffer_pool.unpin pool fr)
    frames;
  clr_lsn

(* Undo one record [r] of [txn]: compensate it if it is an update, with a
   CLR backchained to [prev]. Returns the next record still to undo and
   the CLR written ([Lsn.null] if none). A transaction's first record has
   a null [prev], so the walk ends there. *)
let undo_step ~log ~pool ~txn ~prev r =
  let undo_next = r.Log_record.prev in
  match r.Log_record.body with
  | Log_record.Update { page; op; lundo = None } ->
      let op = Page_op.invert op in
      ( undo_next,
        undo_parts ~log ~pool ~txn ~prev
          (Log_record.Clr { page; op; undo_next })
          [ { Log_record.page; op } ] )
  | Log_record.Move { parts } ->
      let parts =
        List.rev_map (fun { Log_record.page; op } -> { Log_record.page; op = Page_op.invert op }) parts
      in
      ( undo_next,
        undo_parts ~log ~pool ~txn ~prev (Log_record.Move_clr { parts; undo_next }) parts )
  | Log_record.Update { lundo = Some { Log_record.tree; comp }; _ } -> (
      (* Non-page-oriented undo: compensate through the access method (the
         record may have been moved by committed structure changes). *)
      match Logical.handler_for tree with
      | Some h -> (undo_next, h ~tree ~comp ~txn ~prev ~undo_next)
      | None ->
          failwith
            (Printf.sprintf
               "Recovery: logical-undo record for tree %d but no access-method \
                handler registered"
               tree))
  | Log_record.Clr { undo_next; _ } | Log_record.Move_clr { undo_next; _ } ->
      (* Already-undone tail: jump past it. *)
      (undo_next, Lsn.null)
  | Log_record.Begin _ | Log_record.Commit | Log_record.Abort | Log_record.End
  | Log_record.Page_image _ | Log_record.Begin_checkpoint
  | Log_record.End_checkpoint _ | Log_record.Commit_ts _ ->
      (undo_next, Lsn.null)

let rollback ?prev ~log ~pool ~txn ~from_lsn () =
  let rec go cur prev last_clr =
    if Lsn.is_null cur then last_clr
    else
      let r = Log_manager.read log cur in
      assert (r.Log_record.txn = txn);
      let next, clr = undo_step ~log ~pool ~txn ~prev r in
      if Lsn.is_null clr then go next prev last_clr else go next clr clr
  in
  go from_lsn (Option.value prev ~default:from_lsn) Lsn.null

let run ~log ~pool =
  let torn_before = Atomic.get torn_count in
  let pool_stats_before = Buffer_pool.stats pool in
  (* --- Analysis --- *)
  (* Active-transaction table: txn id -> its last record. A transaction
     enters at its first record and leaves at its Commit (which is
     terminal: no End follows it) or at the End of its rollback. Older
     logs also hold Begin records, which are just first records, and an
     End after each Commit, which finds nothing to remove. *)
  let att : (int, Lsn.t) Hashtbl.t = Hashtbl.create 64 in
  let analyzed = ref 0 in
  (* Largest commit timestamp seen during analysis: seeds the reborn
     Snapshot allocator so post-restart timestamps never collide with
     pre-crash versions. Losers' timestamps count too — their versions
     are undone, but the allocator must still move past them. *)
  let max_commit_ts = ref 0 in
  (* Start from the last complete checkpoint: seed the ATT from its
     End_checkpoint record, then scan forward from the matching
     Begin_checkpoint — Commit/End records logged between the two fence
     records must still be observed, or a transaction that finished during
     the checkpoint would be mistaken for a loser. Checkpoints written by
     older versions may list a transaction whose Commit was already
     logged ([committed = true]): it is a winner and is skipped. The redo
     point is min(begin_lsn, min rec_lsn over the dirty-page table):
     everything below it was in some durable page image when the
     checkpoint completed. *)
  let ckpt = Log_manager.checkpoint_lsn log in
  let start, redo_from =
    if Lsn.is_null ckpt then
      let s = Log_manager.redo_start log in
      (s, s)
    else
      match (Log_manager.read log ckpt).Log_record.body with
      | Log_record.End_checkpoint { begin_lsn; dpt; att = ckpt_att } ->
          List.iter
            (fun (txn, lsn, committed) ->
              if not committed then Hashtbl.replace att txn lsn)
            ckpt_att;
          let floor =
            List.fold_left (fun acc (_, r) -> min acc r) begin_lsn dpt
          in
          (begin_lsn, floor)
      | _ ->
          let s = Log_manager.redo_start log in
          (s, s)
  in
  let analyze r =
    incr analyzed;
    match r.Log_record.body with
    | Log_record.Begin _ | Log_record.Update _ | Log_record.Clr _
    | Log_record.Move _ | Log_record.Move_clr _ | Log_record.Abort ->
        Hashtbl.replace att r.Log_record.txn r.Log_record.lsn
    | Log_record.Commit | Log_record.End -> Hashtbl.remove att r.Log_record.txn
    | Log_record.Commit_ts { ts } -> max_commit_ts := max !max_commit_ts ts
    | Log_record.Page_image _ | Log_record.Begin_checkpoint
    | Log_record.End_checkpoint _ ->
        ()
  in
  (* --- Redo (repeating history), in the same scan --- *)
  (* Redo repeats every record from the redo point whatever its
     transaction's fate, so it needs nothing analysis finds: one forward
     scan serves both, and each record is read and decoded once. The redo
     point lies at or below [start]; records from [start] on also feed
     the ATT. *)
  (* Replaying history must not re-log it: suppress the full-page-write
     hook for the duration of redo (undo below re-enables it — a CLR that
     dirties a still-clean page needs its image protected like any other
     update). *)
  let fpw = Buffer_pool.image_logger pool in
  Buffer_pool.set_image_logger pool None;
  (* Likewise the WAL-tail rec_lsn source: during redo it would point past
     the records being replayed, overstating what the durable image holds.
     Rebuilt pages fall back to rec_lsn = 1 — conservative, and gone by the
     end of restart, which flushes the pool. *)
  let lsrc = Buffer_pool.lsn_source pool in
  Buffer_pool.set_lsn_source pool None;
  let redone = ref 0 and skipped = ref 0 in
  (* Pages whose durable image was lost (torn or never written): until a
     base-establishing record rebuilds one, its retained slot-level records
     are *orphans* — leftovers of an older dirty epoch whose protecting
     full-page image was truncated after a successful flush made them
     redundant. Against a valid durable image the LSN guard skips them; a
     from-scratch frame has LSN 0 and would try to replay them against a
     page that does not hold the state they assume (the observed failure:
     Replace_slot on an empty page). The page the orphans describe is
     covered by the base that must follow in the scan — a lost page was
     dirty at the crash, so its latest base record (a full-page image, or
     its Format for pages dirty since birth: their rec_lsn — the WAL tail
     at creation — floors truncation at or below the Format) lies at or
     above the redo point (Env's full-page-write rule guarantees it). *)
  let rebuilding : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* Pin [page] for the record at [lsn] and decide whether the page takes
     it: not while it is an orphan, and only when its LSN is older.
     Returns the frame, dirty, if so; the caller applies, stamps and
     unpins. *)
  let take ~lsn ~base page =
    let fr = pin_or_new ~rebuilding pool page in
    if base then Hashtbl.remove rebuilding page;
    if (not (Hashtbl.mem rebuilding page)) && Page.lsn fr.Buffer_pool.page < lsn then begin
      Buffer_pool.mark_dirty fr;
      Some fr
    end
    else begin
      Buffer_pool.unpin pool fr;
      None
    end
  in
  let finish ~lsn fr =
    Page.set_lsn fr.Buffer_pool.page lsn;
    Buffer_pool.unpin pool fr
  in
  let is_format = function Page_op.Format _ -> true | _ -> false in
  (* A multi-page record: each page takes all of its parts or none, and a
     [Format] part makes its page a base. *)
  let redo_parts ~lsn parts =
    let frames =
      List.map
        (fun pid ->
          let base =
            List.exists (fun { Log_record.page; op } -> page = pid && is_format op) parts
          in
          (pid, take ~lsn ~base pid))
        (pages_of parts)
    in
    List.iter
      (fun { Log_record.page; op } ->
        match List.assoc page frames with
        | Some fr ->
            Page_op.redo fr.Buffer_pool.page op;
            incr redone
        | None -> incr skipped)
      parts;
    List.iter (fun (_, fr) -> Option.iter (finish ~lsn) fr) frames
  in
  Log_manager.iter_frames log redo_from (fun s ~pos ->
      let r = Log_record.decode ~pos ~check:false ~images:false s in
      let lsn = r.Log_record.lsn in
      if lsn >= start then analyze r;
      match r.Log_record.body with
      | Log_record.Update { page; op; _ } | Log_record.Clr { page; op; _ } -> (
          match take ~lsn ~base:(is_format op) page with
          | Some fr ->
              Page_op.redo fr.Buffer_pool.page op;
              incr redone;
              finish ~lsn fr
          | None -> incr skipped)
      | Log_record.Move { parts } | Log_record.Move_clr { parts; _ } -> redo_parts ~lsn parts
      | Log_record.Page_image { page; _ } -> (
          (* Full-page write: rebuilds a page whose durable image is torn
             and whose older history is truncated away. The LSN guard skips
             it whenever the durable image is already at or past it. The
             image goes from the scanned block straight into the frame. *)
          match take ~lsn ~base:true page with
          | Some fr ->
              Log_record.blit_image s ~pos (Page.raw fr.Buffer_pool.page);
              incr redone;
              finish ~lsn fr
          | None -> incr skipped)
      | _ -> ());
  Buffer_pool.set_image_logger pool fpw;
  Buffer_pool.set_lsn_source pool lsrc;
  (* --- Undo losers --- *)
  let losers = Hashtbl.fold (fun txn last acc -> (txn, last) :: acc) att [] in
  let clr_count_before = Log_manager.last_lsn log in
  (* Undo all losers in a single merged backward scan, always taking the
     globally greatest not-yet-undone LSN (ARIES). Per-transaction order
     would be wrong: page-oriented undo of a record is valid only while
     the page still holds the exact state that op left, and undoing an
     earlier-LSN loser first (say a user transaction whose logical undo
     re-traverses the tree) can shift cells out from under a dangling
     system transaction's physical slot operations. *)
  let cursors =
    List.map
      (fun (txn, last) ->
        let abort_lsn = Log_manager.append log ~prev:last ~txn Log_record.Abort in
        (txn, ref last, ref abort_lsn))
      losers
  in
  let rec undo_pass () =
    let best =
      List.fold_left
        (fun acc ((_, next, _) as c) ->
          if Lsn.is_null !next then acc
          else
            match acc with
            | Some (_, n, _) when !n >= !next -> acc
            | _ -> Some c)
        None cursors
    in
    match best with
    | None -> ()
    | Some (txn, next, prev) ->
        let r = Log_manager.read log !next in
        assert (r.Log_record.txn = txn);
        let n, clr = undo_step ~log ~pool ~txn ~prev:!prev r in
        if not (Lsn.is_null clr) then prev := clr;
        next := n;
        undo_pass ()
  in
  undo_pass ();
  List.iter
    (fun (txn, _, prev) ->
      ignore (Log_manager.append log ~prev:!prev ~txn Log_record.End))
    cursors;
  let clrs = Log_manager.last_lsn log - clr_count_before - (2 * List.length losers) in
  Log_manager.flush_all log;
  (* End-of-restart flush (ARIES takes a checkpoint here). Pages redone
     above were dirtied with the image logger suppressed, so their old —
     possibly torn — durable images are not protected by a logged full-page
     write. Writing them back makes every durable image valid again; the
     next clean→dirty transition then logs a fresh image (the restarted
     environment's image table is empty), restoring torn-page protection
     for the next crash. *)
  Buffer_pool.flush_all pool;
  let pool_stats_after = Buffer_pool.stats pool in
  {
    analyzed = !analyzed;
    redone = !redone;
    skipped = !skipped;
    loser_txns = List.map fst losers;
    clrs_written = clrs;
    torn_pages = Atomic.get torn_count - torn_before;
    retried_reads =
      pool_stats_after.Buffer_pool.retried_reads
      - pool_stats_before.Buffer_pool.retried_reads;
    max_commit_ts = !max_commit_ts;
  }
