module Histogram = Pitree_util.Histogram
module Crash_point = Pitree_util.Crash_point
module Codec = Pitree_util.Codec

(* Where the durable frames live. A file-backed log keeps them only in its
   file; the in-memory log keeps them in a growable byte store with the
   same layout, so both backings share every path above the store
   primitives below. *)
type store =
  | Mem of { mutable data : bytes }  (* durable frames fill a prefix *)
  | File of {
      path : string;
      mutable wfd : Unix.file_descr;
          (* the group-commit leader's: it seeks and writes this one with
             [mu] released, so nothing else may touch it meanwhile *)
      mutable rfd : Unix.file_descr;  (* read-only; used under [rmu] *)
    }

(* Byte positions are absolute: offset [x] of the log stream (every frame
   ever appended, back to back) sits at [x - file_base] in the store while
   durable ([x < durable_off]) and at [x - durable_off] in [tail] while
   volatile. Truncation moves [file_base]; nothing is renumbered. *)
type t = {
  mu : Mutex.t;
  cond : Condition.t;  (* signalled when [durable] advances or a leader retires *)
  rmu : Mutex.t;
      (* owns the store's read side: taken (after [mu]) by durable readers
         and by anything that swaps the store's descriptor or buffer *)
  group_commit : bool;
  store : store;
  mutable offs : int array;
      (* start offset of each retained record; lsn n at index n-1-purged *)
  mutable next_off : int;  (* end of the last appended frame *)
  mutable file_base : int;  (* offset held at store byte 0 *)
  mutable durable_off : int;  (* end of the durable frames *)
  mutable tail : bytes;  (* volatile frames [durable_off, next_off) *)
  staging : Buffer.t;  (* the payload being appended, under [mu] *)
  mutable count : int;  (* total LSNs ever appended *)
  mutable purged : int;  (* records discarded from the front by truncation *)
  mutable max_txn : int;  (* highest txn id ever appended (survives purges) *)
  mutable durable : Lsn.t;
  mutable redo_from : Lsn.t;
  mutable ckpt_lsn : Lsn.t;  (* last complete End_checkpoint (null if none) *)
  (* --- group-commit pipeline state (all under [mu]) --- *)
  mutable flushing : bool;  (* a leader currently owns the write path *)
  mutable flush_target : Lsn.t;  (* highest durability anyone has asked for *)
  mutable pending : Lsn.t list;  (* enrolled requests not yet durable *)
  (* --- stats (all under [mu]) --- *)
  mutable forces : int;  (* real fsyncs only *)
  mutable flushes : int;  (* durability-advance events (incl. in-memory) *)
  mutable flush_requests : int;  (* flush calls that found undurable records *)
  mutable logical_commits : int;
      (* commits covered by those requests: a combined batch enrolls once
         for N commits, so logical_commits / flush_requests is the
         write-combining fan-in on top of group commit's *)
  mutable bytes : int;
  kind_appends : int array;  (* per [Log_record.kinds], frames counted in [bytes] *)
  kind_bytes : int array;
  mutable truncations : int;
  mutable truncated_records : int;
  mutable truncated_bytes : int;
  batch_hist : Histogram.t;  (* enrolled requests covered per flush event *)
  wait_hist : Histogram.t;  (* ns a committer spent blocked in [flush] *)
}

(* Sequential readers (the open-time loader, [iter_from], truncation's
   rewrite) move the store in blocks of this size, not a record at a
   time: a syscall per record would dominate recovery's scan. *)
let block_size = 1 lsl 18

(* Initial size of the tail buffer, and the floor it shrinks back to. *)
let tail_min = 1 lsl 16

(* Registered up front so sweep harnesses can enumerate it before it ever
   fires. It sits between the batch reaching disk and the waiters being
   woken: the classic lost-acknowledgment window of group commit. *)
let crash_point_synced = "wal.group.synced"

let () = Crash_point.register crash_point_synced

let ckpt_path path = path ^ ".ckpt"

(* The master record: where recovery finds the last complete checkpoint.
   Two integers — the End_checkpoint record's LSN and the redo floor
   (min rec_lsn over its dirty-page table) — kept in a tiny sidecar next to
   the log file rather than in a logged page (a logged page's own recovery
   would depend on the very pointer it stores). *)
let write_master path ~ckpt ~redo =
  let oc = open_out_bin (ckpt_path path) in
  output_string oc (string_of_int ckpt);
  output_char oc '\n';
  output_string oc (string_of_int redo);
  close_out oc

let read_master path =
  match open_in_bin (ckpt_path path) with
  | ic ->
      let line () = try Some (int_of_string (String.trim (input_line ic))) with _ -> None in
      let ckpt = line () in
      let redo = line () in
      close_in ic;
      (match (ckpt, redo) with
      | Some c, Some r -> (c, r)
      | Some c, None -> (c, c)  (* legacy single-int sidecar: redo at the record *)
      | _ -> (Lsn.null, Lsn.null))
  | exception Sys_error _ -> (Lsn.null, Lsn.null)

(* --- store primitives --- *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

(* Fill [buf.[pos, pos+len)] from [fd]'s current position. *)
let rec read_exact fd buf pos len =
  if len > 0 then begin
    let n = Unix.read fd buf pos len in
    if n = 0 then raise (Codec.Corrupt "log file shorter than its index");
    read_exact fd buf (pos + n) (len - n)
  end

(* Append [src.[0, len)] at store position [at] and make it durable;
   returns true iff a real fsync happened. Only the leader calls this: on
   a file with [mu] released, in memory with [mu] held. *)
let store_append t ~at src len =
  if len = 0 then false
  else
    match t.store with
    | File f ->
        ignore (Unix.lseek f.wfd at Unix.SEEK_SET);
        write_all f.wfd src 0 len;
        Unix.fsync f.wfd;
        true
    | Mem m ->
        Mutex.lock t.rmu;
        if at + len > Bytes.length m.data then begin
          let bigger = Bytes.create (max (at + len) (2 * Bytes.length m.data)) in
          Bytes.blit m.data 0 bigger 0 at;
          m.data <- bigger
        end;
        Bytes.blit src 0 m.data at len;
        Mutex.unlock t.rmu;
        false

(* Copy store bytes [pos, pos+len) into [buf]. Called with [mu] held and
   returns with it released: [rmu] is taken first, so no truncation can
   swap the store between the caller's offset lookup and the read. *)
let read_durable t ~pos buf len =
  Mutex.lock t.rmu;
  Mutex.unlock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.rmu)
    (fun () ->
      match t.store with
      | File f ->
          ignore (Unix.lseek f.rfd pos Unix.SEEK_SET);
          read_exact f.rfd buf 0 len
      | Mem m -> Bytes.blit m.data pos buf 0 len)

(* Replace the store by its bytes [from, from+len), the window that
   survives a truncation. A file is copied block by block to a temporary
   file, which is fsynced and renamed over the log: a crash mid-rewrite
   leaves either the old or the new file, both complete. Caller holds
   [mu] with no leader in flight. *)
let store_rewrite t ~from ~len =
  match t.store with
  | Mem m ->
      let data = Bytes.sub m.data from len in
      Mutex.lock t.rmu;
      m.data <- data;
      Mutex.unlock t.rmu
  | File f ->
      let tmp = f.path ^ ".tmp" in
      let out = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close out)
        (fun () ->
          let buf = Bytes.create (min len block_size) in
          ignore (Unix.lseek f.wfd from Unix.SEEK_SET);
          let rec copy left =
            if left > 0 then begin
              let n = min left block_size in
              read_exact f.wfd buf 0 n;
              write_all out buf 0 n;
              copy (left - n)
            end
          in
          copy len;
          Unix.fsync out);
      Unix.rename tmp f.path;
      Unix.close f.wfd;
      f.wfd <- Unix.openfile f.path [ Unix.O_RDWR ] 0o644;
      Mutex.lock t.rmu;
      Unix.close f.rfd;
      f.rfd <- Unix.openfile f.path [ Unix.O_RDONLY ] 0;
      Mutex.unlock t.rmu

(* [a] with room for index [n], doubled when full. *)
let grown a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * max 1 n) 0 in
    Array.blit a 0 b 0 n;
    b
  end

(* Scan a log file in one streaming pass: check each frame's CRC in place
   and note its offset, the first LSN and the highest txn id. A torn tail
   (a short or corrupt final frame, or a break in the LSN sequence) is cut
   off, exactly as a real log manager does on restart. The file may start
   mid-history (after a truncation); the first frame's LSN tells how much
   of the prefix was reclaimed. Returns the offsets, their count, the
   first LSN, the highest txn id, the length of the intact prefix and the
   frames and bytes per record kind. *)
let load fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = ref Bytes.empty in
  let base = ref 0 (* file offset of buf.[0] *) and have = ref 0 and pos = ref 0 in
  (* Make [need] bytes readable at [pos]; false if the file ends first.
     The descriptor is read strictly sequentially: its position is always
     [base + have]. *)
  let ensure need =
    if !have - !pos >= need then true
    else if !base + !pos + need > size then false
    else begin
      let keep = !have - !pos in
      let cap = max need (min block_size (size - !base - !pos)) in
      let b = if Bytes.length !buf >= cap then !buf else Bytes.create cap in
      Bytes.blit !buf !pos b 0 keep;
      buf := b;
      base := !base + !pos;
      pos := 0;
      let want = min (Bytes.length b - keep) (size - !base - keep) in
      read_exact fd b keep want;
      have := keep + want;
      true
    end
  in
  let offs = ref (Array.make 1024 0) and n = ref 0 in
  let first = ref Lsn.null and max_txn = ref 0 in
  let kind_appends = Array.make (Array.length Log_record.kinds) 0 in
  let kind_bytes = Array.make (Array.length Log_record.kinds) 0 in
  let rec scan () =
    let at = !base + !pos in
    if not (ensure 4) then at
    else
      let total = Log_record.frame_length (Bytes.unsafe_to_string !buf) ~pos:!pos in
      if not (ensure total) then at
      else
        match Log_record.verify (Bytes.unsafe_to_string !buf) ~pos:!pos with
        | exception Codec.Corrupt _ -> at
        | lsn, _ when !n > 0 && lsn <> !first + !n -> at
        | lsn, txn ->
            if !n = 0 then first := lsn;
            offs := grown !offs !n;
            !offs.(!n) <- at;
            incr n;
            if txn > !max_txn then max_txn := txn;
            let k = Log_record.frame_kind (Bytes.unsafe_to_string !buf) ~pos:!pos in
            kind_appends.(k) <- kind_appends.(k) + 1;
            kind_bytes.(k) <- kind_bytes.(k) + total;
            pos := !pos + total;
            scan ()
  in
  let intact = scan () in
  (* Truncate any torn tail so future appends start clean. *)
  if intact < size then Unix.ftruncate fd intact;
  (!offs, !n, !first, !max_txn, intact, (kind_appends, kind_bytes))

let make ~group_commit store =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    rmu = Mutex.create ();
    group_commit;
    store;
    offs = Array.make 1024 0;
    next_off = 0;
    file_base = 0;
    durable_off = 0;
    tail = Bytes.create tail_min;
    staging = Buffer.create 4096;
    count = 0;
    purged = 0;
    max_txn = 0;
    durable = Lsn.null;
    redo_from = 1;
    ckpt_lsn = Lsn.null;
    flushing = false;
    flush_target = Lsn.null;
    pending = [];
    forces = 0;
    flushes = 0;
    flush_requests = 0;
    logical_commits = 0;
    bytes = 0;
    kind_appends = Array.make (Array.length Log_record.kinds) 0;
    kind_bytes = Array.make (Array.length Log_record.kinds) 0;
    truncations = 0;
    truncated_records = 0;
    truncated_bytes = 0;
    batch_hist = Histogram.create ();
    wait_hist = Histogram.create ();
  }

let create ?path ?(group_commit = true) () =
  match path with
  | None -> make ~group_commit (Mem { data = Bytes.empty })
  | Some path ->
      let wfd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      let offs, n, first, max_txn, size, (kind_appends, kind_bytes) = load wfd in
      let rfd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let t = make ~group_commit (File { path; wfd; rfd }) in
      (* A truncated log starts mid-history: the purged prefix is implied
         by the first surviving record's LSN. *)
      let purged = if n = 0 then 0 else first - 1 in
      let count = purged + n in
      let master_ckpt, master_redo = read_master path in
      let valid v = v >= purged + 1 && v <= count in
      t.ckpt_lsn <- (if valid master_ckpt then master_ckpt else Lsn.null);
      t.redo_from <-
        (if Lsn.is_null t.ckpt_lsn then purged + 1
         else if valid master_redo then master_redo
         else purged + 1);
      t.offs <- offs;
      t.count <- count;
      t.purged <- purged;
      t.max_txn <- max_txn;
      t.durable <- count;
      t.next_off <- size;
      t.durable_off <- size;
      t.bytes <- size;
      Array.blit kind_appends 0 t.kind_appends 0 (Array.length kind_appends);
      Array.blit kind_bytes 0 t.kind_bytes 0 (Array.length kind_bytes);
      t

let window t = t.count - t.purged

(* Where record [lsn] starts; [count + 1] gives the end of the log. Caller
   holds [mu] and [purged < lsn <= count + 1]. *)
let start_of t lsn =
  if lsn > t.count then t.next_off else t.offs.(lsn - 1 - t.purged)

let append_frame t ~prev ~txn body =
  Mutex.lock t.mu;
  let lsn = t.count + 1 in
  Buffer.clear t.staging;
  Log_record.payload t.staging { Log_record.lsn; prev; txn; body };
  let len = Buffer.length t.staging + 8 in
  let w = window t in
  t.offs <- grown t.offs w;
  t.offs.(w) <- t.next_off;
  (* A leader may be writing from the current buffer with [mu] released:
     growing copies into a fresh one and never disturbs those bytes. *)
  let at = t.next_off - t.durable_off in
  if at + len > Bytes.length t.tail then begin
    let bigger = Bytes.create (max (at + len) (2 * Bytes.length t.tail)) in
    Bytes.blit t.tail 0 bigger 0 at;
    t.tail <- bigger
  end;
  Log_record.frame_payload t.staging t.tail ~pos:at;
  t.next_off <- t.next_off + len;
  t.count <- lsn;
  if txn > t.max_txn then t.max_txn <- txn;
  t.bytes <- t.bytes + len;
  let k = Log_record.kind body in
  t.kind_appends.(k) <- t.kind_appends.(k) + 1;
  t.kind_bytes.(k) <- t.kind_bytes.(k) + len;
  Mutex.unlock t.mu;
  (lsn, len)

let append t ~prev ~txn body = fst (append_frame t ~prev ~txn body)

(* Caller holds [mu]. The leader just made the first [len] tail bytes
   durable: slide the frames appended meanwhile to the front, shrinking a
   buffer that a burst left oversized. *)
let drop_durable_prefix t len =
  let rest = t.next_off - t.durable_off in
  let cap = Bytes.length t.tail in
  if cap > 4 * tail_min && 4 * rest < cap then begin
    let smaller = Bytes.create (max tail_min (2 * rest)) in
    Bytes.blit t.tail len smaller 0 rest;
    t.tail <- smaller
  end
  else if len > 0 then Bytes.blit t.tail len t.tail 0 rest

(* Group-commit core. [mu] is held on entry and exit. The calling thread
   either waits for a leader to cover its LSN or becomes the leader itself:
   it snapshots everything requested so far, performs one write + fsync
   straight from the tail buffer with [mu] released (serial mode keeps it
   held, reproducing the pre-group-commit force path for baseline
   measurement; the in-memory store is a memory copy and keeps it too),
   publishes the new durability horizon and wakes every covered waiter.
   Requests that arrive while the leader is in the write path accumulate
   for the next leader — the pipeline that lets N concurrent committers
   share O(1) fsyncs. *)
let rec flush_locked t target =
  if t.durable >= target then ()
  else if t.flushing then begin
    Condition.wait t.cond t.mu;
    flush_locked t target
  end
  else begin
    t.flushing <- true;
    let upto = min t.flush_target t.count in
    let len = start_of t (upto + 1) - t.durable_off in
    let src = t.tail and at = t.durable_off - t.file_base in
    let release =
      t.group_commit && match t.store with File _ -> true | Mem _ -> false
    in
    if release then Mutex.unlock t.mu;
    let synced =
      match store_append t ~at src len with
      | synced -> synced
      | exception e ->
          (* Leave the pipeline electable before re-raising. *)
          if release then Mutex.lock t.mu;
          t.flushing <- false;
          Condition.broadcast t.cond;
          Mutex.unlock t.mu;
          raise e
    in
    if release then Mutex.lock t.mu;
    t.durable <- upto;
    t.durable_off <- t.durable_off + len;
    drop_durable_prefix t len;
    t.flushes <- t.flushes + 1;
    if synced then t.forces <- t.forces + 1;
    let covered, rest = List.partition (fun l -> l <= upto) t.pending in
    t.pending <- rest;
    if covered <> [] then Histogram.record t.batch_hist (List.length covered);
    t.flushing <- false;
    (* The batch is durable but its waiters have not been woken yet: a crash
       here loses acknowledgments, never committed work. The hook runs
       outside [mu] so a simulated crash unwinds with the manager unlocked
       and electable. *)
    Mutex.unlock t.mu;
    (try Crash_point.hit crash_point_synced
     with e ->
       Mutex.lock t.mu;
       Condition.broadcast t.cond;
       Mutex.unlock t.mu;
       raise e);
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    (* [upto >= target] (the target was folded into [flush_target] before
       election), so this returns immediately. *)
    flush_locked t target
  end

let flush ?(commits = 1) t lsn =
  Mutex.lock t.mu;
  let target = min lsn t.count in
  if target > t.durable then begin
    let t0 = Unix.gettimeofday () in
    t.flush_requests <- t.flush_requests + 1;
    t.logical_commits <- t.logical_commits + commits;
    if target > t.flush_target then t.flush_target <- target;
    t.pending <- target :: t.pending;
    flush_locked t target;
    Histogram.record t.wait_hist
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
  end;
  Mutex.unlock t.mu

let flush_all t =
  Mutex.lock t.mu;
  let target = t.count in
  Mutex.unlock t.mu;
  flush t target

let last_lsn t =
  Mutex.lock t.mu;
  let v = t.count in
  Mutex.unlock t.mu;
  v

let flushed_lsn t =
  Mutex.lock t.mu;
  let v = t.durable in
  Mutex.unlock t.mu;
  v

let first_lsn t =
  Mutex.lock t.mu;
  let v = t.purged + 1 in
  Mutex.unlock t.mu;
  v

let file_bytes t =
  Mutex.lock t.mu;
  let v =
    match t.store with
    | File _ -> Some (t.durable_off - t.file_base)
    | Mem _ -> None
  in
  Mutex.unlock t.mu;
  v

let read t lsn =
  Mutex.lock t.mu;
  if lsn < 1 || lsn > t.count then begin
    Mutex.unlock t.mu;
    invalid_arg (Printf.sprintf "Log_manager.read: bad lsn %d (count %d)" lsn t.count)
  end;
  if lsn <= t.purged then begin
    Mutex.unlock t.mu;
    invalid_arg (Printf.sprintf "Log_manager.read: lsn %d was truncated" lsn)
  end;
  let off = start_of t lsn in
  let len = start_of t (lsn + 1) - off in
  let buf = Bytes.create len in
  if off >= t.durable_off then begin
    Bytes.blit t.tail (off - t.durable_off) buf 0 len;
    Mutex.unlock t.mu
  end
  else read_durable t ~pos:(off - t.file_base) buf len;
  Log_record.decode (Bytes.unsafe_to_string buf)

(* Frames come from the store a block at a time (or from the tail, copied
   out under [mu]) and are handed to [f] in place; [f] runs with no lock
   held, so it may read, append or iterate itself, and must be done with
   the block when it returns. Their CRCs are not checked again:
   every frame of an opened file passed [load]'s check, and every other
   frame (the tail, an in-memory store, appends since the open) was
   encoded by this process. *)
let iter_frames t lsn f =
  let block = ref Bytes.empty in
  let rec go i =
    Mutex.lock t.mu;
    if i <= t.purged || i > t.count then Mutex.unlock t.mu
    else begin
      let off = start_of t i in
      let frame = start_of t (i + 1) - off in
      let len, src =
        if off >= t.durable_off then begin
          let len = min (t.next_off - off) (max block_size frame) in
          let src = Bytes.sub t.tail (off - t.durable_off) len in
          Mutex.unlock t.mu;
          (len, src)
        end
        else begin
          let len = min (t.durable_off - off) (max block_size frame) in
          if Bytes.length !block < len then block := Bytes.create (max len block_size);
          read_durable t ~pos:(off - t.file_base) !block len;
          (len, !block)
        end
      in
      let s = Bytes.unsafe_to_string src in
      (* Every frame wholly inside the block; a frame cut by the block's
         end starts the next one. Decoded records copy what they keep, so
         the block can be refilled. *)
      let rec each pos i =
        if pos + 4 <= len && pos + Log_record.frame_length s ~pos <= len then begin
          f s ~pos;
          each (pos + Log_record.frame_length s ~pos) (i + 1)
        end
        else i
      in
      go (each 0 i)
    end
  in
  go (max (first_lsn t) lsn)

let iter_from t lsn f = iter_frames t lsn (fun s ~pos -> f (Log_record.decode ~pos ~check:false s))

let max_txn_id t =
  Mutex.lock t.mu;
  let v = t.max_txn in
  Mutex.unlock t.mu;
  v

(* Discard records with lsn < keep_from, reclaiming their space. Only
   durable, pre-redo-point records may go (the clamp is the safety net for
   the documented contract: truncation never removes records at or above
   the redo point, nor records a group-commit leader has yet to write).
   The last durable record always survives too: a reopened file numbers
   its records from its first frame's LSN, so an emptied file would
   restart the LSN sequence at 1.
   The store is rewritten to hold just the surviving durable window (see
   [store_rewrite]); the volatile tail was never in it. Returns how many
   records were discarded. *)
let truncate t ~keep_from =
  Mutex.lock t.mu;
  (* An in-flight leader writes the store with [mu] released; wait until
     it retires before touching the store. While we hold [mu] no new
     leader can be elected. *)
  while t.flushing do
    Condition.wait t.cond t.mu
  done;
  let keep_from = min keep_from (min t.durable t.redo_from) in
  let n = max 0 (keep_from - 1 - t.purged) in
  if n > 0 then begin
    let keep_off = start_of t keep_from in
    (match
       store_rewrite t ~from:(keep_off - t.file_base)
         ~len:(t.durable_off - keep_off)
     with
    | () -> ()
    | exception e ->
        Mutex.unlock t.mu;
        raise e);
    let w = window t - n in
    let offs =
      if Array.length t.offs > 4096 && 4 * w < Array.length t.offs then
        Array.make (max 1024 (2 * w)) 0
      else t.offs
    in
    Array.blit t.offs n offs 0 w;
    t.offs <- offs;
    t.truncated_bytes <- t.truncated_bytes + (keep_off - t.file_base);
    t.file_base <- keep_off;
    t.purged <- t.purged + n;
    t.truncations <- t.truncations + 1;
    t.truncated_records <- t.truncated_records + n
  end;
  Mutex.unlock t.mu;
  n

let redo_start t = t.redo_from
let checkpoint_lsn t = t.ckpt_lsn

(* Publish a completed checkpoint: [lsn] is its End_checkpoint record,
   [redo] the redo floor recovery may start from. Persisted to the master
   sidecar before returning, so a crash immediately after sees it. *)
let set_checkpoint t ~lsn ~redo =
  Mutex.lock t.mu;
  t.ckpt_lsn <- lsn;
  t.redo_from <- redo;
  (match t.store with
  | Mem _ -> ()
  | File f -> write_master f.path ~ckpt:lsn ~redo);
  Mutex.unlock t.mu

let crash t =
  Mutex.lock t.mu;
  let fresh =
    match t.store with
    | Mem m ->
        (* The store survives; the volatile tail does not. *)
        let fresh = make ~group_commit:t.group_commit t.store in
        fresh.offs <- Array.sub t.offs 0 (t.durable - t.purged);
        fresh.count <- t.durable;
        fresh.purged <- t.purged;
        fresh.max_txn <- t.max_txn;
        fresh.durable <- t.durable;
        fresh.file_base <- t.file_base;
        fresh.durable_off <- t.durable_off;
        fresh.next_off <- t.durable_off;
        fresh.redo_from <-
          (if t.redo_from <= t.durable then t.redo_from else t.purged + 1);
        fresh.ckpt_lsn <- (if t.ckpt_lsn <= t.durable then t.ckpt_lsn else Lsn.null);
        fresh.bytes <- t.durable_off - t.file_base;
        (* Count the surviving frames by kind, as a reopened file does. *)
        let data = Bytes.unsafe_to_string m.data in
        Array.iter
          (fun off ->
            let pos = off - t.file_base in
            let k = Log_record.frame_kind data ~pos in
            fresh.kind_appends.(k) <- fresh.kind_appends.(k) + 1;
            fresh.kind_bytes.(k) <- fresh.kind_bytes.(k) + Log_record.frame_length data ~pos)
          fresh.offs;
        fresh
    | File f ->
        (* Power failure: only the file survives. Reopen it. *)
        Unix.close f.wfd;
        Unix.close f.rfd;
        create ~path:f.path ~group_commit:t.group_commit ()
  in
  Mutex.unlock t.mu;
  fresh

type stats = {
  appends : int;
  forces : int;
  flushes : int;
  flush_requests : int;
  logical_commits : int;
  bytes : int;
  resident_bytes : int;
  batch_mean : float;
  batch_p99 : int;
  batch_max : int;
  wait_mean_ns : float;
  wait_p50_ns : int;
  wait_p99_ns : int;
  truncations : int;
  truncated_records : int;
  truncated_bytes : int;
  kind_appends : (string * int) list;
  kind_bytes : (string * int) list;
}

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      appends = t.count;
      forces = t.forces;
      flushes = t.flushes;
      flush_requests = t.flush_requests;
      logical_commits = t.logical_commits;
      bytes = t.bytes;
      resident_bytes =
        (t.next_off - t.durable_off)
        + (match t.store with
          | Mem _ -> t.durable_off - t.file_base
          | File _ -> 0);
      batch_mean = Histogram.mean t.batch_hist;
      batch_p99 = Histogram.percentile t.batch_hist 99.0;
      batch_max = Histogram.max_value t.batch_hist;
      wait_mean_ns = Histogram.mean t.wait_hist;
      wait_p50_ns = Histogram.percentile t.wait_hist 50.0;
      wait_p99_ns = Histogram.percentile t.wait_hist 99.0;
      truncations = t.truncations;
      truncated_records = t.truncated_records;
      truncated_bytes = t.truncated_bytes;
      kind_appends = List.combine (Array.to_list Log_record.kinds) (Array.to_list t.kind_appends);
      kind_bytes = List.combine (Array.to_list Log_record.kinds) (Array.to_list t.kind_bytes);
    }
  in
  Mutex.unlock t.mu;
  s

let pp_stats ppf s =
  Format.fprintf ppf
    "wal: appends=%d forces=%d flushes=%d requests=%d commits=%d bytes=%d \
     resident=%d batch{mean=%.2f p99=%d max=%d} wait_ns{mean=%.0f p50=%d \
     p99=%d} trunc{n=%d records=%d bytes=%d}"
    s.appends s.forces s.flushes s.flush_requests s.logical_commits s.bytes
    s.resident_bytes s.batch_mean
    s.batch_p99 s.batch_max s.wait_mean_ns s.wait_p50_ns s.wait_p99_ns
    s.truncations s.truncated_records s.truncated_bytes;
  List.iter2
    (fun (k, n) (_, b) -> Format.fprintf ppf " %s{n=%d bytes=%d}" k n b)
    s.kind_appends s.kind_bytes
