module Rng = Pitree_util.Rng

exception Disk_error of { pid : int; op : string; transient : bool }

let () =
  Printexc.register_printer (function
    | Disk_error { pid; op; transient } ->
        Some
          (Printf.sprintf "Disk_error (page %d, %s, %s)" pid op
             (if transient then "transient" else "hard"))
    | _ -> None)

type t = {
  page_size : int;
  read : int -> bytes -> unit;
  write : int -> bytes -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  read_count : unit -> int;
  write_count : unit -> int;
}

let in_memory ~page_size =
  let store : (int, bytes) Hashtbl.t = Hashtbl.create 1024 in
  let mu = Mutex.create () in
  let reads = Atomic.make 0 and writes = Atomic.make 0 in
  let read pid buf =
    Atomic.incr reads;
    Mutex.lock mu;
    match Hashtbl.find_opt store pid with
    | Some b ->
        Bytes.blit b 0 buf 0 page_size;
        Mutex.unlock mu
    | None ->
        Mutex.unlock mu;
        raise Not_found
  in
  let write pid buf =
    Atomic.incr writes;
    Mutex.lock mu;
    (match Hashtbl.find_opt store pid with
    | Some b -> Bytes.blit buf 0 b 0 page_size
    | None -> Hashtbl.replace store pid (Bytes.sub buf 0 page_size));
    Mutex.unlock mu
  in
  {
    page_size;
    read;
    write;
    sync = (fun () -> ());
    close = (fun () -> ());
    read_count = (fun () -> Atomic.get reads);
    write_count = (fun () -> Atomic.get writes);
  }

let file ~page_size ~path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let mu = Mutex.create () in
  let reads = Atomic.make 0 and writes = Atomic.make 0 in
  let read pid buf =
    Atomic.incr reads;
    Mutex.lock mu;
    (* A page at or past the end of the file reads short: [Not_found]. *)
    ignore (Unix.lseek fd (pid * page_size) Unix.SEEK_SET);
    let rec fill pos =
      if pos < page_size then begin
        let n = Unix.read fd buf pos (page_size - pos) in
        if n = 0 then begin
          Mutex.unlock mu;
          raise Not_found
        end;
        fill (pos + n)
      end
    in
    fill 0;
    Mutex.unlock mu;
    (* A hole in the file (all zeroes) means the page was never written. *)
    if Bytes.get_uint16_le buf 0 = 0 then raise Not_found
  in
  let write pid buf =
    Atomic.incr writes;
    Mutex.lock mu;
    ignore (Unix.lseek fd (pid * page_size) Unix.SEEK_SET);
    let rec push pos =
      if pos < page_size then
        let n = Unix.write fd buf pos (page_size - pos) in
        push (pos + n)
    in
    push 0;
    Mutex.unlock mu
  in
  {
    page_size;
    read;
    write;
    sync = (fun () -> Unix.fsync fd);
    close = (fun () -> Unix.close fd);
    read_count = (fun () -> Atomic.get reads);
    write_count = (fun () -> Atomic.get writes);
  }

module Faulty = struct
  type plan = {
    torn_write : float;
    transient_read : float;
    transient_write : float;
    bit_flip : float;
    fail_stop_after : int option;
    protected_pids : int list;
  }

  let no_faults =
    {
      torn_write = 0.0;
      transient_read = 0.0;
      transient_write = 0.0;
      bit_flip = 0.0;
      fail_stop_after = None;
      protected_pids = [];
    }

  type counters = {
    torn_writes : int;
    transient_reads : int;
    transient_writes : int;
    bit_flips : int;
    fail_stops : int;
  }

  type ctl = {
    mu : Mutex.t;
    rng : Rng.t;
    mutable plan : plan;
    mutable ops : int;  (* reads + writes seen, for fail-stop *)
    mutable torn_writes : int;
    mutable transient_reads : int;
    mutable transient_writes : int;
    mutable bit_flips : int;
    mutable fail_stops : int;
  }

  let set_plan ctl plan =
    Mutex.lock ctl.mu;
    ctl.plan <- plan;
    Mutex.unlock ctl.mu

  let plan ctl =
    Mutex.lock ctl.mu;
    let p = ctl.plan in
    Mutex.unlock ctl.mu;
    p

  let counters ctl =
    Mutex.lock ctl.mu;
    let c =
      {
        torn_writes = ctl.torn_writes;
        transient_reads = ctl.transient_reads;
        transient_writes = ctl.transient_writes;
        bit_flips = ctl.bit_flips;
        fail_stops = ctl.fail_stops;
      }
    in
    Mutex.unlock ctl.mu;
    c

  let reset_counters ctl =
    Mutex.lock ctl.mu;
    ctl.torn_writes <- 0;
    ctl.transient_reads <- 0;
    ctl.transient_writes <- 0;
    ctl.bit_flips <- 0;
    ctl.fail_stops <- 0;
    Mutex.unlock ctl.mu

  (* Decide, under [ctl.mu], which fault (if any) this operation suffers.
     Returning the decision and releasing the mutex before touching the
     inner disk keeps the decorator free of lock-order entanglement. *)
  type decision =
    | Pass
    | Fail_stop
    | Transient
    | Torn  (* the write reaches the medium only up to a cut *)
    | Flip of int  (* bit index to flip in the returned buffer *)

  let decide ctl ~pid ~write ~page_size =
    Mutex.lock ctl.mu;
    ctl.ops <- ctl.ops + 1;
    let p = ctl.plan in
    let protected_ = List.mem pid p.protected_pids in
    let roll rate = rate > 0.0 && Rng.float ctl.rng 1.0 < rate in
    let d =
      match p.fail_stop_after with
      | Some n when ctl.ops > n ->
          ctl.fail_stops <- ctl.fail_stops + 1;
          Fail_stop
      | _ when protected_ -> Pass
      | _ when write && roll p.transient_write ->
          ctl.transient_writes <- ctl.transient_writes + 1;
          Transient
      | _ when write && roll p.torn_write -> Torn
      | _ when (not write) && roll p.transient_read ->
          ctl.transient_reads <- ctl.transient_reads + 1;
          Transient
      | _ when (not write) && roll p.bit_flip ->
          ctl.bit_flips <- ctl.bit_flips + 1;
          Flip (Rng.int ctl.rng (page_size * 8))
      | _ -> Pass
    in
    Mutex.unlock ctl.mu;
    d

  let wrap ?(seed = 0L) ?(plan = no_faults) inner =
    let ctl =
      {
        mu = Mutex.create ();
        rng = Rng.create seed;
        plan;
        ops = 0;
        torn_writes = 0;
        transient_reads = 0;
        transient_writes = 0;
        bit_flips = 0;
        fail_stops = 0;
      }
    in
    let page_size = inner.page_size in
    let read pid buf =
      match decide ctl ~pid ~write:false ~page_size with
      | Fail_stop -> raise (Disk_error { pid; op = "read"; transient = false })
      | Transient -> raise (Disk_error { pid; op = "read"; transient = true })
      | Torn -> assert false
      | Pass -> inner.read pid buf
      | Flip bit ->
          inner.read pid buf;
          let byte = bit / 8 in
          Bytes.set buf byte
            (Char.chr (Char.code (Bytes.get buf byte) lxor (1 lsl (bit mod 8))))
    in
    let write pid buf =
      match decide ctl ~pid ~write:true ~page_size with
      | Fail_stop -> raise (Disk_error { pid; op = "write"; transient = false })
      | Transient -> raise (Disk_error { pid; op = "write"; transient = true })
      | Flip _ -> assert false
      | Pass -> inner.write pid buf
      | Torn -> (
          (* Only bytes [0, cut) reach the medium; the rest keeps whatever
             durable image existed before (zeroes when none did). The cut
             falls in (first, last] differing byte of the new image against
             the durable one, so the result really is neither image; when
             fewer than two bytes differ there is nothing to tear and the
             write passes uncounted. *)
          let composite = Bytes.make page_size '\000' in
          (try inner.read pid composite with Not_found -> ());
          let first = ref 0 in
          while !first < page_size && Bytes.get buf !first = Bytes.get composite !first do
            incr first
          done;
          let last = ref (page_size - 1) in
          while !last > !first && Bytes.get buf !last = Bytes.get composite !last do
            decr last
          done;
          if !first >= !last then inner.write pid buf
          else begin
            Mutex.lock ctl.mu;
            ctl.torn_writes <- ctl.torn_writes + 1;
            let cut = !first + 1 + Rng.int ctl.rng (!last - !first) in
            Mutex.unlock ctl.mu;
            Bytes.blit buf 0 composite 0 cut;
            inner.write pid composite;
            raise (Disk_error { pid; op = "torn-write"; transient = false })
          end)
    in
    ( {
        page_size;
        read;
        write;
        sync = inner.sync;
        close = inner.close;
        read_count = inner.read_count;
        write_count = inner.write_count;
      },
      ctl )
end
