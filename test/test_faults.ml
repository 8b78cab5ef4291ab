(* Tests for the storage fault-injection layer: Disk.Faulty, page
   checksums, buffer-pool retry, torn-write recovery, and the chaos
   harness. *)

module Page = Pitree_storage.Page
module Disk = Pitree_storage.Disk
module Buffer_pool = Pitree_storage.Buffer_pool
module Log_manager = Pitree_wal.Log_manager
module Env = Pitree_env.Env
module Blink = Pitree_blink.Blink
module Wellformed = Pitree_core.Wellformed
module Chaos = Pitree_harness.Chaos

let page_size = 256

(* All fault seeds offset a PITREE_SEED-derived base, so the whole file
   reseeds together while call sites keep distinct streams. *)
let fault_base = Seeds.derive "faults"

let mk_faulty ?(seed = 11L) ?(plan = Disk.Faulty.no_faults) () =
  Disk.Faulty.wrap ~seed:(Int64.add fault_base seed) ~plan
    (Disk.in_memory ~page_size)

let image c = Bytes.make page_size c

let is_transient = function
  | Disk.Disk_error { transient; _ } -> transient
  | _ -> Alcotest.fail "expected Disk_error"

(* --- Disk.Faulty unit tests --- *)

let test_no_faults_passthrough () =
  let disk, ctl = mk_faulty () in
  disk.Disk.write 3 (image 'x');
  let buf = image '\000' in
  disk.Disk.read 3 buf;
  Alcotest.(check bytes) "roundtrip" (image 'x') buf;
  let c = Disk.Faulty.counters ctl in
  Alcotest.(check int) "no faults drawn" 0
    (c.Disk.Faulty.torn_writes + c.Disk.Faulty.transient_reads
   + c.Disk.Faulty.transient_writes + c.Disk.Faulty.bit_flips
   + c.Disk.Faulty.fail_stops)

let test_transient_read () =
  let plan = { Disk.Faulty.no_faults with Disk.Faulty.transient_read = 1.0 } in
  let disk, ctl = mk_faulty () in
  disk.Disk.write 1 (image 'a');
  Disk.Faulty.set_plan ctl plan;
  let buf = image '\000' in
  (match disk.Disk.read 1 buf with
  | () -> Alcotest.fail "read should have failed"
  | exception e -> Alcotest.(check bool) "transient" true (is_transient e));
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  disk.Disk.read 1 buf;
  Alcotest.(check bytes) "content untouched" (image 'a') buf;
  Alcotest.(check int) "counted" 1
    (Disk.Faulty.counters ctl).Disk.Faulty.transient_reads

let test_transient_write_writes_nothing () =
  let disk, ctl = mk_faulty () in
  disk.Disk.write 1 (image 'a');
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.transient_write = 1.0 };
  (match disk.Disk.write 1 (image 'b') with
  | () -> Alcotest.fail "write should have failed"
  | exception e -> Alcotest.(check bool) "transient" true (is_transient e));
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let buf = image '\000' in
  disk.Disk.read 1 buf;
  Alcotest.(check bytes) "old image intact" (image 'a') buf

let test_bit_flip_is_read_only () =
  let disk, ctl = mk_faulty () in
  disk.Disk.write 1 (image 'a');
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.bit_flip = 1.0 };
  let flipped = image '\000' in
  disk.Disk.read 1 flipped;
  let diff_bits = ref 0 in
  Bytes.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code (Bytes.get (image 'a') i) in
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      diff_bits := !diff_bits + pop x)
    flipped;
  Alcotest.(check int) "exactly one bit flipped" 1 !diff_bits;
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let clean = image '\000' in
  disk.Disk.read 1 clean;
  Alcotest.(check bytes) "durable image clean" (image 'a') clean

let test_torn_write () =
  let disk, ctl = mk_faulty () in
  disk.Disk.write 1 (image 'a');
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.torn_write = 1.0 };
  (match disk.Disk.write 1 (image 'b') with
  | () -> Alcotest.fail "torn write should raise"
  | exception e ->
      Alcotest.(check bool) "non-transient" false (is_transient e));
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let buf = image '\000' in
  disk.Disk.read 1 buf;
  Alcotest.(check char) "prefix is new" 'b' (Bytes.get buf 0);
  Alcotest.(check char) "tail is old" 'a' (Bytes.get buf (page_size - 1));
  Alcotest.(check int) "counted" 1
    (Disk.Faulty.counters ctl).Disk.Faulty.torn_writes

(* The cut falls inside the span where the images differ: the torn image
   is neither the old nor the new one, and a write that changes nothing
   cannot tear. *)
let test_torn_write_cut_in_diff () =
  let disk, ctl = mk_faulty ~seed:13L () in
  disk.Disk.write 1 (image 'a');
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.torn_write = 1.0 };
  disk.Disk.write 1 (image 'a');
  Alcotest.(check int) "identical image: not torn, not counted" 0
    (Disk.Faulty.counters ctl).Disk.Faulty.torn_writes;
  for _ = 1 to 20 do
    let fresh = image 'a' in
    Bytes.fill fresh 10 11 'b';
    (match disk.Disk.write 1 fresh with
    | () -> Alcotest.fail "differing write should tear"
    | exception Disk.Disk_error { transient = false; _ } -> ());
    let got = image '\000' in
    Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
    disk.Disk.read 1 got;
    Alcotest.(check char) "first differing byte is new" 'b' (Bytes.get got 10);
    Alcotest.(check char) "last differing byte is old" 'a' (Bytes.get got 20);
    Alcotest.(check bool) "neither image" true
      (not (Bytes.equal got fresh || Bytes.equal got (image 'a')));
    disk.Disk.write 1 (image 'a');
    Disk.Faulty.set_plan ctl
      { Disk.Faulty.no_faults with Disk.Faulty.torn_write = 1.0 }
  done;
  Alcotest.(check int) "each tear counted" 20
    (Disk.Faulty.counters ctl).Disk.Faulty.torn_writes

let test_fail_stop () =
  let disk, ctl = mk_faulty () in
  disk.Disk.write 1 (image 'a');
  (* The setup write above already counted as one operation. *)
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.fail_stop_after = Some 3 };
  let buf = image '\000' in
  disk.Disk.read 1 buf;
  disk.Disk.read 1 buf;
  (match disk.Disk.read 1 buf with
  | () -> Alcotest.fail "device should be dead"
  | exception e ->
      Alcotest.(check bool) "non-transient" false (is_transient e));
  Alcotest.check_raises "stays dead"
    (Disk.Disk_error { pid = 1; op = "write"; transient = false })
    (fun () -> disk.Disk.write 1 (image 'b'));
  Alcotest.(check bool) "counted" true
    ((Disk.Faulty.counters ctl).Disk.Faulty.fail_stops >= 2)

let test_protected_pids () =
  let plan =
    {
      Disk.Faulty.no_faults with
      Disk.Faulty.transient_read = 1.0;
      protected_pids = [ 5 ];
    }
  in
  let disk, ctl = mk_faulty () in
  disk.Disk.write 5 (image 'm');
  disk.Disk.write 6 (image 'd');
  Disk.Faulty.set_plan ctl plan;
  let buf = image '\000' in
  disk.Disk.read 5 buf;
  Alcotest.(check bytes) "protected page reads fine" (image 'm') buf;
  Alcotest.check_raises "unprotected page faults"
    (Disk.Disk_error { pid = 6; op = "read"; transient = true })
    (fun () -> disk.Disk.read 6 buf)

(* --- page checksum tests --- *)

let mk_stamped () =
  let p = Page.create ~size:page_size ~id:9 ~kind:Page.Data ~level:0 in
  Page.insert p 0 "hello";
  Page.insert p 1 "world";
  Page.stamp_checksum p;
  p

let test_checksum_roundtrip () =
  let p = mk_stamped () in
  Alcotest.(check bool) "checksum_ok" true (Page.checksum_ok p);
  let q = Page.of_durable ~id:9 (Bytes.copy (Page.raw p)) in
  Alcotest.(check string) "cells survive" "hello" (Page.get q 0)

let test_checksum_stale_after_mutation () =
  let p = mk_stamped () in
  Page.insert p 2 "more";
  Alcotest.(check bool) "stale" false (Page.checksum_ok p)

let test_corrupt_byte_detected () =
  let p = mk_stamped () in
  let buf = Bytes.copy (Page.raw p) in
  (* Flip a bit in the cell area (far from the header). *)
  let off = page_size - 3 in
  Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor 0x10));
  match Page.of_durable ~id:9 buf with
  | _ -> Alcotest.fail "corruption undetected"
  | exception Page.Corrupt { pid = 9; what = Page.Checksum _ } -> ()
  | exception Page.Corrupt _ -> Alcotest.fail "wrong corruption class"

let test_torn_header_detected () =
  let buf = Bytes.make page_size '\000' in
  match Page.of_durable ~id:4 buf with
  | _ -> Alcotest.fail "bad magic undetected"
  | exception Page.Corrupt { pid = 4; what = Page.Torn } -> ()
  | exception Page.Corrupt _ -> Alcotest.fail "wrong corruption class"

(* --- buffer-pool retry tests --- *)

let mk_pool ?(capacity = 8) disk =
  Buffer_pool.create ~capacity ~disk ~wal_flush:(fun _ -> ()) ()

let seed_pages disk n =
  let clean = mk_pool disk in
  for pid = 1 to n do
    let fr = Buffer_pool.pin_new clean pid in
    let fresh =
      Page.create ~size:page_size ~id:pid ~kind:Page.Data ~level:0
    in
    Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 page_size;
    Page.insert fr.Buffer_pool.page 0 (Printf.sprintf "cell%d" pid);
    Buffer_pool.mark_dirty fr;
    Buffer_pool.unpin clean fr
  done;
  Buffer_pool.flush_all clean

let test_pool_absorbs_transient_reads () =
  let disk, ctl = mk_faulty ~seed:3L () in
  seed_pages disk 24;
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.transient_read = 0.3 };
  let pool = mk_pool disk in
  for pid = 1 to 24 do
    let fr = Buffer_pool.pin pool pid in
    Alcotest.(check string)
      "right content"
      (Printf.sprintf "cell%d" pid)
      (Page.get fr.Buffer_pool.page 0);
    Buffer_pool.unpin pool fr
  done;
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "retries happened" true (s.Buffer_pool.retried_reads > 0);
  Alcotest.(check bool) "counter matches" true
    ((Disk.Faulty.counters ctl).Disk.Faulty.transient_reads > 0)

let test_pool_absorbs_bit_flips () =
  let disk, ctl = mk_faulty ~seed:4L () in
  seed_pages disk 16;
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.bit_flip = 0.4 };
  let pool = mk_pool disk in
  for pid = 1 to 16 do
    let fr = Buffer_pool.pin pool pid in
    Alcotest.(check string)
      "no silent corruption"
      (Printf.sprintf "cell%d" pid)
      (Page.get fr.Buffer_pool.page 0);
    Buffer_pool.unpin pool fr
  done;
  Alcotest.(check bool) "flips were drawn" true
    ((Disk.Faulty.counters ctl).Disk.Faulty.bit_flips > 0)

let test_pool_absorbs_transient_writes () =
  let disk, ctl = mk_faulty ~seed:5L () in
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.transient_write = 0.5 };
  let pool = mk_pool ~capacity:32 disk in
  for pid = 1 to 16 do
    let fr = Buffer_pool.pin_new pool pid in
    let fresh =
      Page.create ~size:page_size ~id:pid ~kind:Page.Data ~level:0
    in
    Bytes.blit (Page.raw fresh) 0 (Page.raw fr.Buffer_pool.page) 0 page_size;
    Page.insert fr.Buffer_pool.page 0 "x";
    Buffer_pool.mark_dirty fr;
    Buffer_pool.unpin pool fr
  done;
  Buffer_pool.flush_all pool;
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "write retries happened" true
    (s.Buffer_pool.retried_writes > 0);
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  let pool2 = mk_pool disk in
  for pid = 1 to 16 do
    let fr = Buffer_pool.pin pool2 pid in
    Alcotest.(check string) "flushed despite faults" "x"
      (Page.get fr.Buffer_pool.page 0);
    Buffer_pool.unpin pool2 fr
  done

(* --- end-to-end: torn write on a data page, then crash and recovery --- *)

let cfg =
  {
    Env.default_config with
    page_size;
    pool_capacity = 64;
    page_oriented_undo = false;
    consolidation = true;
  }

let key i = Printf.sprintf "key%04d" i

let test_torn_page_recovery () =
  let disk, ctl = mk_faulty ~seed:21L () in
  let env = Env.create ~disk cfg in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 199 do
    Blink.insert t ~key:(key i) ~value:(string_of_int i)
  done;
  ignore (Env.drain env);
  Buffer_pool.flush_all (Env.pool env);
  (* Dirty more pages, make their log records durable, then tear the first
     dirty-page write of the final flush. *)
  for i = 200 to 299 do
    Blink.insert t ~key:(key i) ~value:(string_of_int i)
  done;
  ignore (Env.drain env);
  Log_manager.flush_all (Env.log env);
  Disk.Faulty.set_plan ctl
    {
      Disk.Faulty.no_faults with
      Disk.Faulty.torn_write = 1.0;
      protected_pids = [ 1 ];
    };
  (match Buffer_pool.flush_all (Env.pool env) with
  | () -> Alcotest.fail "flush should hit the torn write"
  | exception Disk.Disk_error { transient = false; _ } -> ());
  Alcotest.(check int) "one torn write" 1
    (Disk.Faulty.counters ctl).Disk.Faulty.torn_writes;
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  Env.crash env;
  let report = Env.recover env in
  Alcotest.(check bool) "torn page detected and rebuilt" true
    (report.Pitree_wal.Recovery.torn_pages >= 1);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  for i = 0 to 299 do
    Alcotest.(check (option string))
      (key i)
      (Some (string_of_int i))
      (Blink.find t (key i))
  done;
  Alcotest.(check bool) "wellformed" true (Wellformed.ok (Blink.verify t))

(* --- recovery under a flaky read path --- *)

let test_recovery_with_transient_reads () =
  let disk, ctl = mk_faulty ~seed:22L () in
  let env = Env.create ~disk cfg in
  let t = Blink.create env ~name:"t" in
  for i = 0 to 299 do
    Blink.insert t ~key:(key i) ~value:(string_of_int i)
  done;
  ignore (Env.drain env);
  Log_manager.flush_all (Env.log env);
  Buffer_pool.flush_all (Env.pool env);
  (* 30% transient read errors across restart: recovery and the reloads
     below must absorb them all. *)
  Disk.Faulty.set_plan ctl
    { Disk.Faulty.no_faults with Disk.Faulty.transient_read = 0.3 };
  Env.crash env;
  ignore (Env.recover env);
  let t = Option.get (Blink.open_existing env ~name:"t") in
  for i = 0 to 299 do
    Alcotest.(check (option string))
      (key i)
      (Some (string_of_int i))
      (Blink.find t (key i))
  done;
  let s = Buffer_pool.stats (Env.pool env) in
  Alcotest.(check bool) "retries observable" true
    (s.Buffer_pool.retried_reads > 0);
  Disk.Faulty.set_plan ctl Disk.Faulty.no_faults;
  Alcotest.(check bool) "wellformed" true (Wellformed.ok (Blink.verify t))

(* --- chaos harness --- *)

let test_chaos_sweep () =
  let s = Chaos.sweep ~ops:400 () in
  Alcotest.(check bool) "every point swept" true (s.Chaos.runs >= 39);
  Alcotest.(check bool) "most crashes fired" true (s.Chaos.fired > 0);
  (match s.Chaos.failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "sweep failures: %a" (fun ppf -> Chaos.pp_outcome ppf) o);
  Alcotest.(check bool) "ok" true (Chaos.ok s)

let test_chaos_random () =
  let s = Chaos.random_runs ~ops:300 ~iters:6 ~seed:(Int64.add fault_base 9L) () in
  Alcotest.(check int) "all runs executed" 6 s.Chaos.runs;
  (match s.Chaos.failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "random failures: %a" (fun ppf -> Chaos.pp_outcome ppf) o);
  Alcotest.(check bool) "ok" true (Chaos.ok s)

(* Every case prints the PITREE_SEED replay line if it fails. *)
let tc name speed f =
  Alcotest.test_case name speed (fun () -> Seeds.guard ("faults." ^ name) f)

let suites =
  [
    ( "faults.disk",
      [
        tc "passthrough" `Quick test_no_faults_passthrough;
        tc "transient read" `Quick test_transient_read;
        tc "transient write" `Quick
          test_transient_write_writes_nothing;
        tc "bit flip" `Quick test_bit_flip_is_read_only;
        tc "torn write" `Quick test_torn_write;
        tc "torn write cut within the change" `Quick
          test_torn_write_cut_in_diff;
        tc "fail stop" `Quick test_fail_stop;
        tc "protected pids" `Quick test_protected_pids;
      ] );
    ( "faults.checksum",
      [
        tc "roundtrip" `Quick test_checksum_roundtrip;
        tc "stale when dirty" `Quick
          test_checksum_stale_after_mutation;
        tc "corrupt byte" `Quick test_corrupt_byte_detected;
        tc "torn header" `Quick test_torn_header_detected;
      ] );
    ( "faults.pool",
      [
        tc "transient reads absorbed" `Quick
          test_pool_absorbs_transient_reads;
        tc "bit flips absorbed" `Quick
          test_pool_absorbs_bit_flips;
        tc "transient writes absorbed" `Quick
          test_pool_absorbs_transient_writes;
      ] );
    ( "faults.recovery",
      [
        tc "torn page rebuilt from log" `Quick
          test_torn_page_recovery;
        tc "flaky reads across restart" `Quick
          test_recovery_with_transient_reads;
      ] );
    ( "faults.chaos",
      [
        tc "crash-point sweep" `Slow test_chaos_sweep;
        tc "randomized runs" `Slow test_chaos_random;
      ] );
  ]
