(* Tests for the crash-point registry and arming machinery. *)

module Crash_point = Pitree_util.Crash_point

(* The global registry is shared with the engine modules (which register
   their points at module-init time), so tests use a distinct namespace
   and never assert on the registry's exact contents. *)

let fresh () =
  Crash_point.disarm_all ();
  Crash_point.reset_counts ()

let test_register_and_enumerate () =
  fresh ();
  Crash_point.register "cptest.b";
  Crash_point.register "cptest.a";
  Crash_point.register "cptest.a";
  let names = Crash_point.all_names () in
  Alcotest.(check bool) "a present" true (List.mem "cptest.a" names);
  Alcotest.(check bool) "b present" true (List.mem "cptest.b" names);
  Alcotest.(check int) "no duplicate from re-register" 1
    (List.length (List.filter (String.equal "cptest.a") names));
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted names)

let test_engine_points_preregistered () =
  (* Engines register at module-init: merely linking them populates the
     registry, before any workload has hit a point. *)
  let names = Crash_point.all_names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "blink.split.linked";
      "blink.post.updated";
      "hb.split.linked";
      "tsb.timesplit.linked";
    ]

let test_hit_registers_implicitly () =
  fresh ();
  Crash_point.hit "cptest.implicit";
  Alcotest.(check bool) "registered by hit" true
    (List.mem "cptest.implicit" (Crash_point.all_names ()))

let test_arm_after_zero_fires_first_hit () =
  fresh ();
  Crash_point.arm "cptest.p" ~after:0;
  Alcotest.check_raises "first hit fires"
    (Crash_point.Crash_requested "cptest.p") (fun () ->
      Crash_point.hit "cptest.p")

let test_arm_countdown () =
  fresh ();
  Crash_point.arm "cptest.p" ~after:2;
  Crash_point.hit "cptest.p";
  Crash_point.hit "cptest.p";
  Alcotest.check_raises "third hit fires"
    (Crash_point.Crash_requested "cptest.p") (fun () ->
      Crash_point.hit "cptest.p");
  (* Once fired, the point is spent. *)
  Crash_point.hit "cptest.p"

let test_disarm_all () =
  fresh ();
  Crash_point.arm "cptest.p" ~after:0;
  Crash_point.arm "cptest.q" ~after:0;
  Crash_point.disarm_all ();
  Crash_point.hit "cptest.p";
  Crash_point.hit "cptest.q"

let test_hit_counts () =
  fresh ();
  Alcotest.(check int) "zero before" 0 (Crash_point.hit_count "cptest.c");
  Crash_point.hit "cptest.c";
  Crash_point.hit "cptest.c";
  Crash_point.hit "cptest.c";
  Alcotest.(check int) "three hits" 3 (Crash_point.hit_count "cptest.c");
  Crash_point.reset_counts ();
  Alcotest.(check int) "reset" 0 (Crash_point.hit_count "cptest.c")

let suites =
  [
    ( "crash_point",
      [
        Alcotest.test_case "register + all_names" `Quick
          test_register_and_enumerate;
        Alcotest.test_case "engine points pre-registered" `Quick
          test_engine_points_preregistered;
        Alcotest.test_case "hit registers implicitly" `Quick
          test_hit_registers_implicitly;
        Alcotest.test_case "arm after:0" `Quick
          test_arm_after_zero_fires_first_hit;
        Alcotest.test_case "arm countdown" `Quick test_arm_countdown;
        Alcotest.test_case "disarm_all" `Quick test_disarm_all;
        Alcotest.test_case "hit counts" `Quick test_hit_counts;
      ] );
  ]
