(* Unit and property tests for the util substrate: paths, RNG, clock,
   stats, cost model. *)

open Repro_util

let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* --- Pathx -------------------------------------------------------------- *)

let test_split () =
  Alcotest.(check (list string)) "abs" [ "a"; "b" ] (Pathx.split "/a/b");
  Alcotest.(check (list string)) "dots" [ "a"; "b" ] (Pathx.split "/a/./b/");
  Alcotest.(check (list string)) "empty" [] (Pathx.split "/");
  Alcotest.(check (list string)) "dotdot kept" [ "a"; ".."; "b" ] (Pathx.split "a/../b")

let test_normalize () =
  check_s "collapse" "/a/b" (Pathx.normalize "//a//./b/");
  check_s "dotdot" "/b" (Pathx.normalize "/a/../b");
  check_s "root dotdot" "/" (Pathx.normalize "/..");
  check_s "rel" "b" (Pathx.normalize "a/../b");
  check_s "rel up" "../b" (Pathx.normalize "../b");
  check_s "empty rel" "." (Pathx.normalize "a/..")

let test_join () =
  check_s "concat" "/a/b" (Pathx.concat "/a" "b");
  check_s "concat abs" "/x" (Pathx.concat "/a" "/x");
  check_s "concat root" "/b" (Pathx.concat "/" "b");
  check_s "basename" "c" (Pathx.basename "/a/b/c");
  check_s "basename root" "/" (Pathx.basename "/");
  check_s "dirname" "/a/b" (Pathx.dirname "/a/b/c");
  check_s "dirname top" "/" (Pathx.dirname "/a")

let test_is_under () =
  check_b "under" true (Pathx.is_under ~dir:"/a" "/a/b/c");
  check_b "self" true (Pathx.is_under ~dir:"/a" "/a");
  check_b "not under" false (Pathx.is_under ~dir:"/a/b" "/a/c");
  Alcotest.(check (option string)) "strip" (Some "b/c") (Pathx.strip_prefix ~dir:"/a" "/a/b/c");
  Alcotest.(check (option string)) "strip self" (Some "") (Pathx.strip_prefix ~dir:"/a" "/a");
  Alcotest.(check (option string)) "strip miss" None (Pathx.strip_prefix ~dir:"/b" "/a")

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize idempotent" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 30) (Gen.oneofl [ 'a'; 'b'; '/'; '.' ]))
    (fun s ->
      let n = Pathx.normalize s in
      Pathx.normalize n = n)

(* --- Clock & Cost ------------------------------------------------------- *)

let test_clock () =
  let c = Clock.create () in
  check_b "zero" true (Clock.now_ns c = 0L);
  Clock.consume_int c 1500;
  check_b "advanced" true (Clock.now_ns c = 1500L);
  let (), d = Clock.time c (fun () -> Clock.consume_int c 42) in
  check_b "timed" true (d = 42L);
  Clock.consume c (-5L);
  check_b "no negative" true (Clock.now_ns c = 1542L)

let test_cost () =
  check_i "kib round up" 1 (Cost.kib_of_bytes 1);
  check_i "kib exact" 4 (Cost.kib_of_bytes 4096);
  check_b "disk read has latency" true
    (Cost.disk_read_cost 4096 > Cost.disk_read_ns_per_kib * 4);
  check_i "copy" (Cost.copy_ns_per_kib * 2) (Cost.copy_cost 2048)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_b "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:43 in
  check_b "different seed" true (Rng.next_int64 a <> Rng.next_int64 c)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_range =
  QCheck.Test.make ~name:"rng int_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.create ~seed in
      let v = Rng.int_range rng lo (lo + span) in
      v >= lo && v <= lo + span)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:7 in
  let arr = Array.init 50 Fun.id in
  let copy = Array.copy arr in
  Rng.shuffle rng copy;
  Array.sort compare copy;
  Alcotest.(check (array int)) "permutation" arr copy

(* --- Stats -------------------------------------------------------------- *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-6)) "stddev" 1.0 (Stats.stddev [ 1.; 2.; 3. ]);
  let h = Stats.histogram ~lo:0. ~hi:10. ~buckets:5 [ 0.5; 1.5; 2.5; 9.9; 15.0 ] in
  check_i "bucket0" 2 h.(0);
  check_i "bucket1" 1 h.(1);
  check_i "last bucket catches overflow" 2 h.(4)

let test_percentile_edges () =
  (* single element: any valid p returns it *)
  check_i "single p=0" 7 (Stats.percentile 0. [ 7 ]);
  check_i "single p=0.5" 7 (Stats.percentile 0.5 [ 7 ]);
  check_i "single p=1" 7 (Stats.percentile 1. [ 7 ]);
  (* boundaries select min and max *)
  check_i "p=0 is min" 1 (Stats.percentile 0. [ 3; 1; 2 ]);
  check_i "p=1 is max" 3 (Stats.percentile 1. [ 3; 1; 2 ]);
  check_i "median of evens" 2 (Stats.percentile 0.5 [ 4; 2; 3; 1 ]);
  (* invalid inputs raise instead of indexing out of bounds *)
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "empty list" (fun () -> Stats.percentile 0.5 []);
  raises "p negative" (fun () -> Stats.percentile (-0.1) [ 1 ]);
  raises "p above 1" (fun () -> Stats.percentile 1.1 [ 1 ]);
  raises "p nan" (fun () -> Stats.percentile Float.nan [ 1 ])

let test_histogram_edges () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "no buckets" (fun () -> Stats.histogram ~lo:0. ~hi:1. ~buckets:0 [ 0.5 ]);
  raises "hi = lo" (fun () -> Stats.histogram ~lo:1. ~hi:1. ~buckets:4 [ 1. ]);
  raises "hi < lo" (fun () -> Stats.histogram ~lo:2. ~hi:1. ~buckets:4 [ 1. ]);
  (* empty input is fine: all buckets zero *)
  let h = Stats.histogram ~lo:0. ~hi:10. ~buckets:3 [] in
  check_i "empty total" 0 (Array.fold_left ( + ) 0 h);
  (* below-lo clamps to first bucket, at/above-hi to last; NaN skipped *)
  let h = Stats.histogram ~lo:0. ~hi:10. ~buckets:2 [ -5.; 0.; 10.; 99.; Float.nan ] in
  check_i "underflow+lo in first" 2 h.(0);
  check_i "hi+overflow in last" 2 h.(1);
  (* one value, one bucket *)
  let h = Stats.histogram ~lo:0. ~hi:1. ~buckets:1 [ 0.5 ] in
  check_i "single bucket" 1 h.(0)

let test_size () =
  check_s "b" "512B" (Size.to_string 512);
  check_s "kib" "2.0KiB" (Size.to_string 2048);
  check_s "mib" "1.5MiB" (Size.to_string (Size.mib 1 + Size.kib 512));
  check_i "gib" (1 lsl 30) (Size.gib 1)

(* --- Errno -------------------------------------------------------------- *)

let test_errno () =
  check_s "to_string" "ENOENT" (Errno.to_string Errno.ENOENT);
  check_b "message nonempty" true (String.length (Errno.message Errno.EACCES) > 0);
  check_i "ok_exn" 5 (Errno.ok_exn (Ok 5));
  Alcotest.check_raises "raises" (Errno.Error Errno.EIO) (fun () ->
      ignore (Errno.ok_exn (Error Errno.EIO)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "util"
    [
      ( "pathx",
        [
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "join/base/dir" `Quick test_join;
          Alcotest.test_case "is_under/strip" `Quick test_is_under;
        ] );
      qsuite "pathx-props" [ prop_normalize_idempotent ];
      ( "clock-cost",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "cost" `Quick test_cost;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      qsuite "rng-props" [ prop_rng_int_bounds; prop_rng_range ];
      ( "stats-size-errno",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "errno" `Quick test_errno;
        ] );
    ]
