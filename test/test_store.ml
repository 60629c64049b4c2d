(* Tests for the content-addressed dedup store: qcheck properties of the
   gear chunker (determinism, concat round-trip, bounded invalidation
   under single-byte edits, the analytic uniform-fill fast path) and unit
   coverage of the refcounted chunk index and its GC. *)

open Repro_store

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* deterministic generator driver: qcheck inside alcotest with a pinned
   random state, so runs are reproducible byte-for-byte *)
let qcheck ?(seed = 0xC41C) test () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) test

(* small params so properties exercise many cuts on short strings *)
let small = { Chunker.min_size = 32; mask_bits = 5; max_size = 256 }

let gen_bytes =
  QCheck.Gen.(
    map Bytes.unsafe_to_string (bytes_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 4096)))

let arb_bytes = QCheck.make ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) gen_bytes

(* chunking is a pure function of the bytes *)
let prop_deterministic =
  QCheck.Test.make ~name:"chunker deterministic" ~count:200 arb_bytes (fun s ->
      Chunker.chunks_of_string ~params:small s = Chunker.chunks_of_string ~params:small s
      && Chunker.cut_points ~params:small s = Chunker.cut_points ~params:small s)

(* split obeys the size bounds and concatenates back to the input *)
let prop_split_roundtrip =
  QCheck.Test.make ~name:"split concatenates back to the input" ~count:200 arb_bytes (fun s ->
      let pieces = Chunker.split ~params:small s in
      String.concat "" pieces = s
      && List.for_all (fun p -> String.length p <= small.Chunker.max_size) pieces
      && List.for_all
           (fun p -> String.length p >= 1)
           pieces)

(* chunk descriptors agree with the split pieces *)
let prop_chunks_match_split =
  QCheck.Test.make ~name:"chunk digests match split pieces" ~count:100 arb_bytes (fun s ->
      let pieces = Chunker.split ~params:small s in
      let chunks = Chunker.chunks_of_string ~params:small s in
      List.length pieces = List.length chunks
      && List.for_all2
           (fun p c ->
             c.Chunker.size = String.length p && c.Chunker.digest = Digest.string p)
           pieces chunks
      && Chunker.manifest_bytes chunks = String.length s)

(* a single-byte edit invalidates only a bounded window of chunks: the
   suffixes of the two cut sequences coincide once past the edit by a
   resynchronization window (max_size + the rolling window) *)
let prop_bounded_invalidation =
  QCheck.Test.make ~name:"single-byte edit invalidates bounded chunks" ~count:200
    QCheck.(pair arb_bytes (pair (int_bound 100_000) (int_range 1 255)))
    (fun (s, (pos_seed, delta)) ->
      QCheck.assume (String.length s >= 1024);
      let pos = pos_seed mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      let s' = Bytes.to_string b in
      let cuts = Chunker.cut_points ~params:small s in
      let cuts' = Chunker.cut_points ~params:small s' in
      (* prefix stability: cuts strictly before the edited byte are shared *)
      let before = List.filter (fun c -> c <= pos) cuts in
      let before' = List.filter (fun c -> c <= pos) cuts' in
      before = before'
      &&
      (* resynchronization: past the edit by one forced-cut distance plus
         the rolling window, the cut streams coincide again *)
      let horizon = pos + (2 * small.Chunker.max_size) + small.Chunker.mask_bits in
      let after = List.filter (fun c -> c > horizon) cuts in
      let after' = List.filter (fun c -> c > horizon) cuts' in
      after = after')

(* Fills in each steady regime under [small]: past the prefix the hash
   is constant, so cuts fall every min_size if that constant qualifies
   (10 of the 256 bytes, ['@'] among them) and every max_size otherwise. *)
let min_period_fill = '@'
let max_period_fill = 'x'

let steady_period fill =
  match List.rev (Chunker.cut_points ~params:small (String.make 2048 fill)) with
  | _ :: c2 :: c1 :: _ -> c2 - c1
  | _ -> 0

(* the analytic uniform-fill path equals chunking the rendered string, at
   several totals per (prefix, fill) so later totals read the memoized
   skeleton: one inside the first chunks, one around the steady cut, one
   deep in the periodic body *)
let prop_uniform_fast_path =
  QCheck.Test.make ~name:"analytic uniform chunking = rendered chunking" ~count:60
    QCheck.(
      pair arb_bytes
        (pair (triple (int_bound 300) (int_bound 1536) (int_bound 8192)) printable_char))
    (fun (prefix, ((e1, e2, e3), fill)) ->
      let plen = String.length prefix in
      List.for_all
        (fun fill ->
          List.for_all
            (fun extra ->
              let total = plen + extra in
              Chunker.chunks_prefixed_uniform ~params:small ~prefix ~fill ~total ()
              = Chunker.chunks_of_string ~params:small (prefix ^ String.make extra fill))
            [ e1; e2; e3 ])
        [ fill; min_period_fill; max_period_fill ])

let test_fill_regimes () =
  check_i "min_size regime" small.Chunker.min_size (steady_period min_period_fill);
  check_i "max_size regime" small.Chunker.max_size (steady_period max_period_fill)

(* concatenation property the registry relies on: chunks of a shared
   prefix survive as a prefix of the chunk list of any extension *)
let prop_prefix_stable =
  QCheck.Test.make ~name:"cut points are prefix-stable" ~count:100
    QCheck.(pair arb_bytes arb_bytes)
    (fun (a, b) ->
      let cuts_a = Chunker.cut_points ~params:small a in
      let cuts_ab = Chunker.cut_points ~params:small (a ^ b) in
      let len_a = String.length a in
      let full_a = List.filter (fun c -> c < len_a) cuts_a in
      let full_ab = List.filter (fun c -> c < len_a) cuts_ab in
      full_a = full_ab)

(* --- store unit tests -------------------------------------------------------- *)

let chunks s = Chunker.chunks_of_string ~params:small s

let test_store_refcount_and_dedup () =
  let metrics = Repro_obs.Metrics.create () in
  let store = Store.create ~metrics () in
  let payload =
    Bytes.to_string (Repro_util.Rng.bytes (Repro_util.Rng.create ~seed:7) 2048)
  in
  let m = chunks payload in
  Store.add store ~key:"layer-a" m;
  Store.add store ~key:"layer-b" m;
  (* same bytes under two keys: logical doubles, physical does not *)
  check_i "logical counts both" (2 * String.length payload) (Store.logical_bytes store);
  check_i "physical counts once" (String.length payload) (Store.physical_bytes store);
  check_b "dedup ratio 2x" true (abs_float (Store.dedup_ratio store -. 2.0) < 1e-9);
  check_i "metrics logical" (2 * String.length payload)
    (Repro_obs.Metrics.counter_value metrics "store.bytes.logical");
  check_b "metrics gauge" true
    (abs_float (Repro_obs.Metrics.gauge_value metrics "store.dedup_ratio" -. 2.0) < 1e-9);
  (* missing: everything present already *)
  check_i "nothing missing" 0 (List.length (Store.missing store m))

let test_store_gc_collects_dead_chunks () =
  let store = Store.create () in
  let a = chunks (String.make 1500 'a') in
  let b = chunks (String.make 1500 'b') in
  Store.add store ~key:"a" a;
  Store.add store ~key:"b" b;
  let physical_before = Store.physical_bytes store in
  Store.release store "a";
  (* dead chunks no longer resolve, but their bytes linger until the sweep *)
  check_b "released chunk dead" false (Store.chunk_present store (List.hd a).Chunker.digest);
  check_i "physical unchanged pre-gc" physical_before (Store.physical_bytes store);
  let collected = Store.gc store in
  check_b "physical dropped post-gc" true (Store.physical_bytes store < physical_before);
  check_b "collected some" true (collected > 0);
  check_b "a's chunks gone" false (Store.chunk_present store (List.hd a).Chunker.digest);
  check_b "b's chunks survive" true (Store.chunk_present store (List.hd b).Chunker.digest);
  check_i "gc counter" collected (Store.gc_collected store)

let test_store_reset_is_not_gc () =
  let store = Store.create () in
  Store.add store ~key:"a" (chunks (String.make 600 'z'));
  Store.reset store;
  check_i "no blobs" 0 (Store.blobs store);
  check_i "no physical bytes" 0 (Store.physical_bytes store);
  check_i "reset does not count as gc" 0 (Store.gc_collected store)

let () =
  Alcotest.run "store"
    [
      ( "chunker",
        [
          Alcotest.test_case "deterministic" `Quick (qcheck prop_deterministic);
          Alcotest.test_case "split round-trip" `Quick (qcheck prop_split_roundtrip);
          Alcotest.test_case "chunks match split" `Quick (qcheck prop_chunks_match_split);
          Alcotest.test_case "bounded invalidation" `Quick (qcheck prop_bounded_invalidation);
          Alcotest.test_case "analytic uniform path" `Quick (qcheck prop_uniform_fast_path);
          Alcotest.test_case "uniform fill regimes" `Quick test_fill_regimes;
          Alcotest.test_case "prefix stable" `Quick (qcheck prop_prefix_stable);
        ] );
      ( "store",
        [
          Alcotest.test_case "refcount and dedup" `Quick test_store_refcount_and_dedup;
          Alcotest.test_case "gc collects dead chunks" `Quick test_store_gc_collects_dead_chunks;
          Alcotest.test_case "reset is not gc" `Quick test_store_reset_is_not_gc;
        ] );
    ]
