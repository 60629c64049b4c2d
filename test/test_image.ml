(* Tests for the image substrate: layers, whiteouts, union materialization,
   the registry's bandwidth/dedup model, and the Top-50 catalogue's
   structural invariants. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_image

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let ok = Errno.ok_exn

let boot () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"root" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  (k, Kernel.init_proc k)

let file path content = Layer.File { path; mode = 0o644; content = Content.Literal content }
let dir path = Layer.Dir { path; mode = 0o755 }

let test_layer_size () =
  let l = Layer.v ~id:"l1" [ dir "/a"; file "/a/f" "12345"; Layer.Symlink { path = "/a/l"; target = "f" } ] in
  check_i "size" 6 (Layer.size l);
  Alcotest.(check (list string)) "paths" [ "/a"; "/a/f"; "/a/l" ] (Layer.paths l)

let test_union_whiteout () =
  let base = Layer.v ~id:"base" [ dir "/etc"; file "/etc/a" "old-a"; file "/etc/b" "b" ] in
  let top = Layer.v ~id:"top" [ file "/etc/a" "new-a"; Layer.Whiteout "/etc/b"; file "/etc/c" "c" ] in
  let image = Image.v ~name:"t" [ base; top ] in
  let paths = Image.effective_paths image in
  check_b "a present" true (List.mem "/etc/a" paths);
  check_b "b whited out" false (List.mem "/etc/b" paths);
  check_b "c present" true (List.mem "/etc/c" paths);
  (* materialize and read back: top layer wins *)
  let k, init = boot () in
  let rootfs = ok (Image.materialize image ~kernel:k ~proc:init) in
  let probe = Kernel.fork k init in
  Kernel.enter_new_mnt_ns k probe ~fs:(Nativefs.ops rootfs);
  check_s "upper layer wins" "new-a" (ok (Kernel.read_whole k probe "/etc/a"));
  check_b "whiteout removed the file" true
    (Kernel.stat k probe "/etc/b" = Error Errno.ENOENT);
  check_s "new file" "c" (ok (Kernel.read_whole k probe "/etc/c"))

let test_content_kinds () =
  check_i "filler size" 100 (Content.size (Content.Filler 100));
  let b = Content.Binary { prog = "gdb"; size = 4096 } in
  check_i "binary padded" 4096 (Content.size b);
  check_b "binary parses" true
    (match Binfmt.parse (Content.render b) with Some (Binfmt.Bin "gdb") -> true | _ -> false)

(* A root in the materialized [rootfs], for reading it back. *)
let probe_in k init rootfs =
  let probe = Kernel.fork k init in
  Kernel.enter_new_mnt_ns k probe ~fs:(Nativefs.ops rootfs);
  probe

(* Materialization writes a pad without building it: every file still
   reads back the bytes [Content.render] spells out, at sizes around a
   chunk, and costs what a write of those bytes costs. *)
let test_materialized_bytes () =
  let cs = Fdata.chunk_size in
  let binary size = Content.Binary { prog = "tool"; size } in
  let hl = String.length (Content.header (binary 0)) in
  let literal n = Content.Literal (String.init n (fun i -> Char.chr (97 + (i mod 26)))) in
  let contents =
    List.concat_map
      (fun n -> [ Content.Filler n; binary n; literal n ])
      [ 0; 1; hl; cs - 1; cs; cs + 1; (3 * cs) + 7 ]
  in
  let path i = Printf.sprintf "/f%d" i in
  let entries =
    List.mapi (fun i content -> Layer.File { path = path i; mode = 0o644; content }) contents
  in
  let k, init = boot () in
  let image = Image.v ~name:"pads" [ Layer.v ~id:"l" entries ] in
  let rootfs = ok (Image.materialize image ~kernel:k ~proc:init) in
  let probe = probe_in k init rootfs in
  List.iteri
    (fun i c ->
      let got = ok (Kernel.read_whole k probe (path i)) in
      check_b (Printf.sprintf "%s: %d bytes read back" (path i) (Content.size c)) true
        (String.equal got (Content.render c));
      (* the same write, padded and rendered, costs the same *)
      let cost write =
        let flags = [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] in
        let fd = ok (Kernel.open_ k probe "/cost" flags ~mode:0o644) in
        let t0 = Clock.now_ns k.Kernel.clock in
        let n = ok (write fd) in
        let spent = Int64.sub (Clock.now_ns k.Kernel.clock) t0 in
        ok (Kernel.close k probe fd);
        (n, spent)
      in
      let padded =
        cost (fun fd ->
            Kernel.write_padded k probe rootfs fd (Content.header c) ~len:(Content.size c)
              (Content.fill c))
      in
      let rendered = cost (fun fd -> Kernel.write k probe fd (Content.render c)) in
      check_b (Printf.sprintf "%s: padded write counts and charges as rendered" (path i)) true
        (padded = rendered))
    contents

(* Two rootfs materialized from one image hold one pad: a whole-chunk read
   of either returns the same buffer, and a write into one changes
   neither that buffer nor the other rootfs. *)
let test_shared_pads () =
  let cs = Fdata.chunk_size in
  let image =
    Image.v ~name:"pad"
      [ Layer.v ~id:"l" [ Layer.File { path = "/big"; mode = 0o644; content = Content.Filler (3 * cs) } ] ]
  in
  let k, init = boot () in
  let open_big () =
    let probe = probe_in k init (ok (Image.materialize image ~kernel:k ~proc:init)) in
    (probe, ok (Kernel.open_ k probe "/big" [ Types.O_RDWR ] ~mode:0))
  in
  let a = open_big () in
  let b = open_big () in
  let chunk1 (probe, fd) = ok (Kernel.pread k probe fd ~off:cs ~len:cs) in
  let in_a = chunk1 a in
  let in_b = chunk1 b in
  check_b "one pad" true (in_a == in_b);
  check_i "written" 2 (ok (Kernel.pwrite k (fst a) (snd a) ~off:(cs + 5) "zz"));
  let pad = String.make cs 'D' in
  check_b "the lent pad is unchanged" true (String.equal in_a pad);
  check_b "the other rootfs is unchanged" true (String.equal (chunk1 b) pad);
  check_b "the written rootfs reads its write" true
    (String.equal (chunk1 a) (String.sub pad 0 5 ^ "zz" ^ String.sub pad 0 (cs - 7)))

(* Descriptor manifests at production chunking params equal the chunks of
   the rendered bytes; every registry number rests on this.  Sizes straddle
   the appmain header (14 bytes), min_size, max_size, the settling
   sample's last steady cut (262144) and the sample length plus max_size
   (327693), and one blob is several MiB. *)
let test_descriptor_manifests () =
  let module Chunker = Repro_store.Chunker in
  let sizes =
    [ 0; 1; 13; 14; 15; 4095; 4096; 4097; 65535; 65536; 65537; 262143; 262144; 262145; 327693;
      327694; Size.mib 3 + 7 ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (what, c) ->
          if Blobs.content_chunks c <> Chunker.chunks_of_string (Content.render c) then
            Alcotest.failf "%s %d: descriptor manifest differs from the rendered bytes" what n)
        [ ("Filler", Content.Filler n); ("Binary appmain", Content.Binary { prog = "appmain"; size = n }) ])
    sizes

(* Incompressible content: every CDC chunk is unique, so a cold pull must
   transfer the full byte count and the bandwidth model is visible. *)
let incompressible ~seed n = Bytes.to_string (Rng.bytes (Rng.create ~seed) n)

let test_registry_bandwidth_model () =
  let clock = Clock.create () in
  let reg = Registry.create ~clock ~bandwidth_mb_per_s:100.0 ~latency_ms_per_layer:10 () in
  let image =
    Image.v ~name:"x" [ Layer.v ~id:"only" [ file "/f" (incompressible ~seed:11 (Size.mib 1)) ] ]
  in
  Registry.push reg image;
  let t0 = Clock.now_ns clock in
  let _i, bytes = Result.get_ok (Registry.pull reg "x:latest") in
  let ns = Int64.to_int (Int64.sub (Clock.now_ns clock) t0) in
  check_i "bytes" (Size.mib 1) bytes;
  (* 10ms latency + 1MiB at 100MB/s (~10.5ms) *)
  check_b "pull time plausible" true (ns > 15_000_000 && ns < 30_000_000)

(* The per-layer latency is charged only for layers that actually move
   bytes: cached layers — and layers whose chunks all dedup against
   content already on the host — are completely free. *)
let test_registry_cached_layers_free () =
  let clock = Clock.create () in
  let latency_ms = 10 in
  let reg = Registry.create ~clock ~bandwidth_mb_per_s:100.0 ~latency_ms_per_layer:latency_ms () in
  let base = Layer.v ~id:"shared-base" [ dir "/lib"; file "/lib/libc" (incompressible ~seed:1 (Size.kib 256)) ] in
  let app_a = Layer.v ~id:"app-a" [ file "/bin/a" (incompressible ~seed:2 (Size.kib 64)) ] in
  let app_b = Layer.v ~id:"app-b" [ file "/bin/b" (incompressible ~seed:3 (Size.kib 64)) ] in
  Registry.push reg (Image.v ~name:"a" [ base; app_a ]);
  Registry.push reg (Image.v ~name:"b" [ base; app_b ]);
  (* same bytes as app-a under a different layer id *)
  Registry.push reg
    (Image.v ~name:"c" [ base; Layer.v ~id:"app-c" [ file "/bin/c" (incompressible ~seed:2 (Size.kib 64)) ] ]);
  let elapsed f =
    let t0 = Clock.now_ns clock in
    f ();
    Int64.to_int (Int64.sub (Clock.now_ns clock) t0)
  in
  let cold = elapsed (fun () -> ignore (Result.get_ok (Registry.pull reg "a:latest"))) in
  check_b "cold pull charged both layers" true (cold > 2 * latency_ms * 1_000_000);
  (* fully cached pull: zero bytes, zero time — cached layers are free *)
  let warm_bytes = ref (-1) in
  let warm = elapsed (fun () -> warm_bytes := snd (Result.get_ok (Registry.pull reg "a:latest"))) in
  check_i "warm pull moves no bytes" 0 !warm_bytes;
  check_i "warm pull is free (no per-layer latency)" 0 warm;
  (* image b: base is cached, so only the app layer pays latency *)
  let b_bytes = ref 0 in
  let b_ns = elapsed (fun () -> b_bytes := snd (Result.get_ok (Registry.pull reg "b:latest"))) in
  check_i "only b's own layer transfers" (Size.kib 64) !b_bytes;
  check_b "one latency charge, not two" true
    (b_ns >= latency_ms * 1_000_000 && b_ns < 2 * latency_ms * 1_000_000);
  (* image c: new layer id, but every chunk dedups against app-a -> free *)
  let c_bytes = ref (-1) in
  let c_ns = elapsed (fun () -> c_bytes := snd (Result.get_ok (Registry.pull reg "c:latest"))) in
  check_i "chunk-deduped layer moves no bytes" 0 !c_bytes;
  check_i "chunk-deduped layer pays no latency" 0 c_ns

let test_registry_store_accounting () =
  let clock = Clock.create () in
  let reg = Registry.create ~clock () in
  let base = Layer.v ~id:"acct-base" [ file "/lib/l" (incompressible ~seed:4 (Size.kib 128)) ] in
  let mk n id = Image.v ~name:n [ base; Layer.v ~id [ file "/etc/c" ("cfg-" ^ n) ] ] in
  Registry.push reg (mk "p" "acct-p");
  Registry.push reg (mk "q" "acct-q");
  let st = Registry.store reg in
  let module Store = Repro_store.Store in
  (* both images count the shared base logically; physically it is stored once *)
  check_b "dedup ratio > 1 with a shared base" true (Store.dedup_ratio st > 1.5);
  check_i "logical counts both references" (2 * Size.kib 128 + 5 + 5) (Store.logical_bytes st);
  (* a blob released to refcount zero is collected by gc *)
  Store.release st "acct-q";
  let collected = Store.gc st in
  check_b "gc collected q's unique chunk" true (collected >= 1);
  check_b "base survives (still referenced)" true (Store.chunk_present st
    (List.hd (Option.get (Store.manifest st "acct-base"))).Repro_store.Chunker.digest)

let test_catalog_invariants () =
  let images = Catalog.top50 () in
  check_i "50 images" 50 (List.length images);
  (* names unique *)
  let names = List.map (fun i -> i.Image.name) images in
  check_i "unique names" 50 (List.length (List.sort_uniq compare names));
  List.iter
    (fun image ->
      (* every image has an entrypoint that exists in its own fs *)
      match image.Image.config.Image.entrypoint with
      | [] -> Alcotest.failf "%s has no entrypoint" (Image.ref_ image)
      | bin :: _ ->
          check_b
            (Image.ref_ image ^ " entrypoint in image")
            true
            (List.mem bin (Image.effective_paths image));
          check_b
            (Image.ref_ image ^ " has a manifest")
            true
            (List.mem "/etc/app.manifest" (Image.effective_paths image)))
    images

let test_catalog_entrypoints_run () =
  let world = Repro_runtime.World.create () in
  (* sample a few images across bases and check the app starts cleanly *)
  List.iter
    (fun ref_ ->
      let c =
        ok
          (Repro_runtime.World.run_container world
             ~engine:(Repro_runtime.World.docker world) ~name:("t-" ^ ref_) ~image_ref:ref_ ())
      in
      check_b (ref_ ^ " container runs") true (Repro_runtime.Container.is_running c))
    [ "nginx:latest"; "redis:latest"; "etcd:latest"; "jenkins:latest" ]

let test_base_layer_sharing () =
  let images = Catalog.top50 () in
  let debian_bases =
    List.filter_map
      (fun i -> match i.Image.layers with base :: _ -> Some base.Layer.id | [] -> None)
      images
    |> List.filter (fun id -> id = "base:debian")
  in
  check_b "debian base shared by many images" true (List.length debian_bases > 20)

(* The central union property: the paths visible in a *materialized* image
   equal [Image.effective_paths] — whiteouts and layer ordering agree
   between the metadata view and the real filesystem. *)
let prop_materialize_matches_effective =
  QCheck.Test.make ~name:"materialized fs = effective paths" ~count:60
    QCheck.(
      small_list
        (triple (int_range 0 5) (oneofl [ `File; `Dir; `Whiteout ]) (int_range 1 50)))
    (fun spec ->
      (* each triple becomes one single-entry layer touching /nN or /dN *)
      let layers =
        List.mapi
          (fun i (slot, kind, size) ->
            let entry =
              match kind with
              | `File -> Layer.File { path = Printf.sprintf "/n%d" slot; mode = 0o644; content = Content.Filler size }
              | `Dir -> Layer.Dir { path = Printf.sprintf "/d%d" slot; mode = 0o755 }
              | `Whiteout -> Layer.Whiteout (Printf.sprintf "/n%d" slot)
            in
            Layer.v ~id:(string_of_int i) [ entry ])
          spec
      in
      let image = Image.v ~name:"prop" layers in
      let k, init = boot () in
      match Image.materialize image ~kernel:k ~proc:init with
      | Error _ -> false
      | Ok rootfs ->
          let probe = Kernel.fork k init in
          Kernel.enter_new_mnt_ns k probe ~fs:(Nativefs.ops rootfs);
          let actual =
            Errno.ok_exn (Kernel.readdir k probe "/")
            |> List.filter_map (fun e ->
                   if e.Types.d_name = "." || e.Types.d_name = ".." then None
                   else Some ("/" ^ e.Types.d_name))
            |> List.sort compare
          in
          actual = Image.effective_paths image)

let prop_effective_size_le_total =
  QCheck.Test.make ~name:"effective size <= raw size (whiteouts only shrink)" ~count:50
    QCheck.(small_list (pair (int_range 0 9) (int_range 1 100)))
    (fun spec ->
      let layers =
        List.mapi
          (fun i (slot, size) ->
            let path = Printf.sprintf "/f%d" slot in
            Layer.v ~id:(string_of_int i)
              [ (if size mod 7 = 0 then Layer.Whiteout path
                 else Layer.File { path; mode = 0o644; content = Content.Filler size }) ])
          spec
      in
      let image = Image.v ~name:"p" layers in
      Image.effective_size image <= Image.size image)

let () =
  Alcotest.run "image"
    [
      ( "layers",
        [
          Alcotest.test_case "layer size & paths" `Quick test_layer_size;
          Alcotest.test_case "union + whiteout" `Quick test_union_whiteout;
          Alcotest.test_case "content kinds" `Quick test_content_kinds;
          Alcotest.test_case "materialized bytes" `Quick test_materialized_bytes;
          Alcotest.test_case "shared pads" `Quick test_shared_pads;
          Alcotest.test_case "descriptor manifests" `Quick test_descriptor_manifests;
        ] );
      ( "registry",
        [
          Alcotest.test_case "bandwidth model" `Quick test_registry_bandwidth_model;
          Alcotest.test_case "cached layers are free" `Quick test_registry_cached_layers_free;
          Alcotest.test_case "store accounting" `Quick test_registry_store_accounting;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "invariants" `Quick test_catalog_invariants;
          Alcotest.test_case "entrypoints run" `Quick test_catalog_entrypoints_run;
          Alcotest.test_case "base layer sharing" `Quick test_base_layer_sharing;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_effective_size_le_total;
          QCheck_alcotest.to_alcotest prop_materialize_matches_effective;
        ] );
    ]
