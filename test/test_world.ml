(* A world is a value: what a world prints depends on its own steps alone,
   never on the worlds built before it or beside it in the same process.
   One attach scenario runs four ways, and all four must print the same
   bytes: first in the process, after an identical world, after three
   unrelated worlds, and interleaved step by step with a second live world
   that attaches between each of its steps. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_runtime
open Repro_cntr
module Bench_env = Repro_workloads.Bench_env
module Harness = Repro_xfstests.Harness

let ok = Errno.ok_exn

let run_web world =
  ok
    (World.run_container world ~engine:(World.docker world) ~name:"web"
       ~image_ref:"nginx:latest" ())

(* Boot, run nginx, attach, look around, detach; then the container id,
   what the steps printed and the world registry's JSON.  [between ()]
   runs between any two steps. *)
let scenario ~between =
  let out = Buffer.create 8192 in
  let world = Testbed.create () in
  between ();
  let app = run_web world in
  Printf.bprintf out "container %s\n" app.Container.ct_id;
  between ();
  let session = ok (Testbed.attach world "web") in
  between ();
  List.iter
    (fun cmd ->
      let code, text = Attach.run session cmd in
      Printf.bprintf out "$ %s -> %d\n%s" cmd code text;
      between ())
    [ "mount"; "ps"; "hostname" ];
  let k = world.World.kernel and shell = session.Attach.sn_shell_proc in
  let path file = Printf.sprintf "/proc/%d/%s" shell.Proc.pid file in
  Printf.bprintf out "mounts:\n%s\n" (ok (Kernel.read_whole k shell (path "mounts")));
  between ();
  Printf.bprintf out "ns/mnt %s\n" (ok (Kernel.readlink k shell (path "ns/mnt")));
  between ();
  (* file handles carry filesystem ids: the host root's and the app's rootfs's *)
  let handle proc path =
    let fs_id, h = ok (Kernel.name_to_handle_at k proc path) in
    Printf.sprintf "%d/%s" fs_id h
  in
  Printf.bprintf out "handles %s %s\n" (handle world.World.init "/etc")
    (handle app.Container.ct_main "/");
  between ();
  Attach.detach session;
  Printf.bprintf out "%s\n" (Repro_obs.Metrics.to_json (Repro_obs.Obs.metrics world.World.obs));
  Buffer.contents out

let alone () = scenario ~between:ignore

(* The reference leg: the first world of the process, forced by whichever
   case runs first, before that case builds anything. *)
let first = lazy (alone ())

(* Three worlds unlike the scenario's: a bare kernel with a CntrFS mount
   (as test_differential boots one), a phoronix bench env and an xfstests
   harness world. *)
let unrelated_worlds () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o777)) [ "/back"; "/mnt" ];
  let opts = Repro_fuse.Opts.cntr_default in
  let session =
    Repro_cntrfs.Session.create ~kernel:k
      ~conn:(Repro_fuse.Conn.create ~obs:k.Kernel.obs ~clock ())
      ~server_proc:(Kernel.fork k init) ~root_path:"/back" ~opts
      ~budget:(Mem_budget.create ~limit_bytes:(8 * 1024 * 1024)) ()
  in
  ignore (ok (Kernel.mount_at k init ~fs:(Repro_cntrfs.Session.fs session) "/mnt"));
  World.write_file k init "/mnt/f" "bytes";
  let env = Bench_env.make_env ~backend:(Bench_env.Cntrfs opts) ~budget_mb:16 () in
  Bench_env.write_file env (env.Bench_env.dir ^ "/f") "bytes";
  let xfs = Harness.setup_cntrfs () in
  ignore (ok (Kernel.mkdir xfs.Harness.su_kernel xfs.su_root "/mnt/t" ~mode:0o755))

let same_as_first leg =
  let expected = Lazy.force first in
  Alcotest.(check string) "same bytes as the first world" expected (leg ())

let test_after_identical () = same_as_first alone

let test_after_unrelated () =
  same_as_first (fun () ->
      unrelated_worlds ();
      alone ())

let test_interleaved () =
  same_as_first (fun () ->
      let other = Testbed.create () in
      ignore (run_web other);
      scenario ~between:(fun () ->
          let s = ok (Testbed.attach other "web") in
          ignore (Attach.run s "mount");
          Attach.detach s))

let () =
  Alcotest.run "world"
    [
      ( "determinism",
        [
          Alcotest.test_case "after an identical world" `Quick test_after_identical;
          Alcotest.test_case "after three unrelated worlds" `Quick test_after_unrelated;
          Alcotest.test_case "interleaved with a live world" `Quick test_interleaved;
        ] );
    ]
