(* A ready-to-use simulated machine: kernel over a host root filesystem
   with /dev, /proc, a populated image registry and all four container
   engines.  Tests, examples and benchmarks all start here. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_image

type t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
  kernel : Kernel.t;
  init : Proc.t;
  rootfs : Nativefs.t;
  registry : Registry.t;
  engines : Engine.engines;
  budget : Mem_budget.t;
}

let ok = Errno.ok_exn

let write_file kernel proc path ?(mode = 0o644) content =
  let fd = ok (Kernel.open_ kernel proc path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode) in
  ignore (ok (Kernel.write kernel proc fd content));
  ok (Kernel.close kernel proc fd)

(* Populate a host filesystem: directories, /etc files, and host tool
   binaries (registered separately as programs). *)
let populate_host kernel init =
  List.iter
    (fun d -> ok (Kernel.mkdir kernel init d ~mode:0o755))
    [
      "/bin"; "/usr"; "/usr/bin"; "/usr/sbin"; "/usr/share"; "/lib"; "/etc";
      "/dev"; "/proc"; "/tmp"; "/var"; "/var/lib"; "/var/run"; "/root"; "/home"; "/opt";
    ];
  ok (Kernel.chmod kernel init "/tmp" 0o1777);
  write_file kernel init "/etc/passwd" "root:x:0:0:root:/root:/bin/sh\n";
  write_file kernel init "/etc/group" "root:x:0:\n";
  write_file kernel init "/etc/hostname" "host\n";
  write_file kernel init "/etc/hosts" "127.0.0.1 localhost\n";
  write_file kernel init "/etc/resolv.conf" "nameserver 10.0.0.2\n";
  write_file kernel init "/etc/os-release" "ID=coreos\nVERSION_ID=1688\n"

(* Host binaries: everything a developer's machine would have, including
   the debugging tools CNTR forwards into containers. *)
let host_tools = [
  "sh"; "ls"; "cat"; "echo"; "env"; "which"; "ps"; "gdb"; "strace"; "top";
  "vi"; "less"; "grep"; "find"; "id"; "hostname"; "mount"; "pkg"; "du"; "stat";
  "sort"; "uniq"; "wc"; "head"; "tail";
]

let install_host_binaries kernel init =
  List.iter
    (fun tool ->
      write_file kernel init ("/usr/bin/" ^ tool) ~mode:0o755
        (Binfmt.make ~prog:tool ~size:(Size.kib 24) ()))
    host_tools;
  write_file kernel init "/bin/sh" ~mode:0o755 (Binfmt.make ~prog:"sh" ~size:(Size.kib 24) ())

(* The 1 GiB page-cache budget is shared by every FUSE driver cache (the
   paper's testbed had 16 GB; the simulation scales it down). *)
let create () =
  let clock = Clock.create () in
  (* One observability handle for the whole machine: every layer below
     (kernel, page caches, FUSE connections) registers its metrics here. *)
  let obs = Repro_obs.Obs.create () in
  let metrics = Repro_obs.Obs.metrics obs in
  let budget = Mem_budget.create ~limit_bytes:(Size.gib 1) in
  let rootfs = Nativefs.create ~metrics ~name:"host-root" ~clock Store.Ram () in
  let kernel = Kernel.create ~obs ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc kernel in
  populate_host kernel init;
  install_host_binaries kernel init;
  let devfs = Devfs.create ~kernel in
  ignore (ok (Kernel.mount_at kernel init ~fs:(Nativefs.ops devfs) "/dev"));
  let procfs = Procfs.create ~kernel ~pidns:init.Proc.ns.Proc.pid_ns in
  ignore (ok (Kernel.mount_at kernel init ~fs:(Procfs.ops procfs) "/proc"));
  Programs.install kernel;
  let registry = Registry.create ~metrics ~clock () in
  Catalog.publish registry;
  let engines = Engine.all ~kernel in
  { clock; obs; kernel; init; rootfs; registry; engines; budget }

let docker t = List.nth t.engines 0

let engine t name =
  match Engine.by_name t.engines name with
  | Some e -> e
  | None -> invalid_arg ("World.engine: unknown engine " ^ name)

(* Pull an image from the registry (charging network time) and run it. *)
let run_container t ~engine:eng ~name ~image_ref ?privileged () =
  match Registry.pull t.registry image_ref with
  | Error `Not_found -> Error Repro_util.Errno.ENOENT
  | Ok (image, _bytes) -> Engine.run eng ~name ?privileged image
