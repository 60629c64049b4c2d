(* Engine-independent container core: materialize the image, build the
   namespace sandbox (fresh mount/pid/uts/ipc/net namespaces, private
   mounts, /proc and /dev), apply configuration (env, capabilities, cgroup,
   LSM profile), and launch the entrypoint.  Engines differ only in naming,
   cgroup layout and security-profile conventions — the paper's "~70 LoC
   per engine" observation (§4). *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_image

type t = {
  ct_id : string;
  ct_name : string;
  ct_engine : string;
  ct_image : Image.t;
  ct_main : Proc.t;
  ct_rootfs : Nativefs.t;
  ct_procfs : Procfs.t;
}

let ( let* ) = Result.bind

let short_id t = if String.length t.ct_id > 12 then String.sub t.ct_id 0 12 else t.ct_id

type settings = {
  s_engine : string;
  s_id : string;
  s_name : string;
  s_cgroup : string;
  s_lsm_profile : string option;
  s_privileged : bool;
}

(* [wrap_rootfs] lets observers interpose on the rootfs (Docker-Slim's
   fanotify recorder wraps every operation to log accesses). *)
let create ~kernel ~image ?(wrap_rootfs = fun ops -> ops) settings =
  let init = Kernel.init_proc kernel in
  let* rootfs = Image.materialize image ~kernel ~proc:init in
  let rootfs_ops = wrap_rootfs (Nativefs.ops rootfs) in
  let main = Kernel.fork kernel init in
  (* fresh non-mount namespaces; privileged admin containers keep the
     host's PID and network namespaces (docker run --privileged
     --pid=host --net=host, the CoreOS-toolbox configuration) *)
  let* () =
    Kernel.unshare kernel main
      (if settings.s_privileged then [ Namespace.Uts; Namespace.Ipc; Namespace.Cgroup ]
       else [ Namespace.Pid; Namespace.Uts; Namespace.Ipc; Namespace.Net; Namespace.Cgroup ])
  in
  (* fresh mount namespace rooted at the image rootfs (private mounts, as
     container runtimes configure them — §2.3) *)
  Kernel.enter_new_mnt_ns kernel main ~fs:rootfs_ops;
  (* /proc scoped to the container's pid namespace, /dev as a fresh devtmpfs *)
  let procfs = Procfs.create ~kernel ~pidns:main.Proc.ns.Proc.pid_ns in
  let ensure_dir path =
    match Kernel.mkdir kernel main path ~mode:0o755 with
    | Ok () | (Error Errno.EEXIST) -> Ok ()
    | Error e -> Error e
  in
  let* () = ensure_dir "/proc" in
  let* () = ensure_dir "/dev" in
  let* () = ensure_dir "/var" in
  let* () = ensure_dir "/var/run" in
  let* _m = Kernel.mount_at kernel main ~fs:(Procfs.ops procfs) "/proc" in
  let devfs = Devfs.create ~kernel in
  let* _m = Kernel.mount_at kernel main ~fs:(Nativefs.ops devfs) "/dev" in
  (* configuration — hostname first, while CAP_SYS_ADMIN is still held *)
  let* () = Kernel.sethostname kernel main (String.sub settings.s_id 0 (min 12 (String.length settings.s_id))) in
  main.Proc.env <- image.Image.config.Image.env;
  main.Proc.cred.Proc.uid <- image.Image.config.Image.user;
  main.Proc.cred.Proc.gid <- image.Image.config.Image.user;
  main.Proc.cred.Proc.groups <- [ image.Image.config.Image.user ];
  main.Proc.cred.Proc.caps <-
    (if settings.s_privileged then Caps.Set.full else Caps.Set.docker_default);
  Kernel.cgroup_attach kernel main ~cgroup:settings.s_cgroup;
  Kernel.apply_lsm_profile kernel main settings.s_lsm_profile;
  (match Kernel.chdir kernel main image.Image.config.Image.workdir with
  | Ok () -> ()
  | Error _ -> ());
  (* launch the entrypoint *)
  let* () =
    match image.Image.config.Image.entrypoint with
    | [] -> Ok ()
    | bin :: args ->
        main.Proc.comm <- Pathx.basename bin;
        let* _code = Kernel.exec kernel main bin (bin :: args) in
        Ok ()
  in
  Ok
    {
      ct_id = settings.s_id;
      ct_name = settings.s_name;
      ct_engine = settings.s_engine;
      ct_image = image;
      ct_main = main;
      ct_rootfs = rootfs;
      ct_procfs = procfs;
    }

let pid t = t.ct_main.Proc.pid

let stop ~kernel t = Kernel.exit kernel t.ct_main 0

let is_running t = Proc.alive t.ct_main
