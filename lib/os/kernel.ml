(* The simulated kernel: process table, mount forest, path walking, and
   the syscall surface the rest of the repository programs against.  All
   costs are charged to the virtual clock.

   Each fact is stored once: a process's namespaces, cgroup and liveness
   in its [Proc.t], a hostname in its UTS namespace, a namespace's mounts
   in its [Mount.ns], reached through the processes in it. *)

open Repro_util
open Repro_vfs

type program = t -> Proc.t -> string list -> int

and chardev = {
  dev_name : string;
  dev_read : len:int -> string;
  dev_write : string -> int;
  (* When present, opening the device yields a custom fd instead of a plain
     file (e.g. /dev/fuse creates a connection). *)
  dev_open : (t -> Proc.t -> Proc.fd_entry) option;
}

and t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
  (* Hot handle for the per-syscall counter; rare ops (fork, exec,
     namespace changes) look their counters up by name at call time. *)
  k_syscalls : Repro_obs.Metrics.counter;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  mnt_ids : Mount.ids; (* mount, mount namespace and peer group ids *)
  sock_bindings : (int * int, Sock.listener) Hashtbl.t; (* (fs_id, ino) *)
  programs : (string, program) Hashtbl.t;
  chardevs : (int * int, chardev) Hashtbl.t;
  mutable next_tag : int;
  (* Fault-injection hooks consulted on file/metadata syscalls: given the
     syscall name and the calling process, an [Errno.t] makes the call fail
     before touching the filesystem.  Each armed CntrFS session adds one
     (filtered there to its server's process) and removes it on close;
     none costs one branch. *)
  mutable k_faults : (op:string -> Proc.t -> Errno.t option) list;
}

let ( let* ) = Result.bind

let charge t =
  Repro_obs.Metrics.incr t.k_syscalls;
  Clock.consume_int t.clock Cost.syscall_ns

let add_fault t hook = t.k_faults <- hook :: t.k_faults
let remove_fault t hook = t.k_faults <- List.filter (fun h -> h != hook) t.k_faults

(* [Ok ()] in the common (unhooked) case; charge still applies — a faulted
   syscall entered the kernel before failing. *)
let fault_check t proc op =
  match t.k_faults with
  | [] -> Ok ()
  | hooks -> (
      match List.find_map (fun hook -> hook ~op proc) hooks with None -> Ok () | Some e -> Error e)

(* Get-or-create a named counter on the kernel's registry — for cold
   paths where holding a handle isn't worth a record field. *)
let count t name n =
  Repro_obs.Metrics.add (Repro_obs.Metrics.counter (Repro_obs.Obs.metrics t.obs) name) n

let fresh_tag t =
  t.next_tag <- t.next_tag + 1;
  t.next_tag

let fresh_ns t kind = { Namespace.id = fresh_tag t; kind }
let fresh_uts t hostname = { Namespace.uts_id = fresh_tag t; hostname }

(* A new private namespace rooted at [fs], and the vnode of its root. *)
let new_mnt_ns t ~fs =
  let ns = Mount.create_ns t.mnt_ids ~fs in
  (ns, { Proc.v_mount = Mount.root_mount ns; v_ino = fs.Fsops.root })

let enter_new_mnt_ns t proc ~fs =
  let ns, root = new_mnt_ns t ~fs in
  proc.Proc.ns.Proc.mnt <- ns;
  proc.Proc.root <- root;
  proc.Proc.cwd <- root

(* Create a kernel whose init process (pid 1) runs as root on [root_fs].
   The host root mount is shared, as systemd sets it up. *)
let create ?obs ~clock ~root_fs () =
  let obs = match obs with Some o -> o | None -> Repro_obs.Obs.create () in
  let t =
    {
      clock;
      obs;
      k_syscalls = Repro_obs.Metrics.counter (Repro_obs.Obs.metrics obs) "os.syscall.count";
      procs = Hashtbl.create 64;
      next_pid = 2;
      mnt_ids = Mount.ids ();
      sock_bindings = Hashtbl.create 16;
      programs = Hashtbl.create 32;
      chardevs = Hashtbl.create 8;
      next_tag = 0;
      k_faults = [];
    }
  in
  let mnt_ns, root_vnode = new_mnt_ns t ~fs:root_fs in
  Mount.make_shared t.mnt_ids root_vnode.Proc.v_mount;
  let ns_set =
    {
      Proc.mnt = mnt_ns;
      pid_ns = { Namespace.pns_id = fresh_tag t; parent = None };
      net = fresh_ns t Namespace.Net;
      uts = fresh_uts t "host";
      ipc = fresh_ns t Namespace.Ipc;
      user = { Namespace.uns_id = fresh_tag t; uid_map = Namespace.identity_map; gid_map = Namespace.identity_map };
      cgroup_ns = fresh_ns t Namespace.Cgroup;
    }
  in
  let init =
    {
      Proc.pid = 1;
      ppid = 0;
      comm = "init";
      cred = { uid = 0; gid = 0; groups = [ 0 ]; caps = Caps.Set.full };
      ns = ns_set;
      cwd = root_vnode;
      root = root_vnode;
      fds = Hashtbl.create 8;
      next_fd = 3;
      env = [ ("PATH", "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin") ];
      cgroup = "/";
      lsm_profile = None;
      rlimit_fsize = None;
      umask = 0o022;
      exit_code = None;
    }
  in
  Hashtbl.replace t.procs 1 init;
  t

let init_proc t = Hashtbl.find t.procs 1

let proc_by_pid t pid =
  match Hashtbl.find_opt t.procs pid with Some p -> Ok p | None -> Error Errno.ESRCH

let all_procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)

(* Processes visible from a given pid namespace (it and its descendants). *)
let procs_in_pidns t pidns =
  all_procs t
  |> List.filter (fun p -> Namespace.pid_ns_visible_from ~outer:pidns p.Proc.ns.Proc.pid_ns)

(* --- path walking ------------------------------------------------------ *)

let vnode_stat v =
  v.Proc.v_mount.Mount.m_fs.Fsops.getattr v.Proc.v_ino

(* Descend through mounts stacked on [v] in namespace [ns]. *)
let rec descend_mounts ns v =
  match Mount.mount_on ns ~mid:v.Proc.v_mount.Mount.m_id ~ino:v.Proc.v_ino with
  | Some m -> descend_mounts ns { Proc.v_mount = m; v_ino = m.Mount.m_root }
  | None -> v

let max_symlink_depth = 40

(* Walk [path] starting from [base] (or the process root for absolute
   paths), honoring mounts, chroot and symlinks. *)
let resolve ?(follow = true) _t proc ~base path =
  let cred = Proc.vfs_cred proc in
  let ns = proc.Proc.ns.Proc.mnt in
  let rec loop depth cur comps =
    if depth > max_symlink_depth then Error Errno.ELOOP
    else
      match comps with
      | [] -> Ok cur
      | ".." :: rest ->
          if Proc.vnode_eq cur proc.Proc.root then loop depth cur rest
          else if cur.Proc.v_ino = cur.Proc.v_mount.Mount.m_root then (
            (* At a mount root: climb to the mountpoint in the parent mount
               and retry the "..". *)
            match cur.Proc.v_mount.Mount.m_mp with
            | None -> loop depth cur rest (* namespace root *)
            | Some (pmid, mp_ino) -> (
                match Mount.find ns pmid with
                | None -> Error Errno.EIO
                | Some pm ->
                    loop depth { Proc.v_mount = pm; v_ino = mp_ino } comps))
          else
            let fs = cur.Proc.v_mount.Mount.m_fs in
            let* ino, _st = fs.Fsops.lookup cred cur.Proc.v_ino ".." in
            loop depth { cur with Proc.v_ino = ino } rest
      | comp :: rest -> (
          let fs = cur.Proc.v_mount.Mount.m_fs in
          let* ino, st = fs.Fsops.lookup cred cur.Proc.v_ino comp in
          let next = descend_mounts ns { Proc.v_mount = cur.Proc.v_mount; v_ino = ino } in
          match st.Types.st_kind with
          | Types.Symlink when rest <> [] || follow ->
              let* target = fs.Fsops.readlink ino in
              let tcomps = Pathx.split target in
              if Pathx.is_absolute target then
                loop (depth + 1) proc.Proc.root (tcomps @ rest)
              else loop (depth + 1) cur (tcomps @ rest)
          | _ -> loop depth next rest)
  in
  let start = if Pathx.is_absolute path then proc.Proc.root else base in
  loop 0 start (Pathx.split path)

let resolve_cwd ?follow t proc path = resolve ?follow t proc ~base:proc.Proc.cwd path

(* Resolve the parent directory of [path] and return it with the final
   component (for create-style operations). *)
let resolve_parent t proc path =
  let comps = Pathx.split path in
  match List.rev comps with
  | [] -> Error Errno.EEXIST (* the root itself *)
  | last :: _ when last = ".." -> Error Errno.EINVAL
  | last :: rev_parent ->
      let parent_path =
        let comps = List.rev rev_parent in
        if Pathx.is_absolute path then Pathx.join_abs comps
        else if comps = [] then "."
        else String.concat "/" comps
      in
      let* dir = resolve_cwd t proc parent_path in
      Ok (dir, last)

(* --- fd helpers -------------------------------------------------------- *)

let file_of_fd proc fdn =
  match Proc.fd proc fdn with
  | Some (Proc.File f) -> Ok f
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

let fd_entry proc fdn =
  match Proc.fd proc fdn with Some e -> Ok e | None -> Error Errno.EBADF

(* --- open/close/read/write -------------------------------------------- *)

let chardev_of t st =
  match st.Types.st_kind with
  | Types.Chr (a, b) -> Hashtbl.find_opt t.chardevs (a, b)
  | _ -> None

let open_ t proc path flags ~mode =
  charge t;
  let* () = fault_check t proc "open" in
  let follow = not (List.mem Types.O_NOFOLLOW flags) in
  let resolved =
    match resolve_cwd ~follow t proc path with
    | Ok v ->
        if List.mem Types.O_CREAT flags && List.mem Types.O_EXCL flags then
          Error Errno.EEXIST
        else Ok (`Existing v)
    | Error Errno.ENOENT when List.mem Types.O_CREAT flags -> (
        match resolve_parent t proc path with
        | Ok (dir, name) -> Ok (`Create (dir, name))
        | Error e -> Error e)
    | Error e -> Error e
  in
  (* a fresh open file description for [v], on the lowest free fd *)
  let file v fh =
    Ok
      (Proc.alloc_fd proc
         (Proc.File
            { of_vnode = v; of_fh = fh; of_flags = flags; of_path = path; of_offset = 0; of_refs = 1 }))
  in
  let* r = resolved in
  match r with
  | `Existing v -> (
      let* st = vnode_stat v in
      match st.Types.st_kind with
      | Types.Symlink -> Error Errno.ELOOP (* O_NOFOLLOW on a symlink *)
      | Types.Chr _ when chardev_of t st <> None -> (
          let dev = Option.get (chardev_of t st) in
          match dev.dev_open with
          | Some f -> Ok (Proc.alloc_fd proc (f t proc))
          | None ->
              let fs = v.Proc.v_mount.Mount.m_fs in
              let* fh = fs.Fsops.open_ (Proc.vfs_cred proc) v.Proc.v_ino flags in
              file v fh)
      | _ ->
          let fs = v.Proc.v_mount.Mount.m_fs in
          let* fh = fs.Fsops.open_ (Proc.vfs_cred proc) v.Proc.v_ino flags in
          file v fh)
  | `Create (dir, name) ->
      let fs = dir.Proc.v_mount.Mount.m_fs in
      let mode = mode land lnot proc.Proc.umask in
      let* st, fh = fs.Fsops.create (Proc.vfs_cred proc) dir.Proc.v_ino name ~mode flags in
      file { Proc.v_mount = dir.Proc.v_mount; v_ino = st.Types.st_ino } fh

let release_file f =
  f.Proc.of_refs <- f.Proc.of_refs - 1;
  if f.Proc.of_refs = 0 then
    f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.release f.Proc.of_fh

(* Closing a watched fd drops it from every epoll interest set of the same
   process, as Linux does when the last reference to the file goes away. *)
let epoll_forget proc fdn =
  Hashtbl.iter
    (fun _ entry ->
      match entry with Proc.Epoll_fd e -> Epoll.remove e ~fd:fdn | _ -> ())
    proc.Proc.fds

let close t proc fdn =
  charge t;
  match Proc.fd proc fdn with
  | None -> Error Errno.EBADF
  | Some entry ->
      Hashtbl.remove proc.Proc.fds fdn;
      epoll_forget proc fdn;
      (match entry with
      | Proc.File f -> release_file f
      | Proc.Pipe_r p -> Pipe.close_reader p
      | Proc.Pipe_w p -> Pipe.close_writer p
      | Proc.Sock_listen l -> Sock.close_listener l
      | Proc.Sock_conn ep -> Sock.close_endpoint ep
      | Proc.Epoll_fd _ -> ()
      | Proc.Custom c -> c.Proc.c_close ());
      Ok ()

let dup t proc fdn =
  charge t;
  let* entry = fd_entry proc fdn in
  (match entry with
  | Proc.File f -> f.Proc.of_refs <- f.Proc.of_refs + 1
  | Proc.Pipe_r p -> Pipe.add_reader p
  | Proc.Pipe_w p -> Pipe.add_writer p
  | _ -> ());
  Ok (Proc.alloc_fd proc entry)

let file_kind f =
  match f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.getattr f.Proc.of_vnode.Proc.v_ino with
  | Ok st -> st.Types.st_kind
  | Error _ -> Types.Reg

let read_file t f ~len =
  let fs = f.Proc.of_vnode.Proc.v_mount.Mount.m_fs in
  match file_kind f with
  | Types.Chr (a, b) -> (
      match Hashtbl.find_opt t.chardevs (a, b) with
      | Some dev -> Ok (dev.dev_read ~len)
      | None -> Error Errno.ENXIO)
  | _ ->
      let* data = fs.Fsops.read f.Proc.of_fh ~off:f.Proc.of_offset ~len in
      f.Proc.of_offset <- f.Proc.of_offset + String.length data;
      Ok data

let read t proc fdn ~len =
  charge t;
  let* () = fault_check t proc "read" in
  let* entry = fd_entry proc fdn in
  match entry with
  | Proc.File f -> read_file t f ~len
  | Proc.Pipe_r p -> Pipe.read p ~len
  | Proc.Pipe_w _ -> Error Errno.EBADF
  | Proc.Sock_conn ep -> Sock.recv ep ~len
  | Proc.Sock_listen _ | Proc.Epoll_fd _ -> Error Errno.EINVAL
  | Proc.Custom c -> c.Proc.c_read ~len

(* The body of [write] and [write_padded]: [put fs cred fh ~off] writes
   the bytes into a file of [fs], [data ()] gives them to any other
   sink. *)
let write_with t proc fdn ~put ~data =
  charge t;
  let* () = fault_check t proc "write" in
  let* entry = fd_entry proc fdn in
  match entry with
  | Proc.File f -> (
      let fs = f.Proc.of_vnode.Proc.v_mount.Mount.m_fs in
      match file_kind f with
      | Types.Chr (a, b) -> (
          match Hashtbl.find_opt t.chardevs (a, b) with
          | Some dev -> Ok (dev.dev_write (data ()))
          | None -> Error Errno.ENXIO)
      | _ ->
          let* n = put fs (Proc.vfs_cred proc) f.Proc.of_fh ~off:f.Proc.of_offset in
          (* For O_APPEND files the fs wrote at EOF; either way the cursor
             advances by what was written. *)
          f.Proc.of_offset <- f.Proc.of_offset + n;
          Ok n)
  | Proc.Pipe_w p -> Pipe.write p (data ())
  | Proc.Pipe_r _ -> Error Errno.EBADF
  | Proc.Sock_conn ep -> Sock.send ep (data ())
  | Proc.Sock_listen _ | Proc.Epoll_fd _ -> Error Errno.EINVAL
  | Proc.Custom c -> c.Proc.c_write (data ())

let write t proc fdn data =
  write_with t proc fdn
    ~put:(fun fs cred fh ~off -> fs.Fsops.write cred fh ~off data)
    ~data:(fun () -> data)

let write_padded t proc nfs fdn header ~len fill =
  write_with t proc fdn
    ~put:(fun _ cred fh ~off -> Nativefs.write_padded nfs cred fh ~off header ~len fill)
    ~data:(fun () -> header ^ String.make (len - String.length header) fill)

let pread t proc fdn ~off ~len =
  charge t;
  let* () = fault_check t proc "pread" in
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.read f.Proc.of_fh ~off ~len

let pwrite t proc fdn ~off data =
  charge t;
  let* () = fault_check t proc "pwrite" in
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.write (Proc.vfs_cred proc) f.Proc.of_fh ~off data

let freadlink t proc fdn =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.readlink f.Proc.of_vnode.Proc.v_ino

let fsetattr t proc fdn sa =
  charge t;
  let* f = file_of_fd proc fdn in
  let fs = f.Proc.of_vnode.Proc.v_mount.Mount.m_fs in
  fs.Fsops.setattr (Proc.vfs_cred proc) f.Proc.of_vnode.Proc.v_ino sa

let fgetxattr t proc fdn name =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.getxattr f.Proc.of_vnode.Proc.v_ino name

let fsetxattr t proc fdn name value =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.setxattr (Proc.vfs_cred proc)
    f.Proc.of_vnode.Proc.v_ino name value

let flistxattr t proc fdn =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.listxattr f.Proc.of_vnode.Proc.v_ino

let fremovexattr t proc fdn name =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.removexattr (Proc.vfs_cred proc)
    f.Proc.of_vnode.Proc.v_ino name

type seek_cmd = SEEK_SET of int | SEEK_CUR of int | SEEK_END of int

let lseek t proc fdn cmd =
  charge t;
  let* f = file_of_fd proc fdn in
  let* st = vnode_stat f.Proc.of_vnode in
  let target =
    match cmd with
    | SEEK_SET n -> n
    | SEEK_CUR d -> f.Proc.of_offset + d
    | SEEK_END d -> st.Types.st_size + d
  in
  if target < 0 then Error Errno.EINVAL
  else begin
    f.Proc.of_offset <- target;
    Ok target
  end

let fsync t proc fdn =
  charge t;
  let* () = fault_check t proc "fsync" in
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.fsync f.Proc.of_fh

let fallocate t proc fdn ~off ~len =
  charge t;
  let* f = file_of_fd proc fdn in
  f.Proc.of_vnode.Proc.v_mount.Mount.m_fs.Fsops.fallocate f.Proc.of_fh ~off ~len

let ftruncate t proc fdn size =
  charge t;
  let* f = file_of_fd proc fdn in
  let fs = f.Proc.of_vnode.Proc.v_mount.Mount.m_fs in
  let sa = { Types.setattr_none with Types.sa_size = Some size } in
  let* _st = fs.Fsops.setattr (Proc.vfs_cred proc) f.Proc.of_vnode.Proc.v_ino sa in
  Ok ()

(* --- metadata syscalls ------------------------------------------------- *)

let stat t proc path =
  charge t;
  let* () = fault_check t proc "stat" in
  let* v = resolve_cwd t proc path in
  vnode_stat v

let lstat t proc path =
  charge t;
  let* () = fault_check t proc "lstat" in
  let* v = resolve_cwd ~follow:false t proc path in
  vnode_stat v

let fstat t proc fdn =
  charge t;
  let* f = file_of_fd proc fdn in
  vnode_stat f.Proc.of_vnode

let access t proc path want =
  charge t;
  let* v = resolve_cwd t proc path in
  let fs = v.Proc.v_mount.Mount.m_fs in
  let* st = fs.Fsops.getattr v.Proc.v_ino in
  let acl = Result.to_option (fs.Fsops.getxattr v.Proc.v_ino "system.posix_acl_access") in
  if
    Perm.check (Proc.vfs_cred proc) ~uid:st.Types.st_uid ~gid:st.Types.st_gid
      ~mode:st.Types.st_mode ?acl want
  then Ok ()
  else Error Errno.EACCES

let with_parent t proc path f =
  let* dir, name = resolve_parent t proc path in
  f dir.Proc.v_mount.Mount.m_fs dir.Proc.v_ino name

let mkdir t proc path ~mode =
  charge t;
  let* () = fault_check t proc "mkdir" in
  with_parent t proc path (fun fs dir name ->
      let mode = mode land lnot proc.Proc.umask in
      let* _st = fs.Fsops.mkdir (Proc.vfs_cred proc) dir name ~mode in
      Ok ())

let mknod t proc path ~kind ~mode =
  charge t;
  with_parent t proc path (fun fs dir name ->
      let* () =
        match kind with
        | Types.Chr _ | Types.Blk _ ->
            if Caps.Set.mem Caps.CAP_MKNOD proc.Proc.cred.Proc.caps then Ok ()
            else Error Errno.EPERM
        | _ -> Ok ()
      in
      let mode = mode land lnot proc.Proc.umask in
      let* _st = fs.Fsops.mknod (Proc.vfs_cred proc) dir name ~kind ~mode in
      Ok ())

let unlink t proc path =
  charge t;
  let* () = fault_check t proc "unlink" in
  with_parent t proc path (fun fs dir name ->
      fs.Fsops.unlink (Proc.vfs_cred proc) dir name)

let rmdir t proc path =
  charge t;
  let* () = fault_check t proc "rmdir" in
  with_parent t proc path (fun fs dir name ->
      fs.Fsops.rmdir (Proc.vfs_cred proc) dir name)

let symlink t proc ~target ~linkpath =
  charge t;
  with_parent t proc linkpath (fun fs dir name ->
      let* _st = fs.Fsops.symlink (Proc.vfs_cred proc) dir name ~target in
      Ok ())

let readlink t proc path =
  charge t;
  let* v = resolve_cwd ~follow:false t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.readlink v.Proc.v_ino

let rename t proc ~src ~dst =
  charge t;
  let* () = fault_check t proc "rename" in
  let* sdir, sname = resolve_parent t proc src in
  let* ddir, dname = resolve_parent t proc dst in
  if sdir.Proc.v_mount.Mount.m_id <> ddir.Proc.v_mount.Mount.m_id then
    Error Errno.EXDEV
  else
    sdir.Proc.v_mount.Mount.m_fs.Fsops.rename (Proc.vfs_cred proc)
      sdir.Proc.v_ino sname ddir.Proc.v_ino dname

let link t proc ~target ~linkpath =
  charge t;
  let* tv = resolve_cwd ~follow:false t proc target in
  let* ldir, lname = resolve_parent t proc linkpath in
  if tv.Proc.v_mount.Mount.m_id <> ldir.Proc.v_mount.Mount.m_id then
    Error Errno.EXDEV
  else
    let* _st =
      ldir.Proc.v_mount.Mount.m_fs.Fsops.link (Proc.vfs_cred proc)
        ~src:tv.Proc.v_ino ~dir:ldir.Proc.v_ino ~name:lname
    in
    Ok ()

(* linkat(src_fd, "", dst, AT_EMPTY_PATH): hardlink an open inode. *)
let link_fd t proc fdn ~linkpath =
  charge t;
  let* f = file_of_fd proc fdn in
  let* ldir, lname = resolve_parent t proc linkpath in
  if f.Proc.of_vnode.Proc.v_mount.Mount.m_id <> ldir.Proc.v_mount.Mount.m_id then
    Error Errno.EXDEV
  else
    let* _st =
      ldir.Proc.v_mount.Mount.m_fs.Fsops.link (Proc.vfs_cred proc)
        ~src:f.Proc.of_vnode.Proc.v_ino ~dir:ldir.Proc.v_ino ~name:lname
    in
    Ok ()

let setattr_path t proc path sa =
  charge t;
  let* v = resolve_cwd t proc path in
  let* _st = v.Proc.v_mount.Mount.m_fs.Fsops.setattr (Proc.vfs_cred proc) v.Proc.v_ino sa in
  Ok ()

let chmod t proc path mode =
  setattr_path t proc path { Types.setattr_none with Types.sa_mode = Some mode }

let chown t proc path ~uid ~gid =
  setattr_path t proc path { Types.setattr_none with Types.sa_uid = uid; sa_gid = gid }

let truncate t proc path size =
  setattr_path t proc path { Types.setattr_none with Types.sa_size = Some size }

let utimens t proc path ~atime ~mtime =
  setattr_path t proc path { Types.setattr_none with Types.sa_atime = atime; sa_mtime = mtime }

let readdir t proc path =
  charge t;
  let* () = fault_check t proc "readdir" in
  let* v = resolve_cwd t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.readdir (Proc.vfs_cred proc) v.Proc.v_ino

let setxattr t proc path name value =
  charge t;
  let* v = resolve_cwd t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.setxattr (Proc.vfs_cred proc) v.Proc.v_ino name value

let getxattr t proc path name =
  charge t;
  let* v = resolve_cwd t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.getxattr v.Proc.v_ino name

let listxattr t proc path =
  charge t;
  let* v = resolve_cwd t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.listxattr v.Proc.v_ino

let removexattr t proc path name =
  charge t;
  let* v = resolve_cwd t proc path in
  v.Proc.v_mount.Mount.m_fs.Fsops.removexattr (Proc.vfs_cred proc) v.Proc.v_ino name

let statfs t proc path =
  charge t;
  let* v = resolve_cwd t proc path in
  Ok (v.Proc.v_mount.Mount.m_fs.Fsops.statfs ())

let name_to_handle_at t proc ?(follow = true) path =
  charge t;
  let* v = resolve_cwd ~follow t proc path in
  let* h = v.Proc.v_mount.Mount.m_fs.Fsops.export_handle v.Proc.v_ino in
  Ok (v.Proc.v_mount.Mount.m_fs.Fsops.fs_id, h)

let open_by_handle_at t proc ?(flags = [ Types.O_RDONLY ]) (fs_id, handle) =
  charge t;
  (* Search the process's namespace for the filesystem. *)
  let ns = proc.Proc.ns.Proc.mnt in
  let found =
    Hashtbl.fold
      (fun _ m acc ->
        if m.Mount.m_fs.Fsops.fs_id = fs_id then Some m else acc)
      ns.Mount.mounts None
  in
  match found with
  | None -> Error Errno.EINVAL
  | Some m ->
      let* ino = m.Mount.m_fs.Fsops.open_by_handle handle in
      let* fh = m.Mount.m_fs.Fsops.open_ (Proc.vfs_cred proc) ino flags in
      let v = { Proc.v_mount = m; v_ino = ino } in
      let entry =
        Proc.File { of_vnode = v; of_fh = fh; of_flags = flags; of_path = "<handle>"; of_offset = 0; of_refs = 1 }
      in
      Ok (Proc.alloc_fd proc entry)

(* --- directories, roots, processes ------------------------------------ *)

let chdir t proc path =
  charge t;
  let* v = resolve_cwd t proc path in
  let* st = vnode_stat v in
  if st.Types.st_kind <> Types.Dir then Error Errno.ENOTDIR
  else begin
    proc.Proc.cwd <- v;
    Ok ()
  end

let chroot t proc path =
  charge t;
  if not (Caps.Set.mem Caps.CAP_SYS_CHROOT proc.Proc.cred.Proc.caps) then
    Error Errno.EPERM
  else
    let* v = resolve_cwd t proc path in
    let* st = vnode_stat v in
    if st.Types.st_kind <> Types.Dir then Error Errno.ENOTDIR
    else begin
      proc.Proc.root <- v;
      proc.Proc.cwd <- v;
      Ok ()
    end

let fork t proc =
  charge t;
  count t "os.proc.forks" 1;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  (* fds are shared open file descriptions, Linux-style. *)
  let fds = Hashtbl.copy proc.Proc.fds in
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Proc.File f -> f.Proc.of_refs <- f.Proc.of_refs + 1
      | Proc.Pipe_r p -> Pipe.add_reader p
      | Proc.Pipe_w p -> Pipe.add_writer p
      | _ -> ())
    fds;
  let child =
    {
      proc with
      Proc.pid;
      ppid = proc.Proc.pid;
      (* fresh cred and ns records: the child's setuid, setns and unshare
         are its own, while the namespaces themselves are shared *)
      cred = { proc.Proc.cred with Proc.uid = proc.Proc.cred.Proc.uid };
      ns = { proc.Proc.ns with Proc.mnt = proc.Proc.ns.Proc.mnt };
      fds;
      exit_code = None;
    }
  in
  Hashtbl.replace t.procs pid child;
  child

(* Close every fd, record the exit code and reap the process: no [wait]
   exists, so nothing reads the code from the table. *)
let exit t proc code =
  charge t;
  if Proc.alive proc then begin
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) proc.Proc.fds [] in
    List.iter (fun fd -> ignore (close t proc fd)) fds;
    proc.Proc.exit_code <- Some code;
    Hashtbl.remove t.procs proc.Proc.pid
  end

(* --- namespaces -------------------------------------------------------- *)

let unshare t proc kinds =
  charge t;
  if not (Caps.Set.mem Caps.CAP_SYS_ADMIN proc.Proc.cred.Proc.caps) then
    Error Errno.EPERM
  else begin
    count t "os.ns.unshare" (List.length kinds);
    List.iter
      (fun kind ->
        match kind with
        | Namespace.Mnt ->
            let ns, clone_of = Mount.clone_ns t.mnt_ids proc.Proc.ns.Proc.mnt in
            (* Re-anchor root/cwd on the clone of the mount they pointed
               into. *)
            let rebase v =
              match
                Option.bind (Hashtbl.find_opt clone_of v.Proc.v_mount.Mount.m_id) (Mount.find ns)
              with
              | Some m -> { v with Proc.v_mount = m }
              | None -> v
            in
            proc.Proc.root <- rebase proc.Proc.root;
            proc.Proc.cwd <- rebase proc.Proc.cwd;
            proc.Proc.ns.Proc.mnt <- ns
        | Namespace.Pid ->
            proc.Proc.ns.Proc.pid_ns <-
              { Namespace.pns_id = fresh_tag t; parent = Some proc.Proc.ns.Proc.pid_ns }
        | Namespace.Net -> proc.Proc.ns.Proc.net <- fresh_ns t Namespace.Net
        | Namespace.Uts ->
            proc.Proc.ns.Proc.uts <- fresh_uts t proc.Proc.ns.Proc.uts.Namespace.hostname
        | Namespace.Ipc -> proc.Proc.ns.Proc.ipc <- fresh_ns t Namespace.Ipc
        | Namespace.User ->
            proc.Proc.ns.Proc.user <-
              { Namespace.uns_id = fresh_tag t; uid_map = []; gid_map = [] }
        | Namespace.Cgroup -> proc.Proc.ns.Proc.cgroup_ns <- fresh_ns t Namespace.Cgroup)
      kinds;
    Ok ()
  end

(* setns(2): join the namespaces of [target_pid] for the given kinds.  This
   is the core primitive CNTR uses to attach (§3.2.2, §3.2.3). *)
let setns t proc ~target_pid kinds =
  charge t;
  if not (Caps.Set.mem Caps.CAP_SYS_ADMIN proc.Proc.cred.Proc.caps) then
    Error Errno.EPERM
  else
    let* target = proc_by_pid t target_pid in
    count t "os.ns.setns" (List.length kinds);
    List.iter
      (fun kind ->
        match kind with
        | Namespace.Mnt ->
            proc.Proc.ns.Proc.mnt <- target.Proc.ns.Proc.mnt;
            proc.Proc.root <- target.Proc.root;
            proc.Proc.cwd <- target.Proc.cwd
        | Namespace.Pid -> proc.Proc.ns.Proc.pid_ns <- target.Proc.ns.Proc.pid_ns
        | Namespace.Net -> proc.Proc.ns.Proc.net <- target.Proc.ns.Proc.net
        | Namespace.Uts -> proc.Proc.ns.Proc.uts <- target.Proc.ns.Proc.uts
        | Namespace.Ipc -> proc.Proc.ns.Proc.ipc <- target.Proc.ns.Proc.ipc
        | Namespace.User -> proc.Proc.ns.Proc.user <- target.Proc.ns.Proc.user
        | Namespace.Cgroup -> proc.Proc.ns.Proc.cgroup_ns <- target.Proc.ns.Proc.cgroup_ns)
      kinds;
    Ok ()

(* --- mounts ------------------------------------------------------------ *)

let require_admin proc =
  if Caps.Set.mem Caps.CAP_SYS_ADMIN proc.Proc.cred.Proc.caps then Ok ()
  else Error Errno.EPERM

(* The mount namespaces of live processes, each once, by ascending id.
   Path walks read only the caller's namespace, so one that no live
   process is in can never show a mount. *)
let live_mnt_namespaces t =
  all_procs t
  |> List.map (fun p -> p.Proc.ns.Proc.mnt)
  |> List.sort_uniq (fun a b -> compare a.Mount.ns_id b.Mount.ns_id)

(* Propagate a new mount to peers of a shared parent (other namespaces that
   share the peer group see the mount appear). *)
let propagate_mount t ~parent ~mp_ino ~fs ~root_ino =
  match parent.Mount.m_prop with
  | Mount.Private -> ()
  | Mount.Shared group ->
      let replica_group = Mount.fresh_group t.mnt_ids in
      List.iter
        (fun ns ->
          Hashtbl.iter
            (fun _ m ->
              if
                m.Mount.m_id <> parent.Mount.m_id
                && m.Mount.m_prop = Mount.Shared group
                && m.Mount.m_fs.Fsops.fs_id = parent.Mount.m_fs.Fsops.fs_id
              then
                ignore
                  (Mount.add t.mnt_ids ns ~parent:m.Mount.m_id ~mp_ino ~fs ~root_ino
                     ~prop:(Mount.Shared replica_group)))
            ns.Mount.mounts)
        (live_mnt_namespaces t)

let mount_at t proc ~fs target =
  charge t;
  let* () = require_admin proc in
  let* v = resolve_cwd t proc target in
  let* st = vnode_stat v in
  if st.Types.st_kind <> Types.Dir then Error Errno.ENOTDIR
  else begin
    let ns = proc.Proc.ns.Proc.mnt in
    let parent = v.Proc.v_mount in
    let root_ino = fs.Fsops.root in
    let m =
      Mount.add t.mnt_ids ns ~parent:parent.Mount.m_id ~mp_ino:v.Proc.v_ino ~fs ~root_ino
        ~prop:Mount.Private
    in
    propagate_mount t ~parent ~mp_ino:v.Proc.v_ino ~fs ~root_ino;
    Ok m
  end

(* bind mount: graft the subtree at [src] onto [dst]. *)
let bind_mount t proc ~src ~dst =
  charge t;
  let* () = require_admin proc in
  let* sv = resolve_cwd t proc src in
  let* dv = resolve_cwd t proc dst in
  let* sst = vnode_stat sv in
  let* dst_st = vnode_stat dv in
  (* A bind mount of a file onto a file is allowed (CNTR uses this for
     /etc/passwd etc.); kinds must agree in dir-ness. *)
  let src_is_dir = sst.Types.st_kind = Types.Dir in
  let dst_is_dir = dst_st.Types.st_kind = Types.Dir in
  if src_is_dir <> dst_is_dir then
    Error (if dst_is_dir then Errno.ENOTDIR else Errno.EISDIR)
  else begin
    let ns = proc.Proc.ns.Proc.mnt in
    let parent = dv.Proc.v_mount in
    let fs = sv.Proc.v_mount.Mount.m_fs in
    let m =
      Mount.add t.mnt_ids ns ~parent:parent.Mount.m_id ~mp_ino:dv.Proc.v_ino ~fs
        ~root_ino:sv.Proc.v_ino ~prop:Mount.Private
    in
    propagate_mount t ~parent ~mp_ino:dv.Proc.v_ino ~fs ~root_ino:sv.Proc.v_ino;
    Ok m
  end

let umount t proc target =
  charge t;
  let* () = require_admin proc in
  let* v = resolve_cwd t proc target in
  let ns = proc.Proc.ns.Proc.mnt in
  let m = v.Proc.v_mount in
  if v.Proc.v_ino <> m.Mount.m_root then Error Errno.EINVAL
  else if Mount.children ns m.Mount.m_id <> [] then Error Errno.EBUSY
  else if ns.Mount.root = m.Mount.m_id then Error Errno.EBUSY
  else begin
    Mount.remove ns m.Mount.m_id;
    Ok ()
  end

let make_rprivate t proc =
  charge t;
  let* () = require_admin proc in
  Mount.make_rprivate proc.Proc.ns.Proc.mnt;
  Ok ()

(* --- hostname, cgroups, rlimits, LSM ----------------------------------- *)

let gethostname _t proc = proc.Proc.ns.Proc.uts.Namespace.hostname

let sethostname t proc name =
  charge t;
  let* () = require_admin proc in
  proc.Proc.ns.Proc.uts.Namespace.hostname <- name;
  Ok ()

let cgroup_attach t proc ~cgroup =
  charge t;
  proc.Proc.cgroup <- cgroup

let cgroup_procs t cgroup =
  all_procs t |> List.filter_map (fun p -> if p.Proc.cgroup = cgroup then Some p.Proc.pid else None)

let set_rlimit_fsize _t proc limit = proc.Proc.rlimit_fsize <- limit

let apply_lsm_profile _t proc profile = proc.Proc.lsm_profile <- profile

(* --- pipes, splice, sockets, epoll ------------------------------------- *)

let pipe t proc =
  charge t;
  let p = Pipe.create () in
  let rfd = Proc.alloc_fd proc (Proc.Pipe_r p) in
  let wfd = Proc.alloc_fd proc (Proc.Pipe_w p) in
  (rfd, wfd)

(* splice(2): move bytes between two fds without copying through
   userspace.  Costs are the Cost splice prices: the fixed setup per call,
   plus a per-page remap for the bytes moved — no per-KiB copy, which is
   the point of splice.

   The pull from the source is clamped to what the destination can accept
   right now, so a partial sink can never strand bytes read out of the
   source: either the whole chunk moves, or it stays queued at the source.
   A full destination is EAGAIN before anything is consumed. *)
let splice t proc ~fd_in ~fd_out ~len =
  charge t;
  Clock.consume_int t.clock Cost.splice_setup_ns;
  let* inp = fd_entry proc fd_in in
  let* out = fd_entry proc fd_out in
  let* cap =
    match out with
    | Proc.Pipe_w p ->
        if not (Pipe.has_readers p) then Error Errno.EPIPE else Ok (Pipe.room p)
    | Proc.Sock_conn ep -> Sock.send_capacity ep
    | Proc.File _ | Proc.Custom _ -> Ok max_int
    | _ -> Error Errno.EINVAL
  in
  let len = max 0 (min len cap) in
  if len = 0 then Error Errno.EAGAIN
  else
    let* data =
      match inp with
      | Proc.Pipe_r p -> Pipe.read p ~len
      | Proc.Sock_conn ep -> Sock.recv ep ~len
      | Proc.File f -> read_file t f ~len
      | Proc.Custom c -> c.Proc.c_read ~len
      | _ -> Error Errno.EINVAL
    in
    if data = "" then Ok 0
    else
      let* n =
        match out with
        | Proc.Pipe_w p -> Pipe.write p data
        | Proc.Sock_conn ep -> Sock.send ep data
        | Proc.File f -> (
            let fs = f.Proc.of_vnode.Proc.v_mount.Mount.m_fs in
            let* n = fs.Fsops.write (Proc.vfs_cred proc) f.Proc.of_fh ~off:f.Proc.of_offset data in
            f.Proc.of_offset <- f.Proc.of_offset + n;
            Ok n)
        | Proc.Custom c -> c.Proc.c_write data
        | _ -> Error Errno.EINVAL
      in
      Clock.consume_int t.clock (Cost.splice_page_ns * Cost.pages_of_bytes n);
      Ok n

(* shutdown(fd, SHUT_WR): half-close the send direction; the peer drains
   queued bytes then reads EOF.  Sockets only. *)
let shutdown_write t proc fdn =
  charge t;
  let* entry = fd_entry proc fdn in
  match entry with
  | Proc.Sock_conn ep ->
      Sock.shutdown_write ep;
      Ok ()
  | _ -> Error Errno.ENOTSOCK

(* Abortive close (SO_LINGER 0 + close): the fd goes away and both ends of
   the connection observe ECONNRESET, queued bytes discarded. *)
let socket_abort t proc fdn =
  charge t;
  let* entry = fd_entry proc fdn in
  match entry with
  | Proc.Sock_conn ep ->
      Hashtbl.remove proc.Proc.fds fdn;
      epoll_forget proc fdn;
      Sock.abort ep;
      Ok ()
  | _ -> Error Errno.ENOTSOCK

(* SCM_RIGHTS-style fd passing: the open description moves from [src]'s
   table into [dst]'s (ownership transfers, no refcount change).  Returns
   the fd number in [dst]. *)
let pass_fd t ~src ~dst fdn =
  charge t;
  let* entry = fd_entry src fdn in
  Hashtbl.remove src.Proc.fds fdn;
  Ok (Proc.alloc_fd dst entry)

let socket_listen ?backlog t proc path =
  charge t;
  let* dir, name = resolve_parent t proc path in
  let fs = dir.Proc.v_mount.Mount.m_fs in
  let cred = Proc.vfs_cred proc in
  let* () =
    match fs.Fsops.lookup cred dir.Proc.v_ino name with
    | Ok _ -> Error Errno.EADDRINUSE
    | Error Errno.ENOENT -> Ok ()
    | Error e -> Error e
  in
  let* st = fs.Fsops.mknod cred dir.Proc.v_ino name ~kind:Types.Sock ~mode:0o755 in
  let listener = Sock.listen ?backlog () in
  Hashtbl.replace t.sock_bindings (fs.Fsops.fs_id, st.Types.st_ino) listener;
  Ok (Proc.alloc_fd proc (Proc.Sock_listen listener))

let socket_connect t proc path =
  charge t;
  let* v = resolve_cwd t proc path in
  let* st = vnode_stat v in
  if st.Types.st_kind <> Types.Sock then Error Errno.ECONNREFUSED
  else
    (* The binding is keyed by the *presenting* filesystem's identity: a
       socket file seen through a FUSE mount has a different (fs_id, ino)
       than the underlying socket, so the connection fails — the paper's
       motivation for the CNTR socket proxy. *)
    match
      Hashtbl.find_opt t.sock_bindings
        (v.Proc.v_mount.Mount.m_fs.Fsops.fs_id, v.Proc.v_ino)
    with
    | None -> Error Errno.ECONNREFUSED
    | Some listener ->
        let* ep = Sock.connect listener in
        Ok (Proc.alloc_fd proc (Proc.Sock_conn ep))

let socket_accept t proc fdn =
  charge t;
  let* entry = fd_entry proc fdn in
  match entry with
  | Proc.Sock_listen l ->
      let* ep = Sock.accept l in
      Ok (Proc.alloc_fd proc (Proc.Sock_conn ep))
  | _ -> Error Errno.EINVAL

let epoll_create t proc =
  charge t;
  Proc.alloc_fd proc (Proc.Epoll_fd (Epoll.create ()))

let probes_of_entry entry : Epoll.probes =
  match entry with
  | Proc.Pipe_r p -> { Epoll.p_readable = (fun () -> Pipe.readable p); p_writable = (fun () -> false) }
  | Proc.Pipe_w p -> { Epoll.p_readable = (fun () -> false); p_writable = (fun () -> Pipe.writable p) }
  | Proc.Sock_conn ep ->
      { Epoll.p_readable = (fun () -> Sock.readable ep); p_writable = (fun () -> Sock.writable ep) }
  | Proc.Sock_listen l ->
      { Epoll.p_readable = (fun () -> Sock.pending l > 0); p_writable = (fun () -> false) }
  | Proc.Custom c -> { Epoll.p_readable = c.Proc.c_readable; p_writable = c.Proc.c_writable }
  | Proc.File _ | Proc.Epoll_fd _ ->
      { Epoll.p_readable = (fun () -> true); p_writable = (fun () -> true) }

let epoll_of proc fdn =
  match Proc.fd proc fdn with
  | Some (Proc.Epoll_fd e) -> Ok e
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF

(* Wire the epoll's wakeup callback into the object's waitqueue so state
   transitions fire {!Epoll.fire_notify}.  Wakers are append-only: adding
   the same fd twice stacks a (harmless, spurious) second wakeup. *)
let watch_entry entry notify =
  match entry with
  | Proc.Pipe_r p | Proc.Pipe_w p -> Pipe.add_waker p notify
  | Proc.Sock_conn ep -> Sock.add_waker ep notify
  | Proc.Sock_listen l -> Sock.add_listener_waker l notify
  | Proc.File _ | Proc.Epoll_fd _ | Proc.Custom _ -> ()

let epoll_add t proc ~epfd ~fd ~interest =
  charge t;
  let* ep = epoll_of proc epfd in
  let* entry = fd_entry proc fd in
  Epoll.add ep ~fd ~interest ~probes:(probes_of_entry entry);
  watch_entry entry (fun () -> Epoll.fire_notify ep);
  Ok ()

(* EPOLL_CTL_MOD re-arm: reset the fd's edge state so the next
   epoll_wait_edge reports current readiness afresh.  A consumer that
   drained to EAGAIN re-arms before parking, closing the window where a
   readiness flap between two edge waits would go unreported. *)
let epoll_rearm t proc ~epfd ~fd =
  charge t;
  let* ep = epoll_of proc epfd in
  Epoll.rearm ep ~fd;
  Ok ()

let epoll_del t proc ~epfd ~fd =
  charge t;
  let* ep = epoll_of proc epfd in
  Epoll.remove ep ~fd;
  Ok ()

let epoll_wait t proc epfd =
  charge t;
  let* ep = epoll_of proc epfd in
  Ok (Epoll.wait ep)

let epoll_wait_edge t proc epfd =
  charge t;
  let* ep = epoll_of proc epfd in
  Ok (Epoll.wait_edge ep)

(* Simulation hook, not a syscall: install the callback the waitqueues of
   watched fds fire.  A reactor parks on its scheduler and this wakes it. *)
let epoll_set_notify _t proc ~epfd f =
  let* ep = epoll_of proc epfd in
  Epoll.set_notify ep f;
  Ok ()

(* --- programs and exec -------------------------------------------------- *)

let register_program t name prog = Hashtbl.replace t.programs name prog

let program_exists t name = Hashtbl.mem t.programs name

(* Read [path] to its end through the filesystem in 256 KiB reads,
   charging every syscall, and fold [f] over the chunks read.  The fd is
   closed whether or not a read fails; a read's error wins over close's. *)
let fold_file t proc path f init =
  let* fdn = open_ t proc path [ Types.O_RDONLY ] ~mode:0 in
  let rec go acc =
    let* chunk = read t proc fdn ~len:(256 * 1024) in
    if chunk = "" then Ok acc else go (f acc chunk)
  in
  let folded = go init in
  let closed = close t proc fdn in
  let* acc = folded in
  let* () = closed in
  Ok acc

(* Chunks gathered newest first, as one string: a lone chunk as read,
   several joined once. *)
let join_rev = function [] -> "" | [ c ] -> c | cs -> String.concat "" (List.rev cs)

let read_whole t proc path =
  let* chunks = fold_file t proc path (fun cs c -> c :: cs) [] in
  Ok (join_rev chunks)

(* Keep a binary's bytes up to its first newline, all that [Binfmt.parse]
   reads.  [exec] still reads the file to its end, so it is charged every
   read a whole-file load is charged. *)
let add_header parts chunk =
  match parts with
  | last :: _ when String.ends_with ~suffix:"\n" last -> parts
  | _ -> (
      match String.index_opt chunk '\n' with
      | Some i -> String.sub chunk 0 (i + 1) :: parts
      | None -> chunk :: parts)

(* execve: load the binary via the filesystem (mmap), decode the binfmt
   header, and run the registered program synchronously.  Returns the
   program's exit code. *)
let rec exec t proc path args =
  charge t;
  count t "os.proc.execs" 1;
  let* () = access t proc path Types.x_ok in
  let* v = resolve_cwd t proc path in
  let fs = v.Proc.v_mount.Mount.m_fs in
  let* fh = fs.Fsops.open_ (Proc.vfs_cred proc) v.Proc.v_ino [ Types.O_RDONLY ] in
  (* Executing requires mmap support (FUSE: mmap and direct I/O are
     mutually exclusive, which is why CNTR chose mmap — §5.1). *)
  if not (fs.Fsops.supports_mmap fh) then begin
    fs.Fsops.release fh;
    Error Errno.ENOSYS
  end
  else begin
    fs.Fsops.release fh;
    let* header = fold_file t proc path add_header [] in
    match Binfmt.parse (join_rev header) with
    | None -> Error Errno.ENOSYS
    | Some (Binfmt.Script interp) -> exec t proc interp (interp :: path :: List.tl args)
    | Some (Binfmt.Bin name) -> (
        match Hashtbl.find_opt t.programs name with
        | None -> Error Errno.ENOSYS
        | Some prog ->
            let saved_comm = proc.Proc.comm in
            proc.Proc.comm <- name;
            let code = prog t proc args in
            proc.Proc.comm <- saved_comm;
            Ok code)
  end

(* --- chardevs ----------------------------------------------------------- *)

let register_chardev t ~major ~minor dev = Hashtbl.replace t.chardevs (major, minor) dev

(* --- diagnostics -------------------------------------------------------- *)

let mounts_of_ns ns =
  Hashtbl.fold (fun _ m acc -> m :: acc) ns.Mount.mounts []
  |> List.sort (fun a b -> compare a.Mount.m_id b.Mount.m_id)
