(* Synthesized /proc.  CNTR's step #1 reads a container's execution context
   out of here: namespaces, environment, capabilities, cgroup, LSM profile,
   uid/gid maps (§3.2.1).  Each instance is scoped to a PID namespace, so a
   container's /proc only shows its own processes while the host /proc
   shows everything.

   Nothing here is stored per process: an inode number encodes its node
   ([ino_of_node]), [node_of_ino] decodes it, and every read renders from
   the live [Proc.t]. *)

open Repro_util
open Repro_vfs

type node =
  | Root
  | Pid_dir of int
  | Pid_file of int * string (* status, environ, cmdline, cgroup, mounts, limits, uid_map, gid_map *)
  | Ns_dir of int
  | Ns_file of int * Namespace.kind
  | Attr_dir of int
  | Attr_file of int

let pid_files = [ "status"; "environ"; "cmdline"; "cgroup"; "mounts"; "limits"; "uid_map"; "gid_map" ]

(* Node [k] of pid [p] is inode [p * 1000 + k]: the directory at 100, its
   files from 101, ns/ at 120 and its links from 121 (in
   [Namespace.all_kinds] order), attr/ at 140 and attr/current at 141. *)
let ino_of_node =
  let index l x = Option.get (List.find_index (( = ) x) l) in
  function
  | Root -> 1
  | Pid_dir p -> (p * 1000) + 100
  | Pid_file (p, name) -> (p * 1000) + 101 + index pid_files name
  | Ns_dir p -> (p * 1000) + 120
  | Ns_file (p, kind) -> (p * 1000) + 121 + index Namespace.all_kinds kind
  | Attr_dir p -> (p * 1000) + 140
  | Attr_file p -> (p * 1000) + 141

(* The inverse of [ino_of_node]. *)
let node_of_ino ino =
  let p = ino / 1000 in
  let nth l i = Option.to_result ~none:Errno.ENOENT (List.nth_opt l i) in
  if ino = 1 then Ok Root
  else if p < 1 then Error Errno.ENOENT
  else
    match ino mod 1000 with
    | 100 -> Ok (Pid_dir p)
    | 120 -> Ok (Ns_dir p)
    | 140 -> Ok (Attr_dir p)
    | 141 -> Ok (Attr_file p)
    | k when k > 100 && k < 120 -> Result.map (fun f -> Pid_file (p, f)) (nth pid_files (k - 101))
    | k when k > 120 && k < 140 ->
        Result.map (fun kind -> Ns_file (p, kind)) (nth Namespace.all_kinds (k - 121))
    | _ -> Error Errno.ENOENT

type t = {
  kernel : Kernel.t;
  pidns : Namespace.pid_ns;
  fs_id : int;
  (* Open handles snapshot the generated content. *)
  handles : (int, string) Hashtbl.t;
  mutable next_fh : int;
}

let create ~kernel ~pidns =
  { kernel; pidns; fs_id = Clock.fresh_fs_id kernel.Kernel.clock; handles = Hashtbl.create 8; next_fh = 1 }

let ( let* ) = Result.bind

let proc_of t pid =
  match Kernel.proc_by_pid t.kernel pid with
  | Ok p when Namespace.pid_ns_visible_from ~outer:t.pidns p.Proc.ns.Proc.pid_ns -> Ok p
  | Ok _ -> Error Errno.ENOENT
  | Error _ -> Error Errno.ENOENT

(* --- content generation ------------------------------------------------ *)

let render_status (p : Proc.t) =
  let caps = p.Proc.cred.Proc.caps in
  let groups = String.concat " " (List.map string_of_int p.Proc.cred.Proc.groups) in
  Printf.sprintf
    "Name:\t%s\nPid:\t%d\nPPid:\t%d\nUid:\t%d\t%d\t%d\t%d\nGid:\t%d\t%d\t%d\t%d\nGroups:\t%s\nCapEff:\t%s\nSeccomp:\t0\n"
    p.Proc.comm p.Proc.pid p.Proc.ppid p.Proc.cred.Proc.uid p.Proc.cred.Proc.uid
    p.Proc.cred.Proc.uid p.Proc.cred.Proc.uid p.Proc.cred.Proc.gid
    p.Proc.cred.Proc.gid p.Proc.cred.Proc.gid p.Proc.cred.Proc.gid groups
    (Caps.Set.to_hex caps)

let render_environ (p : Proc.t) =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s=%s\000" k v) p.Proc.env)

let render_cgroup (p : Proc.t) = Printf.sprintf "0::%s\n" p.Proc.cgroup

let render_mounts (p : Proc.t) =
  Kernel.mounts_of_ns p.Proc.ns.Proc.mnt
  |> List.map (fun m ->
         Printf.sprintf "%d %s %s ino%d rw" m.Mount.m_id m.Mount.m_fs.Fsops.fs_name
           (match m.Mount.m_prop with
           | Mount.Private -> "private"
           | Mount.Shared g -> Printf.sprintf "shared:%d" g)
           m.Mount.m_root)
  |> String.concat "\n"

let render_limits (p : Proc.t) =
  let fsize =
    match p.Proc.rlimit_fsize with
    | None -> "unlimited"
    | Some n -> string_of_int n
  in
  Printf.sprintf "Limit                     Soft Limit           Hard Limit           Units\nMax file size             %s            %s            bytes\n"
    fsize fsize

let render_map map =
  Namespace.(
    List.map (fun m -> Printf.sprintf "%10d %10d %10d\n" m.inside m.outside m.count) map)
  |> String.concat ""

let render_pid_file t p name =
  let* proc = proc_of t p in
  match name with
  | "status" -> Ok (render_status proc)
  | "environ" -> Ok (render_environ proc)
  | "cmdline" -> Ok (proc.Proc.comm ^ "\000")
  | "cgroup" -> Ok (render_cgroup proc)
  | "mounts" -> Ok (render_mounts proc)
  | "limits" -> Ok (render_limits proc)
  | "uid_map" -> Ok (render_map proc.Proc.ns.Proc.user.Namespace.uid_map)
  | "gid_map" -> Ok (render_map proc.Proc.ns.Proc.user.Namespace.gid_map)
  | _ -> Error Errno.ENOENT

let ns_id_of (proc : Proc.t) kind =
  match kind with
  | Namespace.Mnt -> proc.Proc.ns.Proc.mnt.Mount.ns_id
  | Namespace.Pid -> proc.Proc.ns.Proc.pid_ns.Namespace.pns_id
  | Namespace.Net -> proc.Proc.ns.Proc.net.Namespace.id
  | Namespace.Uts -> proc.Proc.ns.Proc.uts.Namespace.uts_id
  | Namespace.Ipc -> proc.Proc.ns.Proc.ipc.Namespace.id
  | Namespace.User -> proc.Proc.ns.Proc.user.Namespace.uns_id
  | Namespace.Cgroup -> proc.Proc.ns.Proc.cgroup_ns.Namespace.id

let render_content t node =
  match node with
  | Root | Pid_dir _ | Ns_dir _ | Attr_dir _ -> Ok ""
  | Pid_file (p, name) -> render_pid_file t p name
  | Ns_file (p, kind) ->
      let* proc = proc_of t p in
      Ok (Printf.sprintf "%s:[%d]" (Namespace.kind_to_string kind) (ns_id_of proc kind))
  | Attr_file p ->
      let* proc = proc_of t p in
      Ok (Option.value ~default:"unconfined" proc.Proc.lsm_profile ^ "\n")

let is_dir_node = function
  | Root | Pid_dir _ | Ns_dir _ | Attr_dir _ -> true
  | Pid_file _ | Ns_file _ | Attr_file _ -> false

let kind_of_node = function
  | Root | Pid_dir _ | Ns_dir _ | Attr_dir _ -> Types.Dir
  | Ns_file _ -> Types.Symlink
  | Pid_file _ | Attr_file _ -> Types.Reg

let stat_of t ino node =
  let uid, gid =
    match node with
    | Root -> (0, 0)
    | Pid_dir p | Pid_file (p, _) | Ns_dir p | Ns_file (p, _) | Attr_dir p | Attr_file p -> (
        match proc_of t p with
        | Ok proc -> (proc.Proc.cred.Proc.uid, proc.Proc.cred.Proc.gid)
        | Error _ -> (0, 0))
  in
  let size =
    match render_content t node with Ok s -> String.length s | Error _ -> 0
  in
  {
    Types.st_ino = ino;
    st_kind = kind_of_node node;
    st_mode = (if is_dir_node node then 0o555 else 0o444);
    st_uid = uid;
    st_gid = gid;
    st_nlink = 1;
    st_size = size;
    st_atime = 0L;
    st_mtime = 0L;
    st_ctime = 0L;
  }

let lookup t _cred dir name =
  let* node = node_of_ino dir in
  let* child =
    match (node, name) with
    | Root, pid_str -> (
        match int_of_string_opt pid_str with
        | Some pid ->
            let* _p = proc_of t pid in
            Ok (Pid_dir pid)
        | None -> Error Errno.ENOENT)
    | Pid_dir p, "ns" -> Ok (Ns_dir p)
    | Pid_dir p, "attr" -> Ok (Attr_dir p)
    | Pid_dir p, f when List.mem f pid_files ->
        let* _p = proc_of t p in
        Ok (Pid_file (p, f))
    | Ns_dir p, k -> (
        match
          List.find_opt (fun kind -> Namespace.kind_to_string kind = k) Namespace.all_kinds
        with
        | Some kind -> Ok (Ns_file (p, kind))
        | None -> Error Errno.ENOENT)
    | Attr_dir p, "current" -> Ok (Attr_file p)
    | _ -> Error Errno.ENOENT
  in
  let ino = ino_of_node child in
  Ok (ino, stat_of t ino child)

let getattr t ino =
  let* node = node_of_ino ino in
  Ok (stat_of t ino node)

let readdir t _cred ino =
  let* node = node_of_ino ino in
  let entries =
    match node with
    | Root ->
        Kernel.procs_in_pidns t.kernel t.pidns
        |> List.map (fun p -> (string_of_int p.Proc.pid, Pid_dir p.Proc.pid))
    | Pid_dir p ->
        ("ns", Ns_dir p) :: ("attr", Attr_dir p) :: List.map (fun f -> (f, Pid_file (p, f))) pid_files
    | Ns_dir p ->
        List.map (fun kind -> (Namespace.kind_to_string kind, Ns_file (p, kind))) Namespace.all_kinds
    | Attr_dir p -> [ ("current", Attr_file p) ]
    | Pid_file _ | Ns_file _ | Attr_file _ -> []
  in
  if not (is_dir_node node) then Error Errno.ENOTDIR
  else
    Ok
      (List.map
         (fun (name, child) ->
           { Types.d_ino = ino_of_node child; d_name = name; d_kind = kind_of_node child })
         entries)

let open_ t _cred ino _flags =
  let* node = node_of_ino ino in
  if is_dir_node node then Error Errno.EISDIR
  else
    let* content = render_content t node in
    let fh = t.next_fh in
    t.next_fh <- fh + 1;
    Hashtbl.replace t.handles fh content;
    Ok fh

let read t fh ~off ~len =
  match Hashtbl.find_opt t.handles fh with
  | None -> Error Errno.EBADF
  | Some content ->
      if off >= String.length content then Ok ""
      else Ok (String.sub content off (min len (String.length content - off)))

let readlink t ino =
  let* node = node_of_ino ino in
  match node with
  | Ns_file _ ->
      (* ns links are magic: their "target" is the namespace tag, not a
         path; readlink exposes the tag text. *)
      render_content t node
  | _ -> Error Errno.EINVAL

let eperm5 _ _ _ _ _ = Error Errno.EPERM

let ops t : Fsops.t = {
  fs_name = "proc";
  fs_id = t.fs_id;
  root = 1;
  lookup = lookup t;
  forget = (fun _ -> ());
  getattr = getattr t;
  setattr = (fun _ _ _ -> Error Errno.EPERM);
  readlink = readlink t;
  mknod = (fun _ _ _ ~kind:_ ~mode:_ -> Error Errno.EPERM);
  mkdir = (fun _ _ _ ~mode:_ -> Error Errno.EPERM);
  unlink = (fun _ _ _ -> Error Errno.EPERM);
  rmdir = (fun _ _ _ -> Error Errno.EPERM);
  symlink = (fun _ _ _ ~target:_ -> Error Errno.EPERM);
  rename = eperm5;
  link = (fun _ ~src:_ ~dir:_ ~name:_ -> Error Errno.EPERM);
  open_ = open_ t;
  create = (fun _ _ _ ~mode:_ _ -> Error Errno.EPERM);
  read = read t;
  write = (fun _ _ ~off:_ _ -> Error Errno.EPERM);
  flush = (fun _ -> Ok ());
  release = (fun fh -> Hashtbl.remove t.handles fh);
  fsync = (fun _ -> Ok ());
  fallocate = (fun _ ~off:_ ~len:_ -> Error Errno.EPERM);
  readdir = readdir t;
  setxattr = (fun _ _ _ _ -> Error Errno.EPERM);
  getxattr = (fun _ _ -> Error Errno.ENODATA);
  listxattr = (fun _ -> Ok []);
  removexattr = (fun _ _ _ -> Error Errno.EPERM);
  statfs =
    (fun () ->
      { Types.f_fsname = "proc"; f_bsize = 4096; f_blocks = 0; f_bfree = 0; f_files = 0 });
  export_handle = (fun _ -> Error Errno.ENOTSUP);
  open_by_handle = (fun _ -> Error Errno.ENOTSUP);
  supports_mmap = (fun _ -> false);
  supports_direct_io = false;
}
