(* Process records: credentials, namespace set, working/root directory
   (vnodes), file-descriptor table, environment, cgroup and LSM context.
   This is the "container context" CNTR gathers in step #1 and re-applies
   in step #3 (§3.2 of the paper). *)

open Repro_vfs

(* A position in the forest of mounted filesystems: which mount, which
   inode inside it. *)
type vnode = { v_mount : Mount.mount; v_ino : Types.ino }

let vnode_eq a b = a.v_mount.Mount.m_id = b.v_mount.Mount.m_id && a.v_ino = b.v_ino

type os_cred = {
  mutable uid : int;
  mutable gid : int;
  mutable groups : int list;
  mutable caps : Caps.Set.t;
}

(* Extension point for driver-specific fds (/dev/fuse connections, PTYs). *)
type custom_payload = ..
type custom_payload += No_payload

type custom_fd = {
  c_name : string;
  c_read : len:int -> (string, Repro_util.Errno.t) result;
  c_write : string -> (int, Repro_util.Errno.t) result;
  c_close : unit -> unit;
  c_readable : unit -> bool;
  c_writable : unit -> bool;
  c_payload : custom_payload;
}

(* An open file description (shared across dup/fork, like Linux). *)
type open_file = {
  of_vnode : vnode;
  of_fh : Fsops.fh;
  of_flags : Types.open_flag list;
  of_path : string;
  mutable of_offset : int;
  mutable of_refs : int;
}

type fd_entry =
  | File of open_file
  | Pipe_r of Pipe.t
  | Pipe_w of Pipe.t
  | Sock_listen of Sock.listener
  | Sock_conn of Sock.endpoint
  | Epoll_fd of Epoll.t
  | Custom of custom_fd

type ns_set = {
  mutable mnt : Mount.ns;
  mutable pid_ns : Namespace.pid_ns;
  mutable net : Namespace.t;
  mutable uts : Namespace.uts_ns;
  mutable ipc : Namespace.t;
  mutable user : Namespace.user_ns;
  mutable cgroup_ns : Namespace.t;
}

type t = {
  pid : int;
  ppid : int;
  mutable comm : string;
  cred : os_cred;
  ns : ns_set;
  mutable cwd : vnode;
  mutable root : vnode;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable env : (string * string) list;
  mutable cgroup : string;
  mutable lsm_profile : string option;
  mutable rlimit_fsize : int option;
  mutable umask : int;
  mutable exit_code : int option;
}

(* Project the process credential into the slice filesystems understand.
   RLIMIT_FSIZE rides along because Linux enforces it at the writing task
   (see Vfs.Types.cred). *)
let vfs_cred t : Types.cred = {
  Types.uid = t.cred.uid;
  gid = t.cred.gid;
  groups = t.cred.groups;
  cap_dac_override = Caps.Set.mem Caps.CAP_DAC_OVERRIDE t.cred.caps;
  cap_fowner = Caps.Set.mem Caps.CAP_FOWNER t.cred.caps;
  cap_chown = Caps.Set.mem Caps.CAP_CHOWN t.cred.caps;
  cap_fsetid = Caps.Set.mem Caps.CAP_FSETID t.cred.caps;
  rlimit_fsize = t.rlimit_fsize;
}

(* An exited process keeps its record, and exit code, in the kernel. *)
let alive t = match t.exit_code with None -> true | Some _ -> false

let getenv t name = List.assoc_opt name t.env

let setenv t name value =
  t.env <- (name, value) :: List.remove_assoc name t.env

let alloc_fd t entry =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd entry;
  fd

let fd t n = Hashtbl.find_opt t.fds n
