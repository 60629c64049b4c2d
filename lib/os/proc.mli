(** Process records: credentials, namespace set, working/root directory
    (vnodes), file-descriptor table, environment, cgroup and LSM context —
    the "container context" CNTR gathers in step #1 and re-applies in step
    #3 (§3.2 of the paper).  [custom_payload] is the extension point for
    driver-specific fds (/dev/fuse connections).  A record is the one
    owner of these facts: the kernel keeps no table beside it. *)

open Repro_util
open Repro_vfs

type vnode = { v_mount : Mount.mount; v_ino : Types.ino; }
val vnode_eq : vnode -> vnode -> bool
type os_cred = {
  mutable uid : int;
  mutable gid : int;
  mutable groups : int list;
  mutable caps : Caps.Set.t;
}
type custom_payload = ..
type custom_payload += No_payload
type custom_fd = {
  c_name : string;
  c_read : len:int -> (string, Errno.t) result;
  c_write : string -> (int, Errno.t) result;
  c_close : unit -> unit;
  c_readable : unit -> bool;
  c_writable : unit -> bool;
  c_payload : custom_payload;
}
type open_file = {
  of_vnode : vnode;
  of_fh : Fsops.fh;
  of_flags : Types.open_flag list;
  of_path : string;
  mutable of_offset : int;
  mutable of_refs : int;
}
type fd_entry =
    File of open_file
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
val vfs_cred : t -> Types.cred

(** [exit_code = None].  The kernel drops an exited process from its
    table, so only holders of its record still see it. *)
val alive : t -> bool
val getenv : t -> string -> string option
val setenv : t -> string -> string -> unit
val alloc_fd : t -> fd_entry -> int
val fd : t -> int -> fd_entry option
