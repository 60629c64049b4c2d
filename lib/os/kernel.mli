(** The simulated kernel: process table, the mount forest, path walking
    and the syscall surface everything else programs against.

    Every syscall takes the kernel and the calling process; permissions,
    namespaces, chroot and rlimits are those of the caller.  All costs are
    charged to the world's virtual clock through {!Repro_util.Cost}.

    Every id a kernel hands out — pids, namespace tags, mount,
    mount-namespace and peer-group ids — comes from the kernel's own
    counters, so a world's ids do not depend on the other kernels of the
    process.  Each fact has one owner: a process's namespaces, cgroup and
    liveness are in its {!Proc.t}, a hostname in its UTS namespace, and
    the kernel keeps no table beside them. *)

open Repro_util
open Repro_vfs

(** A registered program: the implementation behind an executable file (see
    {!Binfmt}).  Receives the kernel, the calling process and argv; returns
    the exit code.  Runs synchronously. *)
type program = t -> Proc.t -> string list -> int

(** A character device implementation.  When [dev_open] is set, opening the
    device node produces a custom fd (e.g. /dev/fuse creates a connection)
    instead of a plain file. *)
and chardev = {
  dev_name : string;
  dev_read : len:int -> string;
  dev_write : string -> int;
  dev_open : (t -> Proc.t -> Proc.fd_entry) option;
}

and t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
      (** the kernel's observability handle — shared with the FUSE/CntrFS
          layers so [os.*], [fuse.*] and [vfs.*] counters land together *)
  k_syscalls : Repro_obs.Metrics.counter;  (** hot handle for [os.syscall.count] *)
  procs : (int, Proc.t) Hashtbl.t;
      (** every live process by pid; {!exit} removes a process, and with
          it goes whatever only its record held (its mount namespace and
          that namespace's mounts, a FUSE mount's driver and page cache) *)
  mutable next_pid : int;
  mnt_ids : Mount.ids;
      (** this kernel's mount, mount-namespace and peer-group ids, like
          [next_pid] and [next_tag] *)
  sock_bindings : (int * int, Sock.listener) Hashtbl.t;
      (** Unix-socket bindings keyed by (fs_id, ino) — which is why sockets
          seen through a FUSE mount don't connect (§3.2.4) *)
  programs : (string, program) Hashtbl.t;
  chardevs : (int * int, chardev) Hashtbl.t;
  mutable next_tag : int;
  mutable k_faults : (op:string -> Proc.t -> Errno.t option) list;
      (** fault-injection hooks for file/metadata syscalls (see {!add_fault}) *)
}

(** Boot a kernel whose init process (pid 1) runs as root on [root_fs];
    the root mount starts shared, as systemd configures it.  Syscalls,
    fork/exec and namespace transitions are counted on [obs] (a private
    handle when omitted) under [os.syscall.count], [os.proc.forks],
    [os.proc.execs], [os.ns.unshare] and [os.ns.setns]. *)
val create : ?obs:Repro_obs.Obs.t -> clock:Clock.t -> root_fs:Fsops.t -> unit -> t

val init_proc : t -> Proc.t

(** A live process; [ESRCH] for an unknown or exited pid. *)
val proc_by_pid : t -> int -> (Proc.t, Errno.t) result

(** Processes visible from a PID namespace (itself and its descendants). *)
val procs_in_pidns : t -> Namespace.pid_ns -> Proc.t list

(** Add a fault-injection hook.  Every hook is consulted on entry to the
    file/metadata syscalls ("open", "read", "write", "pread", "pwrite",
    "stat", "lstat", "mkdir", "unlink", "rmdir", "rename", "readdir",
    "fsync") with the calling process; the first errno returned fails the
    call before it reaches the filesystem.  Each armed CntrFS session adds
    a closure filtered to its server's process, so transient backing-store
    errors (EINTR/ENOMEM/EIO/ENOSPC) hit that server exactly as if the
    host fs had returned them, and sessions never disarm each other.  No
    hook costs one branch. *)
val add_fault : t -> (op:string -> Proc.t -> Errno.t option) -> unit

(** Remove a hook {!add_fault} added (compared physically); absent ones
    are ignored. *)
val remove_fault : t -> (op:string -> Proc.t -> Errno.t option) -> unit

(** {1 Files} *)

val open_ :
  t -> Proc.t -> string -> Types.open_flag list -> mode:int -> (int, Errno.t) result

val close : t -> Proc.t -> int -> (unit, Errno.t) result
val dup : t -> Proc.t -> int -> (int, Errno.t) result
val read : t -> Proc.t -> int -> len:int -> (string, Errno.t) result
val write : t -> Proc.t -> int -> string -> (int, Errno.t) result

(** [write_padded t proc fs fd header ~len fill] is [write t proc fd] of
    [header] followed by [len - String.length header] copies of [fill],
    and charges exactly what that write charges.  When [fd] is open on a
    regular file of [fs] the bytes are never built: whole 64 KiB chunks of
    the fill share one pad (see {!Repro_vfs.Fdata.write_padded}).  Any
    other sink gets the rendered bytes.  [fd] must not name a file of
    another filesystem. *)
val write_padded :
  t -> Proc.t -> Nativefs.t -> int -> string -> len:int -> char -> (int, Errno.t) result
val pread : t -> Proc.t -> int -> off:int -> len:int -> (string, Errno.t) result
val pwrite : t -> Proc.t -> int -> off:int -> string -> (int, Errno.t) result

type seek_cmd = SEEK_SET of int | SEEK_CUR of int | SEEK_END of int

val lseek : t -> Proc.t -> int -> seek_cmd -> (int, Errno.t) result
val fsync : t -> Proc.t -> int -> (unit, Errno.t) result
val fallocate : t -> Proc.t -> int -> off:int -> len:int -> (unit, Errno.t) result
val ftruncate : t -> Proc.t -> int -> int -> (unit, Errno.t) result

(** Read a whole file through the filesystem (charging its costs). *)
val read_whole : t -> Proc.t -> string -> (string, Errno.t) result

(** Decrement an open file description's refcount, releasing at zero. *)
val release_file : Proc.open_file -> unit

(** {1 Metadata} *)

val stat : t -> Proc.t -> string -> (Types.stat, Errno.t) result
val lstat : t -> Proc.t -> string -> (Types.stat, Errno.t) result
val fstat : t -> Proc.t -> int -> (Types.stat, Errno.t) result

(** access(2) with {!Types.r_ok}/[w_ok]/[x_ok] bits; evaluates ACLs. *)
val access : t -> Proc.t -> string -> int -> (unit, Errno.t) result

val mkdir : t -> Proc.t -> string -> mode:int -> (unit, Errno.t) result
val mknod : t -> Proc.t -> string -> kind:Types.kind -> mode:int -> (unit, Errno.t) result
val unlink : t -> Proc.t -> string -> (unit, Errno.t) result
val rmdir : t -> Proc.t -> string -> (unit, Errno.t) result
val symlink : t -> Proc.t -> target:string -> linkpath:string -> (unit, Errno.t) result
val readlink : t -> Proc.t -> string -> (string, Errno.t) result
val rename : t -> Proc.t -> src:string -> dst:string -> (unit, Errno.t) result
val link : t -> Proc.t -> target:string -> linkpath:string -> (unit, Errno.t) result

(** linkat(fd, "", dst, AT_EMPTY_PATH): hardlink an open inode. *)
val link_fd : t -> Proc.t -> int -> linkpath:string -> (unit, Errno.t) result

val setattr_path : t -> Proc.t -> string -> Types.setattr -> (unit, Errno.t) result
val chmod : t -> Proc.t -> string -> int -> (unit, Errno.t) result
val chown : t -> Proc.t -> string -> uid:int option -> gid:int option -> (unit, Errno.t) result
val truncate : t -> Proc.t -> string -> int -> (unit, Errno.t) result

val utimens :
  t -> Proc.t -> string -> atime:int64 option -> mtime:int64 option -> (unit, Errno.t) result

val readdir : t -> Proc.t -> string -> (Types.dirent list, Errno.t) result
val statfs : t -> Proc.t -> string -> (Types.statfs, Errno.t) result

(** {1 Extended attributes} *)

val setxattr : t -> Proc.t -> string -> string -> string -> (unit, Errno.t) result
val getxattr : t -> Proc.t -> string -> string -> (string, Errno.t) result
val listxattr : t -> Proc.t -> string -> (string list, Errno.t) result
val removexattr : t -> Proc.t -> string -> string -> (unit, Errno.t) result

(** fd-based variants (used by the CntrFS server when a looked-up path has
    gone stale but the inode survives through a handle). *)

val freadlink : t -> Proc.t -> int -> (string, Errno.t) result
val fsetattr : t -> Proc.t -> int -> Types.setattr -> (Types.stat, Errno.t) result
val fgetxattr : t -> Proc.t -> int -> string -> (string, Errno.t) result
val fsetxattr : t -> Proc.t -> int -> string -> string -> (unit, Errno.t) result
val flistxattr : t -> Proc.t -> int -> (string list, Errno.t) result
val fremovexattr : t -> Proc.t -> int -> string -> (unit, Errno.t) result

(** {1 File handles (open_by_handle_at)} *)

(** Export a persistent handle for a path ([follow] defaults true).
    Filesystems with ephemeral inodes (CntrFS) return [ENOTSUP]. *)
val name_to_handle_at :
  t -> Proc.t -> ?follow:bool -> string -> (int * string, Errno.t) result

(** Reopen a handle ([flags] default read-only). *)
val open_by_handle_at :
  t -> Proc.t -> ?flags:Types.open_flag list -> int * string -> (int, Errno.t) result

(** {1 Processes} *)

val chdir : t -> Proc.t -> string -> (unit, Errno.t) result

(** chroot(2); requires CAP_SYS_CHROOT.  ".." cannot escape the new root. *)
val chroot : t -> Proc.t -> string -> (unit, Errno.t) result

(** fork(2): fds become shared open file descriptions, Linux-style. *)
val fork : t -> Proc.t -> Proc.t

(** Close all fds, record the exit code and remove the process from
    [procs] (reap it: nothing waits for an exit code). *)
val exit : t -> Proc.t -> int -> unit

(** unshare(2) for the given namespace kinds; requires CAP_SYS_ADMIN.
    Unsharing [Mnt] clones the mount table (propagation groups preserved);
    unsharing [Uts] copies the hostname into the fresh namespace. *)
val unshare : t -> Proc.t -> Namespace.kind list -> (unit, Errno.t) result

(** setns(2): join [target_pid]'s namespaces — the primitive CNTR attaches
    with (§3.2.2, §3.2.3).  Requires CAP_SYS_ADMIN. *)
val setns : t -> Proc.t -> target_pid:int -> Namespace.kind list -> (unit, Errno.t) result

(** {1 Mounts} *)

(** Mount [fs]'s root over the directory [target]; propagates to shared
    peers in the mount namespaces of live processes. *)
val mount_at : t -> Proc.t -> fs:Fsops.t -> string -> (Mount.mount, Errno.t) result

(** Bind mount: graft the subtree (or single file) at [src] onto [dst]. *)
val bind_mount : t -> Proc.t -> src:string -> dst:string -> (Mount.mount, Errno.t) result

val umount : t -> Proc.t -> string -> (unit, Errno.t) result

(** mount --make-rprivate /: detach every mount of the caller's namespace
    from its peer group, so new mounts stop propagating (§3.2.3). *)
val make_rprivate : t -> Proc.t -> (unit, Errno.t) result

(** Simulation hook, not a syscall: move [proc] into a fresh private mount
    namespace whose one mount is [fs]'s root, which becomes its root and
    cwd — how a runtime sandboxes a container on its image rootfs, and
    how the image tools work inside one.  Charges nothing. *)
val enter_new_mnt_ns : t -> Proc.t -> fs:Fsops.t -> unit

val mounts_of_ns : Mount.ns -> Mount.mount list

(** {1 Identity, cgroups, limits} *)

val gethostname : t -> Proc.t -> string

(** Rename the caller's UTS namespace, for every process in it. *)
val sethostname : t -> Proc.t -> string -> (unit, Errno.t) result
val cgroup_attach : t -> Proc.t -> cgroup:string -> unit

(** The live processes in a cgroup, by ascending pid. *)
val cgroup_procs : t -> string -> int list
val set_rlimit_fsize : t -> Proc.t -> int option -> unit
val apply_lsm_profile : t -> Proc.t -> string option -> unit

(** {1 IPC: pipes, sockets, epoll} *)

val pipe : t -> Proc.t -> int * int

(** splice(2): move bytes between fds without a userspace copy.  Charges
    the per-call setup plus a per-page remap ({!Repro_util.Cost.splice_cost});
    the pull is clamped to the destination's free room so a partial sink
    never strands bytes ([EAGAIN] before anything is consumed when the
    destination is full). *)
val splice : t -> Proc.t -> fd_in:int -> fd_out:int -> len:int -> (int, Errno.t) result

(** shutdown(fd, SHUT_WR): half-close the send direction — the peer drains
    what is queued, then reads EOF.  [ENOTSOCK] on non-sockets. *)
val shutdown_write : t -> Proc.t -> int -> (unit, Errno.t) result

(** Abortive close (SO_LINGER 0): the fd goes away, both connection ends
    observe [ECONNRESET], queued bytes are discarded. *)
val socket_abort : t -> Proc.t -> int -> (unit, Errno.t) result

(** SCM_RIGHTS-style fd passing: move an open description from [src]'s fd
    table to [dst]'s; returns the new fd number. *)
val pass_fd : t -> src:Proc.t -> dst:Proc.t -> int -> (int, Errno.t) result

(** Bind + listen on a Unix socket at [path] (creates the socket file).
    [backlog] bounds connections awaiting accept; beyond it connects are
    refused. *)
val socket_listen : ?backlog:int -> t -> Proc.t -> string -> (int, Errno.t) result

(** Connect to the socket file at [path].  The binding is keyed by the
    *presenting* filesystem's identity, so connecting through a FUSE view
    of the socket fails with [ECONNREFUSED]. *)
val socket_connect : t -> Proc.t -> string -> (int, Errno.t) result

val socket_accept : t -> Proc.t -> int -> (int, Errno.t) result
val epoll_create : t -> Proc.t -> int
val epoll_add : t -> Proc.t -> epfd:int -> fd:int -> interest:Epoll.interest -> (unit, Errno.t) result

(** EPOLL_CTL_MOD re-arm: reset the fd's edge state so the next
    {!epoll_wait_edge} reports current readiness as a fresh transition.
    Consumers re-arm after draining to [EAGAIN], before parking. *)
val epoll_rearm : t -> Proc.t -> epfd:int -> fd:int -> (unit, Errno.t) result

val epoll_del : t -> Proc.t -> epfd:int -> fd:int -> (unit, Errno.t) result
val epoll_wait : t -> Proc.t -> int -> (Epoll.event list, Errno.t) result

(** Edge-triggered wait: only readiness transitions since the previous
    [epoll_wait_edge] on this instance (see {!Repro_os.Epoll.wait_edge}). *)
val epoll_wait_edge : t -> Proc.t -> int -> (Epoll.event list, Errno.t) result

(** Simulation hook (not a syscall): the callback fired when a watched
    fd's waitqueue wakes this epoll — how a reactor parked on its
    scheduler learns that readiness may have changed.  {!epoll_add} wires
    watched pipes/sockets/listeners to it. *)
val epoll_set_notify :
  t -> Proc.t -> epfd:int -> (unit -> unit) option -> (unit, Errno.t) result

(** {1 Programs and devices} *)

val register_program : t -> string -> program -> unit
val program_exists : t -> string -> bool

(** execve: check the x bit, load the binary through the filesystem (mmap —
    which FUSE direct-I/O files cannot provide), decode the {!Binfmt}
    header and run the registered program.  Shebang scripts re-exec their
    interpreter. *)
val exec : t -> Proc.t -> string -> string list -> (int, Errno.t) result

val register_chardev : t -> major:int -> minor:int -> chardev -> unit
