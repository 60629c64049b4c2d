(** The kernel-side FUSE driver: a {!Repro_vfs.Fsops.t} whose operations
    become protocol requests on a {!Conn.t}.  Owns the caches that make
    FUSE bearable — dentry/attribute caches and a data-bearing page cache
    with FOPEN_KEEP_CACHE and writeback semantics — and implements the
    batching and splice transports of the paper's §3.3.

    Deliberate limitations reproduce the paper's xfstests failures:
    O_DIRECT opens fail (generic/391), inodes are not exportable
    (generic/426), and RLIMIT_FSIZE / setgid-clearing are lost because the
    server replays operations under its own credential (generic/228, /375). *)

open Repro_vfs

type t

(** Build a driver over a connection.  [budget] is the page-cache memory
    budget shared with the backing filesystem's cache — the source of the
    paper's double-buffering pressure. *)
val create : conn:Conn.t -> opts:Opts.t -> budget:Mem_budget.t -> t

(** The filesystem interface to hand to {!Repro_os.Kernel.mount_at}. *)
val ops : t -> Fsops.t

(** {1 Supervised-session recovery}

    After the CntrFS server crashes, the mount and the driver's caches
    survive; these two calls let [Repro_cntrfs.Session.recover] relaunch
    the server without remounting. *)

(** The driver's live inode map: [(ino, path relative to the server root,
    nlookup)] for every inode reachable through the dentry cache, in
    deterministic (DFS, name-ordered) order.  Feed to
    [Repro_cntrfs.Server.restore] so the relaunched server speaks the same
    ino space. *)
val ino_paths : t -> (int * string * int) list

(** Reopen every open driver handle against a relaunched server and rebuild
    the writeback-fh map.  Handles whose inode did not survive are marked
    dead (subsequent use fails [EBADF]). *)
val on_server_restart : t -> unit
