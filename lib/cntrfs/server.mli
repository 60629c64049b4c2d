(** The CNTRFS userspace server: a FUSE passthrough filesystem running as a
    process (usually root) inside the fat container or on the host,
    translating protocol requests into kernel syscalls against its own
    mount namespace.

    Faithful details from the paper: every LOOKUP costs a server-side
    open()+stat() pair for hardlink detection (the compilebench/postmark
    bottleneck, §5.2.2); operations are replayed with only fsuid/fsgid
    switched to the caller (setfsuid emulation), which is why RLIMIT_FSIZE
    (generic/228) and setgid-clearing (generic/375) behave like the server.
    Per-inode file handles keep hardlinked or recreated-under-the-same-name
    inodes reachable after their looked-up path goes stale. *)

open Repro_os
open Repro_fuse

type t

(** [create ~sched ~kernel ~proc ~root_path ~opts] serves [root_path]
    (resolved in [proc]'s namespace — "/" of the fat container after
    setns).  {!Repro_cntrfs.Session.create} is its one caller.

    Three fields of [opts] shape the server.  [handle_cache] bounds the LRU
    handle cache keyed by backing (dev, ino): a hit re-serves a
    known-valid LOOKUP without the open()+stat() pair (counters
    [cntrfs.handle_cache.hits|misses|evictions], derived
    [cntrfs.handle_cache.hit_ratio]); 0, the paper's behaviour, disables
    it.  [entry_timeout_ns] and [attr_timeout_ns] are the validity windows
    stamped into READDIRPLUS replies.  [passthrough] caps the LRU of
    passthrough grants the server keeps live at once (0 = the plane is off
    and OPEN never grants).  A granted OPEN replies [R_open_pt] with a
    capability onto the backing file; grants are revoked on LRU overflow
    and on any server-side mutation of the inode, and die uncounted with
    their handle on RELEASE/DESTROY.

    The inode map and the handle cache are guarded by fixed-size lock
    tables on [sched], hash-sharded on the backing inode (same sharding as
    the FUSE dirop locks).  The guarded segments consume no virtual time,
    so the holds are zero-width — semantically real, timing-free. *)
val create :
  sched:Repro_sched.Sched.t ->
  kernel:Kernel.t ->
  proc:Proc.t ->
  root_path:string ->
  opts:Opts.t ->
  t

(** The request handler to install with {!Conn.set_handler}. *)
val handle : t -> Protocol.ctx -> Protocol.req -> Protocol.resp

(** Recovery: teach a freshly created server an existing driver ino space —
    [(ino, path relative to the server root, nlookup)] triples from
    [Repro_fuse.Driver.ino_paths].  Paths are revalidated against the
    backing store (charged like the original lookups); names that vanished
    while the server was down are skipped. *)
val restore : t -> (int * string * int) list -> unit
