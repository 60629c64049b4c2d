(** Wiring: FUSE connection + kernel-side driver + passthrough server = a
    mountable CntrFS, and the one place that wires it.  [cntr attach]
    ([Repro_cntr.Attach]) builds its session over the /dev/fuse connection
    it opened in step #1 and mounts it inside the nested namespace; the
    xfstests harness, the benchmarks and the tests pass a fresh
    {!Conn.create}. *)

open Repro_os
open Repro_vfs
open Repro_fuse

type t = {
  kernel : Kernel.t;
  root_path : string;
  opts : Opts.t;
  conn : Conn.t;
  driver : Driver.t;
  mutable server : Server.t;  (** swapped by {!recover} *)
  mutable server_proc : Proc.t;  (** the serving process; swapped by {!recover} *)
  fs : Fsops.t;  (** mount this with {!Kernel.mount_at} *)
  fault : Repro_fault.Fault.t option;  (** the armed plane, when any *)
  backing_hook : (op:string -> Proc.t -> Repro_util.Errno.t option) option;
      (** the plane's backing-fault hook, on the kernel until {!close} *)
}

(** Create a serving session over [conn]: [server_proc] serves [root_path]
    out of its own mount namespace, with [threads] worker fibers on the
    connection's scheduler.  [budget] is the page-cache budget the driver
    shares with the backing filesystems (double-buffering pressure).

    [fault] arms a fault plan over the whole session from the moment the
    server launches: the connection consults it while serving, and the
    kernel's backing syscalls consult it for the server's process (tracked
    across {!recover}).  [retry] arms per-request deadlines with
    idempotent-opcode retry.  With neither, the plane is off and the
    session behaves byte-identically to one built before the plane
    existed. *)
val create :
  kernel:Kernel.t ->
  conn:Conn.t ->
  server_proc:Proc.t ->
  root_path:string ->
  ?opts:Opts.t ->
  ?threads:int ->
  ?fault:Repro_fault.Fault.plan ->
  ?retry:Repro_fault.Fault.retry ->
  budget:Mem_budget.t ->
  unit ->
  t

val fs : t -> Fsops.t

(** The session's observability handle (the connection's): all [fuse.*],
    [cntrfs.*] and [vfs.page_cache.fuse.*] metrics for this mount land
    here, plus the queue metrics ([fuse.queue.depth.*], [fuse.inflight*],
    [cntrfs.worker.<i>.busy_ns]). *)
val obs : t -> Repro_obs.Obs.t

(** The armed fault plane, when the session was created with one. *)
val fault : t -> Repro_fault.Fault.t option

(** Relaunch the CntrFS server after a crash: fork a replacement from the
    dead server (inheriting its namespace view), replay the driver's inode
    map into it ({!Server.restore}), swap the handler, revive the
    connection and reopen the driver's file handles.  The mount and the
    driver caches survive.  The one recovery path: [cntr attach] recovers
    through it too.  Counts under [session.recoveries]. *)
val recover : t -> unit

(** Close the session: send DESTROY to the server (its open handles and
    passthrough grants die), exit the server process, end the connection's
    worker fibers ({!Repro_fuse.Conn.close}) and remove the session's
    backing-fault hook from the kernel, leaving every other session's hook
    in place.  A second call is a no-op. *)
val close : t -> unit

(** Teardown barrier: wait until every queued request (including one-way
    forgets/releases) has been served. *)
val quiesce : t -> unit
