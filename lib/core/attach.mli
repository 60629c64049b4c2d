(** [cntr attach]: the paper's four-step workflow (§3.2).

    Attaching builds a nested mount namespace inside a running application
    container: CntrFS (serving the tools side — host or fat container)
    becomes the root filesystem, the application's filesystem is re-anchored
    at [/var/lib/cntr], its [/proc], [/dev] and key [/etc] files are
    bind-mounted over the tools view, and an interactive shell starts on a
    pseudo-TTY with the container's environment, capabilities and LSM
    profile applied. *)

open Repro_os
open Repro_vfs

(** Where the auxiliary tools come from (§2.4). *)
type tools_location =
  | From_host  (** serve the launching namespace's filesystem (usually the host) *)
  | From_container of string  (** serve a named "fat" container's filesystem *)

(** Attach configuration.  Build one with record update over {!Config.default}
    ([{ Config.default with tools = From_container "debug" }]) so call sites
    survive new fields. *)
module Config : sig
  type t = {
    from : Proc.t option;
        (** the process launching cntr; [None] = the host's init.  A process
            inside a privileged container yields the paper's §7
            nested-container design. *)
    tools : tools_location;  (** where the tool filesystem comes from *)
    opts : Repro_fuse.Opts.t;  (** FUSE mount options *)
    threads : int;  (** CntrFS server threads *)
    fault : Repro_fault.Fault.plan option;
        (** arm a deterministic fault plan over the session *)
    retry : Repro_fault.Fault.retry option;
        (** per-request deadlines + idempotent-opcode retry *)
  }

  (** [From_host], {!Repro_fuse.Opts.cntr_default}, 4 threads, no faults,
      no retry. *)
  val default : t
end

(** A live attach session. *)
type session = {
  sn_kernel : Kernel.t;
  sn_shell_proc : Proc.t;  (** the shell process, inside the nested namespace *)
  sn_cntr_proc : Proc.t;  (** the cntr frontend process *)
  sn_tty : Tty.t;  (** pseudo-TTY master side *)
  sn_plane : Repro_proxy.Proxy.t;
      (** the forwarding plane carrying the TTY stream and socket proxies *)
  sn_cntrfs : Repro_cntrfs.Session.t;
      (** the CntrFS mount built in step #2: the /dev/fuse connection
          (statistics live here), driver, server process and fault plane *)
  sn_ctx : Context.t;  (** the container context captured in step #1 *)
  sn_app_pid : int;  (** pid of the application container's main process *)
  mutable sn_detached : bool;  (** set by the first {!detach} *)
}

(** The mountpoint of the nested root inside the application container's
    filesystem (created by step #3; invisible to the application itself). *)
val tmp_mountpoint : string

(** [attach ~kernel ~engines ~budget ~config name] performs steps #1–#4
    against the container named (or id-prefixed) [name].  [config] defaults
    to {!Config.default}; a config with a [fault] plan or [retry] policy
    arms the deterministic fault plane over the session's FUSE connection
    and the server's backing syscalls when step #2 builds the session, so
    the plan also covers the requests of the attach's own setup.  A failed
    attach leaves nothing behind: the processes it forked have exited and
    the session it built is closed ({!Repro_cntrfs.Session.close}). *)
val attach :
  kernel:Kernel.t ->
  engines:Repro_runtime.Engine.engines ->
  budget:Mem_budget.t ->
  ?config:Config.t ->
  string ->
  (session, Repro_util.Errno.t) result

(** Run one shell command line inside the session; returns the exit code and
    everything written to the pseudo-TTY. *)
val run : session -> string -> int * string

(** Tear the session down: the shell and server exit and the nested
    namespace disappears; the application container is untouched.
    Idempotent: a second call is a no-op. *)
val detach : session -> unit

(** [with_session ~kernel ~engines ~budget name f] — bracket: attach with
    {!Config.default}, apply [f], always detach (even when [f] raises).
    [f] may detach early itself; the finalizer's detach is then a no-op. *)
val with_session :
  kernel:Kernel.t ->
  engines:Repro_runtime.Engine.engines ->
  budget:Mem_budget.t ->
  string ->
  (session -> 'a) ->
  ('a, Repro_util.Errno.t) result

(** {2 Fault plane: test hooks and recovery} *)

(** The armed fault plane, when the session was configured with one. *)
val fault : session -> Repro_fault.Fault.t option

(** Test hook: kill the CntrFS server out from under the session.  Queued
    and future requests resolve to [ENOTCONN] (in bounded virtual time)
    until {!recover}. *)
val crash_server : session -> unit

(** Test hook: the server sits on the next request for [ns] virtual
    nanoseconds — long enough to trip an armed deadline. *)
val hang_server : session -> ns:int -> unit

(** Relaunch the CntrFS server after a crash with
    {!Repro_cntrfs.Session.recover}.  The mount, the shell and the driver
    caches survive.  Counts under [session.recoveries]. *)
val recover : session -> unit

(** The container context captured during step #1. *)
val context : session -> Context.t

(** The session's forwarding plane: add socket forwarders to it with
    {!Repro_proxy.Proxy.forward} (the dbus / ssh-agent forwarding of
    §3.2.4).  {!detach} closes it. *)
val proxy : session -> Repro_proxy.Proxy.t

(** The session's observability handle (shared with the kernel): all
    [fuse.*], [cntrfs.*], [vfs.*] and [os.*] metrics of the attach. *)
val obs : session -> Repro_obs.Obs.t

(** Human-readable FUSE traffic summary of the session: request counts by
    kind, transfer volumes, page-cache hit rate, server-side lookups,
    lookup amplification, syscall and context-switch totals — plus a
    faults line (injections, retries, timeouts, recoveries) when the fault
    plane saw any action.  All views over the registry on {!obs}. *)
val report : session -> string
