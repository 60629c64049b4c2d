(** The forwarding plane (§3.2.4): an event-driven data path carrying
    Unix-socket connections and the attach pseudo-TTY stream between the
    container view and the host.

    One reactor fiber per plane parks on its scheduler and blocks in
    {!Repro_os.Kernel.epoll_wait_edge} (edge-triggered — no busy polling);
    watched fds' waitqueues wake it through the epoll notify hook.  Each
    proxied connection runs two per-direction pump fibers that splice bytes
    through a bounded in-kernel staging pipe ({!Splice}), or copy them
    through userspace ({!Copy}, the baseline the bench compares against).
    Backpressure is EAGAIN-driven: a pump that cannot make progress re-arms
    its edge state and parks until the reactor kicks it.  EOF and
    half-close propagate per direction independently: draining a source to
    EOF shuts down only the paired write side, so an interactive peer can
    keep talking the other way.

    All plane fds live in the plane's own process; connection endpoints
    accepted or dialed in other processes are moved in with
    {!Repro_os.Kernel.pass_fd} (SCM_RIGHTS style).

    Metrics (registry of the kernel's obs handle):
    [proxy.connections.active] (gauge, summed over the kernel's planes),
    [proxy.connections.total],
    [proxy.connections.refused], [proxy.bytes.c2b], [proxy.bytes.b2c],
    [proxy.bytes.unflushed], [proxy.splice.calls], [proxy.buffer.stalls],
    [proxy.loop.wakeups].

    Fault plans address the plane through the [proxy] site:
    [proxy accept ...] gates new connections, [proxy data ...] in-flight
    transfers.  Delay/hang stall the event on the virtual clock; crash,
    drop and fail refuse the connection or abort it — both ends observe a
    bounded [ECONNRESET], never a hang. *)

open Repro_util
open Repro_os

(** [Splice] moves bytes with splice(2) through the staging pipe — per-page
    remap cost, no userspace copy.  [Copy] is the read/write relay with
    per-KiB copy charges on both sides. *)
type mode = Splice | Copy

type t

(** [create ~kernel ~proc ()] builds a plane whose fds live in [proc] and
    spawns its reactor on a fresh scheduler over the kernel's clock,
    keeping event ordering independent of other subsystems' schedulers;
    [buffer] bounds in-flight bytes per direction (default 64 KiB);
    [fault] attaches an armed plan consulted at the [proxy] site. *)
val create :
  ?mode:mode ->
  ?buffer:int ->
  ?fault:Repro_fault.Fault.t ->
  kernel:Kernel.t ->
  proc:Proc.t ->
  unit ->
  t

val proc : t -> Proc.t

(** A socket forwarder: a listener in the container plus an accept fiber
    that dials the host backend per client. *)
type forwarder

(** [forward t ~front_proc ~back_proc path] listens at [path] as
    [front_proc] (the container view) and, per accepted client, connects
    to [backend_path] (default [path]) as [back_proc] (the host view),
    then pumps both directions.  Backend connection failures refuse the
    client — counted under [proxy.connections.refused] and traced as
    [proxy.refused] — rather than silently dropping it.

    [label] names the forwarder in traces and gives it dedicated byte
    counters [proxy.fwd.<label>.bytes.{c2b,b2c}] — the cntrd wire
    transport uses [~label:"rpc"] so RPC-framing traffic on the plane is
    visible separately from proxied application sockets. *)
val forward :
  t ->
  front_proc:Proc.t ->
  back_proc:Proc.t ->
  ?backend_path:string ->
  ?label:string ->
  string ->
  (forwarder, Errno.t) result

(** Successfully proxied connections so far. *)
val connection_count : forwarder -> int

(** A directly plumbed duplex stream (the attach TTY rides on this). *)
type stream

(** [add_stream t ~a_rfd ~a_wfd ~b_rfd ~b_wfd ()] pumps [a_rfd]->[b_wfd]
    and [b_rfd]->[a_wfd].  All four fds must already live in the plane's
    process (socket fds may repeat: [a_rfd = a_wfd]). *)
val add_stream :
  t -> ?label:string -> a_rfd:int -> a_wfd:int -> b_rfd:int -> b_wfd:int -> unit -> stream

(** Drive the plane to quiescence: every pump and the reactor have parked
    with nothing left to do.  No turn budget — the scheduler's event queue
    draining {e is} the termination condition.  Re-raises the first
    exception a plane fiber died with.  No-op when called from inside a
    fiber (the plane is already being driven). *)
val drain : t -> unit

(** Drain, then tear the plane down: abort remaining connections (counting
    accepted-but-undelivered bytes — source queue, staging, carry — under
    [proxy.bytes.unflushed]), close listeners, retire the reactor.
    Idempotent. *)
val close : t -> unit
