(** cntrd: the persistent attach control plane.

    A daemon multiplexes many concurrent attach sessions over one world:
    each session is a scheduler fiber wrapping an {!Repro_cntr.Attach}
    session, admitted through a bounded FIFO queue with per-tenant quotas.
    Clients speak JSON-RPC 2.0 ({!Rpc}) — over the in-process transport or
    framed over a {!Repro_proxy.Proxy} forwarder ({!wire_serve}).

    {2 Execution model}

    Control-plane state (admission, quotas, cancellation, fault delays)
    lives in fibers on the daemon's own scheduler; the data-plane verbs
    (attach / exec / detach / recover) are emitted as actions that
    {!pump} executes one at a time at top level, where the FUSE
    connection's event loop can be driven.  [pump] alternates between
    driving fibers to quiescence and committing the next pending action,
    so virtual time stays deterministic: same submissions, same
    interleaving, byte-identical metrics.

    {2 Methods}

    - [daemon.info] — protocol identity and method list
    - [session.create {container; tenant?; tools?; threads?; fault_plan?}]
    - [session.exec {session; cmd}]
    - [session.stat {session}]
    - [session.detach {session}] — idempotent: unknown or already-detached
      sessions answer [{detached:true, already:true}], never an error
    - [session.list]
    - [stats.subscribe] — streams [stats.event] notifications
    - [$/cancel {id}] — cancel the caller's own in-flight request with
      that id (another client's request with the same id is untouched)

    The fault plane's [ctrl] site ({!Repro_fault.Fault.ctrl_action}) is
    consulted on [create] and [exec]. *)

open Repro_util
open Repro_os

(** Per-tenant admission quota. *)
type quota = { q_active : int; q_queued : int }

type config = {
  c_max_active : int;  (** fleet-wide concurrent session ceiling *)
  c_queue_depth : int;  (** fleet-wide admission queue bound *)
  c_tenant : quota;
  c_fault : Repro_fault.Fault.plan option;  (** plan consulted at the ctrl site *)
  c_sub_buffer : int;
      (** undelivered [stats.event]s retained per subscriber; at capacity
          the oldest is dropped and counted under
          [ctrl.subscribe.dropped] (drop-oldest: a monitoring stream
          wants recent state, not stale history) *)
  c_wire_inflight : int;
      (** wire flow control: admitted requests per connection whose
          replies have not yet been flushed; the next call over the limit
          is refused with [-32005] ({!Rpc.overloaded}) before dispatch.
          Notifications are never refused. *)
  c_wire_high : int;
      (** wire flow control: framed-output backlog (bytes) at which a
          connection stalls — it stops being read and stops taking
          buffered replies/events until it drains.  One reply frame may
          overshoot the watermark (appends are gated, not split). *)
  c_wire_low : int;
      (** wire flow control: backlog at which a stalled connection
          resumes (hysteresis — must be < [c_wire_high]) *)
}

(** 64 active, 32 queued, 16/8 per tenant, no faults, 256-event
    subscriber buffers; wire flow control at 64 in-flight per connection
    with 64 KiB/16 KiB high/low watermarks.  Every session starts from
    {!Repro_cntr.Attach.Config.default} (overridden per call by
    [session.create]'s [tools], [threads] and [fault_plan]), and a
    crashed session recovers transparently on its next exec. *)
val default_config : config

type t

(** The daemon drives sessions against [world]'s kernel and engines. *)
val create : ?config:config -> Repro_runtime.World.t -> t

val obs : t -> Repro_obs.Obs.t

(** {1 Request path} *)

(** Handle on one in-flight request. *)
type ticket

(** The requests one client has in flight.  Every client numbers its ids
    from 1, so [$/cancel {id}] reaches only a request submitted under the
    same origin.  Each wire connection has its own; an in-process client
    makes one. *)
type origin

val origin : unit -> origin

(** Dispatch one decoded message from [origin]'s client.  [None] for
    notifications.  [sink]
    receives [stats.event] notification payloads once this connection has
    subscribed via [stats.subscribe]; events queue in a bounded
    per-subscriber buffer ([config.c_sub_buffer], drop-oldest) and are
    delivered by {!pump} whenever [sink_ready] (default: always) says the
    transport can take them.  Dispatch only enqueues work — drive it with
    {!pump} / {!response}. *)
val submit :
  t ->
  origin:origin ->
  ?sink:(Jsonx.t -> unit) ->
  ?sink_ready:(unit -> bool) ->
  Rpc.request ->
  ticket option

(** Drive fibers, pending actions and wire connections until quiescent. *)
val pump : t -> unit

(** The reply, when already produced. *)
val peek : t -> ticket -> Rpc.response option

exception Stalled of string
(** Raised by {!response} when a request is parked (e.g. in the admission
    queue) and no runnable work remains to unpark it. *)

(** [pump] until the reply exists. *)
val response : t -> ticket -> Rpc.response

(** {1 Wire transport}

    Each accepted connection is pipelined: any number of id-carrying
    requests may be in flight (bounded by [c_wire_inflight]; the
    overflow is refused with [-32005]), and replies flush as they
    resolve — out of submission order when a later request finishes
    first.  Batch envelopes dispatch element-at-a-time and flush as one
    order-preserving reply array.  Write-side flow control stalls a
    connection whose framed backlog reaches [c_wire_high] (no reads, no
    buffered replies or events) until it drains to [c_wire_low]; a
    stalled client never wedges the other connections.

    Registry namespace (created by the first {!wire_serve}):
    [ctrl.wire.conns] (accepted connections), [ctrl.wire.batches]
    (envelopes received), [ctrl.wire.stalls] (flow-control stall
    entries), [ctrl.wire.overloaded] ([-32005] refusals), and the gauges
    [ctrl.wire.pipelined.max] (peak in-flight on one connection),
    [ctrl.wire.backlog.peak] / [ctrl.wire.frame.max] (peak framed
    backlog and largest single frame — the fleet bench gates
    [peak <= c_wire_high + frame.max]). *)

(** A served wire endpoint: a proxy-plane forwarder carrying
    Content-Length-framed JSON-RPC to the daemon's listener socket. *)
type wire

(** [wire_serve t ~path ()] — listen for framed RPC at [path] (clients
    {!Repro_os.Kernel.socket_connect} there).  The bytes ride the
    forwarding plane under the ["rpc"] label
    ([proxy.fwd.rpc.bytes.{c2b,b2c}]).  {!pump} services accepted
    connections round-robin. *)
val wire_serve : t -> path:string -> unit -> (wire, Errno.t) result

(** The pair of {!wire_serve}: close the endpoint's forwarding plane
    (its reactor, acceptor and per-client pumps end; open connections are
    aborted), exit the wire's three processes and stop servicing it in
    {!pump}.  A later connect to its path is refused ([ECONNREFUSED]).
    The daemon and its sessions are untouched.  Idempotent. *)
val wire_close : wire -> unit

val wire_path : wire -> string

(** The daemon this endpoint serves — a wire is a complete connect
    handle ({!Client.connect} needs nothing else). *)
val wire_daemon : wire -> t

(** The client-side proc to [socket_connect] from (any proc works; this
    one is convenient). *)
val wire_client_proc : wire -> Proc.t

val kernel : t -> Kernel.t
