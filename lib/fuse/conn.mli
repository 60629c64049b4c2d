(** A FUSE connection (/dev/fuse): the transport between the kernel driver
    and the userspace server, modeled as a discrete-event request queue
    (the kernel's fuse_conn).  Each worker fiber owns a local submission
    deque behind its own shard lock; submitters place requests on one
    worker's deque (most recently parked worker first, round-robin
    otherwise) and wake that worker alone, and workers that drain their
    deque steal the oldest ready entry from a deterministically chosen
    victim before parking.  Concurrency costs (context-switch amortization
    under load, steal walks, multi-client overlap) are emergent from queue
    state rather than closed-form.

    One-way messages (FORGET, RELEASE) form the background request class,
    bounded by [max_background]: at the threshold submitters block until
    the pool drains (congestion backpressure).

    Accounting lands in the connection's {!Repro_obs.Obs.t}: aggregate
    counters ([fuse.req.count], [fuse.round_trips], [fuse.bytes.*]),
    per-opcode counters ([fuse.req.<kind>.count|bytes_to_server|
    bytes_from_server]), queue-depth gauges ([fuse.queue.depth.max],
    derived [fuse.queue.depth.mean]), per-worker deque high-water marks
    ([fuse.queue.per_worker_depth.<i>]), in-flight gauges
    ([fuse.inflight], [fuse.inflight.max]), spurious wakeups
    ([fuse.wakeups.spurious]), work-stealing counters ([sched.steals],
    [sched.steal_fails], [sched.local_hits]), queue-wait and per-opcode
    latency histograms, per-worker busy time ([cntrfs.worker.<i>.busy_ns]),
    context switches ([os.context_switches]), and one [fuse.req.<kind>]
    span per request when the tracer has a sink.  The three max gauges
    are raised in the registry only ({!Repro_obs.Metrics.high_water}), so
    connections sharing one registry read the maximum over all of them. *)

open Repro_util

(** Per-opcode metric handles and span name, cached on the connection. *)
type kind_metrics

(** An in-flight request parked on the pending queue. *)
type item

type worker

type t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
  sched : Repro_sched.Sched.t;
  mutable handler : (Protocol.ctx -> Protocol.req -> Protocol.resp) option;
  mutable threads : int;  (** server worker threads (Figure 4) *)
  mutable max_background : int;
      (** congestion threshold for the one-way background class *)
  mutable serving : bool;
  mutable dead : bool;
      (** the server crashed; calls fail [ENOTCONN] until {!revive} *)
  mutable closed : bool;  (** set by {!close} *)
  own_sched : bool;  (** [sched] was created for this connection *)
  mutable background : bool;
      (** while true, calls charge no virtual time (background writeback) *)
  mutable fault : Repro_fault.Fault.t option;
      (** armed fault plane — [None] means every consult short-circuits *)
  mutable retry : Repro_fault.Fault.retry;
  forced : Repro_fault.Fault.action Queue.t;
      (** one-shot test-hook actions, served before the plan *)
  mutable m_retries : Repro_obs.Metrics.counter option;
  mutable m_timeouts : Repro_obs.Metrics.counter option;
  mutable m_splice_calls : Repro_obs.Metrics.counter option;
      (** [fuse.splice.calls], created on the first spliced transfer *)
  mutable m_splice_bytes : Repro_obs.Metrics.counter option;
  pool : item Repro_sched.Sched.Ws.t;
  bg_lock : Repro_sched.Sched.mutex;
  bg_cond : Repro_sched.Sched.cond;
  mutable bg_inflight : int;
  mutable inflight : int;
  mutable workers : worker array;
  mutable worker_exn : exn option;
  m_requests : Repro_obs.Metrics.counter;
  m_round_trips : Repro_obs.Metrics.counter;
  m_bytes_to : Repro_obs.Metrics.counter;
  m_bytes_from : Repro_obs.Metrics.counter;
  m_spliced : Repro_obs.Metrics.counter;
  m_copied : Repro_obs.Metrics.counter;
  m_ctx_switches : Repro_obs.Metrics.counter;
  m_qdepth_max : Repro_obs.Metrics.gauge;
  m_qdepth_sum : Repro_obs.Metrics.counter;
  m_qdepth_samples : Repro_obs.Metrics.counter;
  m_inflight : Repro_obs.Metrics.gauge;
  m_inflight_max : Repro_obs.Metrics.gauge;
  m_spurious : Repro_obs.Metrics.counter;
  m_steals : Repro_obs.Metrics.counter;
  m_steal_fails : Repro_obs.Metrics.counter;
  m_local_hits : Repro_obs.Metrics.counter;
  m_qwait : Repro_obs.Metrics.histogram;
  by_kind : (string, kind_metrics) Hashtbl.t;
      (** the opcodes this connection has issued *)
}

(** [obs] defaults to a private handle; pass the kernel's to aggregate
    FUSE traffic with the rest of the world's metrics.  [sched] defaults
    to a private scheduler over [clock]; pass the world's to let requests
    overlap with other tasks. *)
val create :
  ?obs:Repro_obs.Obs.t ->
  ?sched:Repro_sched.Sched.t ->
  clock:Clock.t ->
  unit ->
  t

val obs : t -> Repro_obs.Obs.t
val sched : t -> Repro_sched.Sched.t

(** Install the server's request handler. *)
val set_handler : t -> (Protocol.ctx -> Protocol.req -> Protocol.resp) -> unit

(** Spawn the worker pool and start serving; calls before this return
    [ENOTCONN].  [Repro_cntrfs.Session.create] calls it once the handler is
    installed.  In [cntr attach] that is step #2, and no request can reach
    the connection before step #3 mounts CntrFS (§3.2.2). *)
val start_serving : t -> unit

(** Arm supervision on a live connection: a fault plane consulted while
    serving, and/or a per-request deadline + retry policy.  Creates the
    [fuse.retries] / [fuse.timeouts] counters (only armed sessions touch
    the registry — the plane is zero-cost when off). *)
val supervise :
  t -> ?fault:Repro_fault.Fault.t -> ?retry:Repro_fault.Fault.retry -> unit -> unit

(** Push a one-shot fault for the next served request (test hook; works
    without arming a plan). *)
val inject : t -> Repro_fault.Fault.action -> unit

(** Kill the server now: stop serving, resolve every queued request with
    [ENOTCONN], mark the connection dead (test hook / plan [Crash_server]). *)
val inject_crash : t -> unit

(** Bring a crashed connection back once the server has been relaunched and
    a fresh handler installed; the parked worker pool is reused. *)
val revive : t -> unit

(** Shut the connection for good: calls fail [ENOTCONN] from now on, and
    the worker fibers end, charging nothing — parked ones at once, and on a
    scheduler the connection created, every queued fiber too (nothing would
    run them again); on a shared scheduler a runnable worker ends when it
    next runs out of work.  Without this the workers would outlive their
    session and world, each holding its fiber stack. *)
val close : t -> unit

(** Issue one request and wait for the reply: exactly one round trip.
    [splice] moves payloads by page remapping instead of copying.  Under
    supervision the reply races the deadline timer and idempotent opcodes
    are retried on [ETIMEDOUT]/[EINTR]/[ENOMEM]. *)
val call : t -> ?splice:bool -> Protocol.ctx -> Protocol.req -> Protocol.resp

(** Issue several requests as one submission (async reads): one round trip,
    one wake, one resume; members may be served by different workers in
    parallel.  Replies are returned in request order. *)
val call_group :
  t -> ?splice:bool -> Protocol.ctx -> Protocol.req list -> Protocol.resp list

(** One-way message (FORGET, RELEASE): queued without waiting for service.
    Counts toward [max_background]; at the threshold the submitter blocks
    until the background class drains. *)
val post : t -> Protocol.ctx -> Protocol.req -> unit

(** Block until every queued and in-service request has completed. *)
val quiesce : t -> unit
