(** Deterministic, seed-driven fault injection (§5.1's "safe to bolt onto a
    production container" claim, made testable).

    A {!plan} is a declarative list of rules — {e at this site, when this
    trigger fires, inject this action} — armed once per session into a {!t}
    that the FUSE connection, the simulated kernel and the VFS disk model
    consult at runtime.  Everything is scheduled on the virtual clock and
    seeded through {!Repro_util.Rng}, so a fixed plan against a fixed
    workload replays bit-for-bit.

    The plane is zero-cost when off: an unarmed session carries no plan, no
    counters are created, and every consult site short-circuits on [None]. *)

open Repro_util

(** What to inject.  [Crash_server] kills the CntrFS server: in-flight and
    queued requests complete with [ENOTCONN], later calls fail immediately
    until [Repro_cntrfs.Session.recover] revives it.  [Hang ns] stalls
    the serving worker for [ns] virtual nanoseconds (a deadline/timeout
    test); [Delay ns] is a latency spike charged to the request.
    [Drop_reply] performs the work but loses the answer (the caller's
    deadline timer must surface [ETIMEDOUT]); [Duplicate_reply] sends the
    answer twice (the second copy must be discarded).  [Fail e] short
    circuits with errno [e] without reaching the backing store. *)
type action =
  | Crash_server
  | Hang of int
  | Delay of int
  | Drop_reply
  | Duplicate_reply
  | Fail of Errno.t

(** Where to inject.  [Fuse (Some "read")] matches FUSE requests of that
    opcode kind ([None] matches all) as they are served; [Backing] matches
    the server's backing syscalls in the simulated kernel ([Fail] actions
    only — the server sees the errno as if the host fs returned it);
    [Disk] adds [Delay] latency to the VFS disk model; [Proxy] matches
    forwarding-plane events ([Some "accept"] new connections, [Some "data"]
    in-flight transfers, [None] both); [Ctrl] matches control-plane
    requests in the cntrd daemon ([Some "create"] admissions,
    [Some "exec"] command dispatch, [None] both). *)
type site =
  | Fuse of string option
  | Backing of string option
  | Disk
  | Proxy of string option
  | Ctrl of string option

(** When to inject, evaluated per matching event: [Nth n] fires exactly on
    the n-th match; [Every n] on every n-th; [After_ns ns] on every match
    once [ns] virtual nanoseconds have elapsed since arming; [Prob p] with
    probability [p] from the plan's seeded RNG. *)
type trigger = Nth of int | Every of int | After_ns of int | Prob of float

type rule = { site : site; trigger : trigger; action : action }
type plan = { seed : int; rules : rule list }

val plan : ?seed:int -> rule list -> plan

(** Per-request supervision policy for the FUSE connection.  With
    [deadline_ns > 0] every round trip races a virtual-time deadline and
    resolves to [ETIMEDOUT] when it loses.  Timed-out / [EINTR] / [ENOMEM]
    replies to {e idempotent} opcodes (see {!Repro_fuse.Protocol.idempotent})
    are retried up to [max_retries] times with exponential backoff
    ([backoff_ns], multiplied by [backoff_mult] per attempt). *)
type retry = {
  deadline_ns : int;
  max_retries : int;
  backoff_ns : int;
  backoff_mult : int;
}

(** No deadline, no retries — supervision off. *)
val no_retry : retry

(** 2ms deadline, 5 retries, 100µs backoff doubling per attempt. *)
val retry_default : retry

(** An armed plan: per-rule trigger state + fire counters.  Arming creates
    the [fault.injected.total] counter; each fired action additionally
    counts under [fault.injected.<label>]. *)
type t

val arm : obs:Repro_obs.Obs.t -> clock:Clock.t -> plan -> t

(** Consulted by {!Repro_fuse.Conn} as each request reaches a worker. *)
val fuse_action : t -> op:string -> action option

(** Consulted by the simulated kernel for the server's backing syscalls;
    [op] is the syscall name ("open", "stat", "pwrite", ...). *)
val backing_errno : t -> op:string -> Errno.t option

(** Consulted by the forwarding plane ({!Repro_proxy.Proxy}); [op] is
    ["accept"] when a client connection arrives and ["data"] per transfer
    pass.  [Delay]/[Hang] stall the event; [Crash_server]/[Drop_reply]/
    [Fail _] refuse the connection or abort it (bounded [ECONNRESET]). *)
val proxy_action : t -> op:string -> action option

(** Consulted by the cntrd control plane ({!Repro_ctrl.Daemon}); [op] is
    ["create"] at session admission and ["exec"] per dispatched command.
    [Delay]/[Hang] stall the request on the daemon's timeline; [Fail _]
    rejects it with a protocol error carrying the errno; [Crash_server]
    kills the session's FUSE server so recovery is exercised. *)
val ctrl_action : t -> op:string -> action option

(** Extra virtual latency for a disk-model operation ("read", "write",
    "fsync"); sums every firing [Disk]-site [Delay] rule. *)
val disk_delay_ns : t -> op:string -> int

(** Total actions fired so far. *)
val injected : t -> int

(** {1 Plan files}

    Line-based format for [cntr attach --fault-plan FILE]; ['#'] comments.

    {v
    seed 42
    retry deadline=2000000 max=5 backoff=100000 mult=2
    fuse read nth=3 fail=EIO
    fuse lookup every=5 delay=200000
    fuse * nth=40 crash
    backing open prob=0.1 fail=EINTR
    disk * every=4 delay=1000000
    fuse getattr nth=4 dup
    fuse read nth=5 drop
    fuse lookup nth=2 hang=5000000
    v} *)

val parse : string -> (plan * retry option, string) result
val to_string : plan -> string
