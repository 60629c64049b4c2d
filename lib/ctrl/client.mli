(** The one client interface to cntrd, shared by every [cntr] subcommand
    and the fleet bench.  Two transports behind the same calls:

    - {!in_process}: requests go straight to {!Daemon.submit} as decoded
      values — what the CLI uses when it hosts the daemon itself.
    - {!connect}: requests are encoded, Content-Length framed and carried
      over the forwarding plane to a {!Daemon.wire_serve} endpoint —
      byte-for-byte what a remote client would send.

    Both transports share one daemon pump, so either way the run is
    deterministic on the virtual clock.

    {2 Pipelining and batching}

    [submit]/[start_*] fire without awaiting: any number of requests may
    be in flight on one connection, and replies — matched by id — may be
    claimed in any order ([poll]/[await]/[finish]).  {!batch} coalesces
    a run of submits into one JSON-RPC 2.0 array envelope, one frame on
    the wire; the daemon answers with one order-preserving reply array.
    A daemon refusing further pipelining on a connection answers
    {!Rpc.overloaded} (-32005) — back off, drain, resubmit. *)

open Repro_util

(** Re-exported so callers spell attach defaults through the client API
    ([Client.Config.default]) instead of reaching into [Attach]. *)
module Config = Repro_cntr.Attach.Config

type t

val in_process : Daemon.t -> t

(** Connect over a served wire endpoint — the wire already knows its
    daemon, so this is the whole handle.  Each [connect] is its own
    connection with its own flow-control state on the daemon side. *)
val connect : Daemon.wire -> t

(** {1 Raw request plumbing} *)

type ticket

(** Fire one request (auto-assigned integer id); drive it later. *)
val submit : t -> ?params:Jsonx.t -> string -> ticket

(** [batch t f] collects every [submit]/[notify]/[start_*] issued inside
    [f] into one array envelope and sends it as a single frame when [f]
    returns.  Await the tickets {e after} the batch closes —
    [await]/[poll] inside [f] raise [Invalid_argument] (the request has
    not been sent yet).  Batches do not nest. *)
val batch : t -> (unit -> 'a) -> 'a

(** Send [$/cancel] for an in-flight ticket (a notification — no reply). *)
val cancel : t -> ticket -> unit

(** Non-blocking: service the daemon once, return the reply if done.
    Replies arrive in completion order, not submission order. *)
val poll : t -> ticket -> Rpc.response option

(** Pump until the reply arrives.  Raises {!Daemon.Stalled} when the
    request is parked and nothing left to run can unpark it. *)
val await : t -> ticket -> (Jsonx.t, Rpc.rerror) result

(** [submit] + [await]. *)
val call : t -> string -> (Jsonx.t, Rpc.rerror) result

(** Drain [stats.event] notifications received so far (oldest first). *)
val notifications : t -> Jsonx.t list

(** {1 Typed verbs}

    Every verb is split as [start_*] (submit, returns a typed handle) and
    {!finish} (await + decode), so all of them pipeline and batch; the
    [session_*] forms are [start]+[finish] for the sequential case. *)

(** A typed in-flight request: the ticket plus its reply decoder. *)
type 'a call

(** Await a typed handle.  Decode errors on a malformed daemon reply
    raise [Invalid_argument]; RPC errors return [Error]. *)
val finish : t -> 'a call -> ('a, Rpc.rerror) result

type created = { sc_session : int; sc_pid : int; sc_cgroup : string; sc_queue_wait_us : int }

val start_create :
  t -> ?tenant:string -> ?tools:string -> ?fault_plan:string -> string -> created call

val session_create :
  t ->
  ?tenant:string ->
  ?tools:string ->
  ?fault_plan:string ->
  string ->
  (created, Rpc.rerror) result

type execed = { sx_code : int; sx_output : string; sx_recovered : bool }

val start_exec : t -> session:int -> string -> execed call
val session_exec : t -> session:int -> string -> (execed, Rpc.rerror) result

(** Raw stat object (includes the human-readable ["report"] field). *)
val start_stat : t -> session:int -> Jsonx.t call

val session_stat : t -> session:int -> (Jsonx.t, Rpc.rerror) result

(** [Ok already] — [already = true] when the session was gone (detach is
    idempotent at the RPC layer). *)
val start_detach : t -> session:int -> bool call

val session_detach : t -> session:int -> (bool, Rpc.rerror) result

type row = { sr_session : int; sr_tenant : string; sr_container : string; sr_state : string; sr_execs : int }

val start_list : t -> row list call
val session_list : t -> (row list, Rpc.rerror) result

val subscribe : t -> (unit, Rpc.rerror) result
