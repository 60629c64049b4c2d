(** Unix-domain stream sockets: listeners with bounded accept backlogs,
    endpoint pairs with per-direction byte queues, half-close and abortive
    (RST) close.  Address binding (socket files) is the kernel's job —
    keyed by filesystem identity, which is why connections through a
    CntrFS view fail and CNTR needs its proxy (§3.2.4).  Sockets carry no
    ids: a listener is known by its binding, an endpoint by its fd. *)

open Repro_util

type endpoint
type listener

(** [backlog] bounds connections awaiting accept (default
    128); beyond it, [connect] refuses. *)
val listen : ?backlog:int -> unit -> listener

(** Connect: enqueues a server endpoint on the backlog, returns the client
    endpoint; [ECONNREFUSED] on a closed listener or a full backlog. *)
val connect : listener -> (endpoint, Errno.t) result

(** Dequeue a pending connection; [EAGAIN] when none. *)
val accept : listener -> (endpoint, Errno.t) result

val send : endpoint -> string -> (int, Errno.t) result
val recv : endpoint -> len:int -> (string, Errno.t) result

(** shutdown(SHUT_WR): the peer drains queued bytes then reads EOF; our
    read side stays usable.  Further sends [EPIPE]. *)
val shutdown_write : endpoint -> unit

val close_endpoint : endpoint -> unit

(** Abortive close (the SO_LINGER-0 RST path): both ends observe
    [ECONNRESET] immediately, queued bytes are discarded. *)
val abort : endpoint -> unit

val close_listener : listener -> unit

(** Room toward the peer: [Ok n] bytes accepted without blocking,
    [EPIPE]/[ECONNRESET] when the direction is dead.  splice(2) clamps its
    reads with this so a partial sink never loses bytes. *)
val send_capacity : endpoint -> (int, Errno.t) result

val readable : endpoint -> bool
val writable : endpoint -> bool

(** Bytes queued for this endpoint to receive (SIOCINQ). *)
val available : endpoint -> int

(** Connections awaiting accept. *)
val pending : listener -> int

(** Register a waitqueue callback on the endpoint (fires on byte-queue
    transitions in either direction and on close). *)
val add_waker : endpoint -> (unit -> unit) -> unit

(** Same, for the listener (fires on new pending connections and close). *)
val add_listener_waker : listener -> (unit -> unit) -> unit
