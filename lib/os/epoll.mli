(** Minimal epoll: an interest set of fds with readiness probes.  The
    simulation is single-threaded, so [wait] reports which registered fds
    are ready right now (level-triggered); [wait_edge] implements the
    EPOLLET contract — only false->true readiness transitions since the
    previous [wait_edge] are reported, so a partially drained fd is not
    re-announced until it empties and refills. *)

type interest = { want_in : bool; want_out : bool }

type probes = { p_readable : unit -> bool; p_writable : unit -> bool }

type event = { ev_fd : int; ev_in : bool; ev_out : bool }

type t

val create : unit -> t

(** Adding (or re-adding) an fd resets its edge state, like
    EPOLL_CTL_MOD: the next {!wait_edge} reports current readiness as a
    fresh transition. *)
val add : t -> fd:int -> interest:interest -> probes:probes -> unit

(** Reset the fd's edge state only (EPOLL_CTL_MOD re-arm): the next
    {!wait_edge} reports current readiness as a fresh transition. *)
val rearm : t -> fd:int -> unit

val remove : t -> fd:int -> unit

(** Install the wakeup callback the kernel wires to watched objects'
    waitqueues; {!fire_notify} invokes it (no-op when unset). *)
val set_notify : t -> (unit -> unit) option -> unit

val fire_notify : t -> unit

(** Ready events, sorted by fd (level-triggered). *)
val wait : t -> event list

(** Readiness transitions since the last [wait_edge], sorted by fd. *)
val wait_edge : t -> event list
