(** Deterministic discrete-event task scheduler.

    Cooperative tasks (OCaml effect-handler fibers) multiplex onto the one
    virtual clock.  Each task has its own timeline: while a task runs, the
    clock holds that task's current time, so [Clock.consume] charges work to
    the running task.  Tasks interleave only at explicit wait points (ivar
    reads, mutex/condvar waits, sleeps); wait-free segments of different
    tasks overlap in virtual time, so concurrency is expressed as
    max-of-timelines rather than sum-of-costs.

    Determinism: events are ordered by (virtual time, submission sequence),
    so identical inputs replay identical interleavings. *)

type t

exception Deadlock of string
(** Raised when a wait can never be satisfied (empty event queue). *)

val create : clock:Repro_util.Clock.t -> t

val current_id : unit -> int
(** Id of the innermost running fiber (each scheduler numbers its fibers
    from 1 in spawn order); 0 at top level. *)

val in_task : unit -> bool
(** [current_id () > 0]. *)

val pending_events : t -> int

(** {1 Ivars} *)

type 'a ivar

val ivar : unit -> 'a ivar
val is_filled : 'a ivar -> bool

val fill : t -> 'a ivar -> 'a -> unit
(** Fill at the caller's current time; wakes all readers.  Raises
    [Invalid_argument] when already filled. *)

val read : t -> 'a ivar -> 'a
(** Block until filled.  A task parks; top-level code drives the event loop.
    The caller's clock lands no earlier than the fill time. *)

(** {1 Tasks} *)

type 'a task

val spawn : t -> (unit -> 'a) -> 'a task
(** Start a task at the caller's current time, on its own timeline. *)

val await : t -> 'a task -> 'a
(** Join a task; re-raises the task's exception, if any. *)

val run : t -> (unit -> 'a) -> 'a
(** [spawn] + [await]. *)

val drive_main : t -> (unit -> bool) -> unit
(** Drive the event loop until the predicate holds; top-level callers only.
    Raises {!Deadlock} when the queue drains first. *)

(** {1 Mutex}

    Mesa-style barging lock, reentrant per fiber.  Top-level code drives the
    event loop instead of parking.  Critical sections never overlap in
    virtual time: completed sections are committed as hold intervals, and
    acquisition settles the taker to the earliest instant not inside any
    committed hold — a taker arriving in a gap before an already-committed
    hold acquires at its own time. *)

type mutex

val mutex : unit -> mutex
val lock : t -> mutex -> unit
val unlock : t -> mutex -> unit
val with_lock : t -> mutex -> (unit -> 'a) -> 'a

(** {1 Condition variables} *)

type cond

val cond : unit -> cond

val park : t -> cond -> unit
(** Park on [cv] without a mutex; an unlock immediately followed by [park]
    cannot miss a wakeup (tasks switch only at effects).  Tasks only. *)

exception Cancelled

val cancel : cond -> unit
(** End every fiber parked on [cv] now: each resumes by raising
    {!Cancelled} where it parked and unwinds.  Nothing is scheduled and no
    virtual time passes — for an owner that goes away, so its parked
    fibers (and their stacks) do not outlive it. *)

val cancel_pending : t -> unit
(** The same for every queued event of the scheduler, for an owner that
    goes away with it: fibers that never started are dropped, runnable
    ones resume by raising {!Cancelled}. *)

val wait : t -> cond -> mutex -> unit
(** Atomically release the mutex and park; relocks before returning.  The
    lock must be held at depth 1.  Tasks only. *)

val signal : t -> cond -> int
(** Wake the head waiter; returns the number woken (0 or 1). *)

val broadcast : t -> cond -> int
(** Wake every waiter; returns the number woken so callers can charge the
    wait-list walk. *)

val yield : t -> unit
(** Reschedule the caller at its current time, behind already-queued events.
    Long-running task loops yield at natural preemption points so event
    order tracks virtual-time order.  No-op at top level. *)

val sleep_ns : t -> int -> unit

(** {1 Two-list FIFO deque}

    Amortized O(1) push/pop at both ends; backs every scheduler wait list
    (replacing the old quadratic [xs @ [x]] appends) and the per-worker
    run queues of {!Ws}. *)

module Dq : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val push_back : 'a t -> 'a -> unit
  val push_front : 'a t -> 'a -> unit
  val pop_front : 'a t -> 'a option
  val pop_back : 'a t -> 'a option

  val drain : 'a t -> 'a list
  (** Oldest-first snapshot; empties the deque. *)
end

(** {1 Work-stealing pool state}

    Per-worker local deques with LIFO local push and FIFO steal, plus
    deterministic victim selection (per-worker SplitMix64 streams mixed
    with the virtual clock) and cost-scored submission placement (expected
    pickup delay, with a LIFO parked stack for the wake case).  Pure
    bookkeeping: the client owns the locks, charges lock/wake/steal-walk
    costs and counts its own pops and steals. *)

module Ws : sig
  type 'a t

  val create : ?seed:int -> unit -> 'a t

  val ensure : 'a t -> int -> unit
  (** Grow the pool to at least [n] worker queues. *)

  val size : 'a t -> int

  val depth : 'a t -> int -> int
  (** Queue length of one worker. *)

  val queued : 'a t -> int
  (** Total items across all queues. *)

  val submit_target : 'a t -> now:int64 -> wake_ns:int -> item_ns:int -> int * bool
  (** Choose the worker with the lowest expected pickup delay for a new
      submission at virtual time [now].  A worker whose {!avail} is ahead
      of [now] is semantically still mid-item (its fiber merely ran ahead
      in event order) and picks the entry up at [avail] for free; one
      whose [avail] has passed is idle and costs a wake ([wake_ns]); each
      queued entry adds one expected service time ([item_ns]).  Ties go
      to the most recently parked worker (LIFO), then the lowest id.  A
      parked winner is popped off the parked stack (the caller is
      expected to wake it); the boolean is the was-parked hint. *)

  val set_avail : 'a t -> int -> int64 -> unit
  (** Record the virtual time at which worker [i]'s current work segment
      ends (it can absorb submissions stamped earlier with no wake). *)

  val set_parked : 'a t -> int -> at:int64 -> unit
  (** Push worker [i] onto the parked stack; [at] (the virtual park time)
      also becomes its {!avail}. *)

  val clear_parked : 'a t -> int -> unit

  val push : 'a t -> int -> 'a -> unit
  (** Submission entry: back of worker [i]'s queue (owner drains FIFO). *)

  val peek : 'a t -> int -> 'a option

  val pop : 'a t -> int -> 'a option
  (** Owner pop (front). *)

  val steal_from : 'a t -> victim:int -> 'a option
  (** FIFO steal: the oldest entry of [victim]'s queue. *)

  val victim_order : 'a t -> thief:int -> now:int64 -> int list
  (** Deterministic cyclic walk over the other workers; the starting point
      mixes [thief]'s private SplitMix64 stream with [now]. *)

  val drain_all : 'a t -> 'a list
  (** Oldest-first snapshot of everything queued; empties all queues. *)
end
