(* Deterministic discrete-event task scheduler.

   The simulation multiplexes cooperative tasks (effect-handler fibers) onto
   the single virtual clock.  Each task carries its own timeline: when a task
   runs, the clock holds *that task's* current time, and advancing the clock
   with [Clock.consume] charges work to the running task only.  Tasks
   interleave exclusively at explicit wait points (ivar reads, mutex/condvar
   waits, sleeps), so two tasks whose wait-free segments overlap in virtual
   time genuinely overlap: total elapsed time is the max of their timelines,
   not the sum.

   Events are keyed by (time, sequence-number); the sequence number breaks
   ties in submission order, making every run deterministic regardless of
   how task timelines interleave. *)

open Repro_util

module Key = struct
  type t = int64 * int

  let compare (a1, s1) (a2, s2) =
    match Int64.compare a1 a2 with 0 -> compare (s1 : int) s2 | c -> c
end

module Pq = Map.Make (Key)

(* A suspended fiber: its id, the continuation and the fiber-local time at
   which it parked.  Resuming never rewinds the fiber below [pk_at].  A
   segment of the fiber answers with what is left to run once it is off
   the fiber: nothing when it ended, its registration when it parked. *)
type parked = {
  pk_id : int;
  pk_at : int64;
  pk_k : (unit, unit -> unit) Effect.Deep.continuation;
}

(* A queued event runs its fiber's next segment; called with [true] it
   ends the fiber instead (see [cancel_pending]). *)
type t = {
  clock : Clock.t;
  mutable seq : int;
  mutable events : (bool -> unit) Pq.t;
  mutable next_id : int;
}

(* {1 Two-list deque}

   Every wait list in the scheduler (ivar readers, mutex waiters, condvar
   parkers) and every per-worker run queue is one of these: a functional
   deque with amortized O(1) push/pop at both ends.  The old waiter lists
   were appended with [@ [p]], which made broadcast-heavy runs pay a
   quadratic copy per parked fiber. *)
module Dq = struct
  type 'a t = {
    mutable front : 'a list; (* oldest end, in order *)
    mutable back : 'a list; (* youngest end, reversed *)
    mutable len : int;
  }

  let create () = { front = []; back = []; len = 0 }
  let length d = d.len
  let is_empty d = d.len = 0

  let push_back d x =
    d.back <- x :: d.back;
    d.len <- d.len + 1

  let push_front d x =
    d.front <- x :: d.front;
    d.len <- d.len + 1

  let norm_front d =
    if d.front = [] then begin
      d.front <- List.rev d.back;
      d.back <- []
    end

  let peek_front d =
    if d.len = 0 then None
    else begin
      norm_front d;
      match d.front with x :: _ -> Some x | [] -> None
    end

  let pop_front d =
    if d.len = 0 then None
    else begin
      norm_front d;
      match d.front with
      | x :: rest ->
          d.front <- rest;
          d.len <- d.len - 1;
          Some x
      | [] -> None
    end

  let pop_back d =
    if d.len = 0 then None
    else begin
      if d.back = [] then begin
        d.back <- List.rev d.front;
        d.front <- []
      end;
      match d.back with
      | x :: rest ->
          d.back <- rest;
          d.len <- d.len - 1;
          Some x
      | [] -> None
    end

  (* Oldest-first snapshot; empties the deque. *)
  let drain d =
    let xs = d.front @ List.rev d.back in
    d.front <- [];
    d.back <- [];
    d.len <- 0;
    xs
end

exception Deadlock of string
exception Cancelled

type _ Effect.t += Suspend : (parked -> unit) -> unit Effect.t

let create ~clock = { clock; seq = 0; events = Pq.empty; next_id = 0 }

(* Fiber id of the caller; 0 when running at top level (the "main thread").
   Every segment of a fiber runs inside [segment], which sets the cell to
   the fiber's id and gives the caller's value back when the segment parks,
   ends or raises, so the cell names the innermost running fiber, as the
   effect-handler stack does. *)
let fiber_id = Domain.DLS.new_key (fun () -> 0)
let current_id () = Domain.DLS.get fiber_id
let in_task () = current_id () > 0

(* Run [go x] as a segment of fiber [id], then what it left to run
   (a parking fiber's registration) back in the caller's context. *)
let segment id go x =
  let outer = Domain.DLS.get fiber_id in
  Domain.DLS.set fiber_id id;
  match go x with
  | after ->
      Domain.DLS.set fiber_id outer;
      after ()
  | exception e ->
      Domain.DLS.set fiber_id outer;
      raise e

let schedule t ~at fn =
  t.seq <- t.seq + 1;
  t.events <- Pq.add (at, t.seq) fn t.events

let continue_parked p cancelled =
  if cancelled then Effect.Deep.discontinue p.pk_k Cancelled else Effect.Deep.continue p.pk_k ()

let resumption p cancelled = segment p.pk_id (continue_parked p) cancelled

(* Make a parked fiber runnable.  It resumes no earlier than both its own
   park time and the waker's current time: a reply cannot be seen before it
   was produced, and a fiber cannot travel back below its own timeline. *)
let resume t p =
  let now = Clock.now_ns t.clock in
  let at = if Int64.compare now p.pk_at > 0 then now else p.pk_at in
  schedule t ~at (resumption p)

let suspend register = Effect.perform (Suspend register)

let run_fiber t (id : int) f =
  let effc : type a. a Effect.t -> ((a, unit -> unit) Effect.Deep.continuation -> unit -> unit) option =
    function
    | Suspend register ->
        Some
          (fun k ->
            let p = { pk_id = id; pk_at = Clock.now_ns t.clock; pk_k = k } in
            fun () -> register p)
    | _ -> None
  in
  segment id
    (fun () ->
      Effect.Deep.match_with f () { Effect.Deep.retc = (fun () -> Fun.id); exnc = raise; effc })
    ()

let pending_events t = Pq.cardinal t.events

(* Pop-and-run events until [stop] holds.  The clock warps to each event's
   timestamp before the owning fiber's segment runs. *)
let drive_until t stop =
  while not (stop ()) do
    match Pq.min_binding_opt t.events with
    | None -> raise (Deadlock "Sched: waiting with no runnable task")
    | Some (((at, _) as key), fn) ->
        t.events <- Pq.remove key t.events;
        Clock.set_ns t.clock at;
        fn false
  done

(* {1 Ivars} *)

type 'a ivar = {
  mutable iv_st : ('a, exn) result option;
  mutable iv_at : int64; (* fill time *)
  iv_waiters : parked Dq.t; (* FIFO *)
}

type 'a task = 'a ivar

let ivar () = { iv_st = None; iv_at = 0L; iv_waiters = Dq.create () }
let is_filled iv = iv.iv_st <> None

let fill_result t iv r =
  if iv.iv_st <> None then invalid_arg "Sched.fill: already filled";
  iv.iv_st <- Some r;
  iv.iv_at <- Clock.now_ns t.clock;
  List.iter (resume t) (Dq.drain iv.iv_waiters)

let fill t iv v = fill_result t iv (Ok v)

let read t iv =
  let finish () =
    (* The value cannot be observed before it was produced. *)
    if Int64.compare (Clock.now_ns t.clock) iv.iv_at < 0 then
      Clock.set_ns t.clock iv.iv_at;
    match iv.iv_st with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false
  in
  match iv.iv_st with
  | Some _ -> finish ()
  | None ->
      if in_task () then begin
        suspend (fun p -> Dq.push_back iv.iv_waiters p);
        finish ()
      end
      else begin
        (* Top-level code cannot park; it drives the event loop instead and
           lands at max(its entry time, the fill time). *)
        let entry = Clock.now_ns t.clock in
        drive_until t (fun () -> iv.iv_st <> None);
        if Int64.compare (Clock.now_ns t.clock) entry < 0 then
          Clock.set_ns t.clock entry;
        finish ()
      end

(* {1 Tasks} *)

let spawn t f =
  let iv = ivar () in
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  schedule t ~at:(Clock.now_ns t.clock) (fun cancelled ->
      if not cancelled then
        run_fiber t id (fun () ->
            let r = try Ok (f ()) with e -> Error e in
            fill_result t iv r));
  iv

let await = read
let run t f = await t (spawn t f)

(* Drive until [pred] holds; only for top-level callers (backpressure waits
   that originate outside any task). *)
let drive_main t pred =
  let entry = Clock.now_ns t.clock in
  drive_until t pred;
  if Int64.compare (Clock.now_ns t.clock) entry < 0 then Clock.set_ns t.clock entry

(* {1 Mutex}

   Mesa-style barging lock, reentrant per fiber.  Owner token is the fiber
   id (-1 for main, which spins the event loop instead of parking).  Unlock
   wakes the head waiter but does not hand the lock over — the waiter
   re-attempts, so a lock released and re-taken within one segment never
   deadlocks the wakee.

   The lock also has a *virtual-time* footprint: event order and timeline
   order differ, so a fiber whose whole critical section ran in one event
   segment may release the lock (in event order) while its section still
   covers a later fiber's acquisition time.  Completed sections are kept as
   committed hold intervals; acquisition settles the taker forward to the
   earliest instant not inside any committed hold — critical sections never
   overlap in virtual time, yet a fiber arriving in a gap *before* an
   already-committed hold acquires at its own time instead of being warped
   past releases that, on the virtual timeline, haven't happened yet. *)

type mutex = {
  mutable mu_owner : int; (* 0 = free *)
  mutable mu_depth : int;
  mutable mu_hold_start : int; (* acquisition time of the current hold *)
  mutable mu_holds : int array;
      (* committed holds, a ring of (start, end) pairs; allocated by the
         first unlock, so a mutex never taken carries none *)
  mutable mu_next : int; (* ring slot the next hold goes to *)
  mutable mu_nholds : int; (* holds in the ring, at most [max_holds] *)
  mu_waiters : parked Dq.t;
}

(* Holds retained per mutex; older ones are forgotten (their fibers are far
   ahead, so overlap with an ancient hold cannot arise in practice). *)
let max_holds = 32

let mutex () =
  {
    mu_owner = 0;
    mu_depth = 0;
    mu_hold_start = 0;
    mu_holds = [||];
    mu_next = 0;
    mu_nholds = 0;
    mu_waiters = Dq.create ();
  }

let owner_token () = match current_id () with 0 -> -1 | id -> id

(* The earliest instant at or after [s] inside no committed hold: search
   the holds newest first ([i] holds back from the newest), and after each
   jump to a hold's end search again from the newest. *)
let rec settle m s i =
  if i = m.mu_nholds then s
  else
    let slot = (m.mu_next - 1 - i + max_holds) mod max_holds in
    let e = m.mu_holds.((2 * slot) + 1) in
    if m.mu_holds.(2 * slot) <= s && s < e then settle m e 0 else settle m s (i + 1)

let acquired t m me =
  m.mu_owner <- me;
  m.mu_depth <- 1;
  let now = Int64.to_int (Clock.now_ns t.clock) in
  let s = settle m now 0 in
  if s > now then Clock.set_ns t.clock (Int64.of_int s);
  m.mu_hold_start <- s

let rec lock t m =
  let me = owner_token () in
  if m.mu_owner = 0 then acquired t m me
  else if m.mu_owner = me then m.mu_depth <- m.mu_depth + 1
  else if me = -1 then begin
    drive_main t (fun () -> m.mu_owner = 0);
    acquired t m me
  end
  else begin
    suspend (fun p -> Dq.push_back m.mu_waiters p);
    lock t m
  end

let commit_hold m ~until =
  if Array.length m.mu_holds = 0 then m.mu_holds <- Array.make (2 * max_holds) 0;
  let slot = m.mu_next in
  m.mu_holds.(2 * slot) <- m.mu_hold_start;
  m.mu_holds.((2 * slot) + 1) <- until;
  m.mu_next <- (slot + 1) mod max_holds;
  if m.mu_nholds < max_holds then m.mu_nholds <- m.mu_nholds + 1

let unlock t m =
  if m.mu_owner <> owner_token () then invalid_arg "Sched.unlock: not the owner";
  m.mu_depth <- m.mu_depth - 1;
  if m.mu_depth = 0 then begin
    m.mu_owner <- 0;
    commit_hold m ~until:(Int64.to_int (Clock.now_ns t.clock));
    match Dq.pop_front m.mu_waiters with
    | None -> ()
    | Some p -> resume t p
  end

let with_lock t m f =
  lock t m;
  Fun.protect ~finally:(fun () -> unlock t m) f

(* {1 Condition variables} *)

type cond = { cv_waiters : parked Dq.t }

let cond () = { cv_waiters = Dq.create () }

(* Park on [cv] without holding any lock; tasks only switch at effects, so
   an unlock immediately followed by [park] cannot miss a wakeup. *)
let park _t cv =
  if not (in_task ()) then invalid_arg "Sched.park: only tasks can park";
  suspend (fun p -> Dq.push_back cv.cv_waiters p)

(* End every fiber parked on [cv]: each resumes at once by raising
   [Cancelled] where it parked.  Nothing is scheduled and no virtual time
   passes, so the fibers' owner can go away without leaving them behind. *)
let cancel cv = List.iter (fun p -> resumption p true) (Dq.drain cv.cv_waiters)

(* The same for every queued event of [t], for an owner that goes away
   with its scheduler: fibers that never started are dropped, and every
   runnable one resumes by raising [Cancelled] (until none is left, since
   an ending fiber may wake another). *)
let rec cancel_pending t =
  let evs = t.events in
  if not (Pq.is_empty evs) then begin
    t.events <- Pq.empty;
    Pq.iter (fun _ fn -> fn true) evs;
    cancel_pending t
  end

(* Unlock + park is atomic here because tasks only switch at effects. *)
let wait t cv m =
  if m.mu_depth <> 1 then invalid_arg "Sched.wait: mutex depth must be 1";
  unlock t m;
  park t cv;
  lock t m

let signal t cv =
  match Dq.pop_front cv.cv_waiters with
  | None -> 0
  | Some p ->
      resume t p;
      1

(* Wake every waiter; returns how many were woken so the caller can charge
   the walk over the wait list. *)
let broadcast t cv =
  let ws = Dq.drain cv.cv_waiters in
  List.iter (resume t) ws;
  List.length ws

(* Reschedule the caller at its own current time, behind every event already
   queued at or before it.  Long-running loops yield at natural preemption
   points so event order tracks virtual-time order — otherwise one fiber can
   commit a long stretch of lock holds before same-time peers get to run. *)
let yield t =
  if in_task () then
    suspend (fun p -> schedule t ~at:p.pk_at (resumption p))

let sleep_ns t ns =
  if in_task () then
    suspend (fun p -> schedule t ~at:(Int64.add p.pk_at (Int64.of_int ns)) (resumption p))
  else Clock.consume_int t.clock ns

(* {1 Work-stealing pool state}

   Per-worker local deques in the Manticore style: submissions enter at the
   back and owners drain them FIFO from the front via [pop]; thieves take
   the *oldest* entry from a victim's front (FIFO steal), so stolen work is
   the work that has waited longest.

   This module is pure bookkeeping — it owns no mutexes and charges no
   virtual time.  The client (the FUSE connection) wraps each queue in its
   own shard lock and charges lock/wake/steal-walk costs itself; that keeps
   the accounting policy where the cost model lives.

   Determinism: victim selection draws from a per-worker SplitMix64 stream
   seeded from (pool seed, worker id), XOR-mixed with the caller's virtual
   clock so the walk order depends only on (seed, worker, time) — never on
   physical scheduling.  Parked-worker targeting is a LIFO stack: the most
   recently parked worker is woken first (its state is warmest and its park
   is cheapest to cancel), folded into a cost-scored placement that weighs
   waking a sleeper against queueing behind a soon-free busy worker. *)

module Ws = struct
  type 'a t = {
    ws_seed : int;
    mutable ws_queues : 'a Dq.t array;
    mutable ws_rngs : Rng.t array;
    mutable ws_parked : int list; (* LIFO: head = most recently parked *)
    mutable ws_avail : int64 array;
        (* virtual time each worker's last known work segment ends: a
           submission before it is picked up at [avail] for free (the
           worker is semantically still busy and finds it on its next
           queue check); one at or after it needs a wake *)
    mutable ws_queued : int; (* total items across all queues *)
  }

  let worker_rng seed i =
    (* Distinct stream per worker: golden-ratio mix of the worker id. *)
    Rng.create ~seed:(seed lxor ((i + 1) * 0x9E3779B9))

  let create ?(seed = 0x5EED) () =
    {
      ws_seed = seed;
      ws_queues = [||];
      ws_rngs = [||];
      ws_parked = [];
      ws_avail = [||];
      ws_queued = 0;
    }

  let size p = Array.length p.ws_queues

  let ensure p n =
    let have = size p in
    if n > have then begin
      let queues = Array.init n (fun _ -> Dq.create ()) in
      Array.blit p.ws_queues 0 queues 0 have;
      let rngs = Array.init n (fun i -> worker_rng p.ws_seed i) in
      Array.blit p.ws_rngs 0 rngs 0 have;
      let avail = Array.make n 0L in
      Array.blit p.ws_avail 0 avail 0 have;
      p.ws_queues <- queues;
      p.ws_rngs <- rngs;
      p.ws_avail <- avail
    end

  let depth p i = Dq.length p.ws_queues.(i)
  let queued p = p.ws_queued

  let is_parked p i = List.mem i p.ws_parked

  (* Submission placement: minimize the request's expected pickup delay.

     The one signal that matters is each worker's [avail] — the virtual
     time its last known work segment ends (simulation fibers run ahead of
     the virtual timeline, so a worker that has already yielded, slept or
     parked in *event* order may still be mid-item at the submit instant).
     A submission before [avail] is picked up at [avail] for free: the
     worker is semantically still busy and finds the entry on its next
     queue check — this is what lets partitioned deques keep the global
     FIFO's pipelining, where whichever worker freed first absorbed a
     request submitted during its service time for just the residual wait.
     A submission at or after [avail] finds the worker idle (blocked in
     read(2)) and pays a full wake [wake_ns]; every already-queued entry
     adds one service time [item_ns].  Ties prefer the most recently
     parked worker (LIFO — warmest state), then the lowest id.  Pure
     function of pool state: placement stays deterministic.  Returns
     (worker id, was-parked hint). *)
  let submit_target p ~now ~wake_ns ~item_ns =
    let n = size p in
    let score i =
      let q = depth p i * item_ns in
      let avail = p.ws_avail.(i) in
      if Int64.compare avail now > 0 then
        (* still within its work segment or spin-grace window: a parked
           worker here is spinning and picks the entry up instantly; an
           unparked one absorbs it when its segment ends at [avail] *)
        if is_parked p i then q else Int64.to_int (Int64.sub avail now) + q
      else wake_ns + q
    in
    let best = ref 0 and best_score = ref max_int in
    (* most recently parked first, so equal-score parked workers resolve
       LIFO; the id loop below never displaces an equal score *)
    List.iter
      (fun i ->
        if i < n then begin
          let s = score i in
          if s < !best_score then begin
            best := i;
            best_score := s
          end
        end)
      p.ws_parked;
    for i = 0 to n - 1 do
      let s = score i in
      if s < !best_score then begin
        best := i;
        best_score := s
      end
    done;
    let id = !best in
    if is_parked p id then begin
      p.ws_parked <- List.filter (fun j -> j <> id) p.ws_parked;
      (id, true)
    end
    else (id, false)

  let set_avail p i at = p.ws_avail.(i) <- at

  let set_parked p i ~at =
    p.ws_avail.(i) <- at;
    if not (List.mem i p.ws_parked) then p.ws_parked <- i :: p.ws_parked

  let clear_parked p i =
    p.ws_parked <- List.filter (fun j -> j <> i) p.ws_parked

  (* Submissions enter at the back: the owner drains its queue oldest-first. *)
  let push p i x =
    Dq.push_back p.ws_queues.(i) x;
    p.ws_queued <- p.ws_queued + 1

  let peek p i = Dq.peek_front p.ws_queues.(i)

  let pop p i =
    match Dq.pop_front p.ws_queues.(i) with
    | Some x ->
        p.ws_queued <- p.ws_queued - 1;
        Some x
    | None -> None

  (* FIFO steal: the oldest entry of the victim's queue (the owner also
     pops its front, so a steal is a pop by another worker). *)
  let steal_from p ~victim = pop p victim

  (* Deterministic victim walk for [thief]: a cyclic rotation of the other
     workers, whose starting point mixes the thief's private SplitMix64
     stream with the virtual clock.  Same (seed, thief, now, draw count)
     always yields the same order. *)
  let victim_order p ~thief ~now =
    let n = size p in
    if n <= 1 then []
    else begin
      let others = ref [] in
      for i = n - 1 downto 0 do
        if i <> thief then others := i :: !others
      done;
      let others = Array.of_list !others in
      let m = Array.length others in
      let draw = Int64.logxor (Rng.next_int64 p.ws_rngs.(thief)) now in
      let start =
        Int64.to_int (Int64.rem (Int64.logand draw Int64.max_int) (Int64.of_int m))
      in
      List.init m (fun k -> others.((start + k) mod m))
    end

  (* Oldest-first snapshot of everything queued anywhere (used on crash
     drains); empties all queues. *)
  let drain_all p =
    let xs =
      Array.to_list p.ws_queues |> List.concat_map (fun q -> Dq.drain q)
    in
    p.ws_queued <- 0;
    xs
end
