(* A FUSE connection (/dev/fuse): the transport between the kernel driver
   and the userspace server, modeled as a discrete-event request queue
   (mirroring the kernel's fuse_conn).  Each server worker owns a local
   submission deque guarded by its own shard lock; submitters place typed
   in-flight request objects on one worker's deque (preferring the most
   recently parked worker, round-robin otherwise) and wake that worker
   alone — a targeted try_to_wake_up, not a waitqueue herd.  A worker that
   drains its own deque steals the oldest entry from a deterministically
   chosen victim before parking, so imbalanced submissions still spread
   across the pool.

   Concurrency costs are emergent rather than formulaic: the submitter
   pays the shard lock and one wakeup when its target was parked, thieves
   pay the steal walk (one shard lock probe per victim) on their own
   timelines, workers woken into an already-stolen deque burn a context
   switch and count a spurious wakeup, and back-to-back queued requests
   let a worker pipeline without re-parking — which is how batching and
   multi-client overlap amortize context switches.

   One-way messages (FORGET, RELEASE) form the background request class:
   they return to the submitter immediately but count toward
   [max_background]; past the threshold submitters block until the pool
   drains below it (the kernel's congestion threshold).

   Accounting lives in the connection's observability handle: aggregate and
   per-opcode counters under "fuse.req.*", queue-depth and in-flight
   gauges (the max gauges are raised in the registry only, so connections
   sharing one read the maximum over all of them), per-worker busy time,
   virtual-time latency histograms, context-switch counts under
   "os.context_switches", and one trace span per request when a sink is
   set. *)

open Repro_util
module Metrics = Repro_obs.Metrics
module Sched = Repro_sched.Sched
module Fault = Repro_fault.Fault

(* Per-opcode handles, cached so the request path never builds or looks
   up a name: count, bytes each way, the latency histogram, and the span
   name. *)
type kind_metrics = {
  km_count : Metrics.counter;
  km_to : Metrics.counter;
  km_from : Metrics.counter;
  km_latency : Metrics.histogram;
  km_span : string; (* "fuse.req.<kind>" *)
}

(* An in-flight request: what the kernel queued for the server, plus the
   reply ivar ([None] for one-way background messages). *)
type item = {
  it_ctx : Protocol.ctx;
  it_req : Protocol.req;
  it_splice : bool;
  mutable it_submit_ns : int64;
  it_reply : Protocol.resp Sched.ivar option;
  it_kind : string;
  it_km : kind_metrics;
}

(* One server worker: its pool slot, its local-deque shard lock, the cond
   it parks on (targeted wakeups go here), and its metric handles. *)
type worker = {
  w_id : int;
  w_busy : Metrics.counter;
  w_depth : Metrics.gauge; (* high-water mark of the local deque *)
  w_lock : Sched.mutex;
  w_cond : Sched.cond;
}

type t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
  sched : Sched.t;
  mutable handler : (Protocol.ctx -> Protocol.req -> Protocol.resp) option;
  (* Number of server worker threads reading /dev/fuse. *)
  mutable threads : int;
  (* Congestion threshold for the background class (kernel default spirit:
     small); one-way submitters block while at or above it. *)
  mutable max_background : int;
  mutable serving : bool;
  (* the server crashed (fault plane or test hook): calls fail ENOTCONN
     immediately until [revive] *)
  mutable dead : bool;
  (* the session closed for good: workers end instead of parking *)
  mutable closed : bool;
  (* [sched] was created for this connection, so its fibers are all ours *)
  own_sched : bool;
  (* while true, calls charge no virtual time (background writeback) *)
  mutable background : bool;
  (* armed fault plane; None = plane off, every consult short-circuits *)
  mutable fault : Fault.t option;
  (* per-request supervision (deadline + retry); Fault.no_retry = off *)
  mutable retry : Fault.retry;
  (* one-shot actions pushed by test hooks (crash_server / hang_server),
     served before the plan so hooks work without arming one *)
  forced : Fault.action Queue.t;
  mutable m_retries : Metrics.counter option;
  mutable m_timeouts : Metrics.counter option;
  (* fuse.splice.{calls,bytes}: created on the first spliced transfer, so
     copy-mode sessions leave the registry untouched *)
  mutable m_splice_calls : Metrics.counter option;
  mutable m_splice_bytes : Metrics.counter option;
  pool : item Sched.Ws.t; (* per-worker deques + steal/targeting state *)
  bg_lock : Sched.mutex; (* guards the background-class throttle waits *)
  bg_cond : Sched.cond; (* throttled one-way submitters park here *)
  mutable bg_inflight : int;
  mutable inflight : int;
  mutable workers : worker array;
  mutable worker_exn : exn option;
  m_requests : Metrics.counter;
  m_round_trips : Metrics.counter;
  m_bytes_to : Metrics.counter;
  m_bytes_from : Metrics.counter;
  m_spliced : Metrics.counter;
  m_copied : Metrics.counter;
  m_ctx_switches : Metrics.counter;
  m_qdepth_max : Metrics.gauge;
  m_qdepth_sum : Metrics.counter;
  m_qdepth_samples : Metrics.counter;
  m_inflight : Metrics.gauge;
  m_inflight_max : Metrics.gauge;
  m_spurious : Metrics.counter;
  m_steals : Metrics.counter;
  m_steal_fails : Metrics.counter;
  m_local_hits : Metrics.counter;
  m_qwait : Metrics.histogram;
  by_kind : (string, kind_metrics) Hashtbl.t;
}

let create ?obs ?sched ~clock () =
  let obs = match obs with Some o -> o | None -> Repro_obs.Obs.create () in
  let own_sched = sched = None in
  let sched = match sched with Some s -> s | None -> Sched.create ~clock in
  let m = Repro_obs.Obs.metrics obs in
  let qdepth_sum = Metrics.counter m "fuse.queue.depth.sum" in
  let qdepth_samples = Metrics.counter m "fuse.queue.depth.samples" in
  Metrics.register_derived m "fuse.queue.depth.mean" (fun () ->
      let n = Metrics.value qdepth_samples in
      if n = 0 then 0. else float_of_int (Metrics.value qdepth_sum) /. float_of_int n);
  {
    clock;
    obs;
    sched;
    handler = None;
    threads = 4;
    max_background = 12;
    serving = false;
    dead = false;
    closed = false;
    own_sched;
    background = false;
    fault = None;
    retry = Fault.no_retry;
    forced = Queue.create ();
    m_retries = None;
    m_timeouts = None;
    m_splice_calls = None;
    m_splice_bytes = None;
    pool = Sched.Ws.create ();
    bg_lock = Sched.mutex ();
    bg_cond = Sched.cond ();
    bg_inflight = 0;
    inflight = 0;
    workers = [||];
    worker_exn = None;
    m_requests = Metrics.counter m "fuse.req.count";
    m_round_trips = Metrics.counter m "fuse.round_trips";
    m_bytes_to = Metrics.counter m "fuse.bytes.to_server";
    m_bytes_from = Metrics.counter m "fuse.bytes.from_server";
    m_spliced = Metrics.counter m "fuse.bytes.spliced";
    m_copied = Metrics.counter m "fuse.bytes.copied";
    m_ctx_switches = Metrics.counter m "os.context_switches";
    m_qdepth_max = Metrics.gauge m "fuse.queue.depth.max";
    m_qdepth_sum = qdepth_sum;
    m_qdepth_samples = qdepth_samples;
    m_inflight = Metrics.gauge m "fuse.inflight";
    m_inflight_max = Metrics.gauge m "fuse.inflight.max";
    m_spurious = Metrics.counter m "fuse.wakeups.spurious";
    m_steals = Metrics.counter m "sched.steals";
    m_steal_fails = Metrics.counter m "sched.steal_fails";
    m_local_hits = Metrics.counter m "sched.local_hits";
    m_qwait = Metrics.histogram m "fuse.queue.wait_us";
    by_kind = Hashtbl.create 16;
  }

let obs t = t.obs
let sched t = t.sched

let kind_metrics t kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some km -> km
  | None ->
      let m = Repro_obs.Obs.metrics t.obs in
      let key suffix = Printf.sprintf "fuse.req.%s.%s" kind suffix in
      let km =
        {
          km_count = Metrics.counter m (key "count");
          km_to = Metrics.counter m (key "bytes_to_server");
          km_from = Metrics.counter m (key "bytes_from_server");
          km_latency = Metrics.histogram m (key "latency_us");
          km_span = "fuse.req." ^ kind;
        }
      in
      Hashtbl.replace t.by_kind kind km;
      km

let set_handler t h = t.handler <- Some h

(* --- server worker pool ----------------------------------------------------- *)

(* Count one splice over the channel; creates the counters lazily. *)
let splice_note t bytes =
  (match t.m_splice_calls with
  | Some _ -> ()
  | None ->
      let m = Repro_obs.Obs.metrics t.obs in
      t.m_splice_calls <- Some (Metrics.counter m "fuse.splice.calls");
      t.m_splice_bytes <- Some (Metrics.counter m "fuse.splice.bytes"));
  (match t.m_splice_calls with Some c -> Metrics.incr c | None -> ());
  (match t.m_splice_bytes with Some c -> Metrics.add c bytes | None -> ())

(* Transfer one payload leg between kernel and server.  Both regimes
   charge the shared Cost prices: splice pays setup + per-page remap (the
   same price Kernel.splice and the proxy pay for a page), copy pays the
   per-KiB double-buffer baseline. *)
let transfer t km ~splice ~to_server bytes =
  if to_server then begin
    Metrics.add t.m_bytes_to bytes;
    Metrics.add km.km_to bytes
  end
  else begin
    Metrics.add t.m_bytes_from bytes;
    Metrics.add km.km_from bytes
  end;
  if splice then begin
    Clock.consume_int t.clock (Cost.splice_cost bytes);
    Metrics.add t.m_spliced bytes;
    splice_note t bytes
  end
  else begin
    Metrics.add t.m_copied bytes;
    Clock.consume_int t.clock (Cost.copy_cost bytes)
  end

(* Resolve an item's reply with ENOTCONN (if anyone still waits for it) and
   drop its in-flight accounting — the crash path for queued requests. *)
let fail_item t item =
  (match item.it_reply with
  | Some iv ->
      if not (Sched.is_filled iv) then
        Sched.fill t.sched iv (Protocol.R_err Errno.ENOTCONN)
  | None -> t.bg_inflight <- t.bg_inflight - 1);
  t.inflight <- t.inflight - 1

(* The server process died: stop serving, resolve every queued request with
   ENOTCONN (bounded virtual time — callers are unblocked now, not parked
   forever), and leave the worker fibers to park.  Requests already being
   served by other workers complete normally, like writes that had reached
   the kernel before the crash. *)
let crash t =
  t.serving <- false;
  t.dead <- true;
  List.iter (fun it -> fail_item t it) (Sched.Ws.drain_all t.pool);
  Metrics.set t.m_inflight (float_of_int t.inflight);
  ignore (Sched.broadcast t.sched t.bg_cond)

(* Shut the connection for good (its session closed): calls fail ENOTCONN
   and the workers end, so a closed session leaves no fiber behind.
   Parked workers end now.  On a scheduler of its own, nothing will run
   the connection's queued fibers again, so they end now too; on a shared
   one, a runnable worker ends when it next runs out of work. *)
let close t =
  t.serving <- false;
  t.closed <- true;
  Array.iter (fun w -> Sched.cancel w.w_cond) t.workers;
  if t.own_sched then Sched.cancel_pending t.sched

(* Bring a crashed connection back after the server has been relaunched and
   a fresh handler installed (see Session.recover).  The parked worker pool
   is reused. *)
let revive t =
  t.dead <- false;
  t.serving <- true

(* Next fault to inject while serving [item], if any: test-hook one-shots
   first, then the armed plan.  None in the common case. *)
let fault_action t item =
  match Queue.take_opt t.forced with
  | Some a -> Some a
  | None -> (
      match t.fault with
      | Some f -> Fault.fuse_action f ~op:item.it_kind
      | None -> None)

(* Serve one dequeued request on the worker's timeline. *)
let process t w item =
  let start = Clock.now_ns t.clock in
  Metrics.observe_ns t.m_qwait (Int64.to_int (Int64.sub start item.it_submit_ns));
  match fault_action t item with
  | Some Fault.Crash_server ->
      (* died in the middle of dispatching this very request *)
      fail_item t item;
      crash t
  | action ->
      (match action with
      | Some (Fault.Hang ns) -> Sched.sleep_ns t.sched ns
      | Some (Fault.Delay ns) -> Clock.consume_int t.clock ns
      | _ -> ());
      (* the read(2) on /dev/fuse that returns this request to the server *)
      Clock.consume_int t.clock Cost.syscall_ns;
      transfer t item.it_km ~splice:item.it_splice ~to_server:true
        (Protocol.req_payload_bytes item.it_req);
      let handler = Option.get t.handler in
      let resp =
        match action with
        | Some (Fault.Fail e) -> Protocol.R_err e
        | _ -> handler item.it_ctx item.it_req
      in
      transfer t item.it_km ~splice:item.it_splice ~to_server:false
        (Protocol.resp_payload_bytes resp);
      let fin = Clock.now_ns t.clock in
      Metrics.add w.w_busy (Int64.to_int (Int64.sub fin start));
      t.inflight <- t.inflight - 1;
      Metrics.set t.m_inflight (float_of_int t.inflight);
      (* completion may unblock a throttled one-way submitter or a quiesce *)
      ignore (Sched.broadcast t.sched t.bg_cond);
      (match item.it_reply with
      | Some iv -> (
          match action with
          | Some Fault.Drop_reply ->
              (* the work happened but the answer is lost; the caller's
                 deadline timer surfaces ETIMEDOUT *)
              ()
          | Some Fault.Duplicate_reply ->
              (* second copy of the reply crosses the wire and is discarded *)
              if not (Sched.is_filled iv) then Sched.fill t.sched iv resp;
              transfer t item.it_km ~splice:item.it_splice ~to_server:false
                (Protocol.resp_payload_bytes resp)
          | _ ->
              (* guarded: a deadline timer may have resolved this call *)
              if not (Sched.is_filled iv) then Sched.fill t.sched iv resp)
      | None ->
          (* the span is closed here since nobody awaits the reply *)
          t.bg_inflight <- t.bg_inflight - 1;
          Metrics.observe_ns item.it_km.km_latency
            (Int64.to_int (Int64.sub fin item.it_submit_ns));
          Repro_obs.Trace.record
            (Repro_obs.Obs.tracer t.obs)
            ~name:item.it_km.km_span ~begin_ns:item.it_submit_ns ~end_ns:fin ())

let rec worker_loop t w =
  Sched.lock t.sched w.w_lock;
  Clock.consume_int t.clock Cost.queue_lock_ns;
  worker_serve t w

(* Holds the worker's own shard lock on entry. *)
and worker_serve t w =
  match Sched.Ws.peek t.pool w.w_id with
  | Some item
    when Int64.compare item.it_submit_ns (Clock.now_ns t.clock) <= 0 ->
      ignore (Sched.Ws.pop t.pool w.w_id);
      Metrics.incr t.m_local_hits;
      Sched.unlock t.sched w.w_lock;
      process t w item;
      (* this work segment ends here: submissions stamped before this
         instant are absorbed with no wake (pipelined pickup) *)
      Sched.Ws.set_avail t.pool w.w_id (Clock.now_ns t.clock);
      (* between requests the server re-enters read(2) on /dev/fuse — a
         real preemption point.  Yielding keeps event order aligned with
         virtual-time order, so same-time peers (woken workers, submitters)
         interleave instead of queueing behind this worker's lock holds. *)
      Sched.yield t.sched;
      worker_loop t w
  | Some item ->
      (* the head request is in this worker's virtual future: the worker
         was blocked in read(2) when it arrived, and its wake is still in
         flight — sleep to the submit time and serve with the same wake
         accounting as a parked worker *)
      let dt = Int64.to_int (Int64.sub item.it_submit_ns (Clock.now_ns t.clock)) in
      (* busy again from the head's submit time through its wake: let
         placement treat this worker as absorbing until then *)
      Sched.Ws.set_avail t.pool w.w_id
        (Int64.add item.it_submit_ns (Int64.of_int Cost.context_switch_ns));
      Sched.unlock t.sched w.w_lock;
      Sched.sleep_ns t.sched dt;
      Clock.consume_int t.clock Cost.context_switch_ns;
      Metrics.incr t.m_ctx_switches;
      worker_loop t w
  | None ->
      Sched.unlock t.sched w.w_lock;
      worker_idle t w

(* Own deque is empty (lock not held): steal, or park once nothing ready
   exists anywhere. *)
and worker_idle t w =
  match try_steal t w with
  | Some item ->
      process t w item;
      Sched.Ws.set_avail t.pool w.w_id (Clock.now_ns t.clock);
      Sched.yield t.sched;
      worker_loop t w
  | None ->
      (* Re-check the local deque under the shard lock, then park in the
         same event segment as the empty check — tasks switch only at
         effects, so a submission either lands before the check (served
         now) or after the park (its targeted wakeup finds us). *)
      Sched.lock t.sched w.w_lock;
      Clock.consume_int t.clock Cost.queue_lock_ns;
      if Sched.Ws.depth t.pool w.w_id > 0 then worker_serve t w
      else if ready_elsewhere t w then begin
        (* A ready request sits behind a busy peer (its submitter targeted
           a worker that was still serving): steal it rather than sleep on
           available work — this is what keeps the partitioned queues as
           work-conserving as the old global FIFO.  The check-then-steal
           pair runs in one event segment, so the walk cannot miss. *)
        Sched.unlock t.sched w.w_lock;
        worker_idle t w
      end
      else if t.closed then Sched.unlock t.sched w.w_lock
      else begin
        (* Nothing anywhere: block in read(2) on /dev/fuse.  FUSE daemon
           threads do not spin in userspace — the read blocks in the
           kernel at once, so the next pickup is a cold wake. *)
        let parked_at = Clock.now_ns t.clock in
        Sched.Ws.set_parked t.pool w.w_id ~at:parked_at;
        Sched.unlock t.sched w.w_lock;
        Sched.park t.sched w.w_cond;
        (* A head stamped at-or-before the park instant means the fiber
           had merely run ahead of the virtual timeline in event order:
           semantically the worker never slept, and the request is picked
           up as pipelined work — no context switch.  Any later head is a
           real wake and pays one.  The peek runs in the same event
           segment as the resume, so it cannot race. *)
        let overlap =
          match Sched.Ws.peek t.pool w.w_id with
          | Some item -> Int64.compare item.it_submit_ns parked_at <= 0
          | None -> false
        in
        if not overlap then begin
          Clock.consume_int t.clock Cost.context_switch_ns;
          Metrics.incr t.m_ctx_switches
        end;
        Sched.Ws.clear_parked t.pool w.w_id;
        Sched.lock t.sched w.w_lock;
        Clock.consume_int t.clock Cost.queue_lock_ns;
        (* woken but the deque is already empty again: a thief got
           there first — the wake was spurious *)
        if Sched.Ws.depth t.pool w.w_id = 0 then Metrics.incr t.m_spurious;
        worker_serve t w
      end

(* Is any other worker's deque head ready to serve right now?  Items whose
   submit time is still in the future are excluded: their owner is
   guaranteed to drain them (a worker never parks on a nonempty deque), so
   parking while only future work exists is safe. *)
and ready_elsewhere t w =
  let now = Clock.now_ns t.clock in
  let n = Array.length t.workers in
  let rec go i =
    i < n
    && ((i <> w.w_id
        &&
        match Sched.Ws.peek t.pool i with
        | Some item -> Int64.compare item.it_submit_ns now <= 0
        | None -> false)
       || go (i + 1))
  in
  go 0

(* Steal the oldest ready entry from the first victim in the thief's
   deterministic rotation order whose head is serviceable.  Every probe
   charges one queue-lock interval to the *stealer's* clock — the walk is
   the thief's cost, not the submitter's.  Probes take no victim lock:
   steals are CAS-shaped (Chase-Lev style — thieves never block the owner
   or the submitter), and the probe-then-steal pair runs in one event
   segment, so it cannot race.  Skipped outright when nothing is queued
   anywhere (the idle-pool common case), so large pools pay no quadratic
   park-time scan. *)
and try_steal t w =
  if Sched.Ws.queued t.pool = 0 then None
  else begin
    let order =
      Sched.Ws.victim_order t.pool ~thief:w.w_id ~now:(Clock.now_ns t.clock)
    in
    let rec walk = function
      | [] ->
          Metrics.incr t.m_steal_fails;
          None
      | v :: rest -> (
          Clock.consume_int t.clock Cost.queue_lock_ns;
          let got =
            match Sched.Ws.peek t.pool v with
            | Some item
              when Int64.compare item.it_submit_ns (Clock.now_ns t.clock) <= 0
              ->
                Sched.Ws.steal_from t.pool ~victim:v
            | _ -> None
          in
          match got with
          | Some _ ->
              Metrics.incr t.m_steals;
              got
          | None -> walk rest)
    in
    walk order
  end

let spawn_worker t i =
  let m = Repro_obs.Obs.metrics t.obs in
  let w =
    {
      w_id = i;
      w_busy = Metrics.counter m (Printf.sprintf "cntrfs.worker.%d.busy_ns" i);
      w_depth =
        Metrics.gauge m (Printf.sprintf "fuse.queue.per_worker_depth.%d" i);
      w_lock = Sched.mutex ();
      w_cond = Sched.cond ();
    }
  in
  t.workers <- Array.append t.workers [| w |];
  ignore
    (Sched.spawn t.sched (fun () ->
         try worker_loop t w with
         | Sched.Cancelled -> ()
         | e -> (match t.worker_exn with None -> t.worker_exn <- Some e | Some _ -> ())))

(* Top up the pool to [t.threads] workers (threads may be retuned between
   benchmark runs on a live connection). *)
let ensure_workers t =
  (match t.worker_exn with Some e -> raise e | None -> ());
  let have = Array.length t.workers in
  if have < t.threads then begin
    Sched.Ws.ensure t.pool t.threads;
    for i = have to t.threads - 1 do
      spawn_worker t i
    done
  end

(* Start serving: the worker pool parks on the request waitqueue from this
   point on. *)
let start_serving t =
  t.serving <- true;
  ensure_workers t;
  (* run the freshly spawned workers to their park point, so the first
     request's wake accounting matches every later one *)
  if not (Sched.in_task ()) then
    Sched.drive_main t.sched (fun () -> Sched.pending_events t.sched = 0)

(* --- submission ------------------------------------------------------------- *)

(* Place each item on one worker's local deque and wake that worker alone.
   Targeting prefers the most recently parked worker (its wake is the
   cheapest — warmest state, shortest stack pop), falling back to a
   round-robin spread once nobody is parked; imbalance left by round-robin
   is repaired by the thieves.  The submitter pays one shard lock per item
   and one try_to_wake_up when the target was actually parked — there is no
   herd to walk, so the per-submission cost no longer grows with the number
   of idle server threads (the old Figure 4 penalty). *)
let enqueue t items =
  List.iter
    (fun item ->
      let wid, _was_parked =
        (* expected-service estimate for the placement score: the wake is
           one context switch; a served item costs about its two /dev/fuse
           crossings plus dispatch *)
        Sched.Ws.submit_target t.pool ~now:(Clock.now_ns t.clock)
          ~wake_ns:Cost.context_switch_ns
          ~item_ns:(Cost.context_switch_ns + (2 * Cost.syscall_ns))
      in
      let w = t.workers.(wid) in
      Sched.lock t.sched w.w_lock;
      Clock.consume_int t.clock Cost.queue_lock_ns;
      Sched.Ws.push t.pool wid item;
      t.inflight <- t.inflight + 1;
      Metrics.high_water w.w_depth (Sched.Ws.depth t.pool wid);
      (* The single targeted try_to_wake_up is the handoff itself — its
         cost is the wakee's context switch, charged when the worker
         resumes (the same convention the old wake-walk used for the first
         waiter). *)
      item.it_submit_ns <- Clock.now_ns t.clock;
      ignore (Sched.signal t.sched w.w_cond);
      Sched.unlock t.sched w.w_lock)
    items;
  let depth = Sched.Ws.queued t.pool in
  Metrics.high_water t.m_qdepth_max depth;
  Metrics.add t.m_qdepth_sum depth;
  Metrics.incr t.m_qdepth_samples;
  Metrics.high_water t.m_inflight_max t.inflight;
  Metrics.set t.m_inflight (float_of_int t.inflight)

let item t ?reply ~splice ctx req =
  let kind = Protocol.req_kind req in
  let km = kind_metrics t kind in
  Metrics.incr t.m_requests;
  Metrics.incr km.km_count;
  {
    it_ctx = ctx;
    it_req = req;
    it_splice = splice;
    it_submit_ns = Clock.now_ns t.clock;
    it_reply = reply;
    it_kind = kind;
    it_km = km;
  }

(* Inline bypass while the driver flushes its writeback cache "for free":
   background dirty-page flushing happens on kernel threads whose time the
   foreground workload never observes.  Counters still record the traffic. *)
let call_background t ~splice ctx req =
  let handler = Option.get t.handler in
  let kind = Protocol.req_kind req in
  let km = kind_metrics t kind in
  Metrics.incr t.m_requests;
  Metrics.incr km.km_count;
  Metrics.incr t.m_round_trips;
  Metrics.add t.m_ctx_switches 2;
  let out_bytes = Protocol.req_payload_bytes req in
  Metrics.add t.m_bytes_to out_bytes;
  Metrics.add km.km_to out_bytes;
  let in_bytes, resp =
    let resp = handler ctx req in
    (Protocol.resp_payload_bytes resp, resp)
  in
  Metrics.add t.m_bytes_from in_bytes;
  Metrics.add km.km_from in_bytes;
  if splice then begin
    Metrics.add t.m_spliced (out_bytes + in_bytes);
    splice_note t (out_bytes + in_bytes)
  end
  else Metrics.add t.m_copied (out_bytes + in_bytes);
  resp

(* Arm supervision: a fault plane to consult while serving, and/or a
   per-request deadline + retry policy.  The fuse.retries / fuse.timeouts
   counters are only created here, so unarmed sessions leave the registry
   untouched (the smoke baseline depends on this). *)
let supervise t ?fault ?retry () =
  (match fault with Some _ -> t.fault <- fault | None -> ());
  (match retry with Some r -> t.retry <- r | None -> ());
  if t.m_retries = None && (t.fault <> None || t.retry <> Fault.no_retry) then begin
    let m = Repro_obs.Obs.metrics t.obs in
    t.m_retries <- Some (Metrics.counter m "fuse.retries");
    t.m_timeouts <- Some (Metrics.counter m "fuse.timeouts")
  end

let supervised t =
  t.fault <> None
  || t.retry.Fault.deadline_ns > 0
  || t.retry.Fault.max_retries > 0
  || not (Queue.is_empty t.forced)

(* Test hooks: make the next served request hit [action], without arming a
   plan ([Attach.hang_server]), or kill the server right now
   ([Attach.crash_server]). *)
let inject t action = Queue.push action t.forced
let inject_crash t = crash t

let incr_opt = function Some c -> Metrics.incr c | None -> ()

(* One round trip.  The submitter pays the queue append and the wake; the
   worker pays dispatch, transfer and service on its own timeline; resuming
   the submitter costs one context switch.  (The wake-side switch is charged
   by the worker when it actually parks — pipelined workers skip it.)

   Under supervision the reply ivar races a deadline timer fiber (losing
   resolves it to ETIMEDOUT), and timed-out / transient replies to
   idempotent opcodes are retried with exponential backoff.  Late replies
   from the worker find the ivar filled and are discarded.  Unarmed
   ([Fault.no_retry]) there is no timer and no retry: one plain round
   trip. *)
let round_trip t ~splice ctx req =
  let retry = t.retry in
  let idem = Protocol.idempotent req in
  let rec attempt n backoff =
    if not t.serving then Protocol.R_err Errno.ENOTCONN
    else begin
      ensure_workers t;
      let begin_ns = Clock.now_ns t.clock in
      let reply = Sched.ivar () in
      let it = item t ~reply ~splice ctx req in
      Metrics.incr t.m_round_trips;
      enqueue t [ it ];
      if retry.Fault.deadline_ns > 0 then
        ignore
          (Sched.spawn t.sched (fun () ->
               Sched.sleep_ns t.sched retry.Fault.deadline_ns;
               if not (Sched.is_filled reply) then begin
                 incr_opt t.m_timeouts;
                 Sched.fill t.sched reply (Protocol.R_err Errno.ETIMEDOUT)
               end));
      let resp = Sched.read t.sched reply in
      (* switch back onto the submitter's CPU *)
      Clock.consume_int t.clock Cost.context_switch_ns;
      Metrics.incr t.m_ctx_switches;
      let end_ns = Clock.now_ns t.clock in
      Metrics.observe_ns it.it_km.km_latency (Int64.to_int (Int64.sub end_ns begin_ns));
      Repro_obs.Trace.record (Repro_obs.Obs.tracer t.obs) ~name:it.it_km.km_span ~begin_ns
        ~end_ns ();
      match resp with
      | Protocol.R_err (Errno.ETIMEDOUT | Errno.EINTR | Errno.ENOMEM)
        when idem && n < retry.Fault.max_retries ->
          incr_opt t.m_retries;
          Sched.sleep_ns t.sched backoff;
          attempt (n + 1) (backoff * retry.Fault.backoff_mult)
      | resp -> resp
    end
  in
  attempt 0 (max retry.Fault.backoff_ns 1)

(* Send one request and wait for the reply. *)
let call t ?(splice = false) ctx req =
  match t.handler with
  | None -> Protocol.R_err Errno.ENOTCONN
  | Some _ ->
      if not t.serving then Protocol.R_err Errno.ENOTCONN
      else if t.background then call_background t ~splice ctx req
      else round_trip t ~splice ctx req

(* Issue several requests as one submission (async reads, READDIRPLUS
   prefetch): one round trip, one queue append, one herd wake, one resume —
   and the members can be served by different workers in parallel. *)
let call_group t ?(splice = false) ctx reqs =
  match reqs with
  | [] -> []
  | [ req ] -> [ call t ~splice ctx req ]
  | reqs -> (
      match t.handler with
      | None -> List.map (fun _ -> Protocol.R_err Errno.ENOTCONN) reqs
      | Some _ ->
          if not t.serving then List.map (fun _ -> Protocol.R_err Errno.ENOTCONN) reqs
          else if t.background then List.map (call_background t ~splice ctx) reqs
          else if supervised t then
            (* under supervision each member needs its own deadline/retry
               bracket, so the batch degrades to sequential round trips *)
            List.map (round_trip t ~splice ctx) reqs
          else begin
            ensure_workers t;
            let begin_ns = Clock.now_ns t.clock in
            let items =
              List.map
                (fun req ->
                  let reply = Sched.ivar () in
                  (item t ~reply ~splice ctx req, reply))
                reqs
            in
            Metrics.incr t.m_round_trips;
            enqueue t (List.map fst items);
            let resps = List.map (fun (_, reply) -> Sched.read t.sched reply) items in
            Clock.consume_int t.clock Cost.context_switch_ns;
            Metrics.incr t.m_ctx_switches;
            let end_ns = Clock.now_ns t.clock in
            List.iter
              (fun (it, _) ->
                Metrics.observe_ns it.it_km.km_latency
                  (Int64.to_int (Int64.sub end_ns begin_ns));
                Repro_obs.Trace.record (Repro_obs.Obs.tracer t.obs) ~name:it.it_km.km_span
                  ~begin_ns ~end_ns ())
              items;
            resps
          end)

(* One-way message (FORGET, RELEASE): queued and answered by nobody.  The
   submitter does not wait for service, but the background class is bounded
   by [max_background] — at the threshold the submitter blocks until the
   pool drains (congestion backpressure). *)
let post t ctx req =
  match t.handler with
  | None -> ()
  | Some _ ->
      if not t.serving then ()
      else if t.background then ignore (call_background t ~splice:false ctx req)
      else begin
        ensure_workers t;
        let rec throttle () =
          if t.bg_inflight >= t.max_background then
            if Sched.in_task () then begin
              Sched.lock t.sched t.bg_lock;
              if t.bg_inflight >= t.max_background then
                Sched.wait t.sched t.bg_cond t.bg_lock;
              Sched.unlock t.sched t.bg_lock;
              throttle ()
            end
            else Sched.drive_main t.sched (fun () -> t.bg_inflight < t.max_background)
        in
        throttle ();
        t.bg_inflight <- t.bg_inflight + 1;
        let it = item t ~splice:false ctx req in
        Metrics.incr t.m_round_trips;
        enqueue t [ it ]
      end

(* Block until every queued and in-service request has completed (unmount /
   teardown barrier). *)
let quiesce t =
  if t.inflight > 0 then begin
    ensure_workers t;
    if Sched.in_task () then
      while t.inflight > 0 do
        Sched.lock t.sched t.bg_lock;
        if t.inflight > 0 then Sched.wait t.sched t.bg_cond t.bg_lock;
        Sched.unlock t.sched t.bg_lock
      done
    else Sched.drive_main t.sched (fun () -> t.inflight = 0)
  end
