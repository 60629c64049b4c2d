(* Unit tests for the discrete-event scheduler: per-task timelines, overlap
   semantics (max-of-timelines), ivar ordering, Mesa mutexes, condition
   variables, and the sequential-identity property the FUSE request queue
   relies on (1 worker + 1 client == inline execution). *)

open Repro_util

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let check_ns name expect clock =
  Alcotest.(check int64) name (Int64.of_int expect) (Clock.now_ns clock)

let mk () =
  let clock = Clock.create () in
  let sched = Repro_sched.Sched.create ~clock in
  (clock, sched)

module Sched = Repro_sched.Sched

(* --- tasks & timelines ------------------------------------------------------ *)

let test_run_charges_task_time () =
  let clock, s = mk () in
  let v = Sched.run s (fun () -> Clock.consume_int clock 1_000; 42) in
  check_i "value" 42 v;
  check_ns "task time charged" 1_000 clock

let test_parallel_tasks_overlap () =
  (* two tasks spawned at t0 run on their own timelines: the join lands at
     the max, not the sum *)
  let clock, s = mk () in
  let t1 = Sched.spawn s (fun () -> Clock.consume_int clock 1_000) in
  let t2 = Sched.spawn s (fun () -> Clock.consume_int clock 5_000) in
  Sched.await s t1;
  Sched.await s t2;
  check_ns "elapsed = max, not sum" 5_000 clock

let test_spawn_inherits_current_time () =
  let clock, s = mk () in
  Clock.consume_int clock 700;
  let t1 = Sched.spawn s (fun () -> Clock.consume_int clock 300) in
  Sched.await s t1;
  check_ns "start offset + task work" 1_000 clock

let test_nested_spawn () =
  let clock, s = mk () in
  let outer =
    Sched.spawn s (fun () ->
        Clock.consume_int clock 100;
        let inner = Sched.spawn s (fun () -> Clock.consume_int clock 1_000) in
        Clock.consume_int clock 50;
        Sched.await s inner)
  in
  Sched.await s outer;
  check_ns "inner joined from a task" 1_100 clock

let test_task_exception_propagates () =
  let _, s = mk () in
  let t = Sched.spawn s (fun () -> failwith "boom") in
  match Sched.await s t with
  | exception Failure m -> Alcotest.(check string) "exn carried" "boom" m
  | () -> Alcotest.fail "expected exception"

let test_deadlock_detected () =
  let _, s = mk () in
  let (iv : unit Sched.ivar) = Sched.ivar () in
  match Sched.read s iv with
  | exception Sched.Deadlock _ -> ()
  | () -> Alcotest.fail "expected Deadlock"

(* --- ivars ------------------------------------------------------------------ *)

let test_ivar_read_waits_for_fill_time () =
  (* the reader cannot observe a value before it was produced *)
  let clock, s = mk () in
  let iv = Sched.ivar () in
  let producer =
    Sched.spawn s (fun () ->
        Clock.consume_int clock 2_000;
        Sched.fill s iv 7)
  in
  let v = Sched.read s iv in
  check_i "value" 7 v;
  check_ns "reader warped to fill time" 2_000 clock;
  Sched.await s producer

let test_ivar_read_after_fill_keeps_reader_time () =
  let clock, s = mk () in
  let iv = Sched.ivar () in
  let producer = Sched.spawn s (fun () -> Sched.fill s iv 7) in
  Clock.consume_int clock 9_000;
  let v = Sched.read s iv in
  Sched.await s producer;
  check_i "value" 7 v;
  check_ns "late reader keeps its own time" 9_000 clock

(* --- mutex ------------------------------------------------------------------ *)

let test_mutex_serializes_tasks () =
  (* two tasks each hold the lock for 1000ns: the second's critical section
     starts only after the first releases *)
  let clock, s = mk () in
  let m = Sched.mutex () in
  let sections = ref [] in
  let worker () =
    Sched.with_lock s m (fun () ->
        let t0 = Clock.now_ns clock in
        Clock.consume_int clock 1_000;
        sections := (t0, Clock.now_ns clock) :: !sections)
  in
  let t1 = Sched.spawn s worker in
  let t2 = Sched.spawn s worker in
  Sched.await s t1;
  Sched.await s t2;
  match List.rev !sections with
  | [ (a0, a1); (b0, _) ] ->
      check_b "no overlap" true (Int64.compare b0 a1 >= 0);
      check_ns "total serialized" 2_000 clock;
      check_b "first started at 0" true (Int64.equal a0 0L)
  | _ -> Alcotest.fail "expected two sections"

let test_mutex_reentrant () =
  let clock, s = mk () in
  let m = Sched.mutex () in
  Sched.run s (fun () ->
      Sched.with_lock s m (fun () ->
          Sched.with_lock s m (fun () -> Clock.consume_int clock 10)));
  check_ns "reentrant lock ran" 10 clock

(* --- condition variables ---------------------------------------------------- *)

let test_cond_broadcast_counts_waiters () =
  let clock, s = mk () in
  let m = Sched.mutex () in
  let cv = Sched.cond () in
  let ready = ref 0 in
  let go = ref false in
  let waiter () =
    Sched.lock s m;
    incr ready;
    while not !go do
      Sched.wait s cv m
    done;
    Sched.unlock s m
  in
  let ws = List.init 3 (fun _ -> Sched.spawn s waiter) in
  (* drive until all three are parked on the condvar *)
  Sched.drive_main s (fun () -> !ready = 3 && Sched.pending_events s = 0);
  Clock.consume_int clock 500;
  go := true;
  let woken = Sched.broadcast s cv in
  check_i "broadcast counted the herd" 3 woken;
  List.iter (Sched.await s) ws;
  check_b "no waiters left" true (Sched.signal s cv = 0)

(* --- sequential identity ----------------------------------------------------

   The property the Conn refactor leans on: a producer/consumer pair over a
   queue, with ONE consumer and ONE top-level producer, yields exactly the
   timeline of inline execution.  Randomized over work sizes (qcheck). *)

let sequential_identity_prop (works : int list) =
  let works = List.map (fun w -> 1 + (abs w mod 10_000)) works in
  (* inline model: each item costs submit(30) + service(w) in one thread *)
  let expect =
    List.fold_left (fun acc w -> acc + 30 + w) 0 works
  in
  let clock, s = mk () in
  let q = Queue.create () in
  let m = Sched.mutex () in
  let cv = Sched.cond () in
  let consumer_done : unit Sched.ivar = Sched.ivar () in
  let n = List.length works in
  let served = ref 0 in
  let _consumer =
    Sched.spawn s (fun () ->
        while !served < n do
          Sched.lock s m;
          while Queue.is_empty q do
            Sched.wait s cv m
          done;
          let w, reply = Queue.pop q in
          Sched.unlock s m;
          Clock.consume_int clock w;
          incr served;
          Sched.fill s reply ()
        done;
        Sched.fill s consumer_done ())
  in
  List.iter
    (fun w ->
      let reply : unit Sched.ivar = Sched.ivar () in
      Sched.lock s m;
      Clock.consume_int clock 30;
      Queue.push (w, reply) q;
      ignore (Sched.broadcast s cv);
      Sched.unlock s m;
      Sched.read s reply)
    works;
  Sched.read s consumer_done;
  Int64.equal (Clock.now_ns clock) (Int64.of_int expect)

let qcheck_sequential_identity =
  QCheck.Test.make ~count:200 ~name:"1 consumer + 1 producer == inline timeline"
    QCheck.(list_of_size Gen.(1 -- 40) int)
    sequential_identity_prop

(* --- Dq model check ---------------------------------------------------------

   The two-list deque against the obvious list model: any interleaving of
   pushes and pops at both ends matches list semantics.  Every scheduler
   wait list and worker run queue now leans on this structure. *)

let dq_model_prop (ops : (int * int) list) =
  let dq : int Sched.Dq.t = Sched.Dq.create () in
  let model = ref [] in
  (* front of the deque = head of the list *)
  let ok = ref true in
  let expect a b = if a <> b then ok := false in
  List.iter
    (fun (op, v) ->
      match abs op mod 4 with
      | 0 ->
          Sched.Dq.push_back dq v;
          model := !model @ [ v ]
      | 1 ->
          Sched.Dq.push_front dq v;
          model := v :: !model
      | 2 -> (
          let got = Sched.Dq.pop_front dq in
          match !model with
          | [] -> expect got None
          | x :: rest ->
              model := rest;
              expect got (Some x))
      | _ -> (
          let got = Sched.Dq.pop_back dq in
          match List.rev !model with
          | [] -> expect got None
          | x :: rest ->
              model := List.rev rest;
              expect got (Some x)))
    ops;
  !ok
  && Sched.Dq.length dq = List.length !model
  && Sched.Dq.is_empty dq = (!model = [])
  && Sched.Dq.drain dq = !model

let qcheck_dq_model =
  QCheck.Test.make ~count:500 ~name:"Dq == list model"
    QCheck.(list_of_size Gen.(0 -- 60) (pair small_int small_int))
    dq_model_prop

(* --- Ws: deterministic steal order ------------------------------------------ *)

let test_ws_victim_order () =
  let p1 : int Sched.Ws.t = Sched.Ws.create ~seed:42 () in
  let p2 : int Sched.Ws.t = Sched.Ws.create ~seed:42 () in
  Sched.Ws.ensure p1 8;
  Sched.Ws.ensure p2 8;
  (* same seed, same thief, same instant: byte-identical walks *)
  let o1 = Sched.Ws.victim_order p1 ~thief:3 ~now:123456L in
  let o2 = Sched.Ws.victim_order p2 ~thief:3 ~now:123456L in
  Alcotest.(check (list int)) "same seed, same walk" o1 o2;
  (* a walk visits every other worker exactly once, never the thief *)
  check_i "walk covers the pool" 7 (List.length o1);
  check_b "thief is not its own victim" true (not (List.mem 3 o1));
  check_i "no duplicate victims" 7 (List.length (List.sort_uniq compare o1));
  (* the starting point rotates with the clock (different instants give a
     different rotation somewhere), and with the thief's private stream *)
  check_b "rotation varies with the clock" true
    (List.exists
       (fun now -> Sched.Ws.victim_order p1 ~thief:3 ~now <> o1)
       [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]);
  check_b "rotation varies across thieves" true
    (List.exists
       (fun thief ->
         List.filter (fun v -> v <> 3) (Sched.Ws.victim_order p1 ~thief ~now:123456L)
         <> List.filter (fun v -> v <> thief) o1)
       [ 0; 1; 2; 4 ])

(* A thief takes the oldest entry of its victim's queue, the owner pops the
   next one, and the pool's total follows both; the test counts its own
   pops and steals, as every pool client does. *)
let test_ws_steal_takes_oldest () =
  let p : int Sched.Ws.t = Sched.Ws.create () in
  Sched.Ws.ensure p 2;
  List.iter (Sched.Ws.push p 0) [ 1; 2; 3 ];
  let pops = ref 0 and steals = ref 0 in
  let count r = Option.map (fun x -> incr r; x) in
  Alcotest.(check (option int)) "steal takes the oldest" (Some 1)
    (count steals (Sched.Ws.steal_from p ~victim:0));
  Alcotest.(check (option int)) "owner pops the next" (Some 2) (count pops (Sched.Ws.pop p 0));
  check_i "one left" 1 (Sched.Ws.queued p);
  Alcotest.(check (option int)) "empty victim" None
    (count steals (Sched.Ws.steal_from p ~victim:1));
  check_i "pops" 1 !pops;
  check_i "steals" 1 !steals

(* --- Ws: one worker degenerates to inline ------------------------------------

   A pool of ONE worker running the full pop-steal-park loop serves
   randomized submissions on exactly the inline timeline: the stealing
   machinery (empty victim walks, placement scoring, park/wake
   bookkeeping) adds no virtual time of its own. *)

let ws_single_worker_prop (works : int list) =
  let works = List.map (fun w -> 1 + (abs w mod 10_000)) works in
  let expect = List.fold_left (fun acc w -> acc + 30 + w) 0 works in
  let clock, s = mk () in
  let pool : (int * unit Sched.ivar) Sched.Ws.t = Sched.Ws.create ~seed:7 () in
  Sched.Ws.ensure pool 1;
  let m = Sched.mutex () in
  let cv = Sched.cond () in
  let n = List.length works in
  let served = ref 0 in
  let worker_done : unit Sched.ivar = Sched.ivar () in
  let _worker =
    Sched.spawn s (fun () ->
        while !served < n do
          Sched.lock s m;
          (match Sched.Ws.pop pool 0 with
          | Some (w, reply) ->
              Sched.unlock s m;
              Clock.consume_int clock w;
              incr served;
              Sched.fill s reply ()
          | None -> (
              (* steal walk: no victims in a pool of one *)
              match Sched.Ws.victim_order pool ~thief:0 ~now:(Clock.now_ns clock) with
              | _ :: _ -> failwith "victim in a singleton pool"
              | [] ->
                  Sched.Ws.set_parked pool 0 ~at:(Clock.now_ns clock);
                  Sched.unlock s m;
                  Sched.park s cv;
                  Sched.Ws.clear_parked pool 0))
        done;
        Sched.fill s worker_done ())
  in
  List.iter
    (fun w ->
      let reply : unit Sched.ivar = Sched.ivar () in
      let wid, _ =
        Sched.Ws.submit_target pool ~now:(Clock.now_ns clock) ~wake_ns:2500 ~item_ns:100
      in
      Sched.lock s m;
      Clock.consume_int clock 30;
      Sched.Ws.push pool wid (w, reply);
      ignore (Sched.signal s cv);
      Sched.unlock s m;
      Sched.read s reply)
    works;
  Sched.read s worker_done;
  (* every placement in a singleton pool lands on worker 0 (size stays 1),
     the worker's own pops served every submission and left nothing
     queued (its victim walks are empty, so it never steals), and no
     virtual time beyond the inline submit+service sum ever passed *)
  Sched.Ws.size pool = 1
  && !served = List.length works
  && Sched.Ws.queued pool = 0
  && Int64.equal (Clock.now_ns clock) (Int64.of_int expect)

let qcheck_ws_single_worker =
  QCheck.Test.make ~count:200 ~name:"1-worker stealing pool == inline timeline"
    QCheck.(list_of_size Gen.(1 -- 40) int)
    ws_single_worker_prop

(* Cancelling a cond ends every fiber parked on it at once: their tasks
   finish, nothing is left scheduled and no virtual time passes. *)
let test_cond_cancel_ends_parked () =
  let clock, s = mk () in
  let cv = Sched.cond () in
  let parked = ref 0 and ended = ref 0 in
  let waiter () =
    incr parked;
    try Sched.park s cv with Sched.Cancelled -> incr ended
  in
  let ws = List.init 3 (fun _ -> Sched.spawn s waiter) in
  Sched.drive_main s (fun () -> !parked = 3 && Sched.pending_events s = 0);
  let before = Clock.now_ns clock in
  Sched.cancel cv;
  check_i "every parked fiber ended" 3 !ended;
  check_i "nothing scheduled" 0 (Sched.pending_events s);
  Alcotest.(check int64) "no time passed" before (Clock.now_ns clock);
  List.iter (fun w -> Sched.await s w) ws;
  check_i "no waiter left to signal" 0 (Sched.signal s cv)

(* Cancelling a scheduler's queue ends its runnable fibers and drops the
   ones that never started, again without time passing. *)
let test_cancel_pending_ends_runnable () =
  let clock, s = mk () in
  let started = ref 0 and ended = ref 0 in
  let sleeper () =
    incr started;
    try Sched.sleep_ns s 1_000 with Sched.Cancelled -> incr ended
  in
  ignore (Sched.spawn s sleeper);
  ignore (Sched.spawn s sleeper);
  Sched.drive_main s (fun () -> !started = 2);
  ignore (Sched.spawn s sleeper);
  Sched.cancel_pending s;
  check_i "the two sleepers ended" 2 !ended;
  check_i "the unstarted one never ran" 2 !started;
  check_i "nothing scheduled" 0 (Sched.pending_events s);
  check_ns "no time passed" 0 clock

(* --- fiber id cell ------------------------------------------------------------

   [Sched.current_id] reads a cell that each fiber segment sets.  The
   reference is the handler stack itself: every fiber body below runs
   under a handler of its own answering [Probe] with the id the scheduler
   gives it (spawn order, from 1 per scheduler), and at top level the
   effect goes unhandled, answering 0.  The two must agree everywhere. *)

type _ Effect.t += Probe : int Effect.t

let probe () = try Effect.perform Probe with Effect.Unhandled _ -> 0

let labelled (id : int) f () =
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    function Probe -> Some (fun k -> Effect.Deep.continue k id) | _ -> None
  in
  Effect.Deep.match_with f () { Effect.Deep.retc = Fun.id; exnc = raise; effc }

let agree where =
  check_i (where ^ ": cell = handler stack") (probe ()) (Sched.current_id ());
  check_b (where ^ ": in_task") (probe () > 0) (Sched.in_task ())

let test_fiber_id_cell () =
  let _, s = mk () in
  agree "top level";
  let cv = Sched.cond () in
  (* 1: park and resume *)
  let f1 =
    Sched.spawn s
      (labelled 1 (fun () ->
           agree "fiber 1";
           Sched.park s cv;
           agree "fiber 1 after resume"))
  in
  Sched.drive_main s (fun () -> Sched.pending_events s = 0);
  agree "top level while fiber 1 is parked";
  check_i "one parked" 1 (Sched.signal s cv);
  Sched.await s f1;
  agree "top level after fiber 1";
  (* 2: raises; 3 awaits 4, which raises *)
  let f2 = Sched.spawn s (labelled 2 (fun () -> agree "fiber 2"; failwith "two")) in
  (match Sched.await s f2 with exception Failure _ -> () | () -> Alcotest.fail "fiber 2 raised");
  agree "top level after fiber 2 raised";
  Sched.run s
    (labelled 3 (fun () ->
         let f4 = Sched.spawn s (labelled 4 (fun () -> agree "fiber 4"; failwith "four")) in
         (match Sched.await s f4 with
         | exception Failure _ -> ()
         | () -> Alcotest.fail "fiber 4 raised");
         agree "fiber 3 after fiber 4 raised"));
  (* 5 is cancelled from top level; 6 cancels 7 *)
  let f5 =
    Sched.spawn s
      (labelled 5 (fun () ->
           try Sched.park s cv with Sched.Cancelled -> agree "fiber 5 unwinding"))
  in
  Sched.drive_main s (fun () -> Sched.pending_events s = 0);
  Sched.cancel cv;
  agree "top level after cancel";
  Sched.await s f5;
  let cv7 = Sched.cond () in
  Sched.run s
    (labelled 6 (fun () ->
         let f7 =
           Sched.spawn s
             (labelled 7 (fun () ->
                  try Sched.park s cv7 with Sched.Cancelled -> agree "fiber 7 unwinding"))
         in
         Sched.yield s;
         Sched.cancel cv7;
         agree "fiber 6 after cancelling 7";
         Sched.await s f7;
         agree "fiber 6 after awaiting 7"));
  (* nested schedulers: fiber 8 of [s] drives [b], whose fiber 1 runs
     inside it, parks, and ends from top level *)
  let _, b = mk () in
  let bcv = Sched.cond () in
  let b1 = ref None in
  Sched.run s
    (labelled 8 (fun () ->
         b1 :=
           Some
             (Sched.spawn b
                (labelled 1 (fun () ->
                     agree "b's fiber 1 inside s's fiber 8";
                     Sched.park b bcv;
                     agree "b's fiber 1 resumed at top level")));
         Sched.drive_main b (fun () -> Sched.pending_events b = 0);
         agree "s's fiber 8 after driving b"));
  agree "top level after the nested run";
  check_i "b's fiber parked" 1 (Sched.signal b bcv);
  Sched.await b (Option.get !b1);
  agree "top level at the end"

(* --- mutex hold ring ---------------------------------------------------------

   A mutex keeps its last 32 committed holds in a ring.  The reference is
   the list it replaced, built on the public primitives (a cond for the
   waiters: [park] and [signal] queue and wake exactly as the mutex's own
   wait list does).  Random programs of several fibers and the top level
   must acquire at the same instants under both. *)

module Ref_mutex = struct
  type t = {
    mutable owner : int;
    mutable depth : int;
    mutable start : int64;
    mutable holds : (int64 * int64) list; (* newest first *)
    waiters : Sched.cond;
  }

  let create () = { owner = 0; depth = 0; start = 0L; holds = []; waiters = Sched.cond () }
  let token () = match Sched.current_id () with 0 -> -1 | id -> id

  let acquired clock m me =
    m.owner <- me;
    m.depth <- 1;
    let rec settle s =
      match List.find_opt (fun (b, e) -> b <= s && s < e) m.holds with
      | Some (_, e) -> settle e
      | None -> s
    in
    let now = Clock.now_ns clock in
    let s = settle now in
    if s > now then Clock.set_ns clock s;
    m.start <- s

  let rec lock s clock m =
    let me = token () in
    if m.owner = 0 then acquired clock m me
    else if m.owner = me then m.depth <- m.depth + 1
    else if me = -1 then begin
      Sched.drive_main s (fun () -> m.owner = 0);
      acquired clock m me
    end
    else begin
      Sched.park s m.waiters;
      lock s clock m
    end

  let unlock s clock m =
    if m.owner <> token () then invalid_arg "Ref_mutex.unlock: not the owner";
    m.depth <- m.depth - 1;
    if m.depth = 0 then begin
      m.owner <- 0;
      m.holds <- List.filteri (fun i _ -> i < 32) ((m.start, Clock.now_ns clock) :: m.holds);
      ignore (Sched.signal s m.waiters)
    end
end

(* One step of a program: [kind] picks the action, [mu] one of two
   mutexes, [ns] an amount of work. *)
let run_mutex_program ~make (progs : (int * int * int) list list) =
  let clock, s = mk () in
  let lock, unlock = make s clock in
  let log = ref [] in
  let step who (kind, mu, ns) =
    let mu = abs mu mod 2 and ns = abs ns mod 5_000 in
    match abs kind mod 6 with
    | 0 | 1 ->
        lock mu;
        log := (who, Clock.now_ns clock) :: !log;
        Clock.consume_int clock ns;
        unlock mu
    | 2 ->
        (* a section that yields, so others find the lock held *)
        lock mu;
        log := (who, Clock.now_ns clock) :: !log;
        Clock.consume_int clock ns;
        Sched.yield s;
        Clock.consume_int clock 100;
        unlock mu
    | 3 ->
        lock mu;
        lock mu;
        log := (who, Clock.now_ns clock) :: !log;
        Clock.consume_int clock ns;
        unlock mu;
        unlock mu
    | 4 -> Sched.sleep_ns s ns
    | _ -> Sched.yield s
  in
  match progs with
  | [] -> (!log, Clock.now_ns clock)
  | main :: fibers ->
      let tasks = List.mapi (fun i p -> Sched.spawn s (fun () -> List.iter (step (i + 1)) p)) fibers in
      List.iter (step 0) main;
      List.iter (Sched.await s) tasks;
      (List.rev !log, Clock.now_ns clock)

let ring_mutexes s _clock =
  let ms = Array.init 2 (fun _ -> Sched.mutex ()) in
  ((fun i -> Sched.lock s ms.(i)), fun i -> Sched.unlock s ms.(i))

let list_mutexes s clock =
  let ms = Array.init 2 (fun _ -> Ref_mutex.create ()) in
  ((fun i -> Ref_mutex.lock s clock ms.(i)), fun i -> Ref_mutex.unlock s clock ms.(i))

let hold_ring_prop progs =
  run_mutex_program ~make:ring_mutexes progs = run_mutex_program ~make:list_mutexes progs

let gen_step = QCheck.Gen.(triple small_int small_int (int_bound 10_000))

let qcheck_hold_ring =
  QCheck.Test.make ~count:300 ~name:"hold ring == list of holds"
    QCheck.(
      make
        ~print:(fun ps -> Printf.sprintf "%d programs" (List.length ps))
        Gen.(list_size (1 -- 4) (list_size (0 -- 40) gen_step)))
    hold_ring_prop

(* A fiber that commits 80 holds on one mutex in one segment, ahead of a
   fiber that then locks at time 0: the ring wraps, and both forget the
   same old holds. *)
let qcheck_hold_ring_wraps =
  QCheck.Test.make ~count:100 ~name:"hold ring == list of holds past 32 holds"
    QCheck.(
      make
        Gen.(
          pair (list_size (33 -- 80) (int_bound 3_000)) (list_size (1 -- 10) gen_step)))
    (fun (works, late) ->
      let burst = List.map (fun w -> (0, 0, w)) works in
      hold_ring_prop [ []; burst; late; List.map (fun (k, _, w) -> (k, 0, w)) late ])

(* --- suite ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sched"
    [
      ( "tasks",
        [
          tc "run charges task time" `Quick test_run_charges_task_time;
          tc "parallel tasks overlap" `Quick test_parallel_tasks_overlap;
          tc "spawn inherits current time" `Quick test_spawn_inherits_current_time;
          tc "nested spawn" `Quick test_nested_spawn;
          tc "task exception propagates" `Quick test_task_exception_propagates;
          tc "deadlock detected" `Quick test_deadlock_detected;
        ] );
      ( "ivars",
        [
          tc "read waits for fill time" `Quick test_ivar_read_waits_for_fill_time;
          tc "late read keeps reader time" `Quick test_ivar_read_after_fill_keeps_reader_time;
        ] );
      ( "mutex",
        [
          tc "serializes tasks" `Quick test_mutex_serializes_tasks;
          tc "reentrant" `Quick test_mutex_reentrant;
          QCheck_alcotest.to_alcotest qcheck_hold_ring;
          QCheck_alcotest.to_alcotest qcheck_hold_ring_wraps;
        ] );
      ("fiber-id", [ tc "cell agrees with the handler stack" `Quick test_fiber_id_cell ]);
      ( "cond",
        [
          tc "broadcast counts waiters" `Quick test_cond_broadcast_counts_waiters;
          tc "cancel ends parked fibers" `Quick test_cond_cancel_ends_parked;
          tc "cancel_pending ends runnable fibers" `Quick test_cancel_pending_ends_runnable;
        ] );
      ( "sequential-identity",
        [ QCheck_alcotest.to_alcotest qcheck_sequential_identity ] );
      ("dq", [ QCheck_alcotest.to_alcotest qcheck_dq_model ]);
      ( "work-stealing",
        [
          tc "deterministic victim order" `Quick test_ws_victim_order;
          tc "steal takes the oldest entry" `Quick test_ws_steal_takes_oldest;
          QCheck_alcotest.to_alcotest qcheck_ws_single_worker;
        ] );
    ]
