(* Registry-scale parallel slimming: run one slimming task per image over
   a work-stealing pool of {!Repro_sched.Sched} fibers.  Images are
   block-partitioned across the workers up front (worker [w] owns a
   contiguous slice), so per-family cost heterogeneity empties some deques
   early and the idle workers go stealing — the same pickup pattern as the
   FUSE request scheduler, measured here at the image granularity.

   All concurrency is virtual-time: workers overlap where their timelines
   allow, and the sweep's elapsed time is the max over worker timelines,
   not the sum of per-image costs. *)

open Repro_util
module Sched = Repro_sched.Sched
module Metrics = Repro_obs.Metrics

type stats = {
  sw_images : int;
  sw_workers : int;
  sw_elapsed_ns : int64;
  sw_images_per_s : float;
  sw_steals : int;
  sw_steal_fails : int;
  sw_local_hits : int;
}

let run ?(workers = 8) ?metrics ~clock ~images ~cost_ns ~f () =
  let arr = Array.of_list images in
  let n = Array.length arr in
  let workers = max 1 (min workers (max n 1)) in
  let results = Array.make n None in
  let sched = Sched.create ~clock in
  let pool = Sched.Ws.create () in
  Sched.Ws.ensure pool workers;
  (* block partition: worker [w] owns slice [w*n/workers, (w+1)*n/workers) *)
  for w = 0 to workers - 1 do
    let lo = w * n / workers and hi = (w + 1) * n / workers in
    for i = lo to hi - 1 do
      Sched.Ws.push pool w i
    done
  done;
  let t0 = Clock.now_ns clock in
  let steals = ref 0 and steal_fails = ref 0 and local_hits = ref 0 in
  let exec i =
    let image = arr.(i) in
    Clock.consume_int clock (cost_ns image);
    results.(i) <- Some (f image)
  in
  (* Own deque first (FIFO over the owned slice), then steal until the
     whole pool is drained.  Single-threaded fibers make the emptiness
     check exact: queued = 0 really means no work anywhere. *)
  let rec work w =
    match Sched.Ws.pop pool w with
    | Some i ->
        incr local_hits;
        exec i;
        Sched.yield sched;
        work w
    | None -> steal w
  and steal w =
    if Sched.Ws.queued pool > 0 then begin
      let stolen =
        List.fold_left
          (fun acc victim ->
            match acc with
            | Some _ -> acc
            | None -> Sched.Ws.steal_from pool ~victim)
          None
          (Sched.Ws.victim_order pool ~thief:w ~now:(Clock.now_ns clock))
      in
      (match stolen with
      | Some i ->
          incr steals;
          exec i
      | None -> incr steal_fails);
      Sched.yield sched;
      steal w
    end
  in
  let tasks = List.init workers (fun w -> Sched.spawn sched (fun () -> work w)) in
  List.iter (fun t -> Sched.await sched t) tasks;
  let elapsed = Int64.sub (Clock.now_ns clock) t0 in
  (match metrics with
  | None -> ()
  | Some m ->
      Metrics.add (Metrics.counter m "sched.steals") !steals;
      Metrics.add (Metrics.counter m "sched.steal_fails") !steal_fails;
      Metrics.add (Metrics.counter m "sched.local_hits") !local_hits);
  let stats =
    {
      sw_images = n;
      sw_workers = workers;
      sw_elapsed_ns = elapsed;
      sw_images_per_s =
        (if Int64.compare elapsed 0L > 0 then
           float_of_int n /. (Int64.to_float elapsed /. 1e9)
         else 0.0);
      sw_steals = !steals;
      sw_steal_fails = !steal_fails;
      sw_local_hits = !local_hits;
    }
  in
  let out = Array.to_list (Array.map Option.get results) in
  (stats, out)
