(* Virtual clock.  All simulated work advances this clock through the cost
   model instead of consuming wall time, which makes every benchmark
   deterministic and fast regardless of the simulated data volume.

   Each world has one clock, and every filesystem of the world is built
   with it, before the world's kernel exists; so the clock also numbers
   the world's filesystems. *)

type t = { mutable now_ns : int64; mutable last_fs_id : int }

let create () = { now_ns = 0L; last_fs_id = 0 }

let fresh_fs_id t =
  t.last_fs_id <- t.last_fs_id + 1;
  t.last_fs_id

(* Current virtual time in nanoseconds since the world was created. *)
let now_ns t = t.now_ns

(* Advance the clock by [ns] nanoseconds of simulated work. *)
let consume t ns =
  if ns > 0L then t.now_ns <- Int64.add t.now_ns ns

let consume_int t ns = consume t (Int64.of_int ns)

(* Warp to an absolute time.  Only the discrete-event scheduler uses this:
   each task keeps its own timeline, and the scheduler sets the clock to an
   event's timestamp before running the owning task's next segment.  Unlike
   [consume] this may move the clock backwards (to a task that is behind). *)
let set_ns t ns = t.now_ns <- ns

(* Measure the virtual time consumed by [f]. *)
let time t f =
  let start = t.now_ns in
  let v = f () in
  (v, Int64.sub t.now_ns start)
