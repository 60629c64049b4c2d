(** Registry-scale parallel slimming sweep: one task per image on a
    work-stealing pool of {!Repro_sched.Sched} fibers.  Images are
    block-partitioned across workers; cost heterogeneity across program
    families drives the stealing.  Virtual-time throughout: elapsed is
    the max over worker timelines. *)

type stats = {
  sw_images : int;
  sw_workers : int;
  sw_elapsed_ns : int64;  (** virtual wall time of the whole sweep *)
  sw_images_per_s : float;  (** images / virtual second *)
  sw_steals : int;
  sw_steal_fails : int;
  sw_local_hits : int;
}

(** [run ~clock ~images ~cost_ns ~f ()] maps [f] over [images] on
    [workers] fibers, charging [cost_ns image] of virtual time per image.
    Results come back in submission order.  The sweep counts its own
    steals, failed steal walks and local pops for {!stats}; when [metrics]
    is given it also adds them to [sched.steals], [sched.steal_fails] and
    [sched.local_hits]. *)
val run :
  ?workers:int ->
  ?metrics:Repro_obs.Metrics.t ->
  clock:Repro_util.Clock.t ->
  images:Repro_image.Image.t list ->
  cost_ns:(Repro_image.Image.t -> int) ->
  f:(Repro_image.Image.t -> 'a) ->
  unit ->
  stats * 'a list
