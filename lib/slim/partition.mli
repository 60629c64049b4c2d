(** Static dependency-graph partitioning (Cimplifier-style): slim an image
    by walking [<path>.deps] sidecars from the entrypoint instead of
    running the container under fanotify.  `lib:`/`conf:` lines keep
    single files (symlinks resolved), `data:` lines keep whole
    directories; the result is closed over ancestors and
    {!Slimmer.always_keep}.  Keeps a superset of the dynamic working set
    — offline and parallelizable, but reductions trail {!Slimmer}'s. *)

type report = {
  p_image : string;  (** "name:tag" of the partitioned image *)
  p_original_bytes : int;
  p_slim_bytes : int;
  p_reduction : float;  (** 0.0 – 1.0, same metric as {!Slimmer.report} *)
  p_original_files : int;
  p_slim_files : int;
  p_kept_paths : string list;
}

(** The statically-declared keep set: entrypoint, followed sidecars,
    ancestors, identity files.  Keeps everything if the image has no
    entrypoint. *)
val keep_set : Repro_image.Image.t -> (string, unit) Hashtbl.t

(** Partition without running: returns the report and the slim image
    (name suffixed "-static-slim"). *)
val slim : Repro_image.Image.t -> report * Repro_image.Image.t
