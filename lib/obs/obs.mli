(** Unified observability handle: a {!Metrics} registry paired with a
    {!Trace} tracer (a sink slot; it retains no spans).  One [t] is shared
    across the FUSE, CntrFS, VFS and OS layers so that [cntr stats] and
    bench exports read all counters from a single source of truth. *)

type t = { metrics : Metrics.t; tracer : Trace.t }

val create : unit -> t
val metrics : t -> Metrics.t
val tracer : t -> Trace.t

(** Deterministic JSON snapshot of the metrics registry. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
