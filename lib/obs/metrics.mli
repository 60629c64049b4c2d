(** Deterministic metrics registry: named counters, gauges and virtual-time
    latency histograms keyed by hierarchical names such as
    ["fuse.req.lookup.latency_us"].

    Naming convention (see README): [<layer>.<subsystem>.<metric>] with
    layers [fuse], [cntrfs], [vfs] and [os]; latency histograms end in
    [_us] (microseconds of virtual time).  All values are derived from the
    virtual clock and seeded RNGs, so two identical runs snapshot to
    byte-identical JSON. *)

type t
(** A registry.  Get-or-create accessors raise [Invalid_argument] when a
    name is reused with a different metric kind. *)

val create : unit -> t

(** {1 Counters} *)

type counter

(** Get or create; hot paths should hold the returned handle. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** Value by name; 0 when absent. *)
val counter_value : t -> string -> int

(** Counters whose name starts with [prefix], sorted by name. *)
val counters_with_prefix : t -> prefix:string -> (string * int) list

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

(** Add to a gauge, for one that several owners each move by their own
    changes. *)
val shift : gauge -> float -> unit

(** [high_water g v] raises a max gauge to [v] when [v] exceeds it, and
    never lowers it.  Every owner that shares the registry raises the same
    gauge, so it holds the maximum over all of them; the owners keep no
    copy of it. *)
val high_water : gauge -> int -> unit

(** A gauge computed at snapshot time (hit ratios, amplification factors).
    Re-registering an existing derived name keeps the first closure. *)
val register_derived : t -> string -> (unit -> float) -> unit

(** Stored or derived gauge value by name; 0 when absent. *)
val gauge_value : t -> string -> float

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

(** Record a virtual-time duration in nanoseconds as microseconds. *)
val observe_ns : histogram -> int -> unit

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

(** Percentiles come from a bounded deterministic sample reservoir backed
    by {!Repro_util.Stats.percentile}. *)
val summarize : histogram -> summary

(** [summarize] of an existing histogram; [None] when the name was never
    observed.  Readers (benches, the daemon's [session.stat]) use this so a
    probe never mutates the registry. *)
val histogram_summary : t -> string -> summary option

(** {1 Snapshots} *)

(** Deterministic JSON object with sorted ["counters"], ["gauges"] and
    ["histograms"] sections. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit

(** {!Repro_util.Jsonx.escape}, the codec's string escaping. *)
val json_escape : string -> string
