(** Span-based tracing on the virtual clock: [(begin, end, attrs)] events
    with ring-buffer retention and pluggable sinks (in-memory for tests,
    JSON-lines for bench/ exports).  Timestamps come from the recording
    site's virtual clock; the tracer holds no clock of its own. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_begin_ns : int64;
  sp_end_ns : int64;
  sp_attrs : attr list;
}

(** A sink sees every recorded span, even those later overwritten in the
    ring. *)
type sink = span -> unit

type t

(** [capacity] bounds ring retention (default 4096 spans). *)
val create : ?capacity:int -> unit -> t

val set_sink : t -> sink option -> unit

val record :
  t -> name:string -> begin_ns:int64 -> end_ns:int64 -> ?attrs:attr list -> unit -> unit

(** Time [f] on [clock] and record the span around it. *)
val with_span : t -> clock:Repro_util.Clock.t -> ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(** Retained spans, oldest first. *)
val spans : t -> span list

(** Total spans ever recorded. *)
val recorded : t -> int

(** Spans evicted from the ring ([recorded - capacity], floored at 0). *)
val dropped : t -> int

val clear : t -> unit

(** Append one JSON line per span to a buffer (the JSON-lines export
    format). *)
val buffer_sink : Buffer.t -> sink

(** In-memory sink plus a reader of everything it has seen (unbounded,
    unlike the ring). *)
val memory_sink : unit -> sink * (unit -> span list)
