(** Span-based tracing on the virtual clock: [(begin, end, attrs)] events
    handed to a pluggable sink (JSON-lines for [cntr stats --trace] and
    bench exports).  The tracer keeps nothing: with no sink set, recording
    builds no span.  Timestamps come from the recording site's virtual
    clock; the tracer holds no clock of its own. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_begin_ns : int64;
  sp_end_ns : int64;
  sp_attrs : attr list;
}

(** A sink sees every span recorded while it is set. *)
type sink = span -> unit

type t

val create : unit -> t

val set_sink : t -> sink option -> unit

(** Hand one span to the sink; a no-op when none is set. *)
val record :
  t -> name:string -> begin_ns:int64 -> end_ns:int64 -> ?attrs:attr list -> unit -> unit

(** Append one JSON line per span to a buffer (the JSON-lines export
    format). *)
val buffer_sink : Buffer.t -> sink
