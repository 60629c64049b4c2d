(* The unified observability handle threaded through the simulation: one
   metrics registry plus one tracer.  Layers share a single [t] (created by
   World or a test harness) so every counter lands in one place and
   [cntr stats] / bench exports read from a single source of truth. *)

type t = { metrics : Metrics.t; tracer : Trace.t }

let create () = { metrics = Metrics.create (); tracer = Trace.create () }

let metrics t = t.metrics
let tracer t = t.tracer
let to_json t = Metrics.to_json t.metrics
let pp ppf t = Metrics.pp ppf t.metrics
