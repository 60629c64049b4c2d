(* Span-based tracing on the virtual clock.  Instrumentation sites record
   (begin, end, attrs) events and the tracer forwards each to a pluggable
   sink — JSON-lines for bench/ exports and `cntr stats --trace`.  It
   retains nothing, so with no sink set a record builds no span.
   Timestamps are supplied by the caller (its layer's virtual clock), so
   the tracer itself holds no clock and recording is deterministic. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_begin_ns : int64;
  sp_end_ns : int64;
  sp_attrs : attr list;
}

type sink = span -> unit

type t = { mutable sink : sink option }

let create () = { sink = None }

let set_sink t sink = t.sink <- sink

let record t ~name ~begin_ns ~end_ns ?(attrs = []) () =
  match t.sink with
  | None -> ()
  | Some sink ->
      sink { sp_name = name; sp_begin_ns = begin_ns; sp_end_ns = end_ns; sp_attrs = attrs }

(* --- sinks --------------------------------------------------------------- *)

let jsonl_of_span s =
  let open Repro_util.Jsonx in
  to_string
    (Obj
       [
         ("name", Str s.sp_name);
         ("begin_ns", Int (Int64.to_int s.sp_begin_ns));
         ("end_ns", Int (Int64.to_int s.sp_end_ns));
         ("attrs", Obj (List.map (fun (k, v) -> (k, Str v)) s.sp_attrs));
       ])

(* JSON-lines export: one span object per line. *)
let buffer_sink buf span =
  Buffer.add_string buf (jsonl_of_span span);
  Buffer.add_char buf '\n'
