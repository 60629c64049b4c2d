(* Span-based tracing on the virtual clock.  Instrumentation sites record
   (begin, end, attrs) events; the tracer retains the most recent
   [capacity] spans in a ring buffer and optionally forwards every span to
   a pluggable sink — in-memory for tests, JSON-lines for bench/ exports.
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

type t = {
  capacity : int;
  ring : span option array;
  mutable next : int; (* ring write cursor *)
  mutable recorded : int; (* total spans ever recorded *)
  mutable sink : sink option;
}

let create ?(capacity = 4096) () =
  { capacity = max 1 capacity; ring = Array.make (max 1 capacity) None; next = 0; recorded = 0; sink = None }

let set_sink t sink = t.sink <- sink

let record t ~name ~begin_ns ~end_ns ?(attrs = []) () =
  let span = { sp_name = name; sp_begin_ns = begin_ns; sp_end_ns = end_ns; sp_attrs = attrs } in
  t.ring.(t.next) <- Some span;
  t.next <- (t.next + 1) mod t.capacity;
  t.recorded <- t.recorded + 1;
  match t.sink with None -> () | Some sink -> sink span

(* Time [f] on [clock] and record the span around it. *)
let with_span t ~clock ?attrs name f =
  let begin_ns = Repro_util.Clock.now_ns clock in
  let result = f () in
  record t ~name ~begin_ns ~end_ns:(Repro_util.Clock.now_ns clock) ?attrs ();
  result

(* Ring contents, oldest first. *)
let spans t =
  let out = ref [] in
  for i = t.capacity - 1 downto 0 do
    match t.ring.((t.next + i) mod t.capacity) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  !out

let recorded t = t.recorded
let dropped t = max 0 (t.recorded - t.capacity)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.recorded <- 0

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

(* In-memory sink for tests: returns the sink and a reader for everything
   it has seen (unbounded, unlike the ring). *)
let memory_sink () =
  let seen = ref [] in
  let sink span = seen := span :: !seen in
  (sink, fun () -> List.rev !seen)
