(** Minimal JSON value type with a deterministic printer and a strict
    recursive-descent parser.  The control plane speaks JSON-RPC 2.0 over
    this representation, and the metrics registry, the span export and the
    bench tables all print through it: every JSON format decision
    (escaping, number format, layout) lives in this one module, and the
    printer's byte-determinism is what makes the bench baselines
    diffable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
      (** [Fixed (d, f)] prints [f] with exactly [d] decimals ([%.*f]),
          [null] when not finite.  Output only: {!parse} never returns it. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool

(** Compact rendering: no insignificant whitespace, object fields in the
    order given.  Integral floats print with a trailing [.0] so they
    round-trip as [Float]; non-finite floats render as [null]. *)
val to_string : t -> string

(** The same printer in the bench tables' layout: each top-level field on
    its own line (2-space indent), each element of a top-level field's list
    on its own line (4-space indent), everything deeper inline with [", "]
    and [": "].  Parses back to the same value as {!to_string}. *)
val to_string_pretty : t -> string

(** The string escaping of the printer, without the surrounding quotes. *)
val escape : string -> string

(** Strict parse of one JSON document (trailing garbage is an error).
    [Error msg] carries a byte offset for diagnostics. *)
val parse : string -> (t, string) result

(** {1 Accessors} — shallow, total helpers for picking apart params. *)

(** Field lookup on [Obj]; [None] on missing field or non-object. *)
val mem : t -> string -> t option

val list_ : t -> t list option

(** [field_str v k] = [mem v k |> str], and friends. *)
val field_str : t -> string -> string option

val field_int : t -> string -> int option
val field_bool : t -> string -> bool option
