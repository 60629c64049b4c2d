(** File contents in image layers, kept as cheap descriptors until
    materialization. *)

type t =
  | Literal of string
  | Binary of { prog : string; size : int }  (** executable: binfmt header + pad *)
  | Filler of int  (** incompressible data of the given size *)

(** The bytes are [header t] followed by [size t - String.length (header
    t)] copies of [fill t]: a [Literal]'s header is all of it, a [Binary]'s
    is the {!Repro_os.Binfmt} line naming its program (padded with ['x']),
    and a [Filler] is only pad (['D']).  {!Image.materialize} writes them
    in this form, so no pad is ever built. *)
val header : t -> string

val fill : t -> char
val size : t -> int

(** The bytes spelled out: the reference tests compare a materialized
    file with. *)
val render : t -> string
