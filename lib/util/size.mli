(** Byte-size helpers and pretty printing. *)

val kib : int -> int
val mib : int -> int
val gib : int -> int
val to_string : int -> string
