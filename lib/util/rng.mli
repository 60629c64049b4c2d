(** Deterministic SplitMix64 generator.  Every source of randomness in the
    repository draws from a seeded instance, so runs are reproducible
    bit-for-bit. *)

type t

val create : seed:int -> t

val next_int64 : t -> int64

(** Uniform int in [0, bound). *)
val int : t -> int -> int

(** Uniform int in [lo, hi], inclusive. *)
val int_range : t -> int -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** Pseudo-random bytes (cheap, not cryptographic). *)
val bytes : t -> int -> bytes
