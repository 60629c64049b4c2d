(* Deterministic SplitMix64 generator.  Every source of randomness in the
   repository (workload generators, the Top-50 image catalogue, property
   tests that need fixtures) draws from a seeded instance so runs are
   reproducible bit-for-bit. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(* Uniform int in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

(* Pick a uniformly random element of a non-empty array. *)
let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

(* Fisher-Yates shuffle (in place). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Fill with pseudo-random bytes (cheap, not cryptographic). *)
let bytes t len =
  Bytes.init len (fun _ -> Char.chr (int t 256))
