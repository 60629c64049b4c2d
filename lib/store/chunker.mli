(** Content-defined chunking: a gear rolling hash with FastCDC-style
    min/avg/max bounds.  Boundaries depend only on the bytes, so identical
    byte runs in different blobs cut into identical chunks — the property
    the dedup {!Store} is built on.  Deterministic: the gear table is
    seeded, and the hash is never reset at cut points, so a single-byte
    edit perturbs only a bounded window of chunks. *)

type params = {
  min_size : int;  (** no cut before this many bytes into a chunk *)
  mask_bits : int;  (** cut when the low [mask_bits] hash bits are zero *)
  max_size : int;  (** forced cut at this size *)
}

(** A chunk descriptor: the digest of the chunk's bytes and its size.
    Payloads themselves are never stored — the simulated world keeps
    content as descriptors. *)
type chunk = { digest : string; size : int }

(** Exclusive end offset of every chunk; the last element is the string
    length.  [[]] for the empty string.  Prefix-stable: cuts of [s] below
    [n] equal the cuts of any extension of [s] below [n]. *)
val cut_points : ?params:params -> string -> int list

(** The chunk byte strings themselves; concatenating them yields the
    input. *)
val split : ?params:params -> string -> string list

val chunks_of_string : ?params:params -> string -> chunk list

(** [chunks_prefixed_uniform ~prefix ~fill ~total ()] equals
    [chunks_of_string (prefix ^ String.make (total - length prefix) fill)]
    without rendering it.  Once the rolling window passes the prefix the
    hash is constant and cuts become periodic, so the first call for a
    [(params, prefix, fill)] chunks one settling sample of [prefix] plus
    [4 * max_size + mask_bits] fill bytes and memoizes its cut skeleton for
    the life of the process; every call then costs O(chunks) plus one
    digest of the final partial chunk, at most [max_size] bytes.  Per key
    the memo retains the sample's cut offsets and chunk descriptors up to
    its last steady cut, the period and the body chunk, never the sample's
    bytes; all calls share one scratch buffer of at most [max_size] bytes.
    This is how [Filler]/[Binary] descriptors are chunked.
    @raise Invalid_argument if [total < String.length prefix]. *)
val chunks_prefixed_uniform :
  ?params:params -> prefix:string -> fill:char -> total:int -> unit -> chunk list

(** Sum of chunk sizes. *)
val manifest_bytes : chunk list -> int
