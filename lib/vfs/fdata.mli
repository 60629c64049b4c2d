(** Sparse file contents, stored as fixed-size chunks so that large sparse
    files only pay for the regions actually touched.  This is the one store
    of file bytes: native files keep theirs here, and so does the FUSE
    driver's page cache, one store per cached inode.

    A chunk is a logical [chunk_size] (64 KiB) range of the file.  Its
    buffer is allocated at the length its writes need, rounded up to a
    4 KiB page, and at least doubles (up to [chunk_size]) when a write
    reaches past it; bytes past the buffer read as zeros. *)

type t

val chunk_size : int

val create : unit -> t

(** Logical file size in bytes. *)
val size : t -> int

(** Read up to [len] bytes at [off]; short at EOF, "" past it.  Holes read
    as zeros.

    The result may be shared with the store: a read of exactly one whole,
    fully allocated chunk (chunk-aligned [off], [len = chunk_size] after
    the EOF clamp) returns the chunk's own buffer without copying.  Its
    contents still never change afterwards: every mutation copies a lent
    chunk before touching it. *)
val read : t -> off:int -> len:int -> string

(** Write [data] at [off], growing the file as needed; returns the byte
    count written. *)
val write : t -> off:int -> string -> int

(** [write_sub t ~off s ~pos ~len] writes [s.[pos .. pos + len - 1]] at
    [off], growing the file as needed, without first copying the
    substring out of [s]. *)
val write_sub : t -> off:int -> string -> pos:int -> len:int -> unit

(** [zero t ~off ~len] makes [off .. off + len - 1] read as zeros, growing
    the file as needed.  It allocates no chunk and grows no buffer: holes
    and bytes past a chunk's buffer already read as zeros. *)
val zero : t -> off:int -> len:int -> unit

(** Shrink (dropping data so re-extension reads zeros) or grow the size. *)
val truncate : t -> int -> unit

(** Bytes of heap charged for statfs / memory accounting: the number of
    allocated chunks times [chunk_size], however short their buffers. *)
val allocated : t -> int
