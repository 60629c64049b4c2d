(** Sparse file contents, stored as fixed-size chunks so that large sparse
    files only pay for the regions actually touched.  This is the one store
    of file bytes: native files keep theirs here, and so does the FUSE
    driver's page cache, one store per cached inode.

    A chunk is a logical [chunk_size] (64 KiB) range of the file.  Its
    buffer is allocated at the length its writes need, rounded up to a
    4 KiB page, and at least doubles (up to [chunk_size]) when a write
    reaches past it; bytes past the buffer read as zeros.

    A buffer is shared, and its chunk {e lent}, in three ways: a read
    returns it ({!read}), a written string becomes it ({!write_sub}), or
    it is the process-wide pad of a fill byte ({!write_padded}).  Every
    mutation copies a lent chunk's buffer before touching it, so a shared
    buffer never changes.  In turn a string handed to {!write} or
    {!write_sub} must never be mutated afterwards: a [Bytes.t] turned into
    a string with [Bytes.unsafe_to_string] must be fresh, as the
    [Rng.bytes] that devfs and the xfstests harness write are. *)

type t

val chunk_size : int

val create : unit -> t

(** Logical file size in bytes. *)
val size : t -> int

(** Read up to [len] bytes at [off]; short at EOF, "" past it.  Holes read
    as zeros.

    A read that covers exactly one chunk's buffer from the chunk's start
    (chunk-aligned [off], [len] after the EOF clamp equal to the buffer's
    length) returns that buffer without copying; any other read copies. *)
val read : t -> off:int -> len:int -> string

(** Write [data] at [off], growing the file as needed; returns the byte
    count written. *)
val write : t -> off:int -> string -> int

(** [write_sub t ~off s ~pos ~len] writes [s.[pos .. pos + len - 1]] at
    [off], growing the file as needed, without first copying the
    substring out of [s].

    It keeps [s] itself as the chunk's buffer (adopts it, no copy) when
    the write is the whole of [s] ([pos = 0], [len = String.length s > 0]),
    [off] is chunk-aligned, [len <= chunk_size], and the chunk has no
    buffer or one no longer than [len]. *)
val write_sub : t -> off:int -> string -> pos:int -> len:int -> unit

(** [write_padded t ~off header ~len fill] writes [header] followed by
    [len - String.length header] copies of [fill] at [off] (so [len] bytes
    in all; [len >= String.length header]), reading back exactly as
    {!write} of those bytes would.  Each whole chunk of the fill holds
    the shared pad of [fill] in place of a buffer of its own. *)
val write_padded : t -> off:int -> string -> len:int -> char -> unit

(** [zero t ~off ~len] makes [off .. off + len - 1] read as zeros, growing
    the file as needed.  It allocates no chunk and grows no buffer: holes
    and bytes past a chunk's buffer already read as zeros. *)
val zero : t -> off:int -> len:int -> unit

(** Shrink (dropping data so re-extension reads zeros) or grow the size. *)
val truncate : t -> int -> unit

(** Bytes of heap charged for statfs / memory accounting: the number of
    allocated chunks times [chunk_size], however short or shared their
    buffers. *)
val allocated : t -> int
