(** fanotify-style access recording: wraps a filesystem's operations and
    logs every path that is opened, created, listed, read-linked or
    xattr-probed.  Paths are reconstructed from lookup edges, since the
    kernel walks component by component. *)

open Repro_vfs

type t

val create : unit -> t

(** Wrap [ops] so accesses are recorded into [t]. *)
val wrap : t -> Fsops.t -> Fsops.t

(** All recorded paths, sorted. *)
val accessed_paths : t -> string list
