(** The native in-memory filesystem: full POSIX-style semantics (hardlinks,
    symlinks, sticky/setgid rules, xattrs, a POSIX-ACL subset, O_DIRECT,
    RLIMIT_FSIZE enforcement) over a pluggable {!Store} backing.  With
    {!Store.Ram} it behaves like tmpfs; with {!Store.Ssd} it models ext4 on
    an SSD volume, charging page-cache and disk costs to the virtual clock. *)

open Repro_util

type t

(** [metrics] is handed to the backing {!Store} so device I/O lands in a
    shared registry ([vfs.disk.*]); a private registry is used when
    omitted. *)
val create :
  ?metrics:Repro_obs.Metrics.t ->
  ?name:string -> ?readonly:bool -> clock:Clock.t -> Store.profile -> unit -> t

(** The uniform filesystem interface (mount this). *)
val ops : t -> Fsops.t

(** [write_padded t cred fh ~off header ~len fill] is [(ops t).write cred
    fh ~off] of [header] followed by [len - String.length header] copies
    of [fill]: it checks, charges and stores exactly what that write
    would, without building the bytes (see {!Fdata.write_padded}). *)
val write_padded :
  t -> Types.cred -> Fsops.fh -> off:int -> string -> len:int -> char -> (int, Errno.t) result

val store : t -> Store.t
