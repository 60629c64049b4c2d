(** The uniform, inode-level filesystem interface.  The simulated kernel
    walks paths component by component and drives any filesystem — native,
    FUSE-backed, procfs, devfs — through this record of operations.  The
    shape deliberately mirrors the FUSE lowlevel API, so the FUSE driver is
    a direct implementation of it.  [export_handle]/[open_by_handle] model
    name_to_handle_at (ENOTSUP on CntrFS — generic/426); [supports_mmap]
    and [supports_direct_io] encode the FUSE mmap/O_DIRECT exclusivity
    (generic/391). *)

open Repro_util

type fh = int
type t = {
  fs_name : string;
  fs_id : int;
      (** unique within the world, from its clock's
          {!Repro_util.Clock.fresh_fs_id} *)
  root : Types.ino;
  lookup :
    Types.cred ->
    Types.ino ->
    string ->
    (Types.ino * Types.stat, Errno.t) result;
  forget : Types.ino -> unit;
  getattr :
    Types.ino -> (Types.stat, Errno.t) result;
  setattr :
    Types.cred ->
    Types.ino ->
    Types.setattr ->
    (Types.stat, Errno.t) result;
  readlink : Types.ino -> (string, Errno.t) result;
  mknod :
    Types.cred ->
    Types.ino ->
    string ->
    kind:Types.kind ->
    mode:int -> (Types.stat, Errno.t) result;
  mkdir :
    Types.cred ->
    Types.ino ->
    string -> mode:int -> (Types.stat, Errno.t) result;
  unlink :
    Types.cred ->
    Types.ino -> string -> (unit, Errno.t) result;
  rmdir :
    Types.cred ->
    Types.ino -> string -> (unit, Errno.t) result;
  symlink :
    Types.cred ->
    Types.ino ->
    string ->
    target:string -> (Types.stat, Errno.t) result;
  rename :
    Types.cred ->
    Types.ino ->
    string ->
    Types.ino -> string -> (unit, Errno.t) result;
  link :
    Types.cred ->
    src:Types.ino ->
    dir:Types.ino ->
    name:string -> (Types.stat, Errno.t) result;
  open_ :
    Types.cred ->
    Types.ino ->
    Types.open_flag list -> (fh, Errno.t) result;
  create :
    Types.cred ->
    Types.ino ->
    string ->
    mode:int ->
    Types.open_flag list ->
    (Types.stat * fh, Errno.t) result;
  read : fh -> off:int -> len:int -> (string, Errno.t) result;
  write :
    Types.cred ->
    fh -> off:int -> string -> (int, Errno.t) result;
  flush : fh -> (unit, Errno.t) result;
  release : fh -> unit;
  fsync : fh -> (unit, Errno.t) result;
  fallocate : fh -> off:int -> len:int -> (unit, Errno.t) result;
  readdir :
    Types.cred ->
    Types.ino ->
    (Types.dirent list, Errno.t) result;
  setxattr :
    Types.cred ->
    Types.ino ->
    string -> string -> (unit, Errno.t) result;
  getxattr :
    Types.ino -> string -> (string, Errno.t) result;
  listxattr : Types.ino -> (string list, Errno.t) result;
  removexattr :
    Types.cred ->
    Types.ino -> string -> (unit, Errno.t) result;
  statfs : unit -> Types.statfs;
  export_handle : Types.ino -> (string, Errno.t) result;
  open_by_handle : string -> (Types.ino, Errno.t) result;
  supports_mmap : fh -> bool;
  supports_direct_io : bool;
}
