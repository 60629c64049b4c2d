(* The uniform, inode-level filesystem interface.  The simulated kernel
   walks paths component by component and drives any filesystem — native,
   FUSE-backed, procfs, devfs — through this record.  The shape deliberately
   mirrors the FUSE lowlevel API so the FUSE driver is a direct
   implementation of it. *)

open Repro_util
open Types

type fh = int

type t = {
  fs_name : string;
  fs_id : int; (* unique within the world: see Clock.fresh_fs_id *)
  root : ino;
  (* Resolve [name] in directory [dir]; returns the child inode and its
     attributes (like a FUSE LOOKUP reply). *)
  lookup : cred -> ino -> string -> (ino * stat, Errno.t) result;
  (* The kernel no longer references [ino] (FUSE FORGET). *)
  forget : ino -> unit;
  getattr : ino -> (stat, Errno.t) result;
  setattr : cred -> ino -> setattr -> (stat, Errno.t) result;
  readlink : ino -> (string, Errno.t) result;
  mknod : cred -> ino -> string -> kind:kind -> mode:int -> (stat, Errno.t) result;
  mkdir : cred -> ino -> string -> mode:int -> (stat, Errno.t) result;
  unlink : cred -> ino -> string -> (unit, Errno.t) result;
  rmdir : cred -> ino -> string -> (unit, Errno.t) result;
  symlink : cred -> ino -> string -> target:string -> (stat, Errno.t) result;
  rename : cred -> ino -> string -> ino -> string -> (unit, Errno.t) result;
  link : cred -> src:ino -> dir:ino -> name:string -> (stat, Errno.t) result;
  open_ : cred -> ino -> open_flag list -> (fh, Errno.t) result;
  (* Atomic create+open (FUSE CREATE). *)
  create : cred -> ino -> string -> mode:int -> open_flag list -> (stat * fh, Errno.t) result;
  read : fh -> off:int -> len:int -> (string, Errno.t) result;
  write : cred -> fh -> off:int -> string -> (int, Errno.t) result;
  flush : fh -> (unit, Errno.t) result;
  release : fh -> unit;
  fsync : fh -> (unit, Errno.t) result;
  fallocate : fh -> off:int -> len:int -> (unit, Errno.t) result;
  readdir : cred -> ino -> (dirent list, Errno.t) result;
  setxattr : cred -> ino -> string -> string -> (unit, Errno.t) result;
  getxattr : ino -> string -> (string, Errno.t) result;
  listxattr : ino -> (string list, Errno.t) result;
  removexattr : cred -> ino -> string -> (unit, Errno.t) result;
  statfs : unit -> statfs;
  (* name_to_handle_at support: filesystems whose inodes are not persistent
     (CntrFS) return ENOTSUP — xfstests generic/426. *)
  export_handle : ino -> (string, Errno.t) result;
  open_by_handle : string -> (ino, Errno.t) result;
  (* mmap is required to exec binaries; FUSE makes mmap and O_DIRECT
     mutually exclusive — xfstests generic/391. *)
  supports_mmap : fh -> bool;
  supports_direct_io : bool;
}
