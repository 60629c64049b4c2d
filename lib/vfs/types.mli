(** Common filesystem types shared by every filesystem implementation (the
    native in-memory/disk fs, the FUSE driver, procfs, devfs) and by the
    simulated kernel.  [cred] carries the slice of a process's credentials
    a filesystem needs — including RLIMIT_FSIZE, which Linux enforces at
    the writing task (the root cause of xfstests generic/228 failing
    through CntrFS). *)

type ino = int
type kind =
    Reg
  | Dir
  | Symlink
  | Fifo
  | Sock
  | Chr of int * int
  | Blk of int * int
val kind_to_string : kind -> string
type stat = {
  st_ino : ino;
  st_kind : kind;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_nlink : int;
  st_size : int;
  st_atime : int64;
  st_mtime : int64;
  st_ctime : int64;
}
type cred = {
  uid : int;
  gid : int;
  groups : int list;
  cap_dac_override : bool;
  cap_fowner : bool;
  cap_chown : bool;
  cap_fsetid : bool;
  rlimit_fsize : int option;
}
val root_cred : cred
val user_cred : uid:int -> gid:int -> cred
type open_flag =
    O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_APPEND
  | O_CREAT
  | O_EXCL
  | O_TRUNC
  | O_DIRECT
  | O_SYNC
  | O_NOFOLLOW
  | O_DIRECTORY
  | O_NONBLOCK
val flag_readable : open_flag list -> bool
val flag_writable : open_flag list -> bool
type setattr = {
  sa_mode : int option;
  sa_uid : int option;
  sa_gid : int option;
  sa_size : int option;
  sa_atime : int64 option;
  sa_mtime : int64 option;
}
val setattr_none : setattr
type dirent = { d_ino : ino; d_name : string; d_kind : kind; }
type statfs = {
  f_fsname : string;
  f_bsize : int;
  f_blocks : int;
  f_bfree : int;
  f_files : int;
}
val s_isuid : int
val s_isgid : int
val s_isvtx : int
val r_ok : int
val w_ok : int
val x_ok : int
