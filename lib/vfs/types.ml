(* Common filesystem types shared by every filesystem implementation (the
   native in-memory/disk fs, the FUSE driver, procfs, devfs) and by the
   simulated kernel. *)

type ino = int

type kind =
  | Reg
  | Dir
  | Symlink
  | Fifo
  | Sock
  | Chr of int * int (* major, minor *)
  | Blk of int * int

let kind_to_string = function
  | Reg -> "regular"
  | Dir -> "directory"
  | Symlink -> "symlink"
  | Fifo -> "fifo"
  | Sock -> "socket"
  | Chr _ -> "chardev"
  | Blk _ -> "blockdev"

(* stat(2)-like metadata.  [mode] holds only permission + setuid/setgid/
   sticky bits (the file type lives in [kind]). *)
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

(* The slice of a process's credentials a filesystem needs for permission
   checks.  [rlimit_fsize] travels with the credential because Linux
   enforces RLIMIT_FSIZE at the writing task — a FUSE server replaying the
   write has its own (unlimited) credential, which is exactly why xfstests
   generic/228 fails through CntrFS (§5.1 of the paper). *)
type cred = {
  uid : int;
  gid : int;
  groups : int list;
  cap_dac_override : bool; (* bypass file permission checks *)
  cap_fowner : bool;       (* bypass owner checks (chmod, sticky) *)
  cap_chown : bool;        (* arbitrary chown *)
  cap_fsetid : bool;       (* keep setuid/setgid on modification *)
  rlimit_fsize : int option;
}

let root_cred = {
  uid = 0;
  gid = 0;
  groups = [ 0 ];
  cap_dac_override = true;
  cap_fowner = true;
  cap_chown = true;
  cap_fsetid = true;
  rlimit_fsize = None;
}

(* An unprivileged credential with no capabilities. *)
let user_cred ~uid ~gid = {
  uid;
  gid;
  groups = [ gid ];
  cap_dac_override = false;
  cap_fowner = false;
  cap_chown = false;
  cap_fsetid = false;
  rlimit_fsize = None;
}

type open_flag =
  | O_RDONLY
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

let flag_readable flags =
  not (List.mem O_WRONLY flags)

let flag_writable flags =
  List.mem O_WRONLY flags || List.mem O_RDWR flags

(* Fields of a setattr (chmod/chown/truncate/utimens) request; [None] means
   "leave unchanged". *)
type setattr = {
  sa_mode : int option;
  sa_uid : int option;
  sa_gid : int option;
  sa_size : int option;
  sa_atime : int64 option;
  sa_mtime : int64 option;
}

let setattr_none = {
  sa_mode = None;
  sa_uid = None;
  sa_gid = None;
  sa_size = None;
  sa_atime = None;
  sa_mtime = None;
}

type dirent = { d_ino : ino; d_name : string; d_kind : kind }

type statfs = {
  f_fsname : string;
  f_bsize : int;
  f_blocks : int;
  f_bfree : int;
  f_files : int;
}

(* Mode-bit constants. *)
let s_isuid = 0o4000
let s_isgid = 0o2000
let s_isvtx = 0o1000

(* access(2) probe bits. *)
let r_ok = 4
let w_ok = 2
let x_ok = 1
