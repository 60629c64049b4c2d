(** In-memory inode representation used by the native filesystem:
    metadata, payload (file data, directory entries, symlink target or
    special-node identity), xattrs, and the open-handle count that keeps
    unlinked-but-open files alive. *)

type payload =
    Reg of Fdata.t
  | Dir of { entries : (string, int) Hashtbl.t; mutable parent : int; }
  | Symlink of string
  | Fifo
  | Sock
  | Chr of int * int
  | Blk of int * int
type t = {
  ino : int;
  payload : payload;
  mutable mode : int;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
  xattrs : (string, string) Hashtbl.t;
  mutable open_count : int;
}
val create :
  ino:int ->
  payload:payload -> mode:int -> uid:int -> gid:int -> now:int64 -> t
val kind : t -> Types.kind
val size : t -> int
val stat : t -> Types.stat
val is_dir : t -> bool
val dir_entries : t -> (string, int) Hashtbl.t
val dir_parent : t -> int
val set_dir_parent : t -> int -> unit
