(* In-memory inode representation used by the native filesystem. *)

type payload =
  | Reg of Fdata.t
  | Dir of { entries : (string, int) Hashtbl.t; mutable parent : int }
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
  (* Open file handles referencing this inode — an unlinked inode's storage
     is reclaimed only when this drops to zero. *)
  mutable open_count : int;
}

let create ~ino ~payload ~mode ~uid ~gid ~now = {
  ino;
  payload;
  mode;
  uid;
  gid;
  nlink = (match payload with Dir _ -> 2 | _ -> 1);
  atime = now;
  mtime = now;
  ctime = now;
  xattrs = Hashtbl.create 2;
  open_count = 0;
}

let kind t : Types.kind =
  match t.payload with
  | Reg _ -> Types.Reg
  | Dir _ -> Types.Dir
  | Symlink _ -> Types.Symlink
  | Fifo -> Types.Fifo
  | Sock -> Types.Sock
  | Chr (a, b) -> Types.Chr (a, b)
  | Blk (a, b) -> Types.Blk (a, b)

let size t =
  match t.payload with
  | Reg d -> Fdata.size d
  | Dir { entries; _ } -> (Hashtbl.length entries + 2) * 32
  | Symlink s -> String.length s
  | Fifo | Sock | Chr _ | Blk _ -> 0

let stat t : Types.stat = {
  st_ino = t.ino;
  st_kind = kind t;
  st_mode = t.mode;
  st_uid = t.uid;
  st_gid = t.gid;
  st_nlink = t.nlink;
  st_size = size t;
  st_atime = t.atime;
  st_mtime = t.mtime;
  st_ctime = t.ctime;
}

let is_dir t = match t.payload with Dir _ -> true | _ -> false

let dir_entries t =
  match t.payload with
  | Dir { entries; _ } -> entries
  | _ -> invalid_arg "Inode.dir_entries: not a directory"

let dir_parent t =
  match t.payload with
  | Dir d -> d.parent
  | _ -> invalid_arg "Inode.dir_parent: not a directory"

let set_dir_parent t p =
  match t.payload with
  | Dir d -> d.parent <- p
  | _ -> invalid_arg "Inode.set_dir_parent: not a directory"
