(* The native in-memory filesystem: full POSIX-style semantics (hardlinks,
   symlinks, sticky/setgid rules, xattrs, a POSIX-ACL subset, O_DIRECT,
   RLIMIT_FSIZE enforcement) over a pluggable backing store.  With
   [Store.Ram] it behaves like tmpfs; with [Store.Ssd] it models ext4 on an
   SSD volume, charging page-cache and disk costs to the virtual clock. *)

open Repro_util
open Types

type handle = {
  h_fh : int;
  h_ino : int;
  h_readable : bool;
  h_writable : bool;
  h_append : bool;
  h_direct : bool;
  h_sync : bool;
  (* O_DIRECT + O_NONBLOCK models an AIO submission path: a full device
     queue hides the per-I/O latency *)
  h_async : bool;
  mutable h_open : bool;
}

type t = {
  name : string;
  clock : Clock.t;
  store : Store.t;
  inodes : (int, Inode.t) Hashtbl.t;
  handles : (int, handle) Hashtbl.t;
  mutable next_ino : int;
  mutable next_fh : int;
  root_ino : int;
  fs_id : int;
  max_links : int;
  total_blocks : int;
  readonly : bool;
}

let acl_xattr = "system.posix_acl_access"

let create ?metrics ?(name = "nativefs") ?(readonly = false) ~clock store_profile () =
  let store = Store.create ?metrics ~clock store_profile in
  let t =
    {
      name;
      clock;
      store;
      inodes = Hashtbl.create 1024;
      handles = Hashtbl.create 64;
      next_ino = 2;
      next_fh = 1;
      root_ino = 1;
      fs_id = Clock.fresh_fs_id clock;
      max_links = 65000;
      total_blocks = 25 * 1024 * 1024; (* 100 GiB of 4 KiB blocks *)
      readonly;
    }
  in
  let root =
    Inode.create ~ino:t.root_ino
      ~payload:(Inode.Dir { entries = Hashtbl.create 16; parent = t.root_ino })
      ~mode:0o755 ~uid:0 ~gid:0 ~now:(Clock.now_ns clock)
  in
  Hashtbl.replace t.inodes t.root_ino root;
  t

let store t = t.store

let now t = Clock.now_ns t.clock
let charge_meta t = Clock.consume_int t.clock Cost.dentry_ns

(* namespace mutations additionally pay the journal *)
let charge_mutation t =
  charge_meta t;
  Store.charge_journal t.store

let get t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some i -> Ok i
  | None -> Error Errno.ENOENT

let get_dir t ino =
  match get t ino with
  | Error _ as e -> e
  | Ok i -> if Inode.is_dir i then Ok i else Error Errno.ENOTDIR

let acl_of inode = Hashtbl.find_opt inode.Inode.xattrs acl_xattr

let check_perm cred inode want =
  if
    Perm.check cred ~uid:inode.Inode.uid ~gid:inode.Inode.gid
      ~mode:inode.Inode.mode ?acl:(acl_of inode) want
  then Ok ()
  else Error Errno.EACCES

(* May [cred] delete [child] out of [dir]?  Requires w+x on the directory;
   with the sticky bit set, additionally ownership of the entry or the
   directory (or CAP_FOWNER). *)
let check_delete cred dir child =
  match check_perm cred dir (w_ok lor x_ok) with
  | Error _ as e -> e
  | Ok () ->
      if
        dir.Inode.mode land s_isvtx <> 0
        && (not cred.cap_fowner)
        && cred.uid <> child.Inode.uid
        && cred.uid <> dir.Inode.uid
      then Error Errno.EPERM
      else Ok ()

let valid_name name =
  name <> "" && name <> "." && name <> ".."
  && not (String.contains name '/')

let name_error name =
  if String.length name > 255 then Errno.ENAMETOOLONG else Errno.EINVAL

let alloc_ino t =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  ino

(* Create a new child inode in [dir], inheriting gid (and for directories
   the setgid bit) from a setgid parent. *)
let new_child t cred dir name payload mode =
  let dir_entries = Inode.dir_entries dir in
  let setgid_dir = dir.Inode.mode land s_isgid <> 0 in
  let gid = if setgid_dir then dir.Inode.gid else cred.gid in
  let is_dir = match payload with Inode.Dir _ -> true | _ -> false in
  let mode = if setgid_dir && is_dir then mode lor s_isgid else mode in
  let ino = alloc_ino t in
  let inode = Inode.create ~ino ~payload ~mode ~uid:cred.uid ~gid ~now:(now t) in
  Hashtbl.replace t.inodes ino inode;
  Hashtbl.replace dir_entries name ino;
  if is_dir then dir.Inode.nlink <- dir.Inode.nlink + 1;
  dir.Inode.mtime <- now t;
  dir.Inode.ctime <- now t;
  inode

(* Reclaim an inode once it has no links and no open handles. *)
let maybe_reap t inode =
  if inode.Inode.nlink = 0 && inode.Inode.open_count = 0 && not (Inode.is_dir inode)
  then begin
    Store.discard t.store ~ino:inode.Inode.ino;
    Hashtbl.remove t.inodes inode.Inode.ino
  end

let ro_guard t = if t.readonly then Error Errno.EROFS else Ok ()

let ( let* ) = Result.bind

(* --- fsops implementations ------------------------------------------- *)

let lookup t cred dir_ino name =
  charge_meta t;
  let* dir = get_dir t dir_ino in
  let* () = check_perm cred dir x_ok in
  if name = "." then Ok (dir_ino, Inode.stat dir)
  else if name = ".." then
    let parent = Inode.dir_parent dir in
    let* p = get t parent in
    Ok (parent, Inode.stat p)
  else
    match Hashtbl.find_opt (Inode.dir_entries dir) name with
    | None -> Error Errno.ENOENT
    | Some ino ->
        let* inode = get t ino in
        Ok (ino, Inode.stat inode)

let getattr t ino =
  let* inode = get t ino in
  Ok (Inode.stat inode)

let setattr t cred ino (sa : setattr) =
  let* () = ro_guard t in
  let* inode = get t ino in
  charge_meta t;
  (* chmod *)
  let* () =
    match sa.sa_mode with
    | None -> Ok ()
    | Some mode ->
        if cred.cap_fowner || cred.uid = inode.Inode.uid then begin
          let mode =
            if Perm.chmod_clears_setgid cred ~gid:inode.Inode.gid then
              mode land lnot s_isgid
            else mode
          in
          inode.Inode.mode <- mode land 0o7777;
          inode.Inode.ctime <- now t;
          Ok ()
        end
        else Error Errno.EPERM
  in
  (* chown *)
  let* () =
    match (sa.sa_uid, sa.sa_gid) with
    | None, None -> Ok ()
    | uid_opt, gid_opt ->
        let uid_change =
          match uid_opt with Some u when u <> inode.Inode.uid -> true | _ -> false
        in
        let allowed =
          cred.cap_chown
          || ((not uid_change)
             && cred.uid = inode.Inode.uid
             && match gid_opt with
                | None -> true
                | Some g -> g = inode.Inode.gid || Perm.in_group cred g)
        in
        if not allowed then Error Errno.EPERM
        else begin
          Option.iter (fun u -> inode.Inode.uid <- u) uid_opt;
          Option.iter (fun g -> inode.Inode.gid <- g) gid_opt;
          (* chown strips setuid/setgid on regular files for unprivileged
             callers — even when the ids do not actually change. *)
          if (not cred.cap_fsetid) && Inode.kind inode = Reg then
            inode.Inode.mode <- inode.Inode.mode land 0o1777;
          inode.Inode.ctime <- now t;
          Ok ()
        end
  in
  (* truncate *)
  let* () =
    match sa.sa_size with
    | None -> Ok ()
    | Some size ->
        if size < 0 then Error Errno.EINVAL
        else begin
          match inode.Inode.payload with
          | Inode.Dir _ -> Error Errno.EISDIR
          | Inode.Reg data ->
              let* () =
                if cred.uid = inode.Inode.uid || cred.cap_dac_override then Ok ()
                else check_perm cred inode w_ok
              in
              let* () =
                match cred.rlimit_fsize with
                | Some limit when size > limit -> Error Errno.EFBIG
                | _ -> Ok ()
              in
              Fdata.truncate data size;
              Store.invalidate t.store ~ino;
              inode.Inode.mtime <- now t;
              inode.Inode.ctime <- now t;
              Ok ()
          | _ -> Error Errno.EINVAL
        end
  in
  (* utimens *)
  let* () =
    match (sa.sa_atime, sa.sa_mtime) with
    | None, None -> Ok ()
    | at, mt ->
        let* () =
          if cred.cap_fowner || cred.uid = inode.Inode.uid then Ok ()
          else check_perm cred inode w_ok
        in
        Option.iter (fun v -> inode.Inode.atime <- v) at;
        Option.iter (fun v -> inode.Inode.mtime <- v) mt;
        inode.Inode.ctime <- now t;
        Ok ()
  in
  Ok (Inode.stat inode)

let readlink t ino =
  let* inode = get t ino in
  match inode.Inode.payload with
  | Inode.Symlink target ->
      charge_meta t;
      Ok target
  | _ -> Error Errno.EINVAL

let mknod t cred dir_ino name ~kind ~mode =
  let* () = ro_guard t in
  if not (valid_name name) || String.length name > 255 then Error (name_error name)
  else
    let* dir = get_dir t dir_ino in
    let* () = check_perm cred dir (w_ok lor x_ok) in
    if Hashtbl.mem (Inode.dir_entries dir) name then Error Errno.EEXIST
    else begin
      charge_mutation t;
      let payload =
        match kind with
        | Reg -> Inode.Reg (Fdata.create ())
        | Fifo -> Inode.Fifo
        | Sock -> Inode.Sock
        | Chr (a, b) -> Inode.Chr (a, b)
        | Blk (a, b) -> Inode.Blk (a, b)
        | Dir | Symlink -> invalid_arg "mknod: use mkdir/symlink"
      in
      let inode = new_child t cred dir name payload mode in
      Ok (Inode.stat inode)
    end

let mkdir t cred dir_ino name ~mode =
  let* () = ro_guard t in
  if not (valid_name name) || String.length name > 255 then Error (name_error name)
  else
    let* dir = get_dir t dir_ino in
    let* () = check_perm cred dir (w_ok lor x_ok) in
    if Hashtbl.mem (Inode.dir_entries dir) name then Error Errno.EEXIST
    else begin
      charge_mutation t;
      let payload = Inode.Dir { entries = Hashtbl.create 8; parent = dir_ino } in
      let inode = new_child t cred dir name payload mode in
      Ok (Inode.stat inode)
    end

let unlink t cred dir_ino name =
  let* () = ro_guard t in
  let* dir = get_dir t dir_ino in
  match Hashtbl.find_opt (Inode.dir_entries dir) name with
  | None -> Error Errno.ENOENT
  | Some ino ->
      let* inode = get t ino in
      if Inode.is_dir inode then Error Errno.EISDIR
      else
        let* () = check_delete cred dir inode in
        charge_mutation t;
        Hashtbl.remove (Inode.dir_entries dir) name;
        inode.Inode.nlink <- inode.Inode.nlink - 1;
        inode.Inode.ctime <- now t;
        dir.Inode.mtime <- now t;
        dir.Inode.ctime <- now t;
        maybe_reap t inode;
        Ok ()

let rmdir t cred dir_ino name =
  let* () = ro_guard t in
  let* dir = get_dir t dir_ino in
  match Hashtbl.find_opt (Inode.dir_entries dir) name with
  | None -> Error Errno.ENOENT
  | Some ino ->
      let* inode = get t ino in
      if not (Inode.is_dir inode) then Error Errno.ENOTDIR
      else if Hashtbl.length (Inode.dir_entries inode) > 0 then
        Error Errno.ENOTEMPTY
      else
        let* () = check_delete cred dir inode in
        charge_mutation t;
        Hashtbl.remove (Inode.dir_entries dir) name;
        dir.Inode.nlink <- dir.Inode.nlink - 1;
        dir.Inode.mtime <- now t;
        dir.Inode.ctime <- now t;
        Hashtbl.remove t.inodes ino;
        Ok ()

let symlink t cred dir_ino name ~target =
  let* () = ro_guard t in
  if not (valid_name name) || String.length name > 255 then Error (name_error name)
  else
    let* dir = get_dir t dir_ino in
    let* () = check_perm cred dir (w_ok lor x_ok) in
    if Hashtbl.mem (Inode.dir_entries dir) name then Error Errno.EEXIST
    else begin
      charge_mutation t;
      let inode = new_child t cred dir name (Inode.Symlink target) 0o777 in
      Ok (Inode.stat inode)
    end

(* Is [candidate] equal to or an ancestor (directory-wise) of [ino]? *)
let is_ancestor t ~candidate ~of_ino =
  let rec go ino =
    if ino = candidate then true
    else if ino = t.root_ino then false
    else
      match Hashtbl.find_opt t.inodes ino with
      | Some inode when Inode.is_dir inode ->
          let parent = Inode.dir_parent inode in
          if parent = ino then false else go parent
      | _ -> false
  in
  go of_ino

let rename t cred src_dir_ino src_name dst_dir_ino dst_name =
  let* () = ro_guard t in
  if not (valid_name dst_name) || String.length dst_name > 255 then Error (name_error dst_name)
  else
    let* src_dir = get_dir t src_dir_ino in
    let* dst_dir = get_dir t dst_dir_ino in
    match Hashtbl.find_opt (Inode.dir_entries src_dir) src_name with
    | None -> Error Errno.ENOENT
    | Some src_ino ->
        let* src = get t src_ino in
        let* () = check_delete cred src_dir src in
        let* () = check_perm cred dst_dir (w_ok lor x_ok) in
        (* Cannot move a directory into its own subtree. *)
        if Inode.is_dir src && is_ancestor t ~candidate:src_ino ~of_ino:dst_dir_ino
        then Error Errno.EINVAL
        else begin
          charge_mutation t;
          let replace_ok =
            match Hashtbl.find_opt (Inode.dir_entries dst_dir) dst_name with
            | None -> Ok None
            | Some dst_ino when dst_ino = src_ino -> Ok None (* same file: no-op *)
            | Some dst_ino ->
                let* dst = get t dst_ino in
                if Inode.is_dir dst then
                  if not (Inode.is_dir src) then Error Errno.EISDIR
                  else if Hashtbl.length (Inode.dir_entries dst) > 0 then
                    Error Errno.ENOTEMPTY
                  else Ok (Some dst)
                else if Inode.is_dir src then Error Errno.ENOTDIR
                else Ok (Some dst)
          in
          let* replaced = replace_ok in
          (match replaced with
          | Some dst when Inode.is_dir dst ->
              dst_dir.Inode.nlink <- dst_dir.Inode.nlink - 1;
              Hashtbl.remove t.inodes dst.Inode.ino
          | Some dst ->
              dst.Inode.nlink <- dst.Inode.nlink - 1;
              dst.Inode.ctime <- now t;
              maybe_reap t dst
          | None -> ());
          Hashtbl.remove (Inode.dir_entries src_dir) src_name;
          Hashtbl.replace (Inode.dir_entries dst_dir) dst_name src_ino;
          if Inode.is_dir src && src_dir_ino <> dst_dir_ino then begin
            src_dir.Inode.nlink <- src_dir.Inode.nlink - 1;
            dst_dir.Inode.nlink <- dst_dir.Inode.nlink + 1;
            Inode.set_dir_parent src dst_dir_ino
          end;
          let ts = now t in
          src_dir.Inode.mtime <- ts;
          src_dir.Inode.ctime <- ts;
          dst_dir.Inode.mtime <- ts;
          dst_dir.Inode.ctime <- ts;
          src.Inode.ctime <- ts;
          Ok ()
        end

let link t cred ~src ~dir ~name =
  let* () = ro_guard t in
  if not (valid_name name) || String.length name > 255 then Error (name_error name)
  else
    let* src_inode = get t src in
    if Inode.is_dir src_inode then Error Errno.EPERM
    else if src_inode.Inode.nlink >= t.max_links then Error Errno.EMLINK
    else
      let* dir_inode = get_dir t dir in
      let* () = check_perm cred dir_inode (w_ok lor x_ok) in
      if Hashtbl.mem (Inode.dir_entries dir_inode) name then Error Errno.EEXIST
      else begin
        charge_mutation t;
        Hashtbl.replace (Inode.dir_entries dir_inode) name src;
        src_inode.Inode.nlink <- src_inode.Inode.nlink + 1;
        src_inode.Inode.ctime <- now t;
        dir_inode.Inode.mtime <- now t;
        dir_inode.Inode.ctime <- now t;
        Ok (Inode.stat src_inode)
      end

let alloc_handle t inode flags =
  let fh = t.next_fh in
  t.next_fh <- fh + 1;
  let h =
    {
      h_fh = fh;
      h_ino = inode.Inode.ino;
      h_readable = flag_readable flags;
      h_writable = flag_writable flags;
      h_append = List.mem O_APPEND flags;
      h_direct = List.mem O_DIRECT flags;
      h_sync = List.mem O_SYNC flags;
      h_async = List.mem O_DIRECT flags && List.mem O_NONBLOCK flags;
      h_open = true;
    }
  in
  Hashtbl.replace t.handles fh h;
  inode.Inode.open_count <- inode.Inode.open_count + 1;
  fh

let open_ t cred ino flags =
  let* inode = get t ino in
  charge_meta t;
  let want =
    (if flag_readable flags then r_ok else 0)
    lor if flag_writable flags then w_ok else 0
  in
  let* () = check_perm cred inode want in
  let* () =
    if List.mem O_DIRECTORY flags && not (Inode.is_dir inode) then
      Error Errno.ENOTDIR
    else Ok ()
  in
  let* () =
    if Inode.is_dir inode && flag_writable flags then Error Errno.EISDIR
    else Ok ()
  in
  let* () =
    if flag_writable flags then ro_guard t else Ok ()
  in
  let* () =
    if List.mem O_TRUNC flags && flag_writable flags then begin
      match inode.Inode.payload with
      | Inode.Reg data ->
          Fdata.truncate data 0;
          Store.invalidate t.store ~ino;
          inode.Inode.mtime <- now t;
          inode.Inode.ctime <- now t;
          Ok ()
      | _ -> Ok ()
    end
    else Ok ()
  in
  Ok (alloc_handle t inode flags)

let create_file t cred dir_ino name ~mode flags =
  let* () = ro_guard t in
  if not (valid_name name) || String.length name > 255 then Error (name_error name)
  else
    let* dir = get_dir t dir_ino in
    let* () = check_perm cred dir (w_ok lor x_ok) in
    if Hashtbl.mem (Inode.dir_entries dir) name then Error Errno.EEXIST
    else begin
      charge_mutation t;
      let inode = new_child t cred dir name (Inode.Reg (Fdata.create ())) mode in
      let fh = alloc_handle t inode flags in
      Ok (Inode.stat inode, fh)
    end

let handle t fh =
  match Hashtbl.find_opt t.handles fh with
  | Some h when h.h_open -> Ok h
  | _ -> Error Errno.EBADF

let read t fh ~off ~len =
  let* h = handle t fh in
  if not h.h_readable then Error Errno.EBADF
  else
    let* inode = get t h.h_ino in
    match inode.Inode.payload with
    | Inode.Dir _ -> Error Errno.EISDIR
    | Inode.Reg data ->
        let result = Fdata.read data ~off ~len in
        let n = String.length result in
        if h.h_direct then Store.read_direct t.store ~len:n ~async:h.h_async
        else Store.read t.store ~ino:h.h_ino ~off ~len:n ~file_size:(Fdata.size data);
        (* copy out to userspace *)
        Clock.consume_int t.clock (Cost.copy_cost n);
        inode.Inode.atime <- now t;
        Ok result
    | _ -> Error Errno.EINVAL

let write t cred fh ~off data =
  let* h = handle t fh in
  if not h.h_writable then Error Errno.EBADF
  else
    let* inode = get t h.h_ino in
    match inode.Inode.payload with
    | Inode.Dir _ -> Error Errno.EISDIR
    | Inode.Reg fdata ->
        let len = String.length data in
        let off = if h.h_append then Fdata.size fdata else off in
        let* () =
          match cred.rlimit_fsize with
          | Some limit when off + len > limit -> Error Errno.EFBIG
          | _ -> Ok ()
        in
        (* file_remove_privs: writing strips setuid/setgid. *)
        if
          Perm.write_clears_suid cred
          && inode.Inode.mode land (s_isuid lor s_isgid) <> 0
        then inode.Inode.mode <- inode.Inode.mode land 0o1777;
        let n = Fdata.write fdata ~off data in
        (* copy in from userspace *)
        Clock.consume_int t.clock (Cost.copy_cost n);
        if h.h_direct then Store.write_direct t.store ~len:n ~async:h.h_async
        else begin
          (* ext4 write path: block reservation + journal handle per call *)
          Store.charge_write_path t.store;
          Store.write t.store ~ino:h.h_ino ~off ~len:n ~sync:h.h_sync
        end;
        inode.Inode.mtime <- now t;
        inode.Inode.ctime <- now t;
        Ok n
    | _ -> Error Errno.EINVAL

let flush _t _fh = Ok ()

let release t fh =
  match Hashtbl.find_opt t.handles fh with
  | None -> ()
  | Some h ->
      if h.h_open then begin
        h.h_open <- false;
        Hashtbl.remove t.handles fh;
        match Hashtbl.find_opt t.inodes h.h_ino with
        | Some inode ->
            inode.Inode.open_count <- inode.Inode.open_count - 1;
            maybe_reap t inode
        | None -> ()
      end

let fsync t fh =
  let* h = handle t fh in
  Store.fsync t.store ~ino:h.h_ino;
  Ok ()

let fallocate t fh ~off ~len =
  let* h = handle t fh in
  if not h.h_writable then Error Errno.EBADF
  else
    let* inode = get t h.h_ino in
    match inode.Inode.payload with
    | Inode.Reg data ->
        if off + len > Fdata.size data then Fdata.truncate data (off + len);
        charge_meta t;
        Ok ()
    | _ -> Error Errno.EINVAL

let readdir t cred ino =
  let* dir = get_dir t ino in
  let* () = check_perm cred dir r_ok in
  let kind_of i =
    match Hashtbl.find_opt t.inodes i with
    | Some inode -> Inode.kind inode
    | None -> Reg
  in
  let entries =
    Hashtbl.fold
      (fun name child acc ->
        charge_meta t;
        { d_ino = child; d_name = name; d_kind = kind_of child } :: acc)
      (Inode.dir_entries dir) []
  in
  let dot = { d_ino = ino; d_name = "."; d_kind = Dir } in
  let dotdot = { d_ino = Inode.dir_parent dir; d_name = ".."; d_kind = Dir } in
  let sorted = List.sort (fun a b -> compare a.d_name b.d_name) entries in
  Ok (dot :: dotdot :: sorted)

let xattr_set_allowed cred inode name =
  if String.length name > 6 && String.sub name 0 7 = "trusted" then
    cred.cap_dac_override
  else if
    String.length name >= 8 && String.sub name 0 8 = "security"
  then cred.cap_dac_override || cred.uid = inode.Inode.uid
  else cred.cap_dac_override || cred.uid = inode.Inode.uid

let setxattr t cred ino name value =
  let* () = ro_guard t in
  let* inode = get t ino in
  if not (xattr_set_allowed cred inode name) then Error Errno.EPERM
  else begin
    charge_meta t;
    Hashtbl.replace inode.Inode.xattrs name value;
    inode.Inode.ctime <- now t;
    Ok ()
  end

let getxattr t ino name =
  let* inode = get t ino in
  charge_meta t;
  match Hashtbl.find_opt inode.Inode.xattrs name with
  | Some v -> Ok v
  | None -> Error Errno.ENODATA

let listxattr t ino =
  let* inode = get t ino in
  charge_meta t;
  Ok (Hashtbl.fold (fun k _ acc -> k :: acc) inode.Inode.xattrs [] |> List.sort compare)

let removexattr t cred ino name =
  let* () = ro_guard t in
  let* inode = get t ino in
  if not (xattr_set_allowed cred inode name) then Error Errno.EPERM
  else if not (Hashtbl.mem inode.Inode.xattrs name) then Error Errno.ENODATA
  else begin
    charge_meta t;
    Hashtbl.remove inode.Inode.xattrs name;
    inode.Inode.ctime <- now t;
    Ok ()
  end

let statfs t () =
  let used =
    Hashtbl.fold
      (fun _ inode acc ->
        match inode.Inode.payload with
        | Inode.Reg d -> acc + Fdata.allocated d
        | _ -> acc + 4096)
      t.inodes 0
  in
  {
    f_fsname = t.name;
    f_bsize = 4096;
    f_blocks = t.total_blocks;
    f_bfree = max 0 (t.total_blocks - (used / 4096));
    f_files = Hashtbl.length t.inodes;
  }

let export_handle t ino =
  let* inode = get t ino in
  Ok (Printf.sprintf "%d:%d" t.fs_id inode.Inode.ino)

let open_by_handle t handle_str =
  match String.split_on_char ':' handle_str with
  | [ fsid; ino ] -> (
      match (int_of_string_opt fsid, int_of_string_opt ino) with
      | Some fsid, Some ino when fsid = t.fs_id ->
          if Hashtbl.mem t.inodes ino then Ok ino else Error Errno.ENOENT
      | _ -> Error Errno.EINVAL)
  | _ -> Error Errno.EINVAL

let ops t : Fsops.t = {
  fs_name = t.name;
  fs_id = t.fs_id;
  root = t.root_ino;
  lookup = lookup t;
  forget = (fun _ -> ());
  getattr = getattr t;
  setattr = setattr t;
  readlink = readlink t;
  mknod = mknod t;
  mkdir = mkdir t;
  unlink = unlink t;
  rmdir = rmdir t;
  symlink = symlink t;
  rename = rename t;
  link = link t;
  open_ = open_ t;
  create = create_file t;
  read = read t;
  write = write t;
  flush = flush t;
  release = release t;
  fsync = fsync t;
  fallocate = fallocate t;
  readdir = readdir t;
  setxattr = setxattr t;
  getxattr = getxattr t;
  listxattr = listxattr t;
  removexattr = removexattr t;
  statfs = statfs t;
  export_handle = export_handle t;
  open_by_handle = open_by_handle t;
  supports_mmap = (fun _ -> true);
  supports_direct_io = true;
}
