(* Mount namespaces.  Mounts are keyed Linux-style by (parent mount,
   mountpoint inode), which makes bind mounts, stacked mounts, and chroot
   interact correctly with path walking.  Propagation implements the subset
   CNTR depends on: shared peer groups (the host root), private mounts
   (container namespaces), and recursive privatization — so a mount created
   in CNTR's nested namespace never leaks back into the application
   container (§3.2.3). *)

open Repro_vfs

type propagation = Private | Shared of int

type mount = {
  m_id : int;
  m_fs : Fsops.t;
  m_root : Types.ino;
  m_mp : (int * Types.ino) option; (* (parent mount id, mountpoint ino) *)
  mutable m_prop : propagation;
}

type ns = {
  ns_id : int;
  mounts : (int, mount) Hashtbl.t;
  root : int; (* root mount id *)
}

(* One kernel's three id spaces; each counts from 1. *)
type ids = { mutable last_mount : int; mutable last_ns : int; mutable last_group : int }

let ids () = { last_mount = 0; last_ns = 0; last_group = 0 }

let fresh_mount ids =
  ids.last_mount <- ids.last_mount + 1;
  ids.last_mount

let fresh_ns ids =
  ids.last_ns <- ids.last_ns + 1;
  ids.last_ns

let fresh_group ids =
  ids.last_group <- ids.last_group + 1;
  ids.last_group

(* A fresh namespace with one private mount of [fs]'s root. *)
let create_ns ids ~fs =
  let ns_id = fresh_ns ids in
  let m =
    { m_id = fresh_mount ids; m_fs = fs; m_root = fs.Fsops.root; m_mp = None; m_prop = Private }
  in
  let ns = { ns_id; mounts = Hashtbl.create 16; root = m.m_id } in
  Hashtbl.replace ns.mounts m.m_id m;
  ns

let find ns mid = Hashtbl.find_opt ns.mounts mid

let root_mount ns =
  match find ns ns.root with
  | Some m -> m
  | None -> invalid_arg "Mount.root_mount: dangling root"

(* The topmost mount stacked on mountpoint (parent mount [mid], inode
   [ino]), if any. *)
let mount_on ns ~mid ~ino =
  Hashtbl.fold
    (fun _ m best ->
      match m.m_mp with
      | Some (pmid, pino) when pmid = mid && pino = ino -> (
          match best with
          | Some b when b.m_id > m.m_id -> best
          | _ -> Some m)
      | _ -> best)
    ns.mounts None

(* Raw insertion of a mount record (propagation is the kernel's job). *)
let add ids ns ~parent ~mp_ino ~fs ~root_ino ~prop =
  let m =
    {
      m_id = fresh_mount ids;
      m_fs = fs;
      m_root = root_ino;
      m_mp = Some (parent, mp_ino);
      m_prop = prop;
    }
  in
  Hashtbl.replace ns.mounts m.m_id m;
  m

let children ns mid =
  Hashtbl.fold
    (fun _ m acc -> match m.m_mp with Some (p, _) when p = mid -> m :: acc | _ -> acc)
    ns.mounts []

let remove ns mid = Hashtbl.remove ns.mounts mid

(* Copy every mount into a fresh namespace, preserving structure and
   propagation (clones of shared mounts stay in the same peer group, as in
   Linux). *)
let clone_ns ids ns =
  let new_ns_id = fresh_ns ids in
  let id_map = Hashtbl.create 16 in
  Hashtbl.iter (fun old_id _ -> Hashtbl.replace id_map old_id (fresh_mount ids)) ns.mounts;
  let remap id = Hashtbl.find id_map id in
  let mounts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun old_id m ->
      let m' =
        { m with m_id = remap old_id; m_mp = Option.map (fun (p, i) -> (remap p, i)) m.m_mp }
      in
      Hashtbl.replace mounts m'.m_id m')
    ns.mounts;
  { ns_id = new_ns_id; mounts; root = remap ns.root }

(* mount --make-rprivate /: detach every mount from its peer group. *)
let make_rprivate ns =
  Hashtbl.iter (fun _ m -> m.m_prop <- Private) ns.mounts

let make_shared ids m =
  match m.m_prop with
  | Shared _ -> ()
  | Private -> m.m_prop <- Shared (fresh_group ids)
