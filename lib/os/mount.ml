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
  stacked : (int * Types.ino, mount list) Hashtbl.t;
      (* (parent mount id, mountpoint ino) -> the mounts on it, highest id
         first *)
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

(* Record [m] in [ns], on top of its mountpoint's stack.  Every caller
   inserts a higher id than any already in [ns] ([add] draws a fresh one,
   [clone_ns] inserts in the order it drew them), so each stack stays
   highest id first. *)
let insert ns m =
  Hashtbl.replace ns.mounts m.m_id m;
  match m.m_mp with
  | None -> ()
  | Some key ->
      let below = Option.value ~default:[] (Hashtbl.find_opt ns.stacked key) in
      Hashtbl.replace ns.stacked key (m :: below)

(* A fresh namespace with one private mount of [fs]'s root. *)
let create_ns ids ~fs =
  let ns_id = fresh_ns ids in
  let m =
    { m_id = fresh_mount ids; m_fs = fs; m_root = fs.Fsops.root; m_mp = None; m_prop = Private }
  in
  let ns = { ns_id; mounts = Hashtbl.create 16; stacked = Hashtbl.create 16; root = m.m_id } in
  insert ns m;
  ns

let find ns mid = Hashtbl.find_opt ns.mounts mid

let root_mount ns =
  match find ns ns.root with
  | Some m -> m
  | None -> invalid_arg "Mount.root_mount: dangling root"

(* The topmost (highest-id) mount stacked on mountpoint (parent mount
   [mid], inode [ino]), if any. *)
let mount_on ns ~mid ~ino =
  match Hashtbl.find_opt ns.stacked (mid, ino) with Some (m :: _) -> Some m | _ -> None

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
  insert ns m;
  m

let children ns mid =
  Hashtbl.fold
    (fun _ m acc -> match m.m_mp with Some (p, _) when p = mid -> m :: acc | _ -> acc)
    ns.mounts []

let remove ns mid =
  match find ns mid with
  | None -> ()
  | Some m -> (
      Hashtbl.remove ns.mounts mid;
      match m.m_mp with
      | None -> ()
      | Some key -> (
          match List.filter (fun b -> b.m_id <> mid) (Hashtbl.find ns.stacked key) with
          | [] -> Hashtbl.remove ns.stacked key
          | on -> Hashtbl.replace ns.stacked key on))

(* Copy every mount into a fresh namespace, preserving structure and
   propagation (clones of shared mounts stay in the same peer group, as in
   Linux).  Also returns the map from each old mount id to its clone's. *)
let clone_ns ids ns =
  let new_ns_id = fresh_ns ids in
  let id_map = Hashtbl.create 16 in
  Hashtbl.iter (fun old_id _ -> Hashtbl.replace id_map old_id (fresh_mount ids)) ns.mounts;
  let remap id = Hashtbl.find id_map id in
  let ns' =
    { ns_id = new_ns_id; mounts = Hashtbl.create 16; stacked = Hashtbl.create 16; root = remap ns.root }
  in
  Hashtbl.iter
    (fun old_id m ->
      insert ns'
        { m with m_id = remap old_id; m_mp = Option.map (fun (p, i) -> (remap p, i)) m.m_mp })
    ns.mounts;
  (ns', id_map)

(* mount --make-rprivate /: detach every mount from its peer group. *)
let make_rprivate ns =
  Hashtbl.iter (fun _ m -> m.m_prop <- Private) ns.mounts

let make_shared ids m =
  match m.m_prop with
  | Shared _ -> ()
  | Private -> m.m_prop <- Shared (fresh_group ids)
