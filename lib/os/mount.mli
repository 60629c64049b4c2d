(** Mount namespaces.  Mounts are keyed Linux-style by (parent mount,
    mountpoint inode), making bind mounts, stacked mounts and chroot
    interact correctly with path walking.  Propagation implements the
    subset CNTR depends on: shared peer groups (the host root), private
    mounts (container namespaces), and recursive privatization — so a
    mount created in CNTR's nested namespace never leaks back into the
    application container (§3.2.3).

    Mount, namespace and peer-group ids come from an {!ids} source that
    the kernel owns, so each world numbers its mounts from 1 whatever other
    worlds the process has built. *)

open Repro_vfs

type propagation = Private | Shared of int  (** peer group *)

type mount = {
  m_id : int;
  m_fs : Fsops.t;
  m_root : Types.ino;  (** root inode of this mount within [m_fs] *)
  m_mp : (int * Types.ino) option;  (** (parent mount id, mountpoint ino) *)
  mutable m_prop : propagation;
}

(** Built only by this module, which keeps [mounts] and [stacked] in
    step. *)
type ns = private {
  ns_id : int;
  mounts : (int, mount) Hashtbl.t;  (** by mount id *)
  stacked : (int * Types.ino, mount list) Hashtbl.t;
      (** (parent mount id, mountpoint ino) to the mounts stacked there,
          highest id first *)
  root : int;  (** root mount id *)
}

(** One kernel's mount, mount-namespace and peer-group id spaces. *)
type ids

(** Fresh id spaces: the first id drawn from each is 1. *)
val ids : unit -> ids

(** A new peer group id. *)
val fresh_group : ids -> int

(** A fresh namespace with one private mount of [fs]'s root. *)
val create_ns : ids -> fs:Fsops.t -> ns

val find : ns -> int -> mount option
val root_mount : ns -> mount

(** Topmost mount stacked on the mountpoint (parent [mid], inode [ino]). *)
val mount_on : ns -> mid:int -> ino:Types.ino -> mount option

(** Raw insertion (propagation to peers is the kernel's job). *)
val add :
  ids ->
  ns ->
  parent:int ->
  mp_ino:Types.ino ->
  fs:Fsops.t ->
  root_ino:Types.ino ->
  prop:propagation ->
  mount

(** The mounts whose parent is mount [mid]. *)
val children : ns -> int -> mount list

val remove : ns -> int -> unit

(** Copy every mount into a fresh namespace, preserving structure and peer
    groups (clones of shared mounts stay shared, as in Linux).  The table
    maps each old mount id to its clone's id. *)
val clone_ns : ids -> ns -> ns * (int, int) Hashtbl.t

(** mount --make-rprivate /: detach every mount from its peer group. *)
val make_rprivate : ns -> unit

(** Put a private mount in a new peer group of its own. *)
val make_shared : ids -> mount -> unit
