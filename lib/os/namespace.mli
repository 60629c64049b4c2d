(** Namespace identities.  Mount namespaces carry real state in {!Mount};
    PID namespaces are hierarchical (a parent sees its descendants'
    processes); a UTS namespace holds its hostname; the others are opaque
    identity tags whose sharing and unsharing is what the simulation
    tracks. *)

type kind = Mnt | Pid | Net | Uts | Ipc | User | Cgroup

val kind_to_string : kind -> string
val all_kinds : kind list

(** An opaque namespace tag (net, ipc, cgroup). *)
type t = { id : int; kind : kind }

(** A UTS namespace and its hostname, shared by fork and setns (so every
    member sees a sethostname) and copied into a fresh one by unshare. *)
type uts_ns = { uts_id : int; mutable hostname : string }

type pid_ns = { pns_id : int; parent : pid_ns option }

(** Is [inner] equal to or a descendant of [outer]?  Its processes are then
    visible from [outer]'s /proc. *)
val pid_ns_visible_from : outer:pid_ns -> pid_ns -> bool

(** uid/gid mapping ranges of a user namespace. *)
type mapping = { inside : int; outside : int; count : int }

type user_ns = {
  uns_id : int;
  mutable uid_map : mapping list;
  mutable gid_map : mapping list;
}

val map_to_host : mapping list -> int -> int option
val map_to_ns : mapping list -> int -> int option
val identity_map : mapping list
