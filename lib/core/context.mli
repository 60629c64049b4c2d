(** Step #1 of the attach workflow (§3.2.1): the execution context of a
    container, read and parsed from the /proc filesystem of its main
    process — never from kernel internals, exactly like the real CNTR. *)

open Repro_os

type t = {
  cx_pid : int;  (** pid of the inspected process *)
  cx_uid : int;  (** effective uid (from [status]) *)
  cx_gid : int;
  cx_caps : Caps.Set.t;  (** effective capabilities (from [CapEff]) *)
  cx_env : (string * string) list;  (** environment (from [environ]) *)
  cx_cgroup : string;  (** cgroup path (from [cgroup]) *)
  cx_lsm_profile : string option;  (** AppArmor/SELinux profile, [None] if unconfined *)
  cx_ns_ids : (Namespace.kind * string) list;  (** namespace tags (from [ns/]) *)
  cx_uid_map : string;  (** user-namespace uid map, verbatim *)
  cx_gid_map : string;
}

(** [inspect kernel proc ~pid] reads /proc/[pid]/{status,environ,cgroup,
    attr/current,uid_map,gid_map,ns/*} as [proc] and parses them. *)
val inspect : Kernel.t -> Proc.t -> pid:int -> (t, Repro_util.Errno.t) result
