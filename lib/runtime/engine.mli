(** Container engines and the name→PID resolution CNTR builds on (§3.2.1).

    Four engines are provided — Docker, LXC, rkt, systemd-nspawn — each a
    thin convention wrapper (ids, cgroup layout, LSM profile) over the
    shared {!Container} core, matching the paper's "~70 LoC per engine"
    observation (§4). *)

open Repro_os

type t = {
  e_name : string;
  e_kernel : Kernel.t;
  e_containers : (string, Container.t) Hashtbl.t;
  e_make_id : string -> string;
  e_cgroup : id:string -> name:string -> string;
  e_lsm_profile : string option;
}

(** Build a custom engine from its conventions. *)
val create :
  kernel:Kernel.t ->
  name:string ->
  make_id:(string -> string) ->
  cgroup:(id:string -> name:string -> string) ->
  lsm_profile:string option ->
  t

(** Run a container from [image] under this engine's conventions.
    [wrap_rootfs] lets observers interpose on the rootfs (Docker-Slim). *)
val run :
  t ->
  name:string ->
  ?privileged:bool ->
  ?wrap_rootfs:(Repro_vfs.Fsops.t -> Repro_vfs.Fsops.t) ->
  Repro_image.Image.t ->
  (Container.t, Repro_util.Errno.t) result

(** All containers of this engine, sorted by name. *)
val list : t -> Container.t list

(** Stop and deregister a container. *)
val remove : t -> string -> (unit, Repro_util.Errno.t) result

type engines = t list

(** All four engines on one kernel. *)
val all : kernel:Kernel.t -> engines

val by_name : engines -> string -> t option

(** Search every engine for a container matching [key]. *)
val resolve_any : engines -> string -> (t * Container.t, Repro_util.Errno.t) result
