(** A ready-to-use simulated machine: kernel over a host root filesystem
    with /dev and /proc, a registry populated with the Top-50 catalogue,
    and all four container engines. *)

open Repro_util
open Repro_os

type t = {
  clock : Clock.t;
  obs : Repro_obs.Obs.t;
      (** the machine-wide observability handle: every layer's metrics
          ([os.*], [fuse.*], [cntrfs.*], [vfs.*]) land in this registry *)
  kernel : Kernel.t;
  init : Proc.t;  (** pid 1 *)
  rootfs : Repro_vfs.Nativefs.t;
  registry : Repro_image.Registry.t;
  engines : Engine.engines;
  budget : Repro_vfs.Mem_budget.t;  (** shared page-cache budget *)
}

(** Build the machine: a RAM-backed (tmpfs) host root and a 1 GiB shared
    page-cache budget. *)
val create : unit -> t

(** The Docker engine. *)
val docker : t -> Engine.t

(** Look an engine up by name; raises [Invalid_argument] if unknown. *)
val engine : t -> string -> Engine.t

(** Pull [image_ref] from the registry (charging network time) and run it
    under [engine]. *)
val run_container :
  t ->
  engine:Engine.t ->
  name:string ->
  image_ref:string ->
  ?privileged:bool ->
  unit ->
  (Container.t, Errno.t) result

(** Write a file via [proc], creating/truncating it (test fixture helper). *)
val write_file : Kernel.t -> Proc.t -> string -> ?mode:int -> string -> unit
