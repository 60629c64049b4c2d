(** Container images: an ordered stack of {!Layer}s plus run configuration.
    [materialize] unions the layers (with whiteouts) into a fresh
    filesystem — the rootfs a container engine boots from. *)

open Repro_os

type config = {
  env : (string * string) list;
  entrypoint : string list;  (** argv; empty = no main process *)
  workdir : string;
  user : int;  (** uid the main process runs as *)
}

val default_config : config

type t = {
  name : string;
  tag : string;
  layers : Layer.t list;  (** bottom-most first *)
  config : config;
}

(** Build an image (default tag "latest"). *)
val v : ?tag:string -> ?config:config -> name:string -> Layer.t list -> t

(** "name:tag". *)
val ref_ : t -> string

(** Total uncompressed size of all layers (what a registry stores). *)
val size : t -> int

val file_count : t -> int

(** Paths present after union (whiteouts applied), sorted. *)
val effective_paths : t -> string list

(** Winning entry per path after union — the static view a dependency
    partitioner walks without materializing the image. *)
val effective_entries : t -> (string, Layer.entry) Hashtbl.t

(** Bytes visible after union — the "image size" of Figure 5. *)
val effective_size : t -> int

(** Union-materialize into a fresh RAM filesystem. *)
val materialize :
  t -> kernel:Kernel.t -> proc:Proc.t -> (Repro_vfs.Nativefs.t, Repro_util.Errno.t) result
