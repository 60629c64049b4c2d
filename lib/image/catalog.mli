(** The synthetic Top-50 Docker Hub catalogue (§5.3, Figure 5): 44 ordinary
    applications over Debian/Alpine bases (whose tooling is mostly unused
    at runtime) plus 6 single-Go-binary images whose whole content is used.
    Sizes are scaled 1:16 from real images; reductions are ratios and
    unaffected by scale. *)

type spec = {
  sp_name : string;
  sp_base : [ `Alpine | `Debian | `Scratch ];
  sp_app_bytes : int;  (** runtime working set, scaled bytes *)
  sp_target_reduction : float;  (** intended slimming ratio, 0-1 *)
}

val specs : spec list

(** Shared base layers (equal ids dedup in the registry). *)
val alpine_base : Layer.t
val scratch_base : Layer.t

val base_layer : [ `Alpine | `Debian | `Scratch ] -> Layer.t

(** Paths of a base the application actually touches at runtime. *)
val base_paths_used : [ `Alpine | `Debian | `Scratch ] -> string list

(** The whole Top-50. *)
val top50 : unit -> Image.t list

(** Push the catalogue into a registry. *)
val publish : Registry.t -> unit
