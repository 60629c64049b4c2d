(** Program-family synthesis: a registry-scale image population (E5R).

    Thousands of images clustered into ~20 program families.  Members of a
    family share the distro base layer (the same objects as the Top-50
    catalogue) and a family runtime layer; only a thin per-member layer
    (config, manifest, seeded data) is unique.  Every member carries
    [<bin>.deps] static dependency sidecars so {!Repro_slim.Partition} can
    slim it without running it, and an /etc/app.manifest dynamic working
    set that is a strict subset of the static closure. *)

type spec = {
  f_name : string;
  f_base : [ `Alpine | `Debian | `Scratch ];
  f_runtime_kib : int;  (** shared runtime library; 0 = static binaries *)
  f_bin_kib : int;  (** member binary size *)
  f_hot_kib : int;  (** data asset read at runtime *)
  f_cold_kib : int;  (** data shipped but never read *)
  f_reduction_lo : float;  (** dynamic-reduction band across members *)
  f_reduction_hi : float;
}

val specs : spec list

(** Member [i] of a family with [members] total members; deterministic. *)
val member : spec -> members:int -> int -> Image.t

(** Exactly [n] images spread across all families; deterministic. *)
val synthesize : n:int -> Image.t list

(** One representative (member 0) per family, with the member count it
    would have in [synthesize ~n] — for materialize-and-run checks. *)
val representatives : n:int -> (spec * Image.t) list
