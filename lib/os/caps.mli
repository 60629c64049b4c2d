(** Linux capabilities (the subset the simulation enforces).  CNTR captures
    a container's capability set from /proc and applies it to the nested
    namespace so tools run with exactly the container's privileges. *)

type cap =
  | CAP_CHOWN
  | CAP_DAC_OVERRIDE
  | CAP_FOWNER
  | CAP_FSETID
  | CAP_KILL
  | CAP_SETGID
  | CAP_SETUID
  | CAP_NET_ADMIN
  | CAP_NET_BIND_SERVICE
  | CAP_SYS_CHROOT
  | CAP_SYS_PTRACE
  | CAP_SYS_ADMIN
  | CAP_MKNOD
  | CAP_SYS_RESOURCE
  | CAP_AUDIT_WRITE

module Set : sig
  type t

  val empty : t
  val full : t
  val mem : cap -> t -> bool

  (** CapEff-style 16-digit hex, as /proc prints it. *)
  val to_hex : t -> string

  val of_hex : string -> t
  val equal : t -> t -> bool

  (** Docker's default bounding set for unprivileged containers. *)
  val docker_default : t
end
