(** Unix permission checks, including a POSIX-ACL subset stored in the
    "system.posix_acl_access" xattr with a textual encoding
    ("u::rwx,u:1000:r-x,g::r--,m::rwx,o::---").  Enough to reproduce the
    semantics xfstests generic/375 probes. *)

open Types

type acl_entry =
  | Acl_user_obj of int
  | Acl_user of int * int
  | Acl_group_obj of int
  | Acl_group of int * int
  | Acl_mask of int
  | Acl_other of int

(** Parse an ACL text; [None] if any entry is malformed or empty. *)
val parse : string -> acl_entry list option

val serialize : acl_entry list -> string

val in_group : cred -> int -> bool

(** [check cred ~uid ~gid ~mode ?acl want]: does [cred] have the [want]
    bits ({!Types.r_ok}/[w_ok]/[x_ok])?  CAP_DAC_OVERRIDE bypasses; a
    parseable [acl] takes precedence over mode bits. *)
val check : cred -> uid:int -> gid:int -> mode:int -> ?acl:string -> int -> bool

(** Should chmod clear S_ISGID?  Linux clears it when the caller is not a
    member of the owning group and lacks CAP_FSETID — which a privileged
    FUSE server replaying the chmod never does (generic/375). *)
val chmod_clears_setgid : cred -> gid:int -> bool

(** Should writing strip setuid/setgid (file_remove_privs)? *)
val write_clears_suid : cred -> bool
