(** The xfstests-style regression harness (§5.1).  A test is a predicate
    over a scratch directory on the filesystem under test; the same
    94-test generic suite runs against native tmpfs and against
    CntrFS-on-tmpfs (the paper's methodology). *)

open Repro_os
open Repro_cntrfs

type env = {
  k : Kernel.t;
  root : Proc.t;  (** privileged *)
  user : Proc.t;  (** uid 1000, no capabilities *)
  user2 : Proc.t;  (** uid 1001, no capabilities *)
  base : string;  (** per-test scratch directory, mode 0777 *)
}

type test = {
  t_id : int;  (** xfstests-style "generic/NNN" number *)
  t_groups : string list;  (** auto, quick, aio, prealloc, ioctl, dangerous *)
  t_desc : string;
  t_run : env -> (unit, string) result;
}

type outcome = Pass | Fail of string

type row = { r_test : test; r_outcome : outcome }

type summary = {
  s_rows : row list;
  s_total : int;
  s_passed : int;
  s_failed : (int * string) list;
}

(** {1 Assertion helpers for writing tests} *)

val ( let* ) : ('a, 'b) result -> ('a -> ('c, 'b) result) -> ('c, 'b) result
val check : bool -> string -> (unit, string) result
val check_int : what:string -> int -> int -> (unit, string) result
val check_str : what:string -> string -> string -> (unit, string) result

(** Unwrap a syscall result, tagging failures with the operation name. *)
val req : string -> ('a, Repro_util.Errno.t) result -> ('a, string) result

val expect_errno :
  what:string -> Repro_util.Errno.t -> ('a, Repro_util.Errno.t) result -> (unit, string) result

val write_file : env -> Proc.t -> string -> ?mode:int -> string -> (unit, string) result
val read_file : env -> Proc.t -> string -> (string, string) result

(** {1 Setups and the runner} *)

type setup = {
  su_env_root : string;
  su_kernel : Kernel.t;
  su_root : Proc.t;
  su_user : Proc.t;
  su_user2 : Proc.t;
  su_session : Session.t option;  (** present when testing CntrFS *)
}

(** Run directly on a tmpfs-backed directory. *)
val setup_native : unit -> setup

(** The same directory served through the full FUSE stack. *)
val setup_cntrfs : ?opts:Repro_fuse.Opts.t -> unit -> setup

val run_suite : setup -> test list -> summary
