(** Measurement harness for the Phoronix-like suite (§5.2).

    Testbed model (paper: EC2 m4.xlarge + EBS GP2): a host with an
    ext4-on-SSD data filesystem.  The native backend touches /data
    directly; the CntrFS backend reaches the same filesystem through the
    FUSE stack mounted at /cntr.  Setup phases run through the native path
    in both configurations so the backing page cache starts equally warm;
    only the measured path differs. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs

type backend = Native | Cntrfs of Opts.t

type env = {
  kernel : Kernel.t;
  proc : Proc.t;
  dir : string;  (** measured directory *)
  backing_dir : string;  (** the same directory via the native path *)
  session : Session.t option;
  sched : Repro_sched.Sched.t;
      (** the world's discrete-event scheduler: FUSE worker fibers and
          client tasks all run on it *)
  rng : Rng.t;
  data_fs : Nativefs.t;
}

type workload = {
  w_name : string;
  w_paper : float;  (** Figure 2 reference overhead *)
  w_concurrency : int;  (** number of concurrent client tasks the body spawns *)
  w_budget_mb : int;  (** page-cache budget for this workload's world *)
  w_setup : env -> unit;  (** unmeasured; runs via [backing_dir] *)
  w_run : env -> unit;  (** measured; runs via [dir] as the root task *)
}

(** [obs] is shared by the env's kernel, page caches and FUSE session, so
    one registry sees the whole run; omitted = a fresh private handle.  A
    CntrFS env also sets the [cntrfs.server.threads] gauge to [threads]. *)
val make_env :
  ?obs:Repro_obs.Obs.t -> backend:backend -> budget_mb:int -> ?threads:int -> unit -> env

(** Flush the backing cache's dirty pages so measurement starts settled. *)
val settle : env -> unit

(** Run the workload; returns measured virtual nanoseconds.  [obs]
    collects the run's counters for inspection after the run.  The body
    runs as the scheduler's root task, so concurrent client tasks it
    spawns genuinely overlap; measured time is the root task's span. *)
val run_workload : ?obs:Repro_obs.Obs.t -> backend:backend -> workload -> int

(** Figure 2's metric: time(CntrFS) / time(native); >1 = CntrFS slower. *)
val overhead : ?opts:Opts.t -> workload -> float

(** Run the thunks as concurrent client tasks and join them all; elapsed
    time is the slowest task's timeline, not the sum. *)
val concurrently : env -> (unit -> unit) list -> unit

(** {1 Syscall shorthands for workload bodies} *)

val openf : env -> string -> Types.open_flag list -> int -> int
val closef : env -> int -> unit
val write_all : env -> int -> string -> unit
val pwrite : env -> int -> off:int -> string -> unit
val pread : env -> int -> off:int -> len:int -> string
val write_file : env -> string -> string -> unit
val read_file : env -> string -> string
val mkdir : env -> string -> unit
val unlink : env -> string -> unit
val fsync : env -> int -> unit

(** Burn CPU time (compression, request parsing, SQL). *)
val cpu : env -> int -> unit

val seq_write : env -> int -> total:int -> record:int -> unit
val seq_read : env -> int -> total:int -> record:int -> unit
