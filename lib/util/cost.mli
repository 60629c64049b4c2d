(** Cost model: the virtual-time price of the primitive operations the
    simulation performs — the knobs the paper's performance analysis names
    (syscall entry, FUSE context switches, copy vs. splice, page-cache hit
    vs. disk access, lookup amplification, journal costs).  Absolute values
    are loosely calibrated to the paper's EC2 m4.xlarge + EBS GP2 testbed;
    only the ratios matter for reproducing Figures 2-4. *)

type disk = {
  read_latency_ns : int;
  write_latency_ns : int;
  read_ns_per_kib : int;
  write_ns_per_kib : int;
}
type t = {
  syscall_ns : int;
  context_switch_ns : int;
  copy_ns_per_kib : int;
  mem_ns_per_kib : int;
  splice_setup_ns : int;
  splice_page_ns : int;
  dentry_ns : int;
  backing_lookup_ns : int;
  queue_lock_ns : int;
  wakeup_ns : int;
  cpu_ns_per_kib : int;
  journal_ns : int;
  write_path_ns : int;
  page_size : int;
  disk : disk;
}
val default : t
val kib_of_bytes : int -> int
val copy_cost : t -> int -> int

(** Whole pages covering [bytes] (for splice pricing). *)
val pages_of_bytes : t -> int -> int

(** One splice(2) call moving [bytes]: setup plus per-page remap. *)
val splice_cost : t -> int -> int
val mem_cost : t -> int -> int
val disk_read_cost : t -> int -> int
val disk_write_cost : t -> int -> int
