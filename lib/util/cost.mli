(** Cost model: the virtual-time price of the primitive operations the
    simulation performs — the prices the paper's performance analysis names
    (syscall entry, FUSE context switches, copy vs. splice, page-cache hit
    vs. disk access, lookup amplification, journal costs).  Absolute values
    are loosely calibrated to the paper's EC2 m4.xlarge + EBS GP2 testbed;
    only the ratios matter for reproducing Figures 2-4.  Every price is a
    constant: one calibration, shared by every layer. *)

(** {1 Prices, in virtual ns} *)

val syscall_ns : int
val context_switch_ns : int
val copy_ns_per_kib : int
val splice_setup_ns : int
val splice_page_ns : int
val dentry_ns : int
val backing_lookup_ns : int
val queue_lock_ns : int
val journal_ns : int
val write_path_ns : int

(** Bytes per page-cache page. *)
val page_size : int

(** The EBS GP2 disk behind every SSD-profile store. *)

val disk_write_latency_ns : int
val disk_read_ns_per_kib : int
val disk_write_ns_per_kib : int

(** {1 Prices of a byte count} *)

val kib_of_bytes : int -> int

(** Whole pages covering [bytes] (for splice pricing). *)
val pages_of_bytes : int -> int

(** Per-KiB user<->kernel copy: the double-buffer baseline. *)
val copy_cost : int -> int

(** Per-KiB page-cache / tmpfs copy. *)
val mem_cost : int -> int

(** One splice(2) call moving [bytes]: setup plus per-page remap. *)
val splice_cost : int -> int

val disk_read_cost : int -> int
val disk_write_cost : int -> int
