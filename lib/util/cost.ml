(* Cost model: the virtual-time price of the primitive operations the
   simulation performs.  The constants below are the prices the paper's
   performance analysis names (syscall entry, FUSE context switches, copy
   vs. splice, page-cache hit vs. disk access).  Absolute values are loosely
   calibrated to the paper's EC2 m4.xlarge + EBS GP2 testbed; only the
   *ratios* matter for reproducing Figures 2-4. *)

let syscall_ns = 400           (* kernel entry/exit *)
let context_switch_ns = 2_500  (* one process switch (FUSE round trip = 2) *)
let copy_ns_per_kib = 60       (* user<->kernel buffer copy *)
let mem_ns_per_kib = 25        (* page-cache / tmpfs copy *)
let splice_setup_ns = 350      (* per splice(2) call: pipe page remapping *)
let splice_page_ns = 80        (* per page moved by splice: remap, no copy *)
let dentry_ns = 150            (* in-kernel dcache lookup step *)
let backing_lookup_ns = 2_600  (* CntrFS server-side open()+stat() per lookup *)
let queue_lock_ns = 30         (* fuse_conn pending-queue spinlock critical section *)
let journal_ns = 3_000         (* amortized jbd2 cost per metadata mutation *)
let write_path_ns = 2_500      (* ext4 per-write block reservation + journal handle *)
let page_size = 4096           (* bytes per page-cache page *)

(* EBS GP2 (SSD over a dedicated network link): sub-millisecond latency,
   ~160 MiB/s streaming.  1 KiB at 160 MiB/s is ~6 us. *)
let disk_read_latency_ns = 120_000  (* fixed per read I/O (queueing + device) *)
let disk_write_latency_ns = 30_000  (* fixed per write I/O *)
let disk_read_ns_per_kib = 6_000    (* streaming read cost *)
let disk_write_ns_per_kib = 6_000   (* streaming write cost *)

(* Round [bytes] up to whole KiB for per-KiB pricing. *)
let kib_of_bytes bytes = (bytes + 1023) / 1024

(* Round [bytes] up to whole pages for splice pricing. *)
let pages_of_bytes bytes = (bytes + page_size - 1) / page_size

let copy_cost bytes = copy_ns_per_kib * kib_of_bytes bytes
let mem_cost bytes = mem_ns_per_kib * kib_of_bytes bytes

(* One splice(2) call moving [bytes]: fixed pipe setup plus a per-page
   remap.  Per page this undercuts the double copy of a userspace relay
   (80 ns vs. 2 x 240 ns), but the fixed setup means tiny chatter messages
   still favor plain read/write — the trade-off bench e9 measures. *)
let splice_cost bytes = splice_setup_ns + (splice_page_ns * pages_of_bytes bytes)

let disk_read_cost bytes = disk_read_latency_ns + (disk_read_ns_per_kib * kib_of_bytes bytes)
let disk_write_cost bytes = disk_write_latency_ns + (disk_write_ns_per_kib * kib_of_bytes bytes)
