(** Figures 3 and 4 (§5.2.3) plus extension experiments: per-optimization
    ablations, the server-thread sweep, the single-switch ablation matrix,
    and the page-cache-fit sweep behind the paper's IOzone discussion. *)

type ablation = {
  a_name : string;
  a_metric : string;
  a_before : float;  (** optimization off *)
  a_after : float;  (** optimization on (CNTR default) *)
  a_native : float;  (** native reference *)
  a_paper_note : string;
}

val figure3 : unit -> ablation list

type e3e_row = {
  er_workload : string;
  er_off : float;  (** relative overhead, fast path off (the paper's config) *)
  er_on : float;  (** relative overhead with {!Repro_fuse.Opts.fastpath} *)
  er_amp_off : float;  (** [cntrfs.lookup.amplification], off leg *)
  er_amp_on : float;  (** [cntrfs.lookup.amplification], on leg *)
  er_backing_off : int;  (** [cntrfs.lookup.backing_ops], off leg *)
  er_backing_on : int;  (** [cntrfs.lookup.backing_ops], on leg *)
  er_neg_hits : int;  (** [fuse.dentry.negative_hits], on leg *)
  er_rdp_entries : int;  (** [fuse.readdirplus.entries], on leg *)
  er_hc_hits : int;  (** [cntrfs.handle_cache.hits], on leg *)
}

(** e3e (extension; no paper figure): the metadata fast path
    (READDIRPLUS + TTL dentry/attr + negative dentries + server handle
    cache) off vs. on, on the two lookup-bound workloads of §5.2.2
    (compilebench read, postmark). *)
val fig3e : unit -> e3e_row list

type thread_point = { tp_threads : int; tp_mbps : float }

(** Figure 4: single-reader sequential-read throughput at 1, 2, 4, 8, 16,
    64 and 256 server threads.  With per-worker submission deques and
    targeted wakeups, idle threads stay off the critical path and the
    sweep is flat; the 64/256 legs probe far past the paper's axis. *)
val figure4 : unit -> thread_point list

type contended_point = {
  cp_threads : int;
  cp_mbps : float;
  cp_steals : int;  (** [sched.steals] over the run *)
  cp_steal_fails : int;  (** [sched.steal_fails] *)
  cp_local_hits : int;  (** [sched.local_hits] *)
}

(** Contended companion to Figure 4: 8 concurrent readers over disjoint
    files at 4, 16, 64 and 256 server threads.  Oversized pools must not
    collapse — work stealing repairs placement imbalance, and the steal
    counters are reported alongside throughput. *)
val figure4_contended : unit -> contended_point list

type matrix_row = { mr_config : string; mr_overhead : float }

(** Switch each optimization off individually and measure the worst-case
    workload (compilebench read). *)
val ablation_matrix : unit -> matrix_row list

type cache_point = { cp_label : string; cp_budget_mb : int; cp_overhead : float }

(** §5.2.2: the same file fits the native cache one budget step longer than
    CntrFS's double-buffered pair. *)
val iozone_cache_sweep : unit -> cache_point list
