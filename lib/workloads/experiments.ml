(* Figures 3 and 4 (§5.2.3): effectiveness of the individual optimizations,
   each measured with a dedicated micro-workload that isolates the
   mechanism, exactly as the paper does. *)

open Repro_util
open Repro_vfs
open Repro_fuse
open Bench_env

let kib = Size.kib
let mib = Size.mib

type ablation = {
  a_name : string;
  a_metric : string; (* e.g. "Threaded read [MB/s]" *)
  a_before : float;
  a_after : float;
  a_native : float; (* native reference, where meaningful *)
  a_paper_note : string;
}

let throughput ~bytes ~ns = float_of_int bytes /. (float_of_int ns /. 1e9) /. 1024. /. 1024.

(* --- Figure 3(a): read cache (FOPEN_KEEP_CACHE) ---------------------------- *)
(* Threaded I/O read, 8 reader threads, re-opening the file between passes.
   Without FOPEN_KEEP_CACHE every open invalidates the page cache, so each
   pass re-fetches through the server's worker pool — which the readers
   outnumber, so the connection saturates; with the flag kept pages are
   served from the page cache at memory speed (paper: ~10x). *)

let read_cache_workload =
  {
    w_name = "fig3a";
    w_paper = 0.;
    w_concurrency = 8;
    w_budget_mb = 64;
    w_setup = (fun env -> write_file env (env.backing_dir ^ "/tio") (String.make (mib 1) 'x'));
    w_run =
      (fun env ->
        (* 8 reader tasks x 4 passes, each pass opens and closes its fd *)
        for _pass = 0 to 3 do
          let fds = List.init 8 (fun _ -> openf env (env.dir ^ "/tio") [ Types.O_RDONLY ] 0) in
          concurrently env
            (List.map (fun fd () -> seq_read env fd ~total:(mib 1) ~record:(kib 8)) fds);
          List.iter (closef env) fds
        done);
  }

let fig3a () =
  let bytes = 32 * mib 1 in
  let before =
    run_workload ~backend:(Cntrfs { Opts.cntr_default with Opts.keep_cache = false }) read_cache_workload
  in
  let after = run_workload ~backend:(Cntrfs Opts.cntr_default) read_cache_workload in
  let native = run_workload ~backend:Native read_cache_workload in
  {
    a_name = "Read cache (FOPEN_KEEP_CACHE)";
    a_metric = "Threaded read [MB/s]";
    a_before = throughput ~bytes ~ns:before;
    a_after = throughput ~bytes ~ns:after;
    a_native = throughput ~bytes ~ns:native;
    a_paper_note = "paper: ~10x higher concurrent-read throughput";
  }

(* --- Figure 3(b): writeback cache ------------------------------------------- *)
(* IOzone sequential write, 4 KiB records, no fsync: write-through sends
   one WRITE round trip per record; writeback coalesces into 128 KiB
   requests (paper: +65% vs native). *)

let writeback_workload =
  {
    w_name = "fig3b";
    w_paper = 0.;
    w_concurrency = 1;
    w_budget_mb = 64;
    w_setup = (fun _ -> ());
    w_run =
      (fun env ->
        let fd = openf env (env.dir ^ "/wb") [ Types.O_CREAT; Types.O_WRONLY ] 0o644 in
        seq_write env fd ~total:(mib 2) ~record:(kib 2);
        closef env fd);
  }

let fig3b () =
  let bytes = mib 2 in
  let before =
    run_workload ~backend:(Cntrfs { Opts.cntr_default with Opts.writeback = false }) writeback_workload
  in
  let after = run_workload ~backend:(Cntrfs Opts.cntr_default) writeback_workload in
  let native = run_workload ~backend:Native writeback_workload in
  {
    a_name = "Writeback cache (FUSE_WRITEBACK_CACHE)";
    a_metric = "Sequential write [MB/s]";
    a_before = throughput ~bytes ~ns:before;
    a_after = throughput ~bytes ~ns:after;
    a_native = throughput ~bytes ~ns:native;
    a_paper_note = "paper: +65% write throughput vs native";
  }

(* --- Figure 3(c): batching (FUSE_PARALLEL_DIROPS) --------------------------- *)
(* A metadata-bound stat storm over one flat source directory with 4
   concurrent walker tasks striped across disjoint file names: without
   PARALLEL_DIROPS every cold lookup takes the parent's i_rwsem
   exclusively across its round trip, and since all walkers share the one
   parent they queue behind each other for essentially the whole runtime
   (paper: 2.5x).  With the flag, lookups for different names overlap on
   the server's worker pool.  Each walker also reads every 8th file — the
   off-lock share that keeps the serialization penalty short of total.
   Striping keeps total work identical in both configurations. *)

let flat_files = 216
let flat_file_bytes = kib 4

let parallel_walk_workload =
  {
    w_name = "fig3c";
    w_paper = 0.;
    w_concurrency = 4;
    w_budget_mb = 64;
    w_setup =
      (fun env ->
        mkdir env (env.backing_dir ^ "/flat");
        let data = String.make flat_file_bytes 'c' in
        for f = 0 to flat_files - 1 do
          write_file env (Printf.sprintf "%s/flat/src%03d.c" env.backing_dir f) data
        done);
    w_run =
      (fun env ->
        concurrently env
          (List.init 4 (fun stripe () ->
               for f = 0 to flat_files - 1 do
                 if f mod 4 = stripe then begin
                   let path = Printf.sprintf "%s/flat/src%03d.c" env.dir f in
                   ignore (Errno.ok_exn (Repro_os.Kernel.stat env.kernel env.proc path));
                   if f mod 8 = stripe then ignore (read_file env path)
                 end
               done)));
  }

let fig3c () =
  let workload = parallel_walk_workload in
  let bytes = flat_files / 2 * flat_file_bytes in
  let before =
    run_workload ~backend:(Cntrfs { Opts.cntr_default with Opts.parallel_dirops = false }) workload
  in
  let after = run_workload ~backend:(Cntrfs Opts.cntr_default) workload in
  let native = run_workload ~backend:Native workload in
  {
    a_name = "Batching (FUSE_PARALLEL_DIROPS)";
    a_metric = "Stat+read source dir [MB/s]";
    a_before = throughput ~bytes ~ns:before;
    a_after = throughput ~bytes ~ns:after;
    a_native = throughput ~bytes ~ns:native;
    a_paper_note = "paper: 2.5x faster compilebench read";
  }

(* --- Figure 3(d): splice read ------------------------------------------------ *)
(* Sequential read with a working set slightly over the cache budget, so a
   steady fraction of requests reaches the server: splice saves the reply
   copies (paper: ~5%). *)

let splice_workload =
  {
    w_name = "fig3d";
    w_paper = 0.;
    w_concurrency = 1;
    w_budget_mb = 9;
    w_setup = (fun env -> write_file env (env.backing_dir ^ "/spl") (String.make (mib 4) 's'));
    w_run =
      (fun env ->
        let fd = openf env (env.dir ^ "/spl") [ Types.O_RDONLY ] 0 in
        for _pass = 0 to 4 do
          seq_read env fd ~total:(mib 4) ~record:(kib 4)
        done;
        closef env fd);
  }

let fig3d () =
  let bytes = 5 * mib 4 in
  let before =
    run_workload ~backend:(Cntrfs { Opts.cntr_default with Opts.splice_read = false }) splice_workload
  in
  let after = run_workload ~backend:(Cntrfs Opts.cntr_default) splice_workload in
  let native = run_workload ~backend:Native splice_workload in
  {
    a_name = "Splice read";
    a_metric = "Sequential read [MB/s]";
    a_before = throughput ~bytes ~ns:before;
    a_after = throughput ~bytes ~ns:after;
    a_native = throughput ~bytes ~ns:native;
    a_paper_note = "paper: ~5% sequential-read improvement";
  }

let figure3 () = [ fig3a (); fig3b (); fig3c (); fig3d () ]

(* --- e3e: the metadata fast path (extension; no paper figure) --------------- *)
(* The §5.2.2 lookup tax, attacked: READDIRPLUS + TTL'd dentry/attr caches +
   negative dentries + the server handle cache (Opts.fastpath), measured on
   the two workloads the paper names as lookup-bound.  OFF = the paper's
   configuration, so its Figure 2 numbers are untouched. *)

type e3e_row = {
  er_workload : string;
  er_off : float; (* relative overhead with Opts.cntr_default *)
  er_on : float; (* relative overhead with Opts.fastpath *)
  er_amp_off : float; (* cntrfs.lookup.amplification *)
  er_amp_on : float;
  er_backing_off : int; (* cntrfs.lookup.backing_ops: the absolute tax *)
  er_backing_on : int;
  er_neg_hits : int; (* fuse.dentry.negative_hits, ON leg *)
  er_rdp_entries : int; (* fuse.readdirplus.entries, ON leg *)
  er_hc_hits : int; (* cntrfs.handle_cache.hits, ON leg *)
}

let fig3e () =
  let measure opts w =
    let obs = Repro_obs.Obs.create () in
    let cntr = run_workload ~obs ~backend:(Cntrfs opts) w in
    let native = run_workload ~backend:Native w in
    (float_of_int cntr /. float_of_int (max 1 native), Repro_obs.Obs.metrics obs)
  in
  List.map
    (fun w ->
      let off, m_off = measure Opts.cntr_default w in
      let on, m_on = measure Opts.fastpath w in
      {
        er_workload = w.w_name;
        er_off = off;
        er_on = on;
        er_amp_off = Repro_obs.Metrics.gauge_value m_off "cntrfs.lookup.amplification";
        er_amp_on = Repro_obs.Metrics.gauge_value m_on "cntrfs.lookup.amplification";
        er_backing_off = Repro_obs.Metrics.counter_value m_off "cntrfs.lookup.backing_ops";
        er_backing_on = Repro_obs.Metrics.counter_value m_on "cntrfs.lookup.backing_ops";
        er_neg_hits = Repro_obs.Metrics.counter_value m_on "fuse.dentry.negative_hits";
        er_rdp_entries = Repro_obs.Metrics.counter_value m_on "fuse.readdirplus.entries";
        er_hc_hits = Repro_obs.Metrics.counter_value m_on "cntrfs.handle_cache.hits";
      })
    [ Suite.compilebench_read; Suite.postmark ]

(* --- Figure 4: multithreading -------------------------------------------------- *)
(* IOzone sequential read, 500 MB / 4 KiB records (scaled), sweeping the
   CntrFS server thread count.  The reader is single-threaded, so extra
   workers never help; the question is what they *cost*.  Under the old
   global pending queue every submission broadcast-woke the whole parked
   herd and paid a wait-list walk per extra thread, an emergent
   coordination tax of up to ~8% at 16 threads.  With per-worker
   submission deques the submitter targets one worker and wakes it alone,
   so idle threads are never on the critical path and the sweep stays
   flat — including the 64- and 256-thread legs far past the paper's
   axis, where the herd tax would have been ruinous.  4 KiB records keep
   each request a single READ, so no read-batch parallelism masks the
   result. *)

type thread_point = { tp_threads : int; tp_mbps : float }

let fig4_workload =
  {
    w_name = "fig4";
    w_paper = 0.;
    w_concurrency = 1;
    w_budget_mb = 64;
    w_setup =
      (fun env -> write_file env (env.backing_dir ^ "/ioz") (String.make (200 * kib 4) 'r'));
    w_run =
      (fun env ->
        let fd = openf env (env.dir ^ "/ioz") [ Types.O_RDONLY ] 0 in
        seq_read env fd ~total:(200 * kib 4) ~record:(kib 4);
        closef env fd);
  }

let figure4 () =
  let bytes = 200 * kib 4 in
  List.map
    (fun threads ->
      let env = make_env ~backend:(Cntrfs Opts.cntr_default) ~budget_mb:64 ~threads () in
      fig4_workload.w_setup env;
      settle env;
      let t0 = Clock.now_ns env.kernel.Repro_os.Kernel.clock in
      (* run as the scheduler's root task (like run_workload): the event
         loop then retires every wake in time order, so its cost is real
         rather than left pending in the queue *)
      Repro_sched.Sched.run env.sched (fun () -> fig4_workload.w_run env);
      let ns = Int64.to_int (Int64.sub (Clock.now_ns env.kernel.Repro_os.Kernel.clock) t0) in
      { tp_threads = threads; tp_mbps = throughput ~bytes ~ns })
    [ 1; 2; 4; 8; 16; 64; 256 ]

(* Contended companion to Figure 4: 8 concurrent readers over disjoint
   files, where extra workers *can* help and placement mistakes *can*
   hurt.  The point of the sweep is the right-hand side: oversized pools
   (64, 256 threads) must not collapse — submissions spread over mostly
   idle deques and the stealers repair the imbalance, so the steal
   counters are the interesting output alongside throughput. *)

type contended_point = {
  cp_threads : int;
  cp_mbps : float;
  cp_steals : int;
  cp_steal_fails : int;
  cp_local_hits : int;
}

let fig4c_readers = 8
let fig4c_file_bytes = 128 * kib 4 (* ~512 KiB per reader *)

let fig4_contended_workload =
  {
    w_name = "fig4c";
    w_paper = 0.;
    w_concurrency = fig4c_readers;
    w_budget_mb = 64;
    w_setup =
      (fun env ->
        let data = String.make fig4c_file_bytes 'r' in
        for r = 0 to fig4c_readers - 1 do
          write_file env (Printf.sprintf "%s/ioz%d" env.backing_dir r) data
        done);
    w_run =
      (fun env ->
        concurrently env
          (List.init fig4c_readers (fun r () ->
               let fd =
                 openf env (Printf.sprintf "%s/ioz%d" env.dir r) [ Types.O_RDONLY ] 0
               in
               seq_read env fd ~total:fig4c_file_bytes ~record:(kib 4);
               closef env fd)));
  }

let figure4_contended () =
  let bytes = fig4c_readers * fig4c_file_bytes in
  List.map
    (fun threads ->
      let obs = Repro_obs.Obs.create () in
      let env = make_env ~obs ~backend:(Cntrfs Opts.cntr_default) ~budget_mb:64 ~threads () in
      fig4_contended_workload.w_setup env;
      settle env;
      let t0 = Clock.now_ns env.kernel.Repro_os.Kernel.clock in
      Repro_sched.Sched.run env.sched (fun () -> fig4_contended_workload.w_run env);
      let ns = Int64.to_int (Int64.sub (Clock.now_ns env.kernel.Repro_os.Kernel.clock) t0) in
      let m = Repro_obs.Obs.metrics obs in
      {
        cp_threads = threads;
        cp_mbps = throughput ~bytes ~ns;
        cp_steals = Repro_obs.Metrics.counter_value m "sched.steals";
        cp_steal_fails = Repro_obs.Metrics.counter_value m "sched.steal_fails";
        cp_local_hits = Repro_obs.Metrics.counter_value m "sched.local_hits";
      })
    [ 4; 16; 64; 256 ]

(* --- ablation matrix: which optimization buys what ----------------------------- *)
(* Beyond the paper's Figure 3: switch each optimization off *individually*
   (keeping the rest at CNTR defaults) and measure the overhead of the
   worst-case workload.  Quantifies each design choice's contribution. *)

type matrix_row = { mr_config : string; mr_overhead : float }

let ablation_matrix () =
  let base = Opts.cntr_default in
  let configs =
    [
      ("all optimizations (CNTR default)", base);
      ("without FOPEN_KEEP_CACHE", { base with Opts.keep_cache = false });
      ("without writeback cache", { base with Opts.writeback = false });
      ("without PARALLEL_DIROPS", { base with Opts.parallel_dirops = false });
      ("without async read batching", { base with Opts.async_read = false; read_batch = 1 });
      ("without splice read", { base with Opts.splice_read = false });
      ("without forget batching", { base with Opts.forget_batch = 1 });
      ("without entry/attr caches", { base with Opts.dcache = false });
      ("with splice write (off by default, §3.3)", { base with Opts.splice_write = true });
      ("nothing (unoptimized FUSE)", Opts.unoptimized);
    ]
  in
  List.map
    (fun (name, opts) ->
      { mr_config = name; mr_overhead = overhead ~opts Suite.compilebench_read })
    configs

(* --- §5.2.2 IOzone working-set sweep ------------------------------------------- *)
(* "For smaller read sizes the throughput is comparable because the data
   fits in the page cache.  A larger workload no longer fits into the page
   cache of CNTRFS and degrades the throughput significantly."  CntrFS
   double-buffers (driver cache + backing cache), so the same file stops
   fitting at half the budget. *)

type cache_point = { cp_label : string; cp_budget_mb : int; cp_overhead : float }

let iozone_cache_sweep () =
  List.map
    (fun (label, budget_mb) ->
      let w = { Suite.iozone_read with w_name = "iozone-" ^ label; w_budget_mb = budget_mb } in
      { cp_label = label; cp_budget_mb = budget_mb; cp_overhead = overhead w })
    [
      ("fits both caches (4 MiB file, 32 MiB RAM)", 32);
      ("fits native only (4 MiB file, 6 MiB RAM)", 6);
      ("fits neither (4 MiB file, 3 MiB RAM)", 3);
    ]
