(* Measurement harness for the Phoronix-like suite (§5.2).

   Testbed model (paper: EC2 m4.xlarge + EBS GP2): a host with an
   ext4-on-SSD data filesystem.  The *native* backend touches /data
   directly; the *CntrFS* backend reaches the same filesystem through the
   FUSE stack mounted at /cntr (the worst case for CNTR: an application
   aggressively doing I/O through the fat-container mount).

   Setup phases run through the native path in both configurations, so the
   backing page cache starts equally warm and only the measured path
   differs.  All sizes are scaled down ~1:1000 from the paper's (documented
   per workload); the virtual-time ratios are size-stable. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs

type backend = Native | Cntrfs of Opts.t

type env = {
  kernel : Kernel.t;
  proc : Proc.t;
  dir : string; (* measured directory *)
  backing_dir : string; (* same directory via the native path *)
  session : Session.t option;
  sched : Repro_sched.Sched.t; (* the world's discrete-event scheduler *)
  rng : Rng.t;
  data_fs : Nativefs.t;
}

type workload = {
  w_name : string;
  w_paper : float; (* Figure 2 reference overhead (cntr/native) *)
  w_concurrency : int; (* number of concurrent client tasks the body spawns *)
  w_budget_mb : int; (* page-cache budget for this workload's world *)
  w_setup : env -> unit;
  w_run : env -> unit;
}

let ok = Errno.ok_exn

let make_env ?obs ~backend ~budget_mb ?(threads = 4) () =
  let clock = Clock.create () in
  let obs = match obs with Some o -> o | None -> Repro_obs.Obs.create () in
  let metrics = Repro_obs.Obs.metrics obs in
  let budget = Mem_budget.create ~limit_bytes:(budget_mb * 1024 * 1024) in
  let rootfs = Nativefs.create ~name:"host-root" ~clock Store.Ram () in
  let sched = Repro_sched.Sched.create ~clock in
  let kernel = Kernel.create ~obs ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc kernel in
  List.iter (fun d -> ok (Kernel.mkdir kernel init d ~mode:0o755)) [ "/data"; "/cntr" ];
  (* the ext4-on-EBS data volume *)
  let cache = Page_cache.create ~metrics ~name:"ext4" ~budget in
  let data_fs =
    Nativefs.create ~metrics ~name:"ext4-data" ~clock
      (Store.Ssd { cache; flush_pages = 64 }) ()
  in
  ignore (ok (Kernel.mount_at kernel init ~fs:(Nativefs.ops data_fs) "/data"));
  ok (Kernel.mkdir kernel init "/data/bench" ~mode:0o777);
  let session, dir =
    match backend with
    | Native -> (None, "/data/bench")
    | Cntrfs opts ->
        let server_proc = Kernel.fork kernel init in
        server_proc.Proc.comm <- "cntrfs";
        let conn = Conn.create ~obs ~sched ~clock () in
        let session =
          Session.create ~kernel ~conn ~server_proc ~root_path:"/" ~opts ~threads ~budget ()
        in
        Repro_obs.Metrics.set
          (Repro_obs.Metrics.gauge metrics "cntrfs.server.threads")
          (float_of_int threads);
        ignore (ok (Kernel.mount_at kernel init ~fs:(Session.fs session) "/cntr"));
        (Some session, "/cntr/data/bench")
  in
  {
    kernel;
    proc = init;
    dir;
    backing_dir = "/data/bench";
    session;
    sched;
    rng = Rng.create ~seed:0xbe7c4;
    data_fs;
  }

(* Flush the backing cache's dirty pages so measurement starts from a
   settled device state (cache stays warm — clean pages remain). *)
let settle env =
  match Store.cache (Nativefs.store env.data_fs) with
  | Some cache -> Page_cache.flush_all cache
  | None -> ()

(* Run [w] on [backend]; returns virtual nanoseconds of the measured
   phase.  [obs] collects the run's metrics (a fresh private handle when
   omitted, since each run builds a fresh env).  The body runs as the root
   task of the world's scheduler, so it may spawn concurrent client tasks
   whose round trips overlap; the measured time is the root task's span. *)
let run_workload ?obs ~backend w =
  let env = make_env ?obs ~backend ~budget_mb:w.w_budget_mb () in
  w.w_setup env;
  settle env;
  let t0 = Clock.now_ns env.kernel.Kernel.clock in
  Repro_sched.Sched.run env.sched (fun () -> w.w_run env);
  let t1 = Clock.now_ns env.kernel.Kernel.clock in
  Int64.to_int (Int64.sub t1 t0)

(* Relative overhead as in Figure 2: >1 means CntrFS is slower. *)
let overhead ?(opts = Opts.cntr_default) w =
  let native = run_workload ~backend:Native w in
  let cntr = run_workload ~backend:(Cntrfs opts) w in
  float_of_int cntr /. float_of_int (max 1 native)

(* Run [thunks] as concurrent client tasks (dbench clients, I/O threads)
   and join them all; total elapsed is the slowest task's timeline. *)
let concurrently env thunks =
  let tasks = List.map (Repro_sched.Sched.spawn env.sched) thunks in
  List.iter (Repro_sched.Sched.await env.sched) tasks

(* --- tiny syscall helpers for workload bodies ----------------------------- *)

let openf env path flags mode = ok (Kernel.open_ env.kernel env.proc path flags ~mode)
let closef env fd = ok (Kernel.close env.kernel env.proc fd)

let write_all env fd data = ignore (ok (Kernel.write env.kernel env.proc fd data))

let pwrite env fd ~off data = ignore (ok (Kernel.pwrite env.kernel env.proc fd ~off data))
let pread env fd ~off ~len = ok (Kernel.pread env.kernel env.proc fd ~off ~len)

let write_file env path data =
  let fd = openf env path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] 0o644 in
  write_all env fd data;
  closef env fd

let read_file env path = ok (Kernel.read_whole env.kernel env.proc path)

let mkdir env path = ok (Kernel.mkdir env.kernel env.proc path ~mode:0o755)

let unlink env path = ok (Kernel.unlink env.kernel env.proc path)

let fsync env fd = ok (Kernel.fsync env.kernel env.proc fd)

(* Burn CPU time (compression, request parsing, SQL). *)
let cpu env ns = Clock.consume_int env.kernel.Kernel.clock ns

(* Sequentially write [total] bytes in [record]-sized writes. *)
let seq_write env fd ~total ~record =
  let chunk = String.make record 'w' in
  let rec go off =
    if off < total then begin
      pwrite env fd ~off chunk;
      go (off + record)
    end
  in
  go 0

(* Sequentially read [total] bytes in [record]-sized reads. *)
let seq_read env fd ~total ~record =
  let rec go off =
    if off < total then begin
      ignore (pread env fd ~off ~len:record);
      go (off + record)
    end
  in
  go 0
