(* Wiring: connection + driver + server = a mounted CntrFS.  Used directly
   by the xfstests harness and the benchmarks; the full CNTR attach flow
   (lib/core) builds the same session inside a nested namespace. *)

open Repro_vfs
open Repro_os
open Repro_fuse
module Fault = Repro_fault.Fault

type t = {
  kernel : Kernel.t;
  root_path : string;
  opts : Opts.t;
  conn : Conn.t;
  driver : Driver.t;
  mutable server : Server.t;
  mutable server_proc : Proc.t;
  fs : Fsops.t;
  fault : Fault.t option;
  mutable m_recoveries : Repro_obs.Metrics.counter option;
}

(* Create a CntrFS session: the server process [server_proc] serves
   [root_path] out of its own mount namespace.  The returned [fs] can be
   mounted anywhere with [Kernel.mount_at].  [sched] is the discrete-event
   scheduler the server's worker fibers run on; benchmarks pass the
   workload's so client tasks and workers interleave, and it defaults to a
   private one over the kernel's clock.

   [fault] arms a fault plan over the session: the connection consults it
   while serving, and the kernel's backing syscalls consult it for the
   server's process (tracked across recovery).  [retry] arms per-request
   deadlines + idempotent retry.  Neither given = the plane stays off and
   the session is byte-identical to an unarmed one. *)
let create ~kernel ~server_proc ~root_path ?(opts = Opts.cntr_default) ?(threads = 4) ?sched
    ?fault ?retry ~budget () =
  let obs = kernel.Kernel.obs in
  let conn = Conn.create ~obs ?sched ~clock:kernel.Kernel.clock () in
  conn.Conn.threads <- threads;
  let metrics = Repro_obs.Obs.metrics obs in
  Repro_obs.Metrics.set
    (Repro_obs.Metrics.gauge metrics "cntrfs.server.threads")
    (float_of_int threads);
  let server =
    Server.create ~sched:(Conn.sched conn) ~kernel ~proc:server_proc ~root_path
      ~handle_cache:opts.Opts.handle_cache
      ~valid_ns:(opts.Opts.entry_timeout_ns, opts.Opts.attr_timeout_ns)
      ~passthrough:opts.Opts.passthrough ()
  in
  Conn.set_handler conn (Server.handle server);
  let driver = Driver.create ~conn ~opts ~budget in
  let plane = Option.map (Fault.arm ~obs ~clock:kernel.Kernel.clock) fault in
  (match plane, retry with
  | None, None -> ()
  | _ -> Conn.supervise conn ?fault:plane ?retry ());
  Conn.start_serving conn;
  let t =
    {
      kernel;
      root_path;
      opts;
      conn;
      driver;
      server;
      server_proc;
      fs = Driver.ops driver;
      fault = plane;
      m_recoveries = None;
    }
  in
  (match plane with
  | Some f ->
      (* Backing-store faults hit the server's syscalls only — whichever
         process is currently serving, so recovery's relaunch stays
         covered while app syscalls never are. *)
      Kernel.set_fault kernel
        (Some
           (fun ~op proc ->
             if proc == t.server_proc then Fault.backing_errno f ~op else None))
  | None -> ());
  t

let fs t = t.fs
let obs t = Conn.obs t.conn
let stats t = Conn.stats t.conn
let fault t = t.fault

(* Relaunch the CntrFS server after a crash: fork a replacement process
   (same namespace view), teach it the driver's live ino map, swap the
   handler, revive the connection and reopen the driver's file handles.
   The mount, the driver caches and dirty writeback pages all survive. *)
let recover t =
  let pairs = Driver.ino_paths t.driver in
  let old = t.server_proc in
  let np = Kernel.fork t.kernel old in
  np.Proc.comm <- old.Proc.comm;
  let server =
    Server.create ~sched:(Conn.sched t.conn) ~kernel:t.kernel ~proc:np
      ~root_path:t.root_path ~handle_cache:t.opts.Opts.handle_cache
      ~valid_ns:(t.opts.Opts.entry_timeout_ns, t.opts.Opts.attr_timeout_ns)
      ~passthrough:t.opts.Opts.passthrough ()
  in
  Server.restore server pairs;
  t.server <- server;
  t.server_proc <- np;
  if old.Proc.alive then Kernel.exit t.kernel old 0;
  Conn.set_handler t.conn (Server.handle server);
  Conn.revive t.conn;
  Driver.on_server_restart t.driver;
  let c =
    match t.m_recoveries with
    | Some c -> c
    | None ->
        let c =
          Repro_obs.Metrics.counter
            (Repro_obs.Obs.metrics (Conn.obs t.conn))
            "session.recoveries"
        in
        t.m_recoveries <- Some c;
        c
  in
  Repro_obs.Metrics.incr c

(* Teardown barrier: wait out the background class (pending forgets,
   releases) so metrics snapshots are quiescent. *)
let quiesce t = Conn.quiesce t.conn
