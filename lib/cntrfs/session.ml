(* Wiring: connection + driver + server = a mountable CntrFS, and the one
   place that wires it.  `cntr attach` (lib/core) builds its session over
   the /dev/fuse connection it opened in step #1 and mounts it inside the
   nested namespace; the xfstests harness, the benchmarks and the tests
   pass a fresh [Conn.create]. *)

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
  backing_hook : (op:string -> Proc.t -> Repro_util.Errno.t option) option;
}

(* Create a CntrFS session over [conn]: the server process [server_proc]
   serves [root_path] out of its own mount namespace, and the returned
   [fs] can be mounted anywhere with [Kernel.mount_at].  The server's
   worker fibers run on the connection's scheduler; benchmarks build the
   connection on the workload's so client tasks and workers interleave.

   [fault] arms a fault plan over the whole session from this point on:
   the connection consults it while serving, and the kernel's backing
   syscalls consult it for the server's process (tracked across
   recovery).  [retry] arms per-request deadlines + idempotent retry.
   Neither given = the plane stays off and the session is byte-identical
   to an unarmed one. *)
let create ~kernel ~conn ~server_proc ~root_path ?(opts = Opts.cntr_default) ?(threads = 4)
    ?fault ?retry ~budget () =
  conn.Conn.threads <- threads;
  let server = Server.create ~sched:(Conn.sched conn) ~kernel ~proc:server_proc ~root_path ~opts in
  Conn.set_handler conn (Server.handle server);
  let driver = Driver.create ~conn ~opts ~budget in
  let plane = Option.map (Fault.arm ~obs:kernel.Kernel.obs ~clock:kernel.Kernel.clock) fault in
  (match plane, retry with
  | None, None -> ()
  | _ -> Conn.supervise conn ?fault:plane ?retry ());
  Conn.start_serving conn;
  let rec t =
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
      (* Backing-store faults hit the server's syscalls only — whichever
         process is currently serving, so recovery's relaunch stays
         covered while client syscalls never are. *)
      backing_hook =
        (match plane with
        | Some f -> Some (fun ~op proc -> if proc == t.server_proc then Fault.backing_errno f ~op else None)
        | None -> None);
    }
  in
  Option.iter (Kernel.add_fault kernel) t.backing_hook;
  t

let fs t = t.fs
let obs t = Conn.obs t.conn
let fault t = t.fault

(* Relaunch the CntrFS server after a crash: fork a replacement from the
   dead server (the fork inherits its namespace view, so a fat-container
   server stays inside the fat container), teach it the driver's live ino
   map, swap the handler, revive the connection and reopen the driver's
   file handles.  The mount, the driver caches and dirty writeback pages
   all survive. *)
let recover t =
  let pairs = Driver.ino_paths t.driver in
  let old = t.server_proc in
  let np = Kernel.fork t.kernel old in
  np.Proc.comm <- old.Proc.comm;
  let server =
    Server.create ~sched:(Conn.sched t.conn) ~kernel:t.kernel ~proc:np
      ~root_path:t.root_path ~opts:t.opts
  in
  Server.restore server pairs;
  t.server <- server;
  t.server_proc <- np;
  if Proc.alive old then Kernel.exit t.kernel old 0;
  Conn.set_handler t.conn (Server.handle server);
  Conn.revive t.conn;
  Driver.on_server_restart t.driver;
  Repro_obs.Metrics.incr
    (Repro_obs.Metrics.counter (Repro_obs.Obs.metrics (Conn.obs t.conn)) "session.recoveries")

(* Close the session: DESTROY drops the server's handles and grants, the
   server process exits, the worker fibers end and the session's backing
   rules leave the kernel; the mount is left to the namespace it lives in.
   A second call is a no-op. *)
let close t =
  ignore (Server.handle t.server Protocol.root_ctx Protocol.Destroy);
  if Proc.alive t.server_proc then Kernel.exit t.kernel t.server_proc 0;
  Conn.close t.conn;
  Option.iter (Kernel.remove_fault t.kernel) t.backing_hook

(* Teardown barrier: wait out the background class (pending forgets,
   releases) so metrics snapshots are quiescent. *)
let quiesce t = Conn.quiesce t.conn
