(* `cntr attach`: the four-step workflow of §3.2.

   #1 Resolve the container name to a PID and read its execution context
      from /proc; open /dev/fuse while still outside the container.
   #2 Launch the CntrFS server — on the host, or setns()'d into the "fat"
      container that carries the tools.
   #3 Fork into the application container, create a nested mount namespace,
      privatize it, mount CntrFS as the new root, re-anchor the application
      filesystem at /var/lib/cntr, bind /proc, /dev and config files from
      the application, chroot, then apply the container's environment
      (except PATH), capabilities and LSM profile.
   #4 Start an interactive shell on a pseudo-TTY. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs
open Repro_runtime
module Fault = Repro_fault.Fault
module Proxy = Repro_proxy.Proxy

type tools_location =
  | From_host
  | From_container of string (* the fat container's name *)

(* Everything that shapes an attach, in one value.  Call sites build it
   with record update over [default] so adding a knob never breaks them. *)
module Config = struct
  type t = {
    from : Proc.t option;
    tools : tools_location;
    opts : Opts.t;
    threads : int;
    fault : Fault.plan option;
    retry : Fault.retry option;
  }

  let default =
    {
      from = None;
      tools = From_host;
      opts = Opts.cntr_default;
      threads = 4;
      fault = None;
      retry = None;
    }
end

type session = {
  sn_kernel : Kernel.t;
  sn_shell_proc : Proc.t; (* lives in the nested namespace *)
  mutable sn_server_proc : Proc.t; (* swapped by [recover] *)
  sn_cntr_proc : Proc.t;
  sn_tty : Tty.t;
  sn_plane : Proxy.t; (* the forwarding plane the TTY and socket proxies ride *)
  sn_conn : Conn.t;
  sn_driver : Driver.t;
  mutable sn_server : Server.t; (* swapped by [recover] *)
  sn_ctx : Context.t;
  sn_app_pid : int;
  sn_config : Config.t;
  sn_fault : Fault.t option; (* the armed plane, when any *)
  mutable sn_detached : bool;
  mutable sn_recoveries : Repro_obs.Metrics.counter option;
}

let ( let* ) = Result.bind

let tmp_mountpoint = "/var/lib/.cntr-nested"

let rec mkdir_p kernel proc path =
  match Kernel.stat kernel proc path with
  | Ok _ -> Ok ()
  | Error Errno.ENOENT ->
      let parent = Pathx.dirname path in
      let* () = if parent = "/" || parent = "." then Ok () else mkdir_p kernel proc parent in
      (match Kernel.mkdir kernel proc path ~mode:0o755 with
      | Ok () | (Error Errno.EEXIST) -> Ok ()
      | Error e -> Error e)
  | Error e -> Error e

(* The configuration files CNTR bind-mounts from the application container
   over the tools filesystem (§3.2.3). *)
let config_files = [ "/etc/passwd"; "/etc/group"; "/etc/hostname"; "/etc/resolv.conf"; "/etc/hosts" ]

(* [config.from] is the process launching cntr — by default the host's init
   (the admin's shell).  Passing a process that lives inside a (privileged)
   container gives the paper's §7 "nested container" design: cntr runs in
   one container and attaches to another, with the launching container's
   filesystem serving as the tools side. *)
let attach ~kernel ~engines ~budget ?(config = Config.default) name =
  let opts = config.Config.opts in
  let init =
    match config.Config.from with Some p -> p | None -> Kernel.init_proc kernel
  in

  (* ----- step #1: resolve the container, gather its context ----- *)
  let* _engine, container = Engine.resolve_any engines name in
  let app_pid = Container.pid container in
  let cntr_proc = Kernel.fork kernel init in
  cntr_proc.Proc.comm <- "cntr";
  let* ctx = Context.inspect kernel cntr_proc ~pid:app_pid in
  (* open /dev/fuse before entering the container; the fd survives setns *)
  let* fuse_fd = Kernel.open_ kernel cntr_proc "/dev/fuse" [ Types.O_RDWR ] ~mode:0 in
  let* conn = Dev_fuse.conn_of_fd cntr_proc fuse_fd in
  conn.Conn.threads <- config.Config.threads;
  (* arm the fault plane before any request can flow *)
  let plane =
    Option.map
      (Fault.arm ~obs:kernel.Kernel.obs ~clock:kernel.Kernel.clock)
      config.Config.fault
  in
  (match plane, config.Config.retry with
  | None, None -> ()
  | _ -> Conn.supervise conn ?fault:plane ?retry:config.Config.retry ());

  (* ----- step #2: launch the CntrFS server ----- *)
  let server_proc = Kernel.fork kernel cntr_proc in
  server_proc.Proc.comm <- "cntrfs";
  let* () =
    match config.Config.tools with
    | From_host -> Ok ()
    | From_container fat_name ->
        let* _e, fat = Engine.resolve_any engines fat_name in
        Kernel.setns kernel server_proc ~target_pid:(Container.pid fat) [ Namespace.Mnt ]
  in
  let server =
    Server.create ~sched:(Conn.sched conn) ~kernel ~proc:server_proc
      ~root_path:"/" ~handle_cache:opts.Opts.handle_cache
      ~valid_ns:(opts.Opts.entry_timeout_ns, opts.Opts.attr_timeout_ns) ()
  in
  Conn.set_handler conn (Server.handle server);
  (* the server blocks until the child signals that CntrFS is mounted *)

  (* ----- step #3: initialize the nested namespace ----- *)
  let child = Kernel.fork kernel cntr_proc in
  child.Proc.comm <- "cntr-shell";
  let* () =
    Kernel.setns kernel child ~target_pid:app_pid
      [ Namespace.Mnt; Namespace.Pid; Namespace.Net; Namespace.Uts; Namespace.Ipc ]
  in
  Kernel.cgroup_attach kernel child ~cgroup:ctx.Context.cx_cgroup;
  let* () = Kernel.unshare kernel child [ Namespace.Mnt ] in
  (* mark everything private: nested mounts must not propagate back *)
  let* () = Kernel.make_rprivate kernel child in
  let driver = Driver.create ~conn ~opts ~budget in
  let fs = Driver.ops driver in
  let* () = mkdir_p kernel child tmp_mountpoint in
  let* _m = Kernel.mount_at kernel child ~fs tmp_mountpoint in
  (* signal the parent (over the shared Unix socketpair) to start serving *)
  Conn.start_serving conn;
  (* re-anchor the application filesystem under the tools root *)
  let* () = mkdir_p kernel child (tmp_mountpoint ^ "/var/lib/cntr") in
  let* _m = Kernel.bind_mount kernel child ~src:"/" ~dst:(tmp_mountpoint ^ "/var/lib/cntr") in
  (* the tools must see the application's /proc and /dev *)
  let* () =
    List.fold_left
      (fun acc special ->
        let* () = acc in
        match Kernel.stat kernel child special with
        | Error _ -> Ok () (* the app container doesn't have it *)
        | Ok _ ->
            let dst = tmp_mountpoint ^ special in
            let* () = mkdir_p kernel child dst in
            let* _m = Kernel.bind_mount kernel child ~src:special ~dst in
            Ok ())
      (Ok ())
      [ "/proc"; "/dev" ]
  in
  (* bind application config files over the tools filesystem *)
  let* () =
    List.fold_left
      (fun acc file ->
        let* () = acc in
        match Kernel.stat kernel child file with
        | Error _ -> Ok ()
        | Ok _ -> (
            let dst = tmp_mountpoint ^ file in
            let* () = mkdir_p kernel child (Pathx.dirname dst) in
            let* () =
              match Kernel.stat kernel child dst with
              | Ok _ -> Ok ()
              | Error Errno.ENOENT ->
                  let* fd = Kernel.open_ kernel child dst [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644 in
                  Kernel.close kernel child fd
              | Error e -> Error e
            in
            match Kernel.bind_mount kernel child ~src:file ~dst with
            | Ok _ -> Ok ()
            | Error e -> Error e))
      (Ok ()) config_files
  in
  (* atomically swap the root: chroot into the assembled tree *)
  let* () = Kernel.chroot kernel child tmp_mountpoint in
  let* () = Kernel.chdir kernel child "/" in
  (* environment: the container's, except PATH which comes from the tools
     side since the tools live there (§3.2.3) *)
  let tools_path = Option.value ~default:"/usr/local/bin:/usr/bin:/bin" (Proc.getenv cntr_proc "PATH") in
  child.Proc.env <- ("PATH", tools_path) :: List.remove_assoc "PATH" ctx.Context.cx_env;
  (* drop privileges to the container's *)
  Kernel.apply_lsm_profile kernel child ctx.Context.cx_lsm_profile;
  child.Proc.cred.Proc.caps <- ctx.Context.cx_caps;
  child.Proc.cred.Proc.uid <- ctx.Context.cx_uid;
  child.Proc.cred.Proc.gid <- ctx.Context.cx_gid;

  (* ----- step #4: interactive shell on a pseudo-TTY, over the plane ----- *)
  (* The forwarding plane lives in the cntr process on the host: the TTY
     stream and any socket forwarders share its reactor, staging buffers,
     [proxy] fault site and metrics.  It runs its own scheduler on the
     shared clock so its event ordering is independent of the FUSE
     connection's. *)
  let proxy_plane = Proxy.create ?fault:plane ~kernel ~proc:cntr_proc () in
  let tty = Tty.attach_plane proxy_plane child in
  let session =
    {
      sn_kernel = kernel;
      sn_shell_proc = child;
      sn_server_proc = server_proc;
      sn_cntr_proc = cntr_proc;
      sn_tty = tty;
      sn_plane = proxy_plane;
      sn_conn = conn;
      sn_driver = driver;
      sn_server = server;
      sn_ctx = ctx;
      sn_app_pid = app_pid;
      sn_config = config;
      sn_fault = plane;
      sn_detached = false;
      sn_recoveries = None;
    }
  in
  (match plane with
  | Some f ->
      (* Backing-store faults hit the server's syscalls only — whichever
         process currently serves, so recovery's relaunch stays covered
         while the shell's own syscalls never are. *)
      Kernel.set_fault kernel
        (Some
           (fun ~op proc ->
             if proc == session.sn_server_proc then Fault.backing_errno f ~op
             else None))
  | None -> ());
  Ok session

(* Run one shell command inside the session; returns (exit code, output). *)
let run session cmd =
  let code =
    match Shell.eval session.sn_kernel session.sn_shell_proc cmd with
    | Ok c -> c
    | Error e ->
        ignore (Kernel.write session.sn_kernel session.sn_shell_proc 1 ("cntr: " ^ Errno.message e ^ "\n"));
        126
  in
  (code, Tty.read_output session.sn_tty)

(* Tear the session down: shell and server exit; the nested namespace dies
   with its last process, leaving the application container untouched.
   Idempotent — a second detach (say, from a bracket's finalizer after the
   caller already detached) is a no-op. *)
let detach session =
  if not session.sn_detached then begin
    session.sn_detached <- true;
    ignore (Server.handle session.sn_server Protocol.root_ctx Protocol.Destroy);
    Proxy.close session.sn_plane;
    let exit_if_alive proc =
      if proc.Proc.alive then Kernel.exit session.sn_kernel proc 0
    in
    exit_if_alive session.sn_shell_proc;
    exit_if_alive session.sn_server_proc;
    exit_if_alive session.sn_cntr_proc
  end

(* Bracket: attach, hand the session to [f], always detach — even when [f]
   raises.  [detach] being idempotent, [f] may detach early itself. *)
let with_session ~kernel ~engines ~budget ?config name f =
  let* session = attach ~kernel ~engines ~budget ?config name in
  Fun.protect ~finally:(fun () -> detach session) (fun () -> Ok (f session))

(* ----- fault plane: test hooks and recovery ----- *)

let fault session = session.sn_fault

(* Kill the CntrFS server out from under the session: every queued and
   future request resolves to ENOTCONN until [recover]. *)
let crash_server session = Conn.inject_crash session.sn_conn

(* Make the server sit on the next request for [ns] virtual nanoseconds —
   long enough to trip an armed deadline. *)
let hang_server session ~ns = Conn.inject session.sn_conn (Fault.Hang ns)

(* Relaunch the CntrFS server: fork a replacement from the dead server (the
   fork inherits its namespace view, so a fat-container server stays inside
   the fat container), replay the driver's inode map into it, swap the
   handler, revive the connection and reopen the driver's file handles.
   The mount, the shell, the driver caches and dirty pages all survive. *)
let recover session =
  let pairs = Driver.ino_paths session.sn_driver in
  let old = session.sn_server_proc in
  let np = Kernel.fork session.sn_kernel old in
  np.Proc.comm <- old.Proc.comm;
  let opts = session.sn_config.Config.opts in
  let server =
    Server.create ~sched:(Conn.sched session.sn_conn) ~kernel:session.sn_kernel
      ~proc:np ~root_path:"/" ~handle_cache:opts.Opts.handle_cache
      ~valid_ns:(opts.Opts.entry_timeout_ns, opts.Opts.attr_timeout_ns) ()
  in
  Server.restore server pairs;
  session.sn_server <- server;
  session.sn_server_proc <- np;
  if old.Proc.alive then Kernel.exit session.sn_kernel old 0;
  Conn.set_handler session.sn_conn (Server.handle server);
  Conn.revive session.sn_conn;
  Driver.on_server_restart session.sn_driver;
  let c =
    match session.sn_recoveries with
    | Some c -> c
    | None ->
        let c =
          Repro_obs.Metrics.counter
            (Repro_obs.Obs.metrics (Conn.obs session.sn_conn))
            "session.recoveries"
        in
        session.sn_recoveries <- Some c;
        c
  in
  Repro_obs.Metrics.incr c

let context session = session.sn_ctx

(* The session's forwarding plane: callers add socket forwarders to it
   (`cntr attach` exposes this as dbus/ssh-agent forwarding, §3.2.4). *)
let proxy session = session.sn_plane

let obs session = Conn.obs session.sn_conn

(* A human-readable session report: the FUSE traffic the tools generated —
   useful to understand what an attach session cost (the numbers behind
   §5.2's analysis).  Every figure is a view over the session's metrics
   registry. *)
let report session =
  let metrics = Repro_obs.Obs.metrics (obs session) in
  let c name = Repro_obs.Metrics.counter_value metrics name in
  let g name = Repro_obs.Metrics.gauge_value metrics name in
  let stats = Conn.stats session.sn_conn in
  let by_kind =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats.Conn.by_kind []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat " "
  in
  let hit_rate = 100. *. g "vfs.page_cache.fuse.hit_ratio" in
  let busy =
    Repro_obs.Metrics.counters_with_prefix metrics ~prefix:"cntrfs.worker."
    |> List.map (fun (name, v) ->
           (* cntrfs.worker.<i>.busy_ns *)
           let i =
             Scanf.sscanf_opt name "cntrfs.worker.%d.busy_ns" Fun.id
             |> Option.value ~default:(-1)
           in
           (i, v))
    |> List.sort compare
    |> List.map (fun (i, v) -> Printf.sprintf "w%d=%dns" i v)
    |> String.concat " "
  in
  let fault_lines =
    let retries = c "fuse.retries" in
    let timeouts = c "fuse.timeouts" in
    let recoveries = c "session.recoveries" in
    let injected = match session.sn_fault with Some f -> Fault.injected f | None -> 0 in
    if injected = 0 && retries = 0 && timeouts = 0 && recoveries = 0 then ""
    else
      Printf.sprintf "faults: %d injected, %d retries, %d timeouts, %d recoveries\n"
        injected retries timeouts recoveries
  in
  Printf.sprintf
    "cntrfs session: %d requests (%s)\n\
     transfer: %s to server, %s from server, %s spliced\n\
     page cache: %.0f%% hit rate (%d hits, %d misses, %d evictions)\n\
     server: %d lookups (open+stat each), %.1fx backing amplification\n\
     queue: depth max %.0f mean %.2f, inflight %.0f (max %.0f), %d spurious wakeups\n\
     workers: %s\n\
     %skernel: %d syscalls, %d context switches\n"
    stats.Conn.requests by_kind
    (Size.to_string stats.Conn.bytes_to_server)
    (Size.to_string stats.Conn.bytes_from_server)
    (Size.to_string stats.Conn.spliced_bytes)
    hit_rate
    (c "vfs.page_cache.fuse.hits")
    (c "vfs.page_cache.fuse.misses")
    (c "vfs.page_cache.fuse.evictions")
    (c "cntrfs.lookup.count")
    (g "cntrfs.lookup.amplification")
    (g "fuse.queue.depth.max")
    (g "fuse.queue.depth.mean")
    (g "fuse.inflight")
    (g "fuse.inflight.max")
    (c "fuse.wakeups.spurious")
    (if busy = "" then "(none spawned)" else busy)
    fault_lines
    (c "os.syscall.count")
    (c "os.context_switches")
