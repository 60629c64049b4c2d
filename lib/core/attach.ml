(* `cntr attach`: the four-step workflow of §3.2.

   #1 Resolve the container name to a PID and read its execution context
      from /proc; open /dev/fuse while still outside the container.
   #2 Launch the CntrFS server — on the host, or setns()'d into the "fat"
      container that carries the tools — as a [Cntrfs.Session] over the
      connection opened in #1.
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
open Repro_runtime
module Session = Repro_cntrfs.Session
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
  sn_cntr_proc : Proc.t;
  sn_tty : Tty.t;
  sn_plane : Proxy.t; (* the forwarding plane the TTY and socket proxies ride *)
  sn_cntrfs : Session.t; (* connection, driver, server and fault plane *)
  sn_ctx : Context.t;
  sn_app_pid : int;
  mutable sn_detached : bool;
}

let ( let* ) = Result.bind

(* [r], after running [undo] when it is an error: a failed attach step
   leaves nothing it started behind. *)
let or_undo undo r =
  if Result.is_error r then undo ();
  r

let exit_if_alive kernel proc = if Proc.alive proc then Kernel.exit kernel proc 0

(* The common tail of [detach] and of an attach that fails after step #2:
   the shell exits, the CntrFS session closes and cntr itself exits. *)
let teardown kernel ~shell cntrfs ~cntr =
  exit_if_alive kernel shell;
  Session.close cntrfs;
  exit_if_alive kernel cntr

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

(* Step #3 for the forked [child]: join the application's namespaces,
   unshare a private mount namespace, mount CntrFS ([fs]) as its root with
   the application re-anchored at /var/lib/cntr and its /proc, /dev and
   config files bound in, then chroot into the assembled tree. *)
let nest kernel child ~app_pid ~ctx ~fs =
  let* () =
    Kernel.setns kernel child ~target_pid:app_pid
      [ Namespace.Mnt; Namespace.Pid; Namespace.Net; Namespace.Uts; Namespace.Ipc ]
  in
  Kernel.cgroup_attach kernel child ~cgroup:ctx.Context.cx_cgroup;
  let* () = Kernel.unshare kernel child [ Namespace.Mnt ] in
  (* mark everything private: nested mounts must not propagate back *)
  let* () = Kernel.make_rprivate kernel child in
  let* () = mkdir_p kernel child tmp_mountpoint in
  let* _m = Kernel.mount_at kernel child ~fs tmp_mountpoint in
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
  Kernel.chdir kernel child "/"

(* [config.from] is the process launching cntr — by default the host's init
   (the admin's shell).  Passing a process that lives inside a (privileged)
   container gives the paper's §7 "nested container" design: cntr runs in
   one container and attaches to another, with the launching container's
   filesystem serving as the tools side. *)
let attach ~kernel ~engines ~budget ?(config = Config.default) name =
  let init =
    match config.Config.from with Some p -> p | None -> Kernel.init_proc kernel
  in

  (* ----- step #1: resolve the container, gather its context ----- *)
  let* _engine, container = Engine.resolve_any engines name in
  let app_pid = Container.pid container in
  let cntr_proc = Kernel.fork kernel init in
  cntr_proc.Proc.comm <- "cntr";
  let* ctx, conn =
    or_undo (fun () -> exit_if_alive kernel cntr_proc)
      (let* ctx = Context.inspect kernel cntr_proc ~pid:app_pid in
       (* open /dev/fuse before entering the container; the fd survives setns *)
       let* fuse_fd = Kernel.open_ kernel cntr_proc "/dev/fuse" [ Types.O_RDWR ] ~mode:0 in
       let* conn = Dev_fuse.conn_of_fd cntr_proc fuse_fd in
       Ok (ctx, conn))
  in

  (* ----- step #2: launch the CntrFS server ----- *)
  let server_proc = Kernel.fork kernel cntr_proc in
  server_proc.Proc.comm <- "cntrfs";
  let* () =
    or_undo
      (fun () ->
        exit_if_alive kernel server_proc;
        exit_if_alive kernel cntr_proc)
      (match config.Config.tools with
      | From_host -> Ok ()
      | From_container fat_name ->
          let* _e, fat = Engine.resolve_any engines fat_name in
          Kernel.setns kernel server_proc ~target_pid:(Container.pid fat) [ Namespace.Mnt ])
  in
  (* the session serves the connection opened in step #1; an armed fault
     plan covers it from here on, before any request can flow *)
  let cntrfs =
    Session.create ~kernel ~conn ~server_proc ~root_path:"/" ~opts:config.Config.opts
      ~threads:config.Config.threads ?fault:config.Config.fault ?retry:config.Config.retry
      ~budget ()
  in

  (* ----- step #3: initialize the nested namespace ----- *)
  let child = Kernel.fork kernel cntr_proc in
  child.Proc.comm <- "cntr-shell";
  let* () =
    or_undo
      (fun () -> teardown kernel ~shell:child cntrfs ~cntr:cntr_proc)
      (nest kernel child ~app_pid ~ctx ~fs:(Session.fs cntrfs))
  in
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
  let proxy_plane = Proxy.create ?fault:(Session.fault cntrfs) ~kernel ~proc:cntr_proc () in
  let tty = Tty.attach_plane proxy_plane child in
  Ok
    {
      sn_kernel = kernel;
      sn_shell_proc = child;
      sn_cntr_proc = cntr_proc;
      sn_tty = tty;
      sn_plane = proxy_plane;
      sn_cntrfs = cntrfs;
      sn_ctx = ctx;
      sn_app_pid = app_pid;
      sn_detached = false;
    }

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
    Proxy.close session.sn_plane;
    teardown session.sn_kernel ~shell:session.sn_shell_proc session.sn_cntrfs
      ~cntr:session.sn_cntr_proc
  end

(* Bracket: attach, hand the session to [f], always detach — even when [f]
   raises.  [detach] being idempotent, [f] may detach early itself. *)
let with_session ~kernel ~engines ~budget name f =
  let* session = attach ~kernel ~engines ~budget name in
  Fun.protect ~finally:(fun () -> detach session) (fun () -> Ok (f session))

(* ----- fault plane: test hooks and recovery ----- *)

let fault session = Session.fault session.sn_cntrfs

(* Kill the CntrFS server out from under the session: every queued and
   future request resolves to ENOTCONN until [recover]. *)
let crash_server session = Conn.inject_crash session.sn_cntrfs.Session.conn

(* Make the server sit on the next request for [ns] virtual nanoseconds —
   long enough to trip an armed deadline. *)
let hang_server session ~ns = Conn.inject session.sn_cntrfs.Session.conn (Fault.Hang ns)

(* Relaunch the CntrFS server; the mount and the shell survive. *)
let recover session = Session.recover session.sn_cntrfs

let context session = session.sn_ctx

(* The session's forwarding plane: callers add socket forwarders to it
   (`cntr attach` exposes this as dbus/ssh-agent forwarding, §3.2.4). *)
let proxy session = session.sn_plane

let obs session = Session.obs session.sn_cntrfs

(* A human-readable session report: the FUSE traffic the tools generated —
   useful to understand what an attach session cost (the numbers behind
   §5.2's analysis).  Every figure is a view over the session's metrics
   registry. *)
let report session =
  let metrics = Repro_obs.Obs.metrics (obs session) in
  let c name = Repro_obs.Metrics.counter_value metrics name in
  let g name = Repro_obs.Metrics.gauge_value metrics name in
  (* the opcodes this session's connection issued, busiest first; ties
     keep the connection's table order *)
  let by_kind =
    Hashtbl.fold
      (fun k _ acc -> (k, c (Printf.sprintf "fuse.req.%s.count" k)) :: acc)
      session.sn_cntrfs.Session.conn.Conn.by_kind []
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
    let injected = match fault session with Some f -> Fault.injected f | None -> 0 in
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
    (c "fuse.req.count") by_kind
    (Size.to_string (c "fuse.bytes.to_server"))
    (Size.to_string (c "fuse.bytes.from_server"))
    (Size.to_string (c "fuse.bytes.spliced"))
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
