(* End-to-end tests of the CNTR attach workflow (§3.2): all four steps, on
   all four container engines, for all three §2.4 use cases — plus
   isolation, credentials and socket-proxy behavior. *)

open Repro_util
open Repro_os
open Repro_runtime
open Repro_cntr
module Proxy = Repro_proxy.Proxy
module Session = Repro_cntrfs.Session

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let ok = Errno.ok_exn

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Boot a testbed with an nginx application container under docker. *)
let boot_with_app () =
  let world = Testbed.create () in
  let app =
    ok (World.run_container world ~engine:(World.docker world) ~name:"web" ~image_ref:"nginx:latest" ())
  in
  (world, app)

(* --- step #1: resolution & context ----------------------------------------- *)

let test_resolve_and_context () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let ctx = Attach.context session in
  check_i "resolved the app pid" (Container.pid app) ctx.Context.cx_pid;
  check_b "captured docker caps" true (Caps.Set.equal ctx.Context.cx_caps Caps.Set.docker_default);
  check_b "captured env" true (List.mem_assoc "nginx_MODE" ctx.Context.cx_env);
  check_b "captured cgroup" true (contains ~needle:"/docker/" ctx.Context.cx_cgroup);
  check_b "captured lsm profile" true (ctx.Context.cx_lsm_profile = Some "docker-default");
  Attach.detach session

let test_resolve_by_id_prefix () =
  let world, app = boot_with_app () in
  let prefix = String.sub app.Container.ct_id 0 12 in
  let session = ok (Testbed.attach world prefix) in
  check_i "same container" (Container.pid app) (Attach.context session).Context.cx_pid;
  Attach.detach session

let test_unknown_container () =
  let world = Testbed.create () in
  check_err Errno.ENOENT (Testbed.attach world "no-such-container")

(* --- the nested namespace view --------------------------------------------- *)

let test_tools_from_host_visible () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  (* `which gdb` resolves through CntrFS to the host's gdb *)
  let code, out = Attach.run session "which gdb" in
  check_i "which ok" 0 code;
  check_s "host gdb path" "/usr/bin/gdb\n" out;
  (* and it runs *)
  let code, out = Attach.run session "gdb" in
  check_i "gdb runs" 0 code;
  check_b "gdb banner" true (contains ~needle:"GNU gdb" out);
  Attach.detach session

let test_app_fs_under_var_lib_cntr () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let code, out = Attach.run session "ls /var/lib/cntr/usr/sbin" in
  check_i "ls ok" 0 code;
  check_b "app binary visible" true (contains ~needle:"nginx" out);
  let _code, out = Attach.run session "cat /var/lib/cntr/etc/nginx.conf" in
  check_b "app config readable" true (contains ~needle:"listen=0.0.0.0" out);
  Attach.detach session

let test_config_files_bound_from_app () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  (* /etc/passwd inside the session is the *application's*, not the
     host's (the host user would be wrong for the app) *)
  let _code, out = Attach.run session "cat /etc/os-release" in
  (* os-release is NOT in the bind list: comes from the host (tools side) *)
  check_b "tools os-release" true (contains ~needle:"coreos" out);
  let _code, out = Attach.run session "cat /etc/hostname" in
  check_b "app hostname file" true (contains ~needle:"debian" out);
  Attach.detach session

let test_env_applied_except_path () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let _code, out = Attach.run session "env" in
  check_b "app env var present" true (contains ~needle:"nginx_MODE=production" out);
  (* PATH must be the tools-side PATH, not the container's *)
  check_b "PATH from tools side" true
    (contains ~needle:"PATH=/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin" out);
  Attach.detach session

let test_credentials_dropped () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  check_b "caps reduced to container's" true
    (Caps.Set.equal session.Attach.sn_shell_proc.Proc.cred.Proc.caps Caps.Set.docker_default);
  check_b "lsm applied" true
    (session.Attach.sn_shell_proc.Proc.lsm_profile = Some "docker-default");
  (* joined the container's cgroup *)
  check_b "cgroup joined" true
    (contains ~needle:"/docker/" session.Attach.sn_shell_proc.Proc.cgroup);
  Attach.detach session

let test_same_proc_view_gdb_attach () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  (* the app's pid is visible through the bound /proc, so gdb can attach *)
  let code, out = Attach.run session (Printf.sprintf "gdb -p %d" (Container.pid app)) in
  check_i "gdb attach ok" 0 code;
  check_b "attached" true (contains ~needle:"attached" out);
  (* ps inside the session lists the app process, not the host's init *)
  let _code, out = Attach.run session "ps" in
  check_b "sees app" true (contains ~needle:"nginx" out);
  Attach.detach session

let test_hostname_is_containers () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let _code, out = Attach.run session "hostname" in
  check_b "uts namespace joined" true
    (contains ~needle:(String.sub app.Container.ct_id 0 12) out);
  Attach.detach session

(* --- isolation --------------------------------------------------------------- *)

let test_nested_mounts_invisible_to_app () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  (* inside the session, / is the tools fs *)
  let _code, out = Attach.run session "ls /usr/bin" in
  check_b "session sees tools" true (contains ~needle:"gdb" out);
  (* the application's own namespace must NOT see the nested mounts: the
     mountpoint dir exists (it was created in the shared fs) but nothing is
     mounted on it *)
  let k = world.World.kernel in
  let app_proc = app.Container.ct_main in
  check_err Errno.ENOENT (Kernel.stat k app_proc (Attach.tmp_mountpoint ^ "/usr/bin/gdb"));
  (* and the app never gained a /var/lib/cntr view of itself *)
  check_err Errno.ENOENT (Kernel.stat k app_proc "/var/lib/cntr/etc/nginx.conf");
  Attach.detach session

let test_edit_config_in_place () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  (* §7 workflow: edit the app's config through /var/lib/cntr *)
  let code, _ = Attach.run session "vi /var/lib/cntr/etc/nginx.conf" in
  check_i "edit ok" 0 code;
  (* the change is visible inside the application container itself *)
  let content = ok (Kernel.read_whole world.World.kernel app.Container.ct_main "/etc/nginx.conf") in
  check_b "app sees edit" true (contains ~needle:"edited with vi" content);
  Attach.detach session

let test_detach_leaves_app_running () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  Attach.detach session;
  check_b "app alive" true (Container.is_running app);
  check_b "shell dead" false (Proc.alive session.Attach.sn_shell_proc);
  check_b "server dead" false (Proc.alive session.Attach.sn_cntrfs.Session.server_proc);
  (* the app can still use its filesystem *)
  let content = ok (Kernel.read_whole world.World.kernel app.Container.ct_main "/etc/nginx.conf") in
  check_b "app fs intact" true (contains ~needle:"listen" content)

(* --- mount options ------------------------------------------------------------ *)

(* The attach's server takes its options from the same [opts] as the
   driver: with a passthrough LRU armed, opens of the tools' files are
   granted and their reads bypass FUSE. *)
let test_attach_honours_passthrough () =
  let world, _app = boot_with_app () in
  let config =
    {
      Attach.Config.default with
      Attach.Config.opts = { Repro_fuse.Opts.cntr_default with Repro_fuse.Opts.passthrough = 8 };
    }
  in
  let session = ok (Testbed.attach world ~config "web") in
  List.iter
    (fun cmd ->
      let code, _ = Attach.run session cmd in
      check_i cmd 0 code)
    [ "cat /etc/os-release"; "cat /etc/os-release"; "cat /usr/bin/gdb" ];
  let m = Repro_obs.Obs.metrics (Attach.obs session) in
  let c = Repro_obs.Metrics.counter_value m in
  check_b "grants issued" true (c "fuse.passthrough.grants" > 0);
  check_b "reads bypassed FUSE" true (c "fuse.passthrough.reads" > 0);
  check_i "no FUSE READ" 0 (c "fuse.req.read.count");
  Attach.detach session

(* --- container-to-container (fat image) ------------------------------------- *)

let test_fat_container_tools () =
  let world, _app = boot_with_app () in
  let _fat =
    ok
      (World.run_container world ~engine:(World.docker world) ~name:"debug"
         ~image_ref:"cntr/debug-tools:latest" ())
  in
  let session =
    ok
      (Testbed.attach world
         ~config:
           {
             Attach.Config.default with
             Attach.Config.tools = Attach.From_container "debug";
           }
         "web")
  in
  let code, out = Attach.run session "which gdb" in
  check_i "which ok" 0 code;
  check_s "fat gdb" "/usr/bin/gdb\n" out;
  (* the fat container's payload is visible at / *)
  let code, _out = Attach.run session "stat /opt/ide.tar" in
  check_i "fat payload visible" 0 code;
  (* the app fs is still at /var/lib/cntr *)
  let code, _ = Attach.run session "stat /var/lib/cntr/etc/nginx.conf" in
  check_i "app fs present" 0 code;
  Attach.detach session

(* --- container-to-host (privileged admin) ----------------------------------- *)

let test_privileged_container_to_host () =
  let world = Testbed.create () in
  let _admin =
    ok
      (World.run_container world ~engine:(World.docker world) ~name:"admin"
         ~image_ref:"cntr/debug-tools:latest" ~privileged:true ())
  in
  (* attach to the admin container with tools from the host: the host's
     root fs appears at /, the container's at /var/lib/cntr — a CoreOS-like
     host gains a package-managed toolbox without installing anything *)
  let session = ok (Testbed.attach world "admin") in
  let _code, out = Attach.run session "cat /etc/os-release" in
  check_b "host rootfs visible" true (contains ~needle:"coreos" out);
  let code, _ = Attach.run session "stat /var/lib/cntr/usr/bin/gdb" in
  check_i "container fs at /var/lib/cntr" 0 code;
  Attach.detach session

(* --- all four engines --------------------------------------------------------- *)

let test_attach_all_engines () =
  let world = Testbed.create () in
  List.iter
    (fun engine_name ->
      let engine = World.engine world engine_name in
      let name = "app-" ^ engine_name in
      let _c = ok (World.run_container world ~engine ~name ~image_ref:"redis:latest" ()) in
      let session = ok (Testbed.attach world name) in
      let code, out = Attach.run session "which gdb" in
      check_i (engine_name ^ ": which ok") 0 code;
      check_s (engine_name ^ ": gdb found") "/usr/bin/gdb\n" out;
      let code, _ = Attach.run session "stat /var/lib/cntr/etc/redis.conf" in
      check_i (engine_name ^ ": app fs bound") 0 code;
      Attach.detach session)
    [ "docker"; "lxc"; "rkt"; "systemd-nspawn" ]

(* --- socket proxy -------------------------------------------------------------- *)

let test_socket_proxy_roundtrip () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let k = world.World.kernel in
  let host = world.World.init in
  (* a "D-Bus daemon" listens on the host *)
  let dbus_lfd = ok (Kernel.socket_listen k host "/var/run/dbus.sock") in
  (* direct connection through CntrFS fails: wrong inode identity *)
  check_err Errno.ECONNREFUSED
    (Kernel.socket_connect k session.Attach.sn_shell_proc "/var/run/dbus.sock");
  (* the forwarding plane bridges it *)
  let plane = Attach.proxy session in
  let fwd =
    ok
      (Proxy.forward plane ~front_proc:session.Attach.sn_shell_proc
         ~back_proc:session.Attach.sn_cntrfs.Session.server_proc ~backend_path:"/var/run/dbus.sock"
         "/var/run/cntr-dbus.sock")
  in
  let cfd = ok (Kernel.socket_connect k session.Attach.sn_shell_proc "/var/run/cntr-dbus.sock") in
  ignore (ok (Kernel.write k session.Attach.sn_shell_proc cfd "hello-dbus"));
  Proxy.drain plane;
  (* the host daemon accepts and reads the forwarded bytes *)
  let sfd = ok (Kernel.socket_accept k host dbus_lfd) in
  check_s "payload forwarded" "hello-dbus" (ok (Kernel.read k host sfd ~len:100));
  (* reply flows back *)
  ignore (ok (Kernel.write k host sfd "ack"));
  Proxy.drain plane;
  check_s "reply forwarded" "ack" (ok (Kernel.read k session.Attach.sn_shell_proc cfd ~len:100));
  check_i "one bridged connection" 1 (Proxy.connection_count fwd);
  check_i "counted in the registry" 1
    (Repro_obs.Metrics.counter_value
       (Repro_obs.Obs.metrics (Attach.obs session))
       "proxy.connections.total");
  Attach.detach session

(* --- shell details ---------------------------------------------------------------- *)

let test_shell_redirect_and_builtin () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let code, _ = Attach.run session "echo probe-output > /var/lib/cntr/tmp/out.txt" in
  check_i "redirect ok" 0 code;
  let _code, out = Attach.run session "cat /var/lib/cntr/tmp/out.txt" in
  check_s "redirect wrote through cntr" "probe-output\n" out;
  let code, out = Attach.run session "doesnotexist" in
  check_i "unknown command 127" 127 code;
  check_b "error message" true (contains ~needle:"command not found" out);
  let code, _ = Attach.run session "cd /var/lib/cntr/etc" in
  check_i "cd ok" 0 code;
  let _code, out = Attach.run session "cat nginx.conf" in
  check_b "relative path after cd" true (contains ~needle:"listen" out);
  (* pipelines work inside a session too *)
  let code, out = Attach.run session "ls /var/lib/cntr/etc | grep nginx" in
  check_i "pipeline in session" 0 code;
  check_b "filtered listing" true (contains ~needle:"nginx.conf" out);
  (* and the traffic report is well-formed *)
  let report = Attach.report session in
  check_b "report has request counts" true (contains ~needle:"requests" report);
  check_b "report has server lookups" true (contains ~needle:"lookups" report);
  Attach.detach session

let () =
  Alcotest.run "cntr"
    [
      ( "step1-resolution",
        [
          Alcotest.test_case "resolve & context" `Quick test_resolve_and_context;
          Alcotest.test_case "resolve by id prefix" `Quick test_resolve_by_id_prefix;
          Alcotest.test_case "unknown container" `Quick test_unknown_container;
        ] );
      ( "nested-namespace",
        [
          Alcotest.test_case "host tools visible" `Quick test_tools_from_host_visible;
          Alcotest.test_case "app fs at /var/lib/cntr" `Quick test_app_fs_under_var_lib_cntr;
          Alcotest.test_case "config files bound" `Quick test_config_files_bound_from_app;
          Alcotest.test_case "env except PATH" `Quick test_env_applied_except_path;
          Alcotest.test_case "credentials dropped" `Quick test_credentials_dropped;
          Alcotest.test_case "gdb sees app /proc" `Quick test_same_proc_view_gdb_attach;
          Alcotest.test_case "container hostname" `Quick test_hostname_is_containers;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "nested mounts invisible" `Quick test_nested_mounts_invisible_to_app;
          Alcotest.test_case "edit config in place" `Quick test_edit_config_in_place;
          Alcotest.test_case "detach leaves app" `Quick test_detach_leaves_app_running;
        ] );
      ( "mount-options",
        [ Alcotest.test_case "attach honours passthrough" `Quick test_attach_honours_passthrough ] );
      ( "use-cases",
        [
          Alcotest.test_case "fat container tools" `Quick test_fat_container_tools;
          Alcotest.test_case "container-to-host" `Quick test_privileged_container_to_host;
          Alcotest.test_case "all four engines" `Quick test_attach_all_engines;
        ] );
      ( "socket-proxy",
        [ Alcotest.test_case "roundtrip" `Quick test_socket_proxy_roundtrip ] );
      ( "shell",
        [ Alcotest.test_case "redirects & builtins" `Quick test_shell_redirect_and_builtin ] );
    ]
