(* Container-to-container debugging in production (§2.4, use case 1).

   A fleet of slim application containers shares ONE fat debug container.
   `cntr attach --fat debug <app>` runs the CntrFS server inside the debug
   container, so its tools serve every application — and the D-Bus/X11
   socket proxy (§3.2.4) bridges Unix sockets across the mount.

   Run with:  dune exec examples/debug_production.exe *)

open Repro_util
open Repro_os
open Repro_runtime
open Repro_cntr
module Proxy = Repro_proxy.Proxy
module Session = Repro_cntrfs.Session

let ok = Errno.ok_exn

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n%!")
let show (code, out) = Printf.printf "%s(exit %d)\n%!" out code

let () =
  let world = Testbed.create () in
  let docker = World.docker world in

  step "deploy the production fleet: three slim app containers";
  let apps =
    List.map
      (fun (name, image) ->
        ok (World.run_container world ~engine:docker ~name ~image_ref:image ()))
      [ ("api", "redis:latest"); ("db", "postgres:latest"); ("web", "nginx:latest") ]
  in
  List.iter
    (fun c -> Printf.printf "  %-4s %s (pid %d)\n" c.Container.ct_name (Container.short_id c) (Container.pid c))
    apps;

  step "deploy ONE fat debug container, shared by the whole fleet";
  let _debug =
    ok (World.run_container world ~engine:docker ~name:"debug" ~image_ref:"cntr/debug-tools:latest" ())
  in

  step "attach to each app with tools from the debug container";
  List.iter
    (fun app ->
      let name = app.Container.ct_name in
      let session =
        ok
          (Testbed.attach world
             ~config:
               {
                 Attach.Config.default with
                 Attach.Config.tools = Attach.From_container "debug";
               }
             name)
      in
      let _code, out = Attach.run session "which gdb" in
      let _code2, ps = Attach.run session "ps" in
      Printf.printf "  [%s] gdb from the debug image: %s" name out;
      Printf.printf "  [%s] processes visible inside: %s" name
        (String.concat " " (List.tl (String.split_on_char '\n' ps)));
      Printf.printf "\n";
      Attach.detach session)
    apps;

  step "socket forwarding: a D-Bus daemon on the host, reachable from inside";
  let session = ok (Testbed.attach world "api") in
  let k = world.World.kernel in
  let dbus = ok (Kernel.socket_listen k world.World.init "/var/run/dbus.sock") in
  (* direct connect through CntrFS fails: the FUSE inode identity differs *)
  (match Kernel.socket_connect k session.Attach.sn_shell_proc "/var/run/dbus.sock" with
  | Error e -> Printf.printf "direct connect through CntrFS: %s (expected — §3.2.4)\n" (Errno.to_string e)
  | Ok _ -> print_endline "unexpectedly connected?!");
  let plane = Attach.proxy session in
  let _fwd =
    ok
      (Proxy.forward plane ~front_proc:session.Attach.sn_shell_proc
         ~back_proc:session.Attach.sn_cntrfs.Session.server_proc ~backend_path:"/var/run/dbus.sock"
         "/var/run/cntr-dbus.sock")
  in
  let cfd = ok (Kernel.socket_connect k session.Attach.sn_shell_proc "/var/run/cntr-dbus.sock") in
  ignore (ok (Kernel.write k session.Attach.sn_shell_proc cfd "Hello org.freedesktop.DBus"));
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k world.World.init dbus) in
  Printf.printf "host daemon received: %S\n" (ok (Kernel.read k world.World.init sfd ~len:128));
  ignore (ok (Kernel.write k world.World.init sfd "NameAcquired"));
  Proxy.drain plane;
  Printf.printf "client received reply: %S\n"
    (ok (Kernel.read k session.Attach.sn_shell_proc cfd ~len:128));

  step "isolation check: nothing leaked into the application containers";
  List.iter
    (fun app ->
      let leaked =
        Result.is_ok (Kernel.stat k app.Container.ct_main "/var/lib/cntr")
        || Result.is_ok (Kernel.stat k app.Container.ct_main "/usr/bin/gdb")
      in
      Printf.printf "  [%s] debug tools visible inside the app itself: %b\n" app.Container.ct_name leaked)
    apps;
  show (Attach.run session "echo cleanup ok");
  Attach.detach session;
  print_endline "\ndebug_production done."
