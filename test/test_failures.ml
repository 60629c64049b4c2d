(* Failure injection: what happens when parts of the CNTR machinery die or
   are misused — the server disappears mid-session, the target container
   stops, mounts are busy, detach is repeated.  The system must fail with
   meaningful errnos and never corrupt the application container. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_runtime
open Repro_cntr

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let ok = Errno.ok_exn

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let boot_with_app () =
  let world = Testbed.create () in
  let app =
    ok (World.run_container world ~engine:(World.docker world) ~name:"web" ~image_ref:"nginx:latest" ())
  in
  (world, app)

(* --- server death ----------------------------------------------------------- *)

let test_server_death_gives_enotconn () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let code, _ = Attach.run session "which gdb" in
  check_i "alive before" 0 code;
  (* the CntrFS server crashes *)
  Attach.crash_server session;
  let code, out = Attach.run session "cat /etc/passwd" in
  check_b "command fails, not hangs" true (code <> 0);
  check_b "reports an error" true (String.length out > 0);
  (* the app container itself keeps working on its own fs *)
  let content = ok (Kernel.read_whole world.World.kernel _app.Container.ct_main "/etc/nginx.conf") in
  check_b "app unaffected" true (contains ~needle:"listen" content)

let test_crash_then_recover_resumes () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let code, _ = Attach.run session "cat /var/lib/cntr/etc/nginx.conf" in
  check_i "alive before" 0 code;
  Attach.crash_server session;
  let code, _ = Attach.run session "cat /var/lib/cntr/etc/nginx.conf" in
  check_b "fails while down" true (code <> 0);
  Attach.recover session;
  let code, out = Attach.run session "cat /var/lib/cntr/etc/nginx.conf" in
  check_i "works after recover" 0 code;
  check_b "content back" true (contains ~needle:"listen" out);
  let m = Repro_obs.Obs.metrics (Attach.obs session) in
  check_b "recovery counted" true
    (Repro_obs.Metrics.counter_value m "session.recoveries" >= 1);
  Attach.detach session

let test_hang_server_bounded_by_deadline () =
  let world, _app = boot_with_app () in
  (* a deadline but no fault plan: the supervised path arms timeouts *)
  let config =
    {
      Attach.Config.default with
      Attach.Config.retry = Some Repro_fault.Fault.retry_default;
    }
  in
  let session = ok (Testbed.attach world ~config "web") in
  let code, _ = Attach.run session "which gdb" in
  check_i "alive before" 0 code;
  (* the next request sits far past the deadline; the session must not hang *)
  Attach.hang_server session ~ns:10_000_000_000;
  let before = Clock.now_ns world.World.clock in
  ignore (Attach.run session "stat /etc/passwd");
  let waited = Int64.sub (Clock.now_ns world.World.clock) before in
  check_b "bounded wait" true (waited < 10_000_000_000L);
  (* and afterwards the session still works *)
  let code, _ = Attach.run session "which gdb" in
  check_i "alive after" 0 code;
  Attach.detach session

(* One arm point: the plan is armed when step #2 builds the CntrFS session,
   so a backing rule also sees the server's syscalls for the attach's own
   setup — here the first one fails, and so does the attach. *)
let test_plan_armed_for_setup () =
  let world, _app = boot_with_app () in
  let plan, retry =
    match Repro_fault.Fault.parse "backing * nth=1 fail=EIO\n" with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  let config = { Attach.Config.default with Attach.Config.fault = Some plan; retry } in
  check_err Errno.EIO (Testbed.attach world ~config "web")

(* A failed attach releases what it started: its processes exit and its
   backing hook leaves the kernel.  Each armed session's hook is its own,
   so an earlier session's backing rule still fires after that, and with
   another armed session live. *)
let test_failed_attach_releases () =
  let world, _app = boot_with_app () in
  let armed text =
    match Repro_fault.Fault.parse text with
    | Ok (plan, retry) -> { Attach.Config.default with Attach.Config.fault = Some plan; retry }
    | Error msg -> Alcotest.fail msg
  in
  (* fires on every backing syscall once a virtual second has passed *)
  let first = ok (Testbed.attach world ~config:(armed "backing * after=1000000000 fail=EIO\n") "web") in
  check_err Errno.EIO (Testbed.attach world ~config:(armed "backing * nth=1 fail=EIO\n") "web");
  let attach_procs =
    Hashtbl.fold
      (fun _ p n ->
        if Proc.alive p && List.mem p.Proc.comm [ "cntr"; "cntrfs"; "cntr-shell" ] then n + 1 else n)
      world.World.kernel.Kernel.procs 0
  in
  check_i "only the first attach's processes live" 3 attach_procs;
  let second = ok (Testbed.attach world ~config:(armed "fuse statfs nth=1 fail=EIO\n") "web") in
  Clock.consume_int world.World.clock 1_000_000_000;
  let code, _ = Attach.run first "cat /etc/os-release" in
  check_b "first plan's backing rule fails the cat" true (code <> 0);
  let injected = match Attach.fault first with Some f -> Repro_fault.Fault.injected f | None -> 0 in
  check_b "first plan injected" true (injected > 0);
  let code, _ = Attach.run second "cat /etc/os-release" in
  check_i "second session unaffected" 0 code;
  Attach.detach second;
  Attach.detach first

(* Every failure point of an attach releases what the attach started.  For
   each fault site, the k-th operation there fails with EIO, for k = 1,
   2, ... until an attach gets through, which is then detached.  After
   each attempt no attach process is alive or left in the kernel's table,
   no fault hook is armed and init holds the fds it held before. *)
let test_fault_point_sweep () =
  let world, _app = boot_with_app () in
  let k = world.World.kernel and init = world.World.init in
  let init_fds = Hashtbl.length init.Proc.fds in
  let booted = Hashtbl.length k.Kernel.procs in
  let released what =
    let live =
      Hashtbl.fold
        (fun _ p n ->
          if Proc.alive p && List.mem p.Proc.comm [ "cntr"; "cntrfs"; "cntr-shell" ] then n + 1
          else n)
        k.Kernel.procs 0
    in
    check_i (what ^ ": no attach process alive") 0 live;
    check_i (what ^ ": procs at boot size") booted (Hashtbl.length k.Kernel.procs);
    check_b (what ^ ": no fault hook armed") true (k.Kernel.k_faults = []);
    check_i (what ^ ": init's fds") init_fds (Hashtbl.length init.Proc.fds)
  in
  let sweep site =
    let rec go n =
      if n > 64 then Alcotest.failf "%s: no attach got through in 64 tries" site;
      let plan, retry =
        match Repro_fault.Fault.parse (Printf.sprintf "%s * nth=%d fail=EIO\n" site n) with
        | Ok v -> v
        | Error msg -> Alcotest.fail msg
      in
      let config = { Attach.Config.default with Attach.Config.fault = Some plan; retry } in
      let what = Printf.sprintf "%s nth=%d" site n in
      match Testbed.attach world ~config "web" with
      | Error e ->
          Alcotest.check errno what Errno.EIO e;
          released what;
          go (n + 1)
      | Ok session ->
          Attach.detach session;
          released what;
          n
    in
    go 1
  in
  check_i "backing: the first k that attaches" 11 (sweep "backing");
  check_i "fuse: the first k that attaches" 11 (sweep "fuse")

let test_uninitialized_conn_refuses () =
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  (* no handler installed at all *)
  (match Conn.call conn Protocol.root_ctx Protocol.Statfs with
  | Protocol.R_err Errno.ENOTCONN -> ()
  | _ -> Alcotest.fail "expected ENOTCONN without a handler")

(* --- stopped / missing containers ------------------------------------------- *)

let test_attach_to_stopped_container () =
  let world, app = boot_with_app () in
  Container.stop ~kernel:world.World.kernel app;
  (* a stopped container resolves to no live process *)
  check_b "attach fails" true (Result.is_error (Testbed.attach world "web"))

let test_exec_in_dead_process_namespace () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  Container.stop ~kernel:world.World.kernel app;
  (* the session's shell still exists (its own process), and its namespace
     keeps the filesystems alive — commands still run *)
  let code, _ = Attach.run session "which gdb" in
  check_i "session survives app exit" 0 code;
  Attach.detach session

(* --- teardown misuse ----------------------------------------------------------- *)

(* An exited process leaves the kernel's table, and with it the mount
   namespace, FUSE driver and page cache only it held: attach/detach
   cycles on one world leave [procs] at its size after boot. *)
let test_cycles_reap () =
  let world, _app = boot_with_app () in
  let k = world.World.kernel in
  let booted = Hashtbl.length k.Kernel.procs in
  for _ = 1 to 1000 do
    Attach.detach (ok (Testbed.attach world "web"))
  done;
  check_i "procs after 1000 attach/detach cycles" booted (Hashtbl.length k.Kernel.procs)

let test_double_detach_harmless () =
  let world, app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  Attach.detach session;
  check_b "marked detached" true session.Attach.sn_detached;
  (* the second call is a no-op, not a crash on dead processes *)
  Attach.detach session;
  Attach.detach session;
  (* still consistent *)
  check_b "app alive" true (Container.is_running app);
  check_b "shell dead" false (Proc.alive session.Attach.sn_shell_proc);
  ignore world

let test_with_session_detaches_on_exception () =
  let world, app = boot_with_app () in
  let captured = ref None in
  (match
     Testbed.with_session world "web" (fun session ->
         captured := Some session;
         let code, _ = Attach.run session "which gdb" in
         check_i "runs inside bracket" 0 code;
         raise Exit)
   with
  | exception Exit -> ()
  | _ -> Alcotest.fail "expected Exit to propagate");
  (match !captured with
  | Some session -> check_b "detached by bracket" true session.Attach.sn_detached
  | None -> Alcotest.fail "bracket body never ran");
  check_b "app alive" true (Container.is_running app)

let test_detach_with_open_fds () =
  let world, _app = boot_with_app () in
  let session = ok (Testbed.attach world "web") in
  let k = world.World.kernel in
  (* leave a file open in the nested namespace, then detach *)
  let _fd =
    ok (Kernel.open_ k session.Attach.sn_shell_proc "/var/lib/cntr/etc/nginx.conf" [ Types.O_RDONLY ] ~mode:0)
  in
  Attach.detach session;
  (* exit closed the fd; reading through the app container still works *)
  let content = ok (Kernel.read_whole k _app.Container.ct_main "/etc/nginx.conf") in
  check_b "file intact" true (contains ~needle:"listen" content)

(* --- busy mounts ------------------------------------------------------------------ *)

let test_umount_busy_with_submounts () =
  let world = Testbed.create () in
  let k = world.World.kernel and init = world.World.init in
  let clock = world.World.clock in
  ok (Kernel.mkdir k init "/m1" ~mode:0o755);
  let fs1 = Nativefs.create ~name:"fs1" ~clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops fs1) "/m1"));
  ok (Kernel.mkdir k init "/m1/sub" ~mode:0o755);
  let fs2 = Nativefs.create ~name:"fs2" ~clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops fs2) "/m1/sub"));
  check_err Errno.EBUSY (Kernel.umount k init "/m1");
  ok (Kernel.umount k init "/m1/sub");
  ok (Kernel.umount k init "/m1")

let test_umount_root_refused () =
  let world = Testbed.create () in
  check_err Errno.EBUSY (Kernel.umount world.World.kernel world.World.init "/")

(* --- permission failures ------------------------------------------------------------ *)

let test_unprivileged_cannot_mount_or_unshare () =
  let world = Testbed.create () in
  let k = world.World.kernel in
  let user = Kernel.fork k world.World.init in
  user.Proc.cred.Proc.uid <- 1000;
  user.Proc.cred.Proc.caps <- Caps.Set.empty;
  let fs = Nativefs.create ~name:"x" ~clock:world.World.clock Store.Ram () in
  check_err Errno.EPERM (Kernel.mount_at k user ~fs:(Nativefs.ops fs) "/tmp");
  check_err Errno.EPERM (Kernel.unshare k user [ Namespace.Mnt ]);
  check_err Errno.EPERM (Kernel.chroot k user "/tmp");
  check_err Errno.EPERM (Kernel.sethostname k user "nope")

let test_engine_conventions () =
  (* each engine applies its own id / cgroup / LSM conventions *)
  let world = Testbed.create () in
  let run engine_name =
    let engine = World.engine world engine_name in
    ok (World.run_container world ~engine ~name:("c-" ^ engine_name) ~image_ref:"redis:latest" ())
  in
  let d = run "docker" in
  check_i "docker id is 64-hex" 64 (String.length d.Container.ct_id);
  check_b "docker cgroup" true (contains ~needle:"/docker/" d.Container.ct_main.Proc.cgroup);
  check_b "docker lsm" true (d.Container.ct_main.Proc.lsm_profile = Some "docker-default");
  let l = run "lxc" in
  check_b "lxc cgroup" true (contains ~needle:"/lxc/" l.Container.ct_main.Proc.cgroup);
  let r = run "rkt" in
  check_b "rkt machine scope" true
    (contains ~needle:"machine-rkt-" r.Container.ct_main.Proc.cgroup);
  check_b "rkt uuid has dashes" true (String.contains r.Container.ct_id '-');
  let n = run "systemd-nspawn" in
  check_b "nspawn service scope" true
    (contains ~needle:"systemd-nspawn@" n.Container.ct_main.Proc.cgroup);
  check_b "nspawn unconfined" true (n.Container.ct_main.Proc.lsm_profile = None)

let () =
  Alcotest.run "failures"
    [
      ( "server-death",
        [
          Alcotest.test_case "ENOTCONN after crash" `Quick test_server_death_gives_enotconn;
          Alcotest.test_case "crash then recover" `Quick test_crash_then_recover_resumes;
          Alcotest.test_case "hang bounded by deadline" `Quick test_hang_server_bounded_by_deadline;
          Alcotest.test_case "uninitialized conn" `Quick test_uninitialized_conn_refuses;
          Alcotest.test_case "plan armed for setup" `Quick test_plan_armed_for_setup;
          Alcotest.test_case "failed attach releases" `Quick test_failed_attach_releases;
          Alcotest.test_case "fault-point sweep" `Quick test_fault_point_sweep;
        ] );
      ( "container-lifecycle",
        [
          Alcotest.test_case "attach to stopped" `Quick test_attach_to_stopped_container;
          Alcotest.test_case "session outlives app" `Quick test_exec_in_dead_process_namespace;
          Alcotest.test_case "attach/detach cycles reap" `Quick test_cycles_reap;
          Alcotest.test_case "double detach" `Quick test_double_detach_harmless;
          Alcotest.test_case "with_session detaches on exception" `Quick
            test_with_session_detaches_on_exception;
          Alcotest.test_case "detach with open fds" `Quick test_detach_with_open_fds;
        ] );
      ( "mounts",
        [
          Alcotest.test_case "umount busy" `Quick test_umount_busy_with_submounts;
          Alcotest.test_case "umount root refused" `Quick test_umount_root_refused;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "unprivileged denied" `Quick test_unprivileged_cannot_mount_or_unshare;
          Alcotest.test_case "engine conventions" `Quick test_engine_conventions;
        ] );
    ]
