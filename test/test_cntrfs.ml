(* Integration tests: CntrFS (FUSE driver + passthrough server) mounted in
   the simulated kernel, exercised through ordinary syscalls.  Includes the
   four xfstests failure modes the paper reports (§5.1). *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let ok = Errno.ok_exn

(* World: a root fs, a "fat" subtree at /fat served over CntrFS at /cntr. *)
type world = {
  k : Kernel.t;
  init : Proc.t;
  session : Session.t;
  budget : Mem_budget.t;
}

let boot ?(opts = Opts.cntr_default) ?(budget_bytes = 1024 * 1024 * 1024) () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter
    (fun d -> ok (Kernel.mkdir k init d ~mode:0o755))
    [ "/fat"; "/fat/usr"; "/fat/usr/bin"; "/fat/tmp"; "/cntr" ];
  ok (Kernel.chmod k init "/fat/tmp" 0o1777);
  ok (Kernel.chmod k init "/fat" 0o755);
  let server_proc = Kernel.fork k init in
  server_proc.Proc.comm <- "cntrfs";
  let budget = Mem_budget.create ~limit_bytes:budget_bytes in
  let session = Session.create ~kernel:k ~conn:(Conn.create ~obs:k.Kernel.obs ~clock ()) ~server_proc
      ~root_path:"/fat" ~opts ~budget ()
  in
  ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/cntr"));
  { k; init; session; budget }

let write_file k proc path content =
  let fd = ok (Kernel.open_ k proc path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode:0o644) in
  ignore (ok (Kernel.write k proc fd content));
  ok (Kernel.close k proc fd)

let read_file k proc path = ok (Kernel.read_whole k proc path)

(* --- basic passthrough ---------------------------------------------------- *)

let test_passthrough_read () =
  let w = boot () in
  write_file w.k w.init "/fat/hello" "from-fat";
  check_s "read through cntrfs" "from-fat" (read_file w.k w.init "/cntr/hello")

let test_passthrough_write_coherent () =
  let w = boot () in
  write_file w.k w.init "/cntr/new" "via-fuse";
  (* must be visible on the backing filesystem *)
  check_s "backing sees it" "via-fuse" (read_file w.k w.init "/fat/new");
  (* and still correct through the mount *)
  check_s "fuse sees it" "via-fuse" (read_file w.k w.init "/cntr/new")

let test_writeback_flush_on_close () =
  let w = boot () in
  let fd = ok (Kernel.open_ w.k w.init "/cntr/f" [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644) in
  ignore (ok (Kernel.write w.k w.init fd "buffered"));
  (* with writeback the data may still sit in the driver cache; close
     flushes it *)
  ok (Kernel.close w.k w.init fd);
  check_s "flushed at close" "buffered" (read_file w.k w.init "/fat/f")

let test_partial_page_rmw () =
  let w = boot () in
  write_file w.k w.init "/fat/f" (String.make 6000 'a');
  (* overwrite bytes 100..104 through the mount (partial first page) *)
  let fd = ok (Kernel.open_ w.k w.init "/cntr/f" [ Types.O_WRONLY ] ~mode:0) in
  ignore (ok (Kernel.pwrite w.k w.init fd ~off:100 "XXXXX"));
  ok (Kernel.close w.k w.init fd);
  let content = read_file w.k w.init "/fat/f" in
  check_i "size unchanged" 6000 (String.length content);
  check_s "patch applied" "XXXXX" (String.sub content 100 5);
  check_s "prefix intact" (String.make 100 'a') (String.sub content 0 100);
  check_s "suffix intact" (String.make 20 'a') (String.sub content 105 20)

let test_dirs_and_rename_remap () =
  let w = boot () in
  ok (Kernel.mkdir w.k w.init "/cntr/d" ~mode:0o755);
  write_file w.k w.init "/cntr/d/f" "deep";
  (* rename the directory through the mount; interned server paths must
     follow *)
  ok (Kernel.rename w.k w.init ~src:"/cntr/d" ~dst:"/cntr/e");
  check_s "read after dir rename" "deep" (read_file w.k w.init "/cntr/e/f");
  check_err Errno.ENOENT (Kernel.stat w.k w.init "/cntr/d/f");
  (* stat of the same file through old interned ino still works *)
  check_s "backing agrees" "deep" (read_file w.k w.init "/fat/e/f")

let test_hardlink_same_ino () =
  let w = boot () in
  write_file w.k w.init "/fat/a" "x";
  ok (Kernel.link w.k w.init ~target:"/fat/a" ~linkpath:"/fat/b");
  let sta = ok (Kernel.stat w.k w.init "/cntr/a") in
  let stb = ok (Kernel.stat w.k w.init "/cntr/b") in
  check_i "hardlinks share driver ino" sta.Types.st_ino stb.Types.st_ino;
  check_i "nlink 2" 2 sta.Types.st_nlink

let test_unlink_through_mount () =
  let w = boot () in
  write_file w.k w.init "/fat/gone" "x";
  ok (Kernel.unlink w.k w.init "/cntr/gone");
  check_err Errno.ENOENT (Kernel.stat w.k w.init "/fat/gone")

let test_symlink_through_mount () =
  let w = boot () in
  write_file w.k w.init "/fat/target" "pointed";
  (* relative targets resolve within the mount; absolute targets resolve
     against the *process* root (Linux semantics), so they break when the
     tree is viewed at a different mountpoint *)
  ok (Kernel.symlink w.k w.init ~target:"target" ~linkpath:"/cntr/lnk");
  check_s "relative link follows" "pointed" (read_file w.k w.init "/cntr/lnk");
  ok (Kernel.symlink w.k w.init ~target:"/fat/target" ~linkpath:"/cntr/abs");
  check_s "absolute link uses process root" "pointed" (read_file w.k w.init "/cntr/abs")

let test_xattr_through_mount () =
  let w = boot () in
  write_file w.k w.init "/fat/f" "x";
  ok (Kernel.setxattr w.k w.init "/cntr/f" "user.k" "v");
  check_s "get" "v" (ok (Kernel.getxattr w.k w.init "/cntr/f" "user.k"));
  check_s "backing agrees" "v" (ok (Kernel.getxattr w.k w.init "/fat/f" "user.k"));
  Alcotest.(check (list string)) "list" [ "user.k" ] (ok (Kernel.listxattr w.k w.init "/cntr/f"));
  ok (Kernel.removexattr w.k w.init "/cntr/f" "user.k");
  check_err Errno.ENODATA (Kernel.getxattr w.k w.init "/cntr/f" "user.k")

let test_readdir_through_mount () =
  let w = boot () in
  write_file w.k w.init "/fat/one" "1";
  write_file w.k w.init "/fat/two" "2";
  let names = ok (Kernel.readdir w.k w.init "/cntr") |> List.map (fun e -> e.Types.d_name) in
  check_b "sees one" true (List.mem "one" names);
  check_b "sees two" true (List.mem "two" names)

let test_exec_through_mount () =
  let w = boot () in
  Kernel.register_program w.k "tool" (fun _ _ _ -> 42);
  write_file w.k w.init "/fat/usr/bin/tool" (Binfmt.make ~prog:"tool" ~size:4096 ());
  ok (Kernel.chmod w.k w.init "/fat/usr/bin/tool" 0o755);
  check_i "exec via cntrfs" 42 (ok (Kernel.exec w.k w.init "/cntr/usr/bin/tool" [ "tool" ]))

(* --- paper's xfstests failure modes --------------------------------------- *)

let test_o_direct_rejected () =
  let w = boot () in
  write_file w.k w.init "/fat/f" "x";
  (* native: O_DIRECT works *)
  let fd = ok (Kernel.open_ w.k w.init "/fat/f" [ Types.O_RDONLY; Types.O_DIRECT ] ~mode:0) in
  ok (Kernel.close w.k w.init fd);
  (* through CntrFS: EINVAL (generic/391) *)
  check_err Errno.EINVAL (Kernel.open_ w.k w.init "/cntr/f" [ Types.O_RDONLY; Types.O_DIRECT ] ~mode:0)

let test_handles_not_exportable () =
  let w = boot () in
  write_file w.k w.init "/fat/f" "x";
  (* native: exportable *)
  ignore (ok (Kernel.name_to_handle_at w.k w.init "/fat/f"));
  (* through CntrFS: ENOTSUP (generic/426) *)
  check_err Errno.ENOTSUP (Kernel.name_to_handle_at w.k w.init "/cntr/f")

let test_rlimit_not_enforced () =
  let w = boot () in
  write_file w.k w.init "/fat/f" "";
  ok (Kernel.chmod w.k w.init "/fat/f" 0o666);
  let child = Kernel.fork w.k w.init in
  child.Proc.cred.Proc.uid <- 1000;
  child.Proc.cred.Proc.gid <- 1000;
  child.Proc.cred.Proc.caps <- Caps.Set.empty;
  Kernel.set_rlimit_fsize w.k child (Some 4);
  (* native: EFBIG *)
  let fd = ok (Kernel.open_ w.k child "/fat/f" [ Types.O_WRONLY ] ~mode:0) in
  check_err Errno.EFBIG (Kernel.write w.k child fd "12345678");
  ok (Kernel.close w.k child fd);
  (* through CntrFS: the server replays without the limit (generic/228) *)
  let fd = ok (Kernel.open_ w.k child "/cntr/f" [ Types.O_WRONLY ] ~mode:0) in
  check_i "limit lost through fuse" 8 (ok (Kernel.write w.k child fd "12345678"));
  ok (Kernel.close w.k child fd)

let test_setgid_not_cleared () =
  let w = boot () in
  (* file owned by uid 1000, group 2000 (owner not a member) *)
  write_file w.k w.init "/fat/f" "x";
  ok (Kernel.chown w.k w.init "/fat/f" ~uid:(Some 1000) ~gid:(Some 2000));
  let alice = Kernel.fork w.k w.init in
  alice.Proc.cred.Proc.uid <- 1000;
  alice.Proc.cred.Proc.gid <- 1000;
  alice.Proc.cred.Proc.groups <- [ 1000 ];
  alice.Proc.cred.Proc.caps <- Caps.Set.empty;
  (* native chmod: setgid silently cleared *)
  ok (Kernel.chmod w.k alice "/fat/f" 0o2755);
  let st = ok (Kernel.stat w.k w.init "/fat/f") in
  check_b "native clears setgid" true (st.Types.st_mode land Types.s_isgid = 0);
  (* through CntrFS: the server's CAP_FSETID keeps it (generic/375) *)
  ok (Kernel.chmod w.k alice "/cntr/f" 0o2755);
  let st = ok (Kernel.stat w.k w.init "/fat/f") in
  check_b "cntrfs keeps setgid" true (st.Types.st_mode land Types.s_isgid <> 0)

(* --- permission gating by the driver --------------------------------------- *)

let test_driver_checks_permissions () =
  let w = boot () in
  write_file w.k w.init "/fat/secret" "s";
  ok (Kernel.chmod w.k w.init "/fat/secret" 0o600);
  let alice = Kernel.fork w.k w.init in
  alice.Proc.cred.Proc.uid <- 1000;
  alice.Proc.cred.Proc.gid <- 1000;
  alice.Proc.cred.Proc.caps <- Caps.Set.empty;
  (* the server runs as root, but the driver's default_permissions gate
     must deny alice *)
  check_err Errno.EACCES (Kernel.open_ w.k alice "/cntr/secret" [ Types.O_RDONLY ] ~mode:0)

let test_sticky_through_mount () =
  let w = boot () in
  write_file w.k w.init "/fat/tmp/af" "x";
  ok (Kernel.chown w.k w.init "/fat/tmp/af" ~uid:(Some 1000) ~gid:(Some 1000));
  let bob = Kernel.fork w.k w.init in
  bob.Proc.cred.Proc.uid <- 1001;
  bob.Proc.cred.Proc.gid <- 1001;
  bob.Proc.cred.Proc.caps <- Caps.Set.empty;
  check_err Errno.EPERM (Kernel.unlink w.k bob "/cntr/tmp/af")

(* --- sockets through the mount --------------------------------------------- *)

let test_socket_refused_through_mount () =
  let w = boot () in
  let _lfd = ok (Kernel.socket_listen w.k w.init "/fat/x11.sock") in
  (* direct connect works *)
  let cfd = ok (Kernel.socket_connect w.k w.init "/fat/x11.sock") in
  ok (Kernel.close w.k w.init cfd);
  (* through CntrFS the inode identity differs: ECONNREFUSED — this is why
     CNTR needs its socket proxy (§3.2.4) *)
  check_err Errno.ECONNREFUSED (Kernel.socket_connect w.k w.init "/cntr/x11.sock")

(* --- caching behaviour ------------------------------------------------------ *)

(* A counter on the session's registry, by name. *)
let counter w name =
  Repro_obs.Metrics.counter_value (Repro_obs.Obs.metrics (Session.obs w.session)) name

let test_keep_cache_avoids_rereads () =
  let w = boot () in
  let data = String.make (64 * 1024) 'z' in
  write_file w.k w.init "/fat/big" data;
  (* first read through the mount: populates the driver cache *)
  ignore (read_file w.k w.init "/cntr/big");
  let reqs_after_first = counter w "fuse.req.count" in
  (* second read: FOPEN_KEEP_CACHE + page cache → no READ requests *)
  ignore (read_file w.k w.init "/cntr/big");
  let reqs_after_second = counter w "fuse.req.count" in
  let read_reqs = counter w "fuse.req.read.count" in
  check_b "some reads happened" true (read_reqs > 0);
  (* the delta allows open/release but no new read requests *)
  check_b "no new READs on warm read" true (reqs_after_second - reqs_after_first <= 3)

let test_no_keep_cache_rereads () =
  let w = boot ~opts:Opts.unoptimized () in
  let data = String.make (64 * 1024) 'z' in
  write_file w.k w.init "/fat/big" data;
  ignore (read_file w.k w.init "/cntr/big");
  let reads_first =
    counter w "fuse.req.read.count"
  in
  ignore (read_file w.k w.init "/cntr/big");
  let reads_second =
    counter w "fuse.req.read.count"
  in
  check_b "cache invalidated on open: rereads hit the server" true
    (reads_second > reads_first)

let test_write_costs_getxattr_lookup () =
  let w = boot () in
  write_file w.k w.init "/fat/log" "";
  ok (Kernel.chmod w.k w.init "/fat/log" 0o666);
  let before =
    counter w "fuse.req.getxattr.count"
  in
  let fd = ok (Kernel.open_ w.k w.init "/cntr/log" [ Types.O_WRONLY; Types.O_APPEND ] ~mode:0) in
  for _ = 1 to 10 do
    ignore (ok (Kernel.write w.k w.init fd "entry\n"))
  done;
  ok (Kernel.close w.k w.init fd);
  let after =
    counter w "fuse.req.getxattr.count"
  in
  check_i "one security.capability getxattr per write" 10 (after - before)

let test_unlinked_dirty_pages_discarded () =
  let w = boot () in
  (* create, write, close, unlink quickly: writeback should drop data *)
  write_file w.k w.init "/cntr/tmpfile" (String.make 8192 'q');
  ok (Kernel.unlink w.k w.init "/cntr/tmpfile");
  check_err Errno.ENOENT (Kernel.stat w.k w.init "/fat/tmpfile")

let test_fuse_virtual_time_overhead () =
  let w = boot () in
  write_file w.k w.init "/fat/f" (String.make 4096 'a');
  (* measure native read *)
  let t0 = Clock.now_ns w.k.Kernel.clock in
  ignore (read_file w.k w.init "/fat/f");
  let native = Int64.to_int (Int64.sub (Clock.now_ns w.k.Kernel.clock) t0) in
  let t1 = Clock.now_ns w.k.Kernel.clock in
  ignore (read_file w.k w.init "/cntr/f");
  let fuse = Int64.to_int (Int64.sub (Clock.now_ns w.k.Kernel.clock) t1) in
  check_b "cold fuse read costs more than native" true (fuse > native)

let () =
  Alcotest.run "cntrfs"
    [
      ( "passthrough",
        [
          Alcotest.test_case "read" `Quick test_passthrough_read;
          Alcotest.test_case "write coherent" `Quick test_passthrough_write_coherent;
          Alcotest.test_case "writeback flush on close" `Quick test_writeback_flush_on_close;
          Alcotest.test_case "partial page rmw" `Quick test_partial_page_rmw;
          Alcotest.test_case "dirs & rename remap" `Quick test_dirs_and_rename_remap;
          Alcotest.test_case "hardlink same ino" `Quick test_hardlink_same_ino;
          Alcotest.test_case "unlink" `Quick test_unlink_through_mount;
          Alcotest.test_case "symlink" `Quick test_symlink_through_mount;
          Alcotest.test_case "xattr" `Quick test_xattr_through_mount;
          Alcotest.test_case "readdir" `Quick test_readdir_through_mount;
          Alcotest.test_case "exec" `Quick test_exec_through_mount;
        ] );
      ( "xfstests-failure-modes",
        [
          Alcotest.test_case "O_DIRECT rejected (391)" `Quick test_o_direct_rejected;
          Alcotest.test_case "handles not exportable (426)" `Quick test_handles_not_exportable;
          Alcotest.test_case "rlimit not enforced (228)" `Quick test_rlimit_not_enforced;
          Alcotest.test_case "setgid not cleared (375)" `Quick test_setgid_not_cleared;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "driver gates access" `Quick test_driver_checks_permissions;
          Alcotest.test_case "sticky bit" `Quick test_sticky_through_mount;
        ] );
      ( "sockets",
        [ Alcotest.test_case "connect refused via mount" `Quick test_socket_refused_through_mount ] );
      ( "caching",
        [
          Alcotest.test_case "keep_cache avoids rereads" `Quick test_keep_cache_avoids_rereads;
          Alcotest.test_case "no keep_cache rereads" `Quick test_no_keep_cache_rereads;
          Alcotest.test_case "getxattr per write" `Quick test_write_costs_getxattr_lookup;
          Alcotest.test_case "unlink drops dirty pages" `Quick test_unlinked_dirty_pages_discarded;
          Alcotest.test_case "virtual-time overhead" `Quick test_fuse_virtual_time_overhead;
        ] );
    ]
