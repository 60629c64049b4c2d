(* Tests for the simulated kernel: path walking across mounts, chroot,
   namespaces, fds, pipes, sockets, epoll, /proc, /dev, exec. *)

open Repro_util
open Repro_vfs
open Repro_os

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let ok = Errno.ok_exn

(* A small world: kernel with a RAM root fs and /dev, /proc mounted. *)
let boot () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter
    (fun d -> ok (Kernel.mkdir k init d ~mode:0o755))
    [ "/dev"; "/proc"; "/tmp"; "/etc"; "/usr"; "/usr/bin" ];
  ok (Kernel.chmod k init "/tmp" 0o1777);
  let devfs = Devfs.create ~kernel:k in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops devfs) "/dev"));
  let procfs = Procfs.create ~kernel:k ~pidns:init.Proc.ns.Proc.pid_ns in
  ignore (ok (Kernel.mount_at k init ~fs:(Procfs.ops procfs) "/proc"));
  (k, init)

let write_file k proc path content =
  let fd = ok (Kernel.open_ k proc path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode:0o755) in
  ignore (ok (Kernel.write k proc fd content));
  ok (Kernel.close k proc fd)

let read_file k proc path =
  ok (Kernel.read_whole k proc path)

(* --- basic file I/O ------------------------------------------------------ *)

let test_open_write_read () =
  let k, init = boot () in
  write_file k init "/tmp/hello" "world";
  check_s "read back" "world" (read_file k init "/tmp/hello");
  let st = ok (Kernel.stat k init "/tmp/hello") in
  check_i "size" 5 st.Types.st_size;
  check_err Errno.ENOENT (Kernel.stat k init "/tmp/nope")

let test_offsets_and_lseek () =
  let k, init = boot () in
  write_file k init "/tmp/f" "0123456789";
  let fd = ok (Kernel.open_ k init "/tmp/f" [ Types.O_RDONLY ] ~mode:0) in
  check_s "first" "012" (ok (Kernel.read k init fd ~len:3));
  check_s "cursor advanced" "345" (ok (Kernel.read k init fd ~len:3));
  check_i "seek" 8 (ok (Kernel.lseek k init fd (Kernel.SEEK_SET 8)));
  check_s "after seek" "89" (ok (Kernel.read k init fd ~len:10));
  check_i "seek end" 10 (ok (Kernel.lseek k init fd (Kernel.SEEK_END 0)));
  check_i "seek cur" 7 (ok (Kernel.lseek k init fd (Kernel.SEEK_CUR (-3))));
  ok (Kernel.close k init fd);
  check_err Errno.EBADF (Kernel.read k init fd ~len:1)

let test_append_mode () =
  let k, init = boot () in
  write_file k init "/tmp/log" "a";
  let fd = ok (Kernel.open_ k init "/tmp/log" [ Types.O_WRONLY; Types.O_APPEND ] ~mode:0) in
  ignore (ok (Kernel.write k init fd "b"));
  ignore (ok (Kernel.write k init fd "c"));
  ok (Kernel.close k init fd);
  check_s "appended" "abc" (read_file k init "/tmp/log")

let test_o_excl_and_trunc () =
  let k, init = boot () in
  write_file k init "/tmp/f" "data";
  check_err Errno.EEXIST
    (Kernel.open_ k init "/tmp/f" [ Types.O_CREAT; Types.O_EXCL; Types.O_WRONLY ] ~mode:0o644);
  let fd = ok (Kernel.open_ k init "/tmp/f" [ Types.O_WRONLY; Types.O_TRUNC ] ~mode:0) in
  ok (Kernel.close k init fd);
  check_i "truncated" 0 (ok (Kernel.stat k init "/tmp/f")).Types.st_size

let test_fork_shares_offset () =
  let k, init = boot () in
  write_file k init "/tmp/f" "0123456789";
  let fd = ok (Kernel.open_ k init "/tmp/f" [ Types.O_RDONLY ] ~mode:0) in
  let child = Kernel.fork k init in
  check_s "parent reads" "012" (ok (Kernel.read k init fd ~len:3));
  check_s "child continues at shared offset" "345" (ok (Kernel.read k child fd ~len:3));
  Kernel.exit k child 0;
  check_s "still open in parent" "678" (ok (Kernel.read k init fd ~len:3))

let test_umask () =
  let k, init = boot () in
  init.Proc.umask <- 0o027;
  write_file k init "/tmp/f" "x";
  let st = ok (Kernel.stat k init "/tmp/f") in
  check_i "umask applied" 0o750 st.Types.st_mode

(* --- symlinks and walking ------------------------------------------------ *)

let test_symlink_walk () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/data" ~mode:0o755);
  write_file k init "/data/f" "payload";
  ok (Kernel.symlink k init ~target:"/data" ~linkpath:"/lnk");
  check_s "through symlink" "payload" (read_file k init "/lnk/f");
  ok (Kernel.symlink k init ~target:"f" ~linkpath:"/data/rel");
  check_s "relative symlink" "payload" (read_file k init "/data/rel");
  let st = ok (Kernel.lstat k init "/lnk") in
  check_b "lstat sees link" true (st.Types.st_kind = Types.Symlink);
  let st = ok (Kernel.stat k init "/lnk") in
  check_b "stat follows" true (st.Types.st_kind = Types.Dir)

let test_symlink_loop () =
  let k, init = boot () in
  ok (Kernel.symlink k init ~target:"/b" ~linkpath:"/a");
  ok (Kernel.symlink k init ~target:"/a" ~linkpath:"/b");
  check_err Errno.ELOOP (Kernel.stat k init "/a/x")

let test_dotdot_walk () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/a" ~mode:0o755);
  ok (Kernel.mkdir k init "/a/b" ~mode:0o755);
  write_file k init "/etc/conf" "c";
  check_s "dotdot" "c" (read_file k init "/a/b/../../etc/conf");
  check_s "dotdot above root clamps" "c" (read_file k init "/../../etc/conf")

(* --- mounts --------------------------------------------------------------- *)

let test_mount_and_cross () =
  let k, init = boot () in
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k init "/mnt/inside" "in-extra";
  (* the file lives in the mounted fs, not the root fs *)
  let root_entries = ok (Kernel.readdir k init "/") |> List.map (fun e -> e.Types.d_name) in
  check_b "root unchanged" false (List.mem "inside" root_entries);
  check_s "visible through mount" "in-extra" (read_file k init "/mnt/inside");
  (* ".." from inside the mount crosses back to the parent fs *)
  check_b "dotdot crosses mount" true
    (List.mem "etc" (ok (Kernel.readdir k init "/mnt/..") |> List.map (fun e -> e.Types.d_name)))

let test_bind_mount () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/a" ~mode:0o755);
  write_file k init "/a/f" "shared";
  ok (Kernel.mkdir k init "/b" ~mode:0o755);
  ignore (ok (Kernel.bind_mount k init ~src:"/a" ~dst:"/b"));
  check_s "bind visible" "shared" (read_file k init "/b/f");
  (* writes through the bind alias hit the same file *)
  write_file k init "/b/g" "via-b";
  check_s "write through bind" "via-b" (read_file k init "/a/g");
  (* file-over-file bind *)
  write_file k init "/etc/passwd" "root:0";
  write_file k init "/tmp/passwd" "other";
  ignore (ok (Kernel.bind_mount k init ~src:"/etc/passwd" ~dst:"/tmp/passwd"));
  check_s "file bind" "root:0" (read_file k init "/tmp/passwd")

let test_umount () =
  let k, init = boot () in
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k init "/mnt/x" "1";
  ok (Kernel.umount k init "/mnt");
  check_err Errno.ENOENT (Kernel.stat k init "/mnt/x");
  (* umounting a non-mount-root is EINVAL *)
  check_err Errno.EINVAL (Kernel.umount k init "/etc")

let test_chroot_confinement () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/jail" ~mode:0o755);
  ok (Kernel.mkdir k init "/jail/etc" ~mode:0o755);
  write_file k init "/jail/etc/hosts" "jailed";
  write_file k init "/etc/hosts" "host";
  let child = Kernel.fork k init in
  ok (Kernel.chroot k child "/jail");
  check_s "sees jailed file" "jailed" (read_file k child "/etc/hosts");
  check_s "dotdot cannot escape" "jailed" (read_file k child "/../../etc/hosts");
  (* the parent is unaffected *)
  check_s "parent unaffected" "host" (read_file k init "/etc/hosts")

let test_mount_ns_isolation () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  ok (Kernel.make_rprivate k child);
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ignore (ok (Kernel.mount_at k child ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k child "/mnt/secret" "s";
  (* invisible from the parent namespace *)
  check_err Errno.ENOENT (Kernel.stat k init "/mnt/secret");
  check_s "visible in child" "s" (read_file k child "/mnt/secret")

(* unshare re-anchors the cwd on the clone of the very mount it was in:
   with one filesystem mounted at /x/a and at /y/b and the cwd at /y/b,
   ".." must still be /y afterwards, not /x. *)
let test_unshare_keeps_cwd_mount () =
  let k, init = boot () in
  List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o755)) [ "/x"; "/x/a"; "/y"; "/y/b" ];
  write_file k init "/x/marker-x" "";
  write_file k init "/y/marker-y" "";
  let twice = Nativefs.ops (Nativefs.create ~name:"twice" ~clock:k.Kernel.clock Store.Ram ()) in
  ignore (ok (Kernel.mount_at k init ~fs:twice "/x/a"));
  ignore (ok (Kernel.mount_at k init ~fs:twice "/y/b"));
  let child = Kernel.fork k init in
  ok (Kernel.chdir k child "/y/b");
  let parent_entries () =
    ok (Kernel.readdir k child "..")
    |> List.map (fun e -> e.Types.d_name)
    |> List.filter (fun n -> n <> "." && n <> "..")
    |> List.sort compare
  in
  Alcotest.(check (list string)) "before unshare" [ "b"; "marker-y" ] (parent_entries ());
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  Alcotest.(check (list string)) "after unshare" [ "b"; "marker-y" ] (parent_entries ())

let test_shared_propagation () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  (* clone the namespace while the root is still shared *)
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  (* host mounts something: the shared peer group propagates it *)
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k init "/mnt/x" "prop";
  check_s "propagated into clone" "prop" (read_file k child "/mnt/x")

let test_propagation_clone_of_clone () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  (* a clone keeps the peer group, and so does a clone of that clone *)
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  let grandchild = Kernel.fork k child in
  ok (Kernel.unshare k grandchild [ Namespace.Mnt ]);
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k init "/mnt/x" "prop";
  check_s "propagated into the clone's clone" "prop" (read_file k grandchild "/mnt/x")

(* Propagation reaches the namespaces of live processes only: one that no
   live process is in can never show a mount, so it gets no replica. *)
let test_propagation_skips_dead_namespace () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  let kept = child.Proc.ns.Proc.mnt in
  let before = Hashtbl.length kept.Mount.mounts in
  Kernel.exit k child 0;
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  check_i "no replica in the exited process's namespace" before
    (Hashtbl.length kept.Mount.mounts)

(* The inward half of §3.2.3's isolation: once the clone is rprivate, host
   mounts stop reaching it. *)
let test_rprivate_stops_inward_propagation () =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Mnt ]);
  ok (Kernel.make_rprivate k child);
  let extra = Nativefs.create ~name:"extra" ~clock:k.Kernel.clock Store.Ram () in
  ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops extra) "/mnt"));
  write_file k init "/mnt/x" "host";
  check_s "visible on the host" "host" (read_file k init "/mnt/x");
  check_err Errno.ENOENT (Kernel.stat k child "/mnt/x")

(* --- mountpoint index --------------------------------------------------------

   [Mount.mount_on] looks a mountpoint up in its namespace's index; the
   reference is the scan over every mount of the namespace it replaced.
   Random mount, bind, umount, unshare, fork and make-rprivate sequences
   (propagation adds replicas to other namespaces, and umount removes)
   must leave every namespace's index agreeing with the scan. *)

let mount_on_by_scan ns ~mid ~ino =
  Hashtbl.fold
    (fun _ m best ->
      match m.Mount.m_mp with
      | Some (pmid, pino) when pmid = mid && pino = ino -> (
          match best with Some b when b.Mount.m_id > m.Mount.m_id -> best | _ -> Some m)
      | _ -> best)
    ns.Mount.mounts None

(* Every (mount id, inode) pair of [ns], over the inodes its mounts root
   at or are mounted on. *)
let index_agrees ns =
  let mounts = Hashtbl.fold (fun _ m acc -> m :: acc) ns.Mount.mounts [] in
  let inos =
    List.concat_map
      (fun m -> m.Mount.m_root :: (match m.Mount.m_mp with Some (_, i) -> [ i ] | None -> []))
      mounts
    |> List.sort_uniq compare
  in
  let id = Option.map (fun m -> m.Mount.m_id) in
  List.for_all
    (fun m ->
      List.for_all
        (fun ino ->
          let mid = m.Mount.m_id in
          id (Mount.mount_on ns ~mid ~ino) = id (mount_on_by_scan ns ~mid ~ino))
        inos)
    mounts

let mount_dirs = [| "/a"; "/b"; "/a/x"; "/b/y"; "/a/x/z" |]

let mount_ops_prop ops =
  let k, init = boot () in
  ok (Kernel.mkdir k init "/a" ~mode:0o755);
  ok (Kernel.mkdir k init "/b" ~mode:0o755);
  let procs = ref [| init |] in
  let dir i = mount_dirs.(i mod Array.length mount_dirs) in
  List.for_all
    (fun (kind, (p, i, j)) ->
      let proc = !procs.(p mod Array.length !procs) in
      (match kind with
      | 0 ->
          let fs = Nativefs.create ~name:"m" ~clock:k.Kernel.clock Store.Ram () in
          ignore (Kernel.mount_at k proc ~fs:(Nativefs.ops fs) (dir i))
      | 1 -> ignore (Kernel.bind_mount k proc ~src:(dir i) ~dst:(dir j))
      | 2 -> ignore (Kernel.umount k proc (dir i))
      | 3 -> ignore (Kernel.unshare k proc [ Namespace.Mnt ])
      | 4 -> procs := Array.append !procs [| Kernel.fork k proc |]
      | 5 -> ignore (Kernel.mkdir k proc (dir i) ~mode:0o755)
      | _ -> ignore (Kernel.make_rprivate k proc));
      Array.for_all (fun p -> index_agrees p.Proc.ns.Proc.mnt) !procs)
    ops

let qcheck_mount_index =
  let op = QCheck.Gen.(pair (int_bound 6) (triple small_nat small_nat small_nat)) in
  QCheck.Test.make ~count:200 ~name:"mount_on index == scan of every mount"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat "; "
            (List.map (fun (k, (p, i, j)) -> Printf.sprintf "%d(%d,%d,%d)" k p i j) ops))
        Gen.(list_size (1 -- 30) op))
    mount_ops_prop

(* --- namespaces ----------------------------------------------------------- *)

let test_setns () =
  let k, init = boot () in
  let target = Kernel.fork k init in
  ok (Kernel.unshare k target [ Namespace.Mnt; Namespace.Uts; Namespace.Pid ]);
  ok (Kernel.sethostname k target "container");
  let joiner = Kernel.fork k init in
  ok (Kernel.setns k joiner ~target_pid:target.Proc.pid [ Namespace.Uts; Namespace.Mnt ]);
  check_s "joined uts" "container" (Kernel.gethostname k joiner);
  check_b "joined mnt ns" true
    (joiner.Proc.ns.Proc.mnt.Mount.ns_id = target.Proc.ns.Proc.mnt.Mount.ns_id);
  check_b "pid ns not joined" true
    (joiner.Proc.ns.Proc.pid_ns.Namespace.pns_id <> target.Proc.ns.Proc.pid_ns.Namespace.pns_id)

let test_setns_requires_admin () =
  let k, init = boot () in
  let target = Kernel.fork k init in
  let unpriv = Kernel.fork k init in
  unpriv.Proc.cred.Proc.uid <- 1000;
  unpriv.Proc.cred.Proc.caps <- Caps.Set.empty;
  check_err Errno.EPERM (Kernel.setns k unpriv ~target_pid:target.Proc.pid [ Namespace.Mnt ])

(* --- /proc ---------------------------------------------------------------- *)

let test_procfs_status_env () =
  let k, init = boot () in
  let child = Kernel.fork k init in
  child.Proc.comm <- "myapp";
  Proc.setenv child "FOO" "bar";
  let status = read_file k init (Printf.sprintf "/proc/%d/status" child.Proc.pid) in
  check_b "status has name" true
    (String.length status > 0 && String.sub status 0 11 = "Name:\tmyapp");
  let environ = read_file k init (Printf.sprintf "/proc/%d/environ" child.Proc.pid) in
  check_b "environ has FOO" true
    (String.split_on_char '\000' environ |> List.exists (fun s -> s = "FOO=bar"))

let test_procfs_ns_ids () =
  let k, init = boot () in
  let child = Kernel.fork k init in
  (* ns entries are magic symlinks: their readlink text is the ns tag *)
  let before = ok (Kernel.readlink k init (Printf.sprintf "/proc/%d/ns/uts" child.Proc.pid)) in
  ok (Kernel.unshare k child [ Namespace.Uts ]);
  let after = ok (Kernel.readlink k init (Printf.sprintf "/proc/%d/ns/uts" child.Proc.pid)) in
  check_b "uts ns id changed" true (before <> after);
  let mnt = ok (Kernel.readlink k init (Printf.sprintf "/proc/%d/ns/mnt" child.Proc.pid)) in
  check_b "mnt tag format" true (String.sub mnt 0 5 = "mnt:[")

let test_procfs_pidns_scoping () =
  let k, init = boot () in
  let cont = Kernel.fork k init in
  ok (Kernel.unshare k cont [ Namespace.Pid ]);
  let inner = Kernel.fork k cont in
  (* container-scoped procfs shows inner but not init *)
  let cproc = Procfs.create ~kernel:k ~pidns:cont.Proc.ns.Proc.pid_ns in
  ok (Kernel.mkdir k init "/cproc" ~mode:0o755);
  ignore (ok (Kernel.mount_at k init ~fs:(Procfs.ops cproc) "/cproc"));
  let names = ok (Kernel.readdir k init "/cproc") |> List.map (fun e -> e.Types.d_name) in
  check_b "inner visible" true (List.mem (string_of_int inner.Proc.pid) names);
  check_b "init hidden" false (List.mem "1" names);
  (* host procfs sees the container's processes (pid ns hierarchy) *)
  let host_names = ok (Kernel.readdir k init "/proc") |> List.map (fun e -> e.Types.d_name) in
  check_b "host sees inner" true (List.mem (string_of_int inner.Proc.pid) host_names)

let test_procfs_readonly () =
  let k, init = boot () in
  check_err Errno.EPERM (Kernel.mkdir k init "/proc/foo" ~mode:0o755);
  check_err Errno.EPERM
    (Kernel.open_ k init "/proc/1/status" [ Types.O_WRONLY ] ~mode:0
    |> function Ok fd -> Kernel.write k init fd "x" | Error e -> Error e)

(* --- /dev ------------------------------------------------------------------ *)

let test_devices () =
  let k, init = boot () in
  let fd = ok (Kernel.open_ k init "/dev/zero" [ Types.O_RDONLY ] ~mode:0) in
  check_s "zero" (String.make 4 '\000') (ok (Kernel.read k init fd ~len:4));
  ok (Kernel.close k init fd);
  let fd = ok (Kernel.open_ k init "/dev/null" [ Types.O_RDWR ] ~mode:0) in
  check_i "null swallows" 5 (ok (Kernel.write k init fd "hello"));
  check_s "null eof" "" (ok (Kernel.read k init fd ~len:4));
  ok (Kernel.close k init fd)

(* --- pipes, splice, sockets, epoll ----------------------------------------- *)

let test_pipe () =
  let k, init = boot () in
  let rfd, wfd = Kernel.pipe k init in
  check_i "write" 5 (ok (Kernel.write k init wfd "hello"));
  check_s "read" "hel" (ok (Kernel.read k init rfd ~len:3));
  check_err Errno.EAGAIN
    (match Kernel.read k init rfd ~len:10 with
    | Ok "lo" -> Kernel.read k init rfd ~len:10
    | other -> other);
  ok (Kernel.close k init wfd);
  check_s "eof after writer close" "" (ok (Kernel.read k init rfd ~len:10));
  ok (Kernel.close k init rfd)

let test_pipe_epipe () =
  let k, init = boot () in
  let rfd, wfd = Kernel.pipe k init in
  ok (Kernel.close k init rfd);
  check_err Errno.EPIPE (Kernel.write k init wfd "x")

let test_unix_socket () =
  let k, init = boot () in
  let lfd = ok (Kernel.socket_listen k init "/tmp/sock") in
  let st = ok (Kernel.stat k init "/tmp/sock") in
  check_b "socket file" true (st.Types.st_kind = Types.Sock);
  check_err Errno.EADDRINUSE (Kernel.socket_listen k init "/tmp/sock");
  let cfd = ok (Kernel.socket_connect k init "/tmp/sock") in
  let sfd = ok (Kernel.socket_accept k init lfd) in
  ignore (ok (Kernel.write k init cfd "ping"));
  check_s "server receives" "ping" (ok (Kernel.read k init sfd ~len:10));
  ignore (ok (Kernel.write k init sfd "pong"));
  check_s "client receives" "pong" (ok (Kernel.read k init cfd ~len:10));
  ok (Kernel.close k init cfd);
  check_s "eof after close" "" (ok (Kernel.read k init sfd ~len:10))

let test_socket_connect_refused () =
  let k, init = boot () in
  write_file k init "/tmp/notsock" "x";
  check_err Errno.ECONNREFUSED (Kernel.socket_connect k init "/tmp/notsock");
  check_err Errno.ENOENT (Kernel.socket_connect k init "/tmp/missing")

let test_splice_pipe_to_socket () =
  let k, init = boot () in
  let lfd = ok (Kernel.socket_listen k init "/tmp/s") in
  let cfd = ok (Kernel.socket_connect k init "/tmp/s") in
  let sfd = ok (Kernel.socket_accept k init lfd) in
  let rfd, wfd = Kernel.pipe k init in
  ignore (ok (Kernel.write k init wfd "spliced-data"));
  let n = ok (Kernel.splice k init ~fd_in:rfd ~fd_out:cfd ~len:1024) in
  check_i "moved" 12 n;
  check_s "arrived" "spliced-data" (ok (Kernel.read k init sfd ~len:100))

let test_epoll () =
  let k, init = boot () in
  let rfd, wfd = Kernel.pipe k init in
  let epfd = Kernel.epoll_create k init in
  ok (Kernel.epoll_add k init ~epfd ~fd:rfd ~interest:{ Epoll.want_in = true; want_out = false });
  check_i "not ready" 0 (List.length (ok (Kernel.epoll_wait k init epfd)));
  ignore (ok (Kernel.write k init wfd "x"));
  let evs = ok (Kernel.epoll_wait k init epfd) in
  check_i "ready" 1 (List.length evs);
  check_i "right fd" rfd (List.hd evs).Epoll.ev_fd;
  ignore (ok (Kernel.read k init rfd ~len:10));
  check_i "drained" 0 (List.length (ok (Kernel.epoll_wait k init epfd)))

let test_epoll_edge_rearm () =
  let k, init = boot () in
  let rfd, wfd = Kernel.pipe k init in
  let epfd = Kernel.epoll_create k init in
  ok (Kernel.epoll_add k init ~epfd ~fd:rfd ~interest:{ Epoll.want_in = true; want_out = false });
  ignore (ok (Kernel.write k init wfd "ab"));
  check_i "edge reported once" 1 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  (* still ready, but no new edge: not reported again *)
  check_i "no repeat while level-high" 0 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  (* a partial drain leaves the fd readable — still no edge... *)
  check_s "partial drain" "a" (ok (Kernel.read k init rfd ~len:1));
  check_i "partial drain is not an edge" 0 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  (* ...unless the waiter re-arms (EPOLL_CTL_MOD idiom) *)
  ok (Kernel.epoll_rearm k init ~epfd ~fd:rfd);
  check_i "rearm re-reports pending data" 1 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  (* a full drain followed by a refill is a genuine new edge *)
  check_s "full drain" "b" (ok (Kernel.read k init rfd ~len:4));
  check_i "empty" 0 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  ignore (ok (Kernel.write k init wfd "c"));
  check_i "refill is a new edge" 1 (List.length (ok (Kernel.epoll_wait_edge k init epfd)))

let test_epoll_closed_fds () =
  let k, init = boot () in
  let rfd, wfd = Kernel.pipe k init in
  let epfd = Kernel.epoll_create k init in
  ok (Kernel.epoll_add k init ~epfd ~fd:rfd ~interest:{ Epoll.want_in = true; want_out = false });
  ignore (ok (Kernel.write k init wfd "x"));
  (* closing a watched fd silently drops it from the interest set *)
  ok (Kernel.close k init rfd);
  check_i "closed fd not reported" 0 (List.length (ok (Kernel.epoll_wait k init epfd)));
  check_i "nor as an edge" 0 (List.length (ok (Kernel.epoll_wait_edge k init epfd)));
  (* waiting on a closed epoll fd is an error, not a hang *)
  ok (Kernel.close k init epfd);
  check_err Errno.EBADF (Kernel.epoll_wait k init epfd);
  check_err Errno.EBADF (Kernel.epoll_wait_edge k init epfd)

let test_accept_backlog_exhaustion () =
  let k, init = boot () in
  let lfd = ok (Kernel.socket_listen ~backlog:1 k init "/tmp/busy.sock") in
  let cfd1 = ok (Kernel.socket_connect k init "/tmp/busy.sock") in
  (* the queue of not-yet-accepted connections is full *)
  check_err Errno.ECONNREFUSED (Kernel.socket_connect k init "/tmp/busy.sock");
  (* accepting frees a backlog slot *)
  let _sfd1 = ok (Kernel.socket_accept k init lfd) in
  let cfd2 = ok (Kernel.socket_connect k init "/tmp/busy.sock") in
  let sfd2 = ok (Kernel.socket_accept k init lfd) in
  ignore (ok (Kernel.write k init cfd2 "ok"));
  check_s "post-backlog connection works" "ok" (ok (Kernel.read k init sfd2 ~len:8));
  ok (Kernel.close k init cfd1)

let test_write_peer_closed_socket () =
  let k, init = boot () in
  let lfd = ok (Kernel.socket_listen k init "/tmp/peer.sock") in
  let cfd = ok (Kernel.socket_connect k init "/tmp/peer.sock") in
  let sfd = ok (Kernel.socket_accept k init lfd) in
  ok (Kernel.close k init sfd);
  check_err Errno.EPIPE (Kernel.write k init cfd "too late");
  (* half-close is gentler: reads still drain, but writes are refused *)
  let cfd2 = ok (Kernel.socket_connect k init "/tmp/peer.sock") in
  let sfd2 = ok (Kernel.socket_accept k init lfd) in
  ignore (ok (Kernel.write k init sfd2 "parting"));
  ok (Kernel.shutdown_write k init cfd2);
  check_err Errno.EPIPE (Kernel.write k init cfd2 "no more");
  check_s "inbound still drains" "parting" (ok (Kernel.read k init cfd2 ~len:16));
  check_s "then EOF" "" (ok (Kernel.read k init sfd2 ~len:16))

(* --- exec ------------------------------------------------------------------ *)

let test_exec () =
  let k, init = boot () in
  Kernel.register_program k "hello" (fun _k _p args ->
      match args with _ :: rest -> List.length rest | [] -> 99);
  write_file k init "/usr/bin/hello" (Binfmt.make ~prog:"hello" ());
  check_i "exit code" 2 (ok (Kernel.exec k init "/usr/bin/hello" [ "hello"; "a"; "b" ]));
  (* non-executable file *)
  ok (Kernel.chmod k init "/usr/bin/hello" 0o644);
  let unpriv = Kernel.fork k init in
  unpriv.Proc.cred.Proc.uid <- 1000;
  unpriv.Proc.cred.Proc.caps <- Caps.Set.empty;
  check_err Errno.EACCES (Kernel.exec k unpriv "/usr/bin/hello" [ "hello" ])

let test_exec_script () =
  let k, init = boot () in
  let log = ref [] in
  Kernel.register_program k "sh" (fun _k _p args ->
      log := args;
      0);
  write_file k init "/usr/bin/sh" (Binfmt.make ~prog:"sh" ());
  write_file k init "/tmp/script" "#!/usr/bin/sh\necho hi\n";
  check_i "script runs" 0 (ok (Kernel.exec k init "/tmp/script" [ "script" ]));
  check_b "interpreter got script path" true (List.mem "/tmp/script" !log)

let test_exec_unknown () =
  let k, init = boot () in
  write_file k init "/tmp/junk" "not a binary";
  check_err Errno.ENOSYS (Kernel.exec k init "/tmp/junk" [ "junk" ])

(* --- whole-file reads -------------------------------------------------------

   [read_whole] reads in 256 KiB chunks: open, one read per chunk, the
   empty read at end of file, close, each one syscall.  [exec] adds its
   own entry and access check and then reads the whole binary the same
   way, keeping only the header line. *)

let syscalls k =
  Repro_obs.Metrics.counter_value (Repro_obs.Obs.metrics k.Kernel.obs) "os.syscall.count"

let test_read_whole_counts () =
  let k, init = boot () in
  List.iter
    (fun (path, size, calls) ->
      let content = String.init size (fun i -> Char.chr (97 + (i mod 26))) in
      write_file k init path content;
      let before = syscalls k in
      let got = read_file k init path in
      check_i (path ^ ": syscalls") calls (syscalls k - before);
      check_i (path ^ ": length") size (String.length got);
      check_b (path ^ ": bytes") true (got = content))
    [ ("/tmp/empty", 0, 3); ("/tmp/one", 100_000, 4); ("/tmp/three", 600_000, 6) ]

let test_exec_reads_whole_binary () =
  let k, init = boot () in
  let ran = ref [] in
  Kernel.register_program k "big" (fun _k p _args ->
      ran := p.Proc.comm :: !ran;
      0);
  Kernel.register_program k "sh" (fun _k _p args ->
      ran := String.concat " " args :: !ran;
      3);
  write_file k init "/usr/bin/big" (Binfmt.make ~prog:"big" ~size:(300 * 1024) ());
  write_file k init "/usr/bin/sh" (Binfmt.make ~prog:"sh" ());
  let before = syscalls k in
  check_i "exit code" 0 (ok (Kernel.exec k init "/usr/bin/big" [ "big" ]));
  (* exec, access, open, 2 chunks + EOF, close *)
  check_i "syscalls of a 300 KiB binary" 7 (syscalls k - before);
  (* a script whose first line spans two chunks *)
  write_file k init "/tmp/long" ("#!/usr/bin/sh" ^ String.make (300 * 1024) ' ' ^ "\necho\n");
  let before = syscalls k in
  check_i "script exit code" 3 (ok (Kernel.exec k init "/tmp/long" [ "long" ]));
  (* the script's exec, access, open, 2 chunks + EOF, close; then the
     same for the 9-byte interpreter, one chunk *)
  check_i "syscalls of a long-header script" 13 (syscalls k - before);
  Alcotest.(check (list string)) "programs ran" [ "/usr/bin/sh /tmp/long"; "big" ] !ran

(* A read that fails part-way still closes the file: a fault hook failing
   the second read leaves the caller's fd table as it was, for a plain
   whole-file read and for exec's. *)
let test_read_whole_closes_on_error () =
  let k, init = boot () in
  write_file k init "/tmp/big" (String.make 600_000 'x');
  write_file k init "/usr/bin/big" (Binfmt.make ~prog:"big" ~size:(300 * 1024) ());
  Kernel.register_program k "big" (fun _ _ _ -> 0);
  let fds () = Hashtbl.length init.Proc.fds in
  let with_second_read_failing f =
    let reads = ref 0 in
    let hook ~op _proc =
      if op = "read" then begin
        incr reads;
        if !reads = 2 then Some Errno.EIO else None
      end
      else None
    in
    Kernel.add_fault k hook;
    let before = fds () in
    let r = f () in
    Kernel.remove_fault k hook;
    check_i "fd count unchanged" before (fds ());
    r
  in
  check_err Errno.EIO (with_second_read_failing (fun () -> Kernel.read_whole k init "/tmp/big"));
  check_err Errno.EIO
    (with_second_read_failing (fun () -> Kernel.exec k init "/usr/bin/big" [ "big" ]))

(* --- cgroups, rlimits, hostname -------------------------------------------- *)

let test_cgroups () =
  let k, init = boot () in
  let child = Kernel.fork k init in
  Kernel.cgroup_attach k child ~cgroup:"/docker/abc";
  check_b "in cgroup" true (List.mem child.Proc.pid (Kernel.cgroup_procs k "/docker/abc"));
  check_b "left root" false (List.mem child.Proc.pid (Kernel.cgroup_procs k "/"));
  let cg = read_file k init (Printf.sprintf "/proc/%d/cgroup" child.Proc.pid) in
  check_s "procfs cgroup" "0::/docker/abc\n" cg;
  Kernel.exit k child 0;
  check_b "gone after exit" false (List.mem child.Proc.pid (Kernel.cgroup_procs k "/docker/abc"))

let test_rlimit_fsize_via_kernel () =
  let k, init = boot () in
  let child = Kernel.fork k init in
  child.Proc.cred.Proc.uid <- 1000;
  child.Proc.cred.Proc.caps <- Caps.Set.empty;
  Kernel.set_rlimit_fsize k child (Some 4);
  write_file k init "/tmp/f" "";
  ok (Kernel.chmod k init "/tmp/f" 0o666);
  let fd = ok (Kernel.open_ k child "/tmp/f" [ Types.O_WRONLY ] ~mode:0) in
  check_err Errno.EFBIG (Kernel.write k child fd "12345678");
  ok (Kernel.close k child fd)

let test_hostname_per_uts () =
  let k, init = boot () in
  check_s "default" "host" (Kernel.gethostname k init);
  let child = Kernel.fork k init in
  ok (Kernel.unshare k child [ Namespace.Uts ]);
  ok (Kernel.sethostname k child "inner");
  check_s "child" "inner" (Kernel.gethostname k child);
  check_s "host unchanged" "host" (Kernel.gethostname k init);
  (* the namespace is shared, not copied: a member that joined by setns
     and one forked from the child both see a later rename *)
  let joiner = Kernel.fork k init in
  ok (Kernel.setns k joiner ~target_pid:child.Proc.pid [ Namespace.Uts ]);
  let grandchild = Kernel.fork k child in
  ok (Kernel.sethostname k child "renamed");
  check_s "setns member sees the rename" "renamed" (Kernel.gethostname k joiner);
  check_s "forked member sees the rename" "renamed" (Kernel.gethostname k grandchild);
  check_s "host still unchanged" "host" (Kernel.gethostname k init)

let test_exit_closes_fds () =
  let k, init = boot () in
  let child = Kernel.fork k init in
  let rfd, wfd = Kernel.pipe k child in
  ignore (rfd);
  ignore (ok (Kernel.write k child wfd "x"));
  Kernel.exit k child 7;
  check_b "dead" false (Proc.alive child);
  check_b "exit code" true (child.Proc.exit_code = Some 7);
  check_err Errno.ESRCH (Kernel.proc_by_pid k child.Proc.pid)

let () =
  Alcotest.run "os"
    [
      ( "file-io",
        [
          Alcotest.test_case "open/write/read" `Quick test_open_write_read;
          Alcotest.test_case "offsets & lseek" `Quick test_offsets_and_lseek;
          Alcotest.test_case "append" `Quick test_append_mode;
          Alcotest.test_case "O_EXCL/O_TRUNC" `Quick test_o_excl_and_trunc;
          Alcotest.test_case "fork shares offset" `Quick test_fork_shares_offset;
          Alcotest.test_case "umask" `Quick test_umask;
        ] );
      ( "walking",
        [
          Alcotest.test_case "symlinks" `Quick test_symlink_walk;
          Alcotest.test_case "symlink loop" `Quick test_symlink_loop;
          Alcotest.test_case "dotdot" `Quick test_dotdot_walk;
        ] );
      ( "mounts",
        [
          Alcotest.test_case "mount & cross" `Quick test_mount_and_cross;
          Alcotest.test_case "bind mount" `Quick test_bind_mount;
          Alcotest.test_case "umount" `Quick test_umount;
          Alcotest.test_case "chroot confinement" `Quick test_chroot_confinement;
          Alcotest.test_case "mount ns isolation" `Quick test_mount_ns_isolation;
          Alcotest.test_case "unshare keeps the cwd's mount" `Quick test_unshare_keeps_cwd_mount;
          Alcotest.test_case "shared propagation" `Quick test_shared_propagation;
          Alcotest.test_case "propagation into a clone's clone" `Quick
            test_propagation_clone_of_clone;
          Alcotest.test_case "rprivate stops inward propagation" `Quick
            test_rprivate_stops_inward_propagation;
          Alcotest.test_case "propagation skips a namespace with no live process" `Quick
            test_propagation_skips_dead_namespace;
          QCheck_alcotest.to_alcotest qcheck_mount_index;
        ] );
      ( "namespaces",
        [
          Alcotest.test_case "setns" `Quick test_setns;
          Alcotest.test_case "setns requires admin" `Quick test_setns_requires_admin;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "status & environ" `Quick test_procfs_status_env;
          Alcotest.test_case "ns ids" `Quick test_procfs_ns_ids;
          Alcotest.test_case "pidns scoping" `Quick test_procfs_pidns_scoping;
          Alcotest.test_case "readonly" `Quick test_procfs_readonly;
        ] );
      ( "devices",
        [ Alcotest.test_case "zero/null" `Quick test_devices ] );
      ( "ipc",
        [
          Alcotest.test_case "pipe" `Quick test_pipe;
          Alcotest.test_case "pipe EPIPE" `Quick test_pipe_epipe;
          Alcotest.test_case "unix socket" `Quick test_unix_socket;
          Alcotest.test_case "connect refused" `Quick test_socket_connect_refused;
          Alcotest.test_case "splice" `Quick test_splice_pipe_to_socket;
          Alcotest.test_case "epoll" `Quick test_epoll;
          Alcotest.test_case "epoll edge rearm" `Quick test_epoll_edge_rearm;
          Alcotest.test_case "epoll closed fds" `Quick test_epoll_closed_fds;
          Alcotest.test_case "accept backlog exhaustion" `Quick test_accept_backlog_exhaustion;
          Alcotest.test_case "write to peer-closed socket" `Quick test_write_peer_closed_socket;
        ] );
      ( "exec",
        [
          Alcotest.test_case "binary" `Quick test_exec;
          Alcotest.test_case "script" `Quick test_exec_script;
          Alcotest.test_case "unknown format" `Quick test_exec_unknown;
          Alcotest.test_case "reads the whole binary" `Quick test_exec_reads_whole_binary;
        ] );
      ( "read-whole",
        [
          Alcotest.test_case "syscalls and bytes" `Quick test_read_whole_counts;
          Alcotest.test_case "a failed read closes the file" `Quick
            test_read_whole_closes_on_error;
        ] );
      ( "misc",
        [
          Alcotest.test_case "cgroups" `Quick test_cgroups;
          Alcotest.test_case "rlimit fsize" `Quick test_rlimit_fsize_via_kernel;
          Alcotest.test_case "hostname per uts" `Quick test_hostname_per_uts;
          Alcotest.test_case "exit closes fds" `Quick test_exit_closes_fds;
        ] );
    ]
