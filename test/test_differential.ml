(* Differential testing: the same randomly-generated syscall trace is
   executed twice — once against a directory served through the full
   CntrFS stack, once against a plain native directory — and every
   result (data, sizes, errnos, directory listings) must be observationally
   identical.  This is the strongest correctness statement about the FUSE
   driver's caches and the passthrough server: POSIX behavior is preserved
   modulo the four documented deviations (which the generator avoids:
   no O_DIRECT, no rlimits, no ACL-setgid interplay, no handles). *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs

let ok = Errno.ok_exn

(* [kept]: per file slot, the fd [Op_kwrite] opened and keeps open *)
type sys = { k : Kernel.t; proc : Proc.t; base : string; kept : (int, int) Hashtbl.t }

let sys k proc base = { k; proc; base; kept = Hashtbl.create 8 }

(* [budget] is the FUSE page cache's memory budget in bytes; the default
   holds every trace's files, so nothing is ever evicted. *)
let boot_pair_full ?(threads = 4) ?(budget = 32 * 1024 * 1024) ~opts () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o777)) [ "/back"; "/native" ];
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  let server = Kernel.fork k init in
  let budget = Mem_budget.create ~limit_bytes:budget in
  let session =
    Session.create ~kernel:k ~conn:(Conn.create ~obs:k.Kernel.obs ~clock ()) ~server_proc:server
      ~root_path:"/back" ~opts ~threads ~budget ()
  in
  ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/mnt"));
  (sys k init "/mnt", sys k init "/native", session)

let boot_pair ?threads ?budget ~opts () =
  let fuse_sys, native_sys, _session = boot_pair_full ?threads ?budget ~opts () in
  (fuse_sys, native_sys)

(* --- the operation language --------------------------------------------------- *)

type op =
  | Op_write of int * int * int (* file slot, offset, length *)
  | Op_append of int * int
  | Op_read of int * int * int
  | Op_read_whole of int
  | Op_truncate of int * int
  | Op_unlink of int
  | Op_mkdir of int
  | Op_rmdir of int
  | Op_rename of int * int
  | Op_link of int * int
  | Op_symlink of int * int
  | Op_stat of int
  | Op_readdir
  | Op_fsync of int
  | Op_chmod of int * int
  | Op_xattr_set of int * int
  | Op_xattr_get of int
  | Op_kwrite of int * int * int (* like Op_write, through the slot's kept fd *)
  | Op_kclose of int (* close the slot's kept fd *)

(* 64 KiB: the file-data store's chunk, and the size of Dbench's reads *)
let chunk = 65536

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun a b c -> Op_write (a, b, c)) (int_range 0 7) (int_range 0 20000) (int_range 1 3000));
        (* writes ending just past a chunk boundary *)
        ( 1,
          map3
            (fun a k (len, past) -> Op_write (a, (k * chunk) + past - len, len))
            (int_range 0 7) (int_range 1 3)
            (pair (int_range 1 3000) (int_range 1 100)) );
        (* ~64 KiB writes, chunk-aligned or anywhere *)
        ( 1,
          map3
            (fun a off len -> Op_write (a, off, len))
            (int_range 0 7)
            (oneof [ map (fun k -> k * chunk) (int_range 0 3); int_range 0 200_000 ])
            (int_range 60_000 70_000) );
        (3, map2 (fun a b -> Op_append (a, b)) (int_range 0 7) (int_range 1 500));
        (5, map3 (fun a b c -> Op_read (a, b, c)) (int_range 0 7) (int_range 0 25000) (int_range 1 4000));
        (* chunk-aligned whole-chunk reads *)
        (2, map2 (fun a k -> Op_read (a, k * chunk, chunk)) (int_range 0 7) (int_range 0 3));
        (3, map (fun a -> Op_read_whole a) (int_range 0 7));
        (2, map2 (fun a b -> Op_truncate (a, b)) (int_range 0 7) (int_range 0 15000));
        (2, map (fun a -> Op_unlink a) (int_range 0 7));
        (1, map (fun a -> Op_mkdir a) (int_range 0 3));
        (1, map (fun a -> Op_rmdir a) (int_range 0 3));
        (2, map2 (fun a b -> Op_rename (a, b)) (int_range 0 7) (int_range 0 7));
        (1, map2 (fun a b -> Op_link (a, b)) (int_range 0 7) (int_range 0 7));
        (1, map2 (fun a b -> Op_symlink (a, b)) (int_range 0 7) (int_range 0 7));
        (3, map (fun a -> Op_stat a) (int_range 0 7));
        (1, return Op_readdir);
        (1, map (fun a -> Op_fsync a) (int_range 0 7));
        (1, map2 (fun a b -> Op_chmod (a, b)) (int_range 0 7) (oneofl [ 0o600; 0o644; 0o755 ]));
        (1, map2 (fun a b -> Op_xattr_set (a, b)) (int_range 0 7) (int_range 0 3));
        (1, map (fun a -> Op_xattr_get a) (int_range 0 7));
      ])

(* [gen_op] plus writes through a read-write fd kept open across later
   ops, so dirty pages outlive the write into reads, evictions, unlinks
   and renames.  The fault-injected leg leaves these out: a file
   unlinked while open does not survive a server restart. *)
let gen_op_kept =
  QCheck.Gen.(
    frequency
      [
        (16, gen_op);
        (2, map3 (fun a b c -> Op_kwrite (a, b, c)) (int_range 0 7) (int_range 0 140_000) (int_range 1 5000));
        (1, map (fun a -> Op_kclose a) (int_range 0 7));
      ])

let fname slot = Printf.sprintf "f%d" slot
let dname slot = Printf.sprintf "d%d" slot

(* Every write's bytes are a prefix of this: printable, period 90. *)
let payload_source = String.init 131_072 (fun i -> Char.chr (33 + ((i * 7) mod 90)))

(* Execute one op; the observation is a string capturing everything
   user-visible about the outcome. *)
let execute sys op =
  let k = sys.k and p = sys.proc in
  let path rel = sys.base ^ "/" ^ rel in
  let obs_of_result pp = function
    | Ok v -> "ok:" ^ pp v
    | Error e -> "err:" ^ Errno.to_string e
  in
  let unit_obs = obs_of_result (fun () -> "()") in
  let payload n = String.sub payload_source 0 n in
  match op with
  | Op_write (slot, off, len) ->
      let r =
        match Kernel.open_ k p (path (fname slot)) [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644 with
        | Error e -> Error e
        | Ok fd ->
            let r = Kernel.pwrite k p fd ~off (payload len) in
            ignore (Kernel.close k p fd);
            r
      in
      obs_of_result string_of_int r
  | Op_append (slot, len) ->
      let r =
        match Kernel.open_ k p (path (fname slot)) [ Types.O_CREAT; Types.O_WRONLY; Types.O_APPEND ] ~mode:0o644 with
        | Error e -> Error e
        | Ok fd ->
            let r = Kernel.write k p fd (payload len) in
            ignore (Kernel.close k p fd);
            r
      in
      obs_of_result string_of_int r
  | Op_read (slot, off, len) ->
      let r =
        match Kernel.open_ k p (path (fname slot)) [ Types.O_RDONLY ] ~mode:0 with
        | Error e -> Error e
        | Ok fd ->
            let r = Kernel.pread k p fd ~off ~len in
            ignore (Kernel.close k p fd);
            r
      in
      obs_of_result (fun s -> string_of_int (Hashtbl.hash s)) r
  | Op_read_whole slot ->
      obs_of_result (fun s -> string_of_int (Hashtbl.hash s)) (Kernel.read_whole k p (path (fname slot)))
  | Op_truncate (slot, size) -> unit_obs (Kernel.truncate k p (path (fname slot)) size)
  | Op_unlink slot -> unit_obs (Kernel.unlink k p (path (fname slot)))
  | Op_mkdir slot -> unit_obs (Kernel.mkdir k p (path (dname slot)) ~mode:0o755)
  | Op_rmdir slot -> unit_obs (Kernel.rmdir k p (path (dname slot)))
  | Op_rename (a, b) -> unit_obs (Kernel.rename k p ~src:(path (fname a)) ~dst:(path (fname b)))
  | Op_link (a, b) -> unit_obs (Kernel.link k p ~target:(path (fname a)) ~linkpath:(path (fname b)))
  | Op_symlink (a, b) ->
      unit_obs (Kernel.symlink k p ~target:(fname a) ~linkpath:(path (fname b)))
  | Op_stat slot ->
      obs_of_result
        (fun st ->
          Printf.sprintf "%s:%d:%d:%o" (Types.kind_to_string st.Types.st_kind) st.Types.st_size
            st.Types.st_nlink st.Types.st_mode)
        (Kernel.stat k p (path (fname slot)))
  | Op_readdir ->
      obs_of_result
        (fun entries ->
          entries
          |> List.map (fun e -> e.Types.d_name ^ "/" ^ Types.kind_to_string e.Types.d_kind)
          |> List.sort compare |> String.concat ",")
        (Kernel.readdir k p sys.base)
  | Op_fsync slot ->
      let r =
        match Kernel.open_ k p (path (fname slot)) [ Types.O_WRONLY ] ~mode:0 with
        | Error e -> Error e
        | Ok fd ->
            let r = Kernel.fsync k p fd in
            ignore (Kernel.close k p fd);
            r
      in
      unit_obs r
  | Op_chmod (slot, mode) -> unit_obs (Kernel.chmod k p (path (fname slot)) mode)
  | Op_xattr_set (slot, key) ->
      unit_obs (Kernel.setxattr k p (path (fname slot)) (Printf.sprintf "user.k%d" key) "v")
  | Op_xattr_get (slot) ->
      obs_of_result Fun.id (Kernel.getxattr k p (path (fname slot)) "user.k0")
  | Op_kwrite (slot, off, len) ->
      let fd =
        match Hashtbl.find_opt sys.kept slot with
        | Some fd -> Ok fd
        | None ->
            Result.map
              (fun fd ->
                Hashtbl.replace sys.kept slot fd;
                fd)
              (Kernel.open_ k p (path (fname slot)) [ Types.O_CREAT; Types.O_RDWR ] ~mode:0o644)
      in
      obs_of_result string_of_int (Result.bind fd (fun fd -> Kernel.pwrite k p fd ~off (payload len)))
  | Op_kclose slot -> (
      match Hashtbl.find_opt sys.kept slot with
      | None -> "no-fd"
      | Some fd ->
          Hashtbl.remove sys.kept slot;
          unit_obs (Kernel.close k p fd))

(* Close every kept fd, as the trace's last op. *)
let close_kept sys =
  Hashtbl.iter (fun _ fd -> ignore (Kernel.close sys.k sys.proc fd)) sys.kept;
  Hashtbl.reset sys.kept

(* Final deep comparison: every file's full content and the listing. *)
let fingerprint sys =
  let k = sys.k and p = sys.proc in
  let buf = Buffer.create 256 in
  (* the base directory's own attributes: size tracks the entry count and
     nlink the subdirectory count, so this catches a drifting post-op
     parent-attribute update (Driver.touch_parent_attr) red-handed *)
  (match Kernel.stat k p sys.base with
  | Ok st -> Buffer.add_string buf (Printf.sprintf "[dir:%d,%d]" st.Types.st_size st.Types.st_nlink)
  | Error e -> Buffer.add_string buf ("[dir:" ^ Errno.to_string e ^ "]"));
  (match Kernel.readdir k p sys.base with
  | Error e -> Buffer.add_string buf ("readdir-err:" ^ Errno.to_string e)
  | Ok entries ->
      entries
      |> List.map (fun e -> e.Types.d_name)
      |> List.sort compare
      |> List.iter (fun name ->
             if name <> "." && name <> ".." then begin
               Buffer.add_string buf name;
               (match Kernel.lstat k p (sys.base ^ "/" ^ name) with
               | Ok st ->
                   Buffer.add_string buf
                     (Printf.sprintf "<%s,%d,%d>" (Types.kind_to_string st.Types.st_kind)
                        st.Types.st_size st.Types.st_nlink)
               | Error e -> Buffer.add_string buf ("<" ^ Errno.to_string e ^ ">"));
               match Kernel.read_whole k p (sys.base ^ "/" ^ name) with
               | Ok data -> Buffer.add_string buf (string_of_int (Hashtbl.hash data))
               | Error e -> Buffer.add_string buf (Errno.to_string e)
             end));
  Buffer.contents buf

let run_trace ?threads ?budget ~opts ops =
  let fuse_sys, native_sys = boot_pair ?threads ?budget ~opts () in
  let rec go i = function
    | [] -> None
    | op :: rest ->
        let a = execute fuse_sys op in
        let b = execute native_sys op in
        if a <> b then Some (Printf.sprintf "op %d diverged: cntrfs=%s native=%s" i a b)
        else go (i + 1) rest
  in
  match go 0 ops with
  | Some msg -> Some msg
  | None ->
      close_kept fuse_sys;
      close_kept native_sys;
      let fa = fingerprint fuse_sys and fb = fingerprint native_sys in
      if fa <> fb then Some (Printf.sprintf "final state diverged:\n  cntrfs=%s\n  native=%s" fa fb)
      else None

(* The fault-injected leg: run the first half of the trace on both systems,
   murder the CntrFS server mid-session, observe bounded ENOTCONN failures
   on throwaway idempotent reads, recover, and demand the second half (and
   the final fingerprints) re-converge with the native leg.  A server crash
   plus recovery must be observationally invisible to everything that comes
   after it. *)
let run_trace_faulted ?threads ~opts ops =
  let fuse_sys, native_sys, session = boot_pair_full ?threads ~opts () in
  let n = List.length ops in
  let rec split i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | op :: rest -> split (i - 1) (op :: acc) rest
  in
  let first, second = split (n / 2) [] ops in
  let rec go i = function
    | [] -> None
    | op :: rest ->
        let a = execute fuse_sys op in
        let b = execute native_sys op in
        if a <> b then Some (Printf.sprintf "op %d diverged: cntrfs=%s native=%s" i a b)
        else go (i + 1) rest
  in
  match go 0 first with
  | Some msg -> Some msg
  | None -> (
      (* the server dies; idempotent probes fail with ENOTCONN, fast *)
      Conn.inject_crash session.Session.conn;
      let probes =
        [ Op_stat 0; Op_read_whole 1; Op_readdir ]
        |> List.filter_map (fun op ->
               let obs = execute fuse_sys op in
               (* every probe must resolve (no hang); cached answers may
                  still succeed, uncached ones must say ENOTCONN *)
               if String.length obs = 0 then Some "empty observation" else None)
      in
      match probes with
      | msg :: _ -> Some msg
      | [] -> (
          Session.recover session;
          match go (n / 2) second with
          | Some msg -> Some ("after recovery: " ^ msg)
          | None ->
              let fa = fingerprint fuse_sys and fb = fingerprint native_sys in
              if fa <> fb then
                Some
                  (Printf.sprintf "post-recovery state diverged:\n  cntrfs=%s\n  native=%s" fa fb)
              else None))

let pp_op = function
  | Op_write (a, b, c) -> Printf.sprintf "write f%d off=%d len=%d" a b c
  | Op_append (a, b) -> Printf.sprintf "append f%d len=%d" a b
  | Op_read (a, b, c) -> Printf.sprintf "read f%d off=%d len=%d" a b c
  | Op_read_whole a -> Printf.sprintf "read_whole f%d" a
  | Op_truncate (a, b) -> Printf.sprintf "truncate f%d %d" a b
  | Op_unlink a -> Printf.sprintf "unlink f%d" a
  | Op_mkdir a -> Printf.sprintf "mkdir d%d" a
  | Op_rmdir a -> Printf.sprintf "rmdir d%d" a
  | Op_rename (a, b) -> Printf.sprintf "rename f%d f%d" a b
  | Op_link (a, b) -> Printf.sprintf "link f%d f%d" a b
  | Op_symlink (a, b) -> Printf.sprintf "symlink f%d f%d" a b
  | Op_stat a -> Printf.sprintf "stat f%d" a
  | Op_kwrite (a, b, c) -> Printf.sprintf "kwrite f%d off=%d len=%d" a b c
  | Op_kclose a -> Printf.sprintf "kclose f%d" a
  | Op_readdir -> "readdir"
  | Op_fsync a -> Printf.sprintf "fsync f%d" a
  | Op_chmod (a, b) -> Printf.sprintf "chmod f%d %o" a b
  | Op_xattr_set (a, b) -> Printf.sprintf "xattr_set f%d k%d" a b
  | Op_xattr_get a -> Printf.sprintf "xattr_get f%d" a

(* Four page-cache data-loss bugs under eviction, each replayed at the
   budget that exposes it. *)
let eviction_regressions =
  [
    ( "readahead evicts the page being read",
      64,
      { Opts.cntr_default with Opts.writeback = false },
      [ Op_write (0, 0, 131072); Op_read (0, 4096, 4096) ] );
    ( "write evicts its own boundary page",
      128,
      Opts.cntr_default,
      [ Op_write (0, 65536, 66606); Op_write (0, 0, 68563) ] );
    ( "extending write evicts its own first page",
      64,
      Opts.cntr_default,
      [ Op_write (6, 65536, 67638) ] );
    (* f0's dirty page 1 is the least recently used page when a read of
       page 0 fetches both: installing page 0 evicts it *)
    ( "readahead evicts a dirty page it covers",
      64,
      Opts.cntr_default,
      [
        Op_write (1, 0, 61440);
        Op_kwrite (0, 4096, 4096);
        Op_read (1, 0, 61440);
        Op_read (0, 0, 4096);
        Op_read (0, 4096, 4096);
      ] );
  ]

let test_eviction_regression (kib, opts, ops) () =
  match run_trace ~budget:(kib * 1024) ~opts ops with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let prop_differential_faulted ?(count = 60) ?threads ~name ~opts () =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(fun ops ->
         Printf.sprintf "<%d ops>\n%s" (List.length ops)
           (String.concat "\n" (List.mapi (Printf.sprintf "  %d: %s") (List.map pp_op ops))))
       QCheck.Gen.(list_size (int_range 10 80) gen_op))
    (fun ops ->
      match run_trace_faulted ?threads ~opts ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_differential ?(count = 60) ?threads ?budget ~name ~opts () =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(fun ops ->
         Printf.sprintf "<%d ops>\n%s" (List.length ops)
           (String.concat "\n" (List.mapi (Printf.sprintf "  %d: %s") (List.map pp_op ops))))
       QCheck.Gen.(list_size (int_range 10 80) gen_op_kept))
    (fun ops ->
      match run_trace ?threads ?budget ~opts ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)


(* search mode: DIFF_SEARCH=1 dune exec test/test_differential.exe *)
let search () =
  let rand = Random.State.make [| 42 |] in
  let found = ref false in
  let len = ref 3 in
  while not !found && !len <= 60 do
    for _attempt = 0 to 1500 do
      if not !found then begin
        let ops = QCheck.Gen.generate1 ~rand QCheck.Gen.(list_size (return !len) gen_op) in
        match run_trace ~opts:Opts.cntr_default ops with
        | Some msg ->
            found := true;
            Printf.printf "MINIMAL TRACE (%d ops): %s\n" !len msg;
            List.iteri (fun i op -> Printf.printf "  %d: %s\n" i (pp_op op)) ops;
            (* replay and dump the first byte-level difference per file *)
            let fuse_sys, native_sys = boot_pair ~opts:Opts.cntr_default () in
            List.iter (fun op -> ignore (execute fuse_sys op); ignore (execute native_sys op)) ops;
            (* replay with a request logger *)
            (let clock = Clock.create () in
             let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
             let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
             let init = Kernel.init_proc k in
             List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o777)) [ "/back" ];
             ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
             let server = Kernel.fork k init in
             let budget = Mem_budget.create ~limit_bytes:(32 * 1024 * 1024) in
             let session =
               Session.create ~kernel:k ~conn:(Conn.create ~obs:k.Kernel.obs ~clock ())
                 ~server_proc:server ~root_path:"/back" ~opts:Opts.cntr_default ~budget ()
             in
             let real = Server.handle session.Session.server in
             Conn.set_handler session.Session.conn (fun ctx req ->
                 (match req with
                 | Protocol.Write { fh; off; data } ->
                     Printf.printf "    WRITE fh=%d off=%d len=%d first=%C\n" fh off
                       (String.length data)
                       (if data = "" then '?' else data.[0])
                 | Protocol.Lookup { parent; name } ->
                     Printf.printf "    LOOKUP parent=%d %s\n" parent name
                 | Protocol.Create { parent; name; _ } ->
                     Printf.printf "    CREATE parent=%d %s\n" parent name
                 | Protocol.Open { ino; _ } -> Printf.printf "    OPEN ino=%d\n" ino
                 | Protocol.Read { fh; off; len } ->
                     Printf.printf "    READ fh=%d off=%d len=%d\n" fh off len
                 | _ -> ());
                 real ctx req);
             ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/mnt"));
             let sys = sys k init "/mnt" in
             List.iteri
               (fun i op ->
                 Printf.printf "  [op %d] %s\n" i (pp_op op);
                 ignore (execute sys op))
               ops;
             Printf.printf "  [fingerprint]\n";
             ignore (fingerprint sys));
            (* also dump the fuse system's BACKING view to localize the bug *)
            (for slot = 0 to 7 do
              let rd base = Kernel.read_whole fuse_sys.k fuse_sys.proc (base ^ "/" ^ fname slot) in
              match (rd "/mnt", rd "/back") with
              | Ok a, Ok b when a <> b ->
                  let n = min (String.length a) (String.length b) in
                  let i = ref 0 in
                  while !i < n && a.[!i] = b.[!i] do incr i done;
                  Printf.printf "  f%d mount-vs-backing differs: len %d vs %d at %d (mnt=%C back=%C)\n"
                    slot (String.length a) (String.length b) !i
                    (if !i < String.length a then a.[!i] else '?')
                    (if !i < String.length b then b.[!i] else '?')
              | _ -> ()
            done);
            for slot = 0 to 7 do
              let rd sys = Kernel.read_whole sys.k sys.proc (sys.base ^ "/" ^ fname slot) in
              match (rd fuse_sys, rd native_sys) with
              | Ok a, Ok b when a <> b ->
                  let n = min (String.length a) (String.length b) in
                  let i = ref 0 in
                  while !i < n && a.[!i] = b.[!i] do incr i done;
                  Printf.printf
                    "  f%d differs: len %d vs %d, first diff at %d (cntrfs=%C native=%C)\n"
                    slot (String.length a) (String.length b) !i
                    (if !i < String.length a then a.[!i] else '?')
                    (if !i < String.length b then b.[!i] else '?')
              | _ -> ()
            done
        | None -> ()
      end
    done;
    len := !len + 4
  done;
  if not !found then print_endline "no divergence found"

let () =
  if Sys.getenv_opt "DIFF_SEARCH" = Some "1" then begin
    search ();
    exit 0
  end

let () =
  Alcotest.run "differential"
    [
      ( "cntrfs-vs-native",
        [
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"default options" ~opts:Opts.cntr_default ());
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"unoptimized options" ~opts:Opts.unoptimized ());
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"no writeback"
               ~opts:{ Opts.cntr_default with Opts.writeback = false } ());
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"tiny request sizes"
               ~opts:{ Opts.cntr_default with Opts.max_read = 4096; max_write = 4096; read_batch = 1 } ());
          (* pin the worker pool explicitly: the same traces must stay
             observationally identical when four CntrFS worker fibers
             contend for the request queue (and when one serves alone) *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"scheduler at 4 server threads" ~threads:4
               ~opts:Opts.cntr_default ());
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"single server thread" ~threads:1 ~count:30
               ~opts:Opts.cntr_default ());
          (* passthrough with a 4-grant LRU: opens churn the grant table,
             so reads/writes keep flipping between the capability and the
             round-trip path; eviction-driven revocation must never leak a
             stale byte into either view *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"passthrough (tiny grant LRU)"
               ~opts:{ Opts.cntr_default with Opts.passthrough = 4 } ());
          (* a page cache smaller than the trace's files: installs, reads
             and writeback stores evict pages (their own included) while
             they run, so no byte may depend on a page staying cached *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"evicting page cache (512 KiB)"
               ~budget:(512 * 1024) ~opts:Opts.cntr_default ());
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"evicting page cache (256 KiB, no writeback)"
               ~budget:(256 * 1024)
               ~opts:{ Opts.cntr_default with Opts.writeback = false } ());
          (* small enough that a page dirtied through a kept fd is often
             the least recently used one when a read's readahead covers it *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~name:"evicting page cache (128 KiB)"
               ~budget:(128 * 1024) ~opts:Opts.cntr_default ());
        ] );
      ( "eviction-replays",
        List.map
          (fun (name, kib, opts, ops) ->
            Alcotest.test_case name `Quick (test_eviction_regression (kib, opts, ops)))
          eviction_regressions );
      ( "fault-injected",
        [
          (* crash + recovery mid-trace must be observationally invisible *)
          QCheck_alcotest.to_alcotest
            (prop_differential_faulted ~name:"crash + recover re-converges"
               ~opts:Opts.cntr_default ());
          QCheck_alcotest.to_alcotest
            (prop_differential_faulted ~name:"crash + recover (fastpath)" ~count:40
               ~opts:Opts.fastpath ());
          (* the ISSUE's acceptance leg: crash with passthrough grants live
             → driver-side revocation → recovery reopens without the
             capability → state re-converges with the native twin *)
          QCheck_alcotest.to_alcotest
            (prop_differential_faulted ~name:"crash + recover (passthrough)"
               ~opts:{ Opts.cntr_default with Opts.passthrough = 8 } ());
        ] );
      ( "metadata-fast-path",
        [
          (* the PR 2 coherence property: READDIRPLUS + TTL dentry/attr +
             negative dentries + the server handle cache must stay
             observationally equal to nativefs.  1-second TTLs never expire
             within a trace, so every answer the caches give is tested. *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~count:500 ~name:"fastpath (1s TTLs)" ~opts:Opts.fastpath ());
          (* tiny TTLs + a 4-slot handle cache: entries expire mid-trace
             (every op consumes virtual time) and the LRU churns, so the
             expiry and eviction paths are the ones under test *)
          QCheck_alcotest.to_alcotest
            (prop_differential ~count:200 ~name:"fastpath (aggressive expiry + tiny LRU)"
               ~opts:
                 {
                   Opts.fastpath with
                   Opts.entry_timeout_ns = 50_000;
                   attr_timeout_ns = 30_000;
                   negative_timeout_ns = 20_000;
                   handle_cache = 4;
                 }
               ());
        ] );
    ]
