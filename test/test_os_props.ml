(* Property tests for the OS substrate: path-walk vs lexical normalization,
   mount stacking, pipe FIFO behavior, and byte-stream preservation through
   the socket-proxy pump under random chunking. *)

open Repro_util
open Repro_vfs
open Repro_os

let ok = Errno.ok_exn

let boot () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"root" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  (k, Kernel.init_proc k)

(* --- walk vs normalize --------------------------------------------------------- *)

(* In a symlink-free tree, a *successful* kernel walk must agree with
   lexical normalization.  (The converse does not hold: POSIX walking
   fails on "/a/missing/../b" while lexical collapsing succeeds — the
   physical-vs-lexical distinction.) *)
let prop_walk_matches_normalize =
  let gen =
    (* random path expressions over a fixed tree /a/b/c with files f in
       each directory, sprinkled with ".", ".." and junk components *)
    QCheck.Gen.(
      list_size (int_range 1 10)
        (oneofl [ "a"; "b"; "c"; "f"; "."; ".."; "zz" ]))
  in
  QCheck.Test.make ~name:"kernel walk = lexical normalize (no symlinks)" ~count:300
    (QCheck.make ~print:(fun l -> "/" ^ String.concat "/" l) gen)
    (fun comps ->
      let k, init = boot () in
      ok (Kernel.mkdir k init "/a" ~mode:0o755);
      ok (Kernel.mkdir k init "/a/b" ~mode:0o755);
      ok (Kernel.mkdir k init "/a/b/c" ~mode:0o755);
      List.iter
        (fun d ->
          let fd = ok (Kernel.open_ k init (d ^ "/f") [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644) in
          ignore (ok (Kernel.write k init fd d));
          ok (Kernel.close k init fd))
        [ "/a"; "/a/b"; "/a/b/c" ];
      let path = "/" ^ String.concat "/" comps in
      let via_kernel = Kernel.stat k init path in
      let via_lexical = Kernel.stat k init (Pathx.normalize path) in
      match (via_kernel, via_lexical) with
      | Ok a, Ok b -> a.Types.st_ino = b.Types.st_ino
      | Ok _, Error _ -> false (* kernel success must be lexically reachable *)
      | Error _, _ -> true)

(* --- mount stacking -------------------------------------------------------------- *)

(* Stack N filesystems on the same mountpoint: reads always hit the newest;
   unmounting LIFO restores each previous layer in turn. *)
let prop_mount_stacking =
  QCheck.Test.make ~name:"mount stack is LIFO" ~count:50
    QCheck.(int_range 1 6)
    (fun depth ->
      let k, init = boot () in
      ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
      let clock = k.Kernel.clock in
      let write_probe proc i =
        let fd = ok (Kernel.open_ k proc "/mnt/probe" [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode:0o644) in
        ignore (ok (Kernel.write k proc fd (string_of_int i)));
        ok (Kernel.close k proc fd)
      in
      write_probe init (-1);
      for i = 0 to depth - 1 do
        let fs = Nativefs.create ~name:(Printf.sprintf "layer%d" i) ~clock Store.Ram () in
        ignore (ok (Kernel.mount_at k init ~fs:(Nativefs.ops fs) "/mnt"));
        write_probe init i
      done;
      let read_probe () = ok (Kernel.read_whole k init "/mnt/probe") in
      let rec unwind i acc =
        let acc = acc && read_probe () = string_of_int i in
        if i < 0 then acc
        else begin
          ok (Kernel.umount k init "/mnt");
          unwind (i - 1) acc
        end
      in
      unwind (depth - 1) true)

(* --- pipes ------------------------------------------------------------------------- *)

(* Random interleavings of writes and reads preserve the byte stream. *)
let prop_pipe_fifo =
  QCheck.Test.make ~name:"pipe preserves the byte stream" ~count:200
    QCheck.(small_list (pair bool (int_range 1 200)))
    (fun script ->
      let p = Pipe.create ~capacity:512 () in
      let written = Buffer.create 64 and read = Buffer.create 64 in
      let counter = ref 0 in
      List.iter
        (fun (is_write, n) ->
          if is_write then begin
            let data = String.init n (fun i -> Char.chr (65 + ((!counter + i) mod 26))) in
            match Pipe.write p data with
            | Ok m ->
                Buffer.add_string written (String.sub data 0 m);
                counter := !counter + m
            | Error _ -> ()
          end
          else
            match Pipe.read p ~len:n with
            | Ok s -> Buffer.add_string read s
            | Error _ -> ())
        script;
      (* drain *)
      let rec drain () =
        match Pipe.read p ~len:512 with
        | Ok s when s <> "" ->
            Buffer.add_string read s;
            drain ()
        | _ -> ()
      in
      drain ();
      Buffer.contents written = Buffer.contents read)

(* --- socket proxy under random chunking ----------------------------------------------- *)

let prop_proxy_stream_preserved =
  QCheck.Test.make ~name:"socket pair preserves stream under chunking" ~count:100
    QCheck.(small_list (int_range 1 500))
    (fun chunks ->
      let k, init = boot () in
      ok (Kernel.mkdir k init "/run" ~mode:0o755);
      let lfd = ok (Kernel.socket_listen k init "/run/s") in
      let cfd = ok (Kernel.socket_connect k init "/run/s") in
      let sfd = ok (Kernel.socket_accept k init lfd) in
      let sent = Buffer.create 64 and received = Buffer.create 64 in
      List.iter
        (fun n ->
          let data = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
          (match Kernel.write k init cfd data with
          | Ok m -> Buffer.add_string sent (String.sub data 0 m)
          | Error _ -> ());
          (* receiver drains opportunistically, with odd read sizes *)
          match Kernel.read k init sfd ~len:((n * 2) + 3) with
          | Ok s -> Buffer.add_string received s
          | Error _ -> ())
        chunks;
      let rec drain () =
        match Kernel.read k init sfd ~len:4096 with
        | Ok s when s <> "" ->
            Buffer.add_string received s;
            drain ()
        | _ -> ()
      in
      drain ();
      Buffer.contents sent = Buffer.contents received)

(* --- fork/exec isolation -------------------------------------------------------------- *)

let prop_umask_respected =
  QCheck.Test.make ~name:"umask always masks creation modes" ~count:100
    QCheck.(pair (int_bound 0o777) (int_bound 0o777))
    (fun (umask, mode) ->
      let k, init = boot () in
      init.Proc.umask <- umask;
      let fd = ok (Kernel.open_ k init "/f" [ Types.O_CREAT; Types.O_WRONLY ] ~mode) in
      ok (Kernel.close k init fd);
      let st = ok (Kernel.stat k init "/f") in
      st.Types.st_mode = mode land lnot umask)

let () =
  Alcotest.run "os-props"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_walk_matches_normalize;
            prop_mount_stacking;
            prop_pipe_fifo;
            prop_proxy_stream_preserved;
            prop_umask_respected;
          ] );
    ]
