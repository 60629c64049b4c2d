(* /dev: a small RAM filesystem populated with the usual character devices,
   plus kernel-side device implementations for null/zero/urandom/tty.
   /dev/fuse's open behavior is installed separately by the FUSE layer. *)

open Repro_util
open Repro_vfs

let fuse_major = 10
let fuse_minor = 229

(* Create a devtmpfs instance and register the standard device behaviors
   with the kernel. *)
let create ~kernel =
  let fs = Nativefs.create ~name:"devtmpfs" ~clock:kernel.Kernel.clock Store.Ram () in
  let ops = Nativefs.ops fs in
  let root = ops.Fsops.root in
  let cred = Types.root_cred in
  let mk name kind =
    match ops.Fsops.mknod cred root name ~kind ~mode:0o666 with
    | Ok _ -> ()
    | Error e -> failwith ("devfs: " ^ Errno.to_string e)
  in
  mk "null" (Types.Chr (1, 3));
  mk "zero" (Types.Chr (1, 5));
  mk "full" (Types.Chr (1, 7));
  mk "urandom" (Types.Chr (1, 9));
  mk "random" (Types.Chr (1, 8));
  mk "tty" (Types.Chr (5, 0));
  mk "console" (Types.Chr (5, 1));
  mk "ptmx" (Types.Chr (5, 2));
  mk "fuse" (Types.Chr (fuse_major, fuse_minor));
  (match ops.Fsops.mkdir cred root "shm" ~mode:0o777 with
  | Ok _ -> ()
  | Error e -> failwith ("devfs: " ^ Errno.to_string e));
  let rng = Rng.create ~seed:0x0dd0 in
  Kernel.register_chardev kernel ~major:1 ~minor:3
    { Kernel.dev_name = "null"; dev_read = (fun ~len:_ -> ""); dev_write = String.length; dev_open = None };
  Kernel.register_chardev kernel ~major:1 ~minor:5
    {
      Kernel.dev_name = "zero";
      dev_read = (fun ~len -> String.make len '\000');
      dev_write = String.length;
      dev_open = None;
    };
  Kernel.register_chardev kernel ~major:1 ~minor:7
    { Kernel.dev_name = "full"; dev_read = (fun ~len -> String.make len '\000'); dev_write = (fun _ -> 0); dev_open = None };
  Kernel.register_chardev kernel ~major:1 ~minor:9
    {
      Kernel.dev_name = "urandom";
      dev_read = (fun ~len -> Bytes.unsafe_to_string (Rng.bytes rng len));
      dev_write = String.length;
      dev_open = None;
    };
  Kernel.register_chardev kernel ~major:1 ~minor:8
    {
      Kernel.dev_name = "random";
      dev_read = (fun ~len -> Bytes.unsafe_to_string (Rng.bytes rng len));
      dev_write = String.length;
      dev_open = None;
    };
  Kernel.register_chardev kernel ~major:5 ~minor:0
    { Kernel.dev_name = "tty"; dev_read = (fun ~len:_ -> ""); dev_write = String.length; dev_open = None };
  Kernel.register_chardev kernel ~major:5 ~minor:1
    { Kernel.dev_name = "console"; dev_read = (fun ~len:_ -> ""); dev_write = String.length; dev_open = None };
  fs
