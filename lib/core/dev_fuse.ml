(* /dev/fuse: opening the device yields a fresh FUSE connection, carried on
   the fd as a custom payload.  CNTR opens this fd *before* attaching to
   the container (step #1), because the mount happens later from inside the
   nested namespace (§3.2.1). *)

open Repro_util
open Repro_os
open Repro_fuse

type Proc.custom_payload += Fuse_conn of Conn.t

let install kernel =
  Kernel.register_chardev kernel ~major:Devfs.fuse_major ~minor:Devfs.fuse_minor
    {
      Kernel.dev_name = "fuse";
      dev_read = (fun ~len:_ -> "");
      dev_write = String.length;
      dev_open =
        Some
          (fun k _proc ->
            let conn = Conn.create ~obs:k.Kernel.obs ~clock:k.Kernel.clock () in
            Proc.Custom
              {
                Proc.c_name = "fuse";
                c_read = (fun ~len:_ -> Error Errno.EAGAIN);
                c_write = (fun s -> Ok (String.length s));
                c_close = (fun () -> ());
                c_readable = (fun () -> false);
                c_writable = (fun () -> true);
                c_payload = Fuse_conn conn;
              });
    }

(* Extract the connection carried by an open /dev/fuse fd. *)
let conn_of_fd proc fd =
  match Proc.fd proc fd with
  | Some (Proc.Custom { Proc.c_payload = Fuse_conn conn; _ }) -> Ok conn
  | Some _ -> Error Errno.EINVAL
  | None -> Error Errno.EBADF
