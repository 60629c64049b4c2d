(* The fully-assembled machine CNTR operates on: a [World] (host fs,
   engines, registry with the Top-50 catalogue) plus CNTR's own pieces —
   the toolbox of programs, the /dev/fuse device, and a "fat" debug-tools
   image for container-to-container debugging. *)

open Repro_util
open Repro_image
open Repro_runtime

let debug_tools = [ "gdb"; "strace"; "ps"; "top"; "vi"; "less"; "grep"; "find"; "stat"; "du"; "env"; "which"; "cat"; "ls"; "echo"; "mount"; "id"; "hostname" ]

(* The "fat" image: an Alpine base stuffed with debugging tools.  Its
   entrypoint just parks; CNTR attaches to it only for its filesystem. *)
let debug_image () =
  let tool_entries =
    List.map
      (fun tool ->
        Layer.File
          {
            path = "/usr/bin/" ^ tool;
            mode = 0o755;
            content = Content.Binary { prog = tool; size = Size.kib 256 };
          })
      debug_tools
  in
  let extra =
    [
      Layer.Dir { path = "/var"; mode = 0o755 };
      Layer.Dir { path = "/var/lib"; mode = 0o755 };
      Layer.Dir { path = "/proc"; mode = 0o555 };
      Layer.Dir { path = "/dev"; mode = 0o755 };
      Layer.File { path = "/usr/bin/pause"; mode = 0o755; content = Content.Binary { prog = "pause"; size = Size.kib 8 } };
      (* a gigabyte-class IDE-like payload, the §2.4 host-to-container story *)
      Layer.File { path = "/opt/ide.tar"; mode = 0o644; content = Content.Filler (Size.mib 4) };
    ]
  in
  Image.v ~name:"cntr/debug-tools"
    ~config:
      {
        Image.env = [ ("PATH", "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin") ];
        entrypoint = [ "/usr/bin/pause" ];
        workdir = "/";
        user = 0;
      }
    [ Catalog.alpine_base; Layer.v ~id:"app:cntr-debug" (Layer.Dir { path = "/usr/bin"; mode = 0o755 } :: tool_entries @ extra) ]

type t = World.t

(* Build the world and install everything CNTR needs. *)
let create () =
  let world = World.create () in
  Toolbox.register_all world.World.kernel;
  Dev_fuse.install world.World.kernel;
  Registry.push world.World.registry (debug_image ());
  world

(* Convenience: attach by name using the world's engines and budget. *)
let attach world ?config name =
  Attach.attach ~kernel:world.World.kernel ~engines:world.World.engines
    ~budget:world.World.budget ?config name

(* Bracketed variant: attach, run [f], always detach. *)
let with_session world name f =
  Attach.with_session ~kernel:world.World.kernel ~engines:world.World.engines
    ~budget:world.World.budget name f
