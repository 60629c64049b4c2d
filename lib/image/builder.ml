(* A Dockerfile-style image builder.

   Instructions assemble layers; RUN executes a command in a *build
   container* over the image-so-far and captures the filesystem diff as a
   new layer (adds, changes and whiteouts), exactly like `docker build`.
   This is how a user of this library produces the slim/fat image pairs
   CNTR works with. *)

open Repro_util
open Repro_vfs
open Repro_os

type instruction =
  | From of string (* image reference in the registry, or "scratch" *)
  | Copy of { dst : string; mode : int; content : Content.t }
  | Mkdir of string
  | Run of string (* executed with /bin/sh -c in a build container *)
  | Env of string * string
  | Entrypoint of string list
  | Workdir of string
  | User of int

let ( let* ) = Result.bind

(* --- filesystem snapshots for RUN diffs ----------------------------------- *)

type snap_node =
  | S_dir of int (* mode *)
  | S_file of int * string (* mode, content *)
  | S_symlink of string

(* Walk the build container's filesystem into a path -> node map. *)
let snapshot kernel proc =
  let nodes = Hashtbl.create 256 in
  let rec walk dir =
    match Kernel.readdir kernel proc dir with
    | Error _ -> ()
    | Ok entries ->
        List.iter
          (fun e ->
            let name = e.Types.d_name in
            if name <> "." && name <> ".." then begin
              let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
              match Kernel.lstat kernel proc path with
              | Error _ -> ()
              | Ok st -> (
                  match st.Types.st_kind with
                  | Types.Dir ->
                      Hashtbl.replace nodes path (S_dir st.Types.st_mode);
                      walk path
                  | Types.Symlink ->
                      (match Kernel.readlink kernel proc path with
                      | Ok target -> Hashtbl.replace nodes path (S_symlink target)
                      | Error _ -> ())
                  | Types.Reg -> (
                      match Kernel.read_whole kernel proc path with
                      | Ok content -> Hashtbl.replace nodes path (S_file (st.Types.st_mode, content))
                      | Error _ -> ())
                  | _ -> () (* devices/sockets are not captured in layers *))
            end)
          entries
  in
  walk "/";
  nodes

(* Diff two snapshots into layer entries: adds/changes plus whiteouts,
   parents before children, whiteouts deepest-first. *)
let diff_layers ~before ~after =
  let changes = ref [] in
  Hashtbl.iter
    (fun path node ->
      let changed =
        match Hashtbl.find_opt before path with
        | Some old -> old <> node
        | None -> true
      in
      if changed then
        changes :=
          (match node with
          | S_dir mode -> Layer.Dir { path; mode }
          | S_file (mode, content) -> Layer.File { path; mode; content = Content.Literal content }
          | S_symlink target -> Layer.Symlink { path; target })
          :: !changes)
    after;
  let removals = ref [] in
  Hashtbl.iter
    (fun path _ -> if not (Hashtbl.mem after path) then removals := Layer.Whiteout path :: !removals)
    before;
  let path_of = function
    | Layer.Dir { path; _ } | Layer.File { path; _ } | Layer.Symlink { path; _ } | Layer.Whiteout path
      -> path
  in
  let adds = List.sort (fun a b -> compare (path_of a) (path_of b)) !changes in
  let whiteouts =
    List.sort (fun a b -> compare (path_of b) (path_of a)) !removals (* deepest first *)
  in
  whiteouts @ adds

(* --- the build loop --------------------------------------------------------- *)

(* A minimal build container: fresh namespace over the materialized image,
   running as root with the image's env. *)
let build_container kernel image =
  let init = Kernel.init_proc kernel in
  let* rootfs = Image.materialize image ~kernel ~proc:init in
  let proc = Kernel.fork kernel init in
  proc.Proc.comm <- "buildkit";
  Kernel.enter_new_mnt_ns kernel proc ~fs:(Nativefs.ops rootfs);
  proc.Proc.env <- image.Image.config.Image.env;
  Ok proc

(* [build ~kernel ~registry ~name instructions] assembles an image.  FROM
   must come first (or be omitted for scratch builds). *)
let build ~kernel ~registry ~name instructions =
  let counter = ref 0 in
  let fresh_layer entries =
    incr counter;
    Layer.v ~id:(Printf.sprintf "build:%s:%d" name !counter) entries
  in
  let start config layers = Image.v ~name ~config layers in
  let* base, rest =
    match instructions with
    | From "scratch" :: rest -> Ok (start Image.default_config [], rest)
    | From ref_ :: rest -> (
        match Registry.find registry ref_ with
        | Some img -> Ok (start img.Image.config img.Image.layers, rest)
        | None -> Error Errno.ENOENT)
    | rest -> Ok (start Image.default_config [], rest)
  in
  List.fold_left
    (fun acc instr ->
      let* image = acc in
      match instr with
      | From _ -> Error Errno.EINVAL (* only first *)
      | Copy { dst; mode; content } ->
          Ok { image with Image.layers = image.Image.layers @ [ fresh_layer [ Layer.File { path = dst; mode; content } ] ] }
      | Mkdir path ->
          Ok { image with Image.layers = image.Image.layers @ [ fresh_layer [ Layer.Dir { path; mode = 0o755 } ] ] }
      | Env (k, v) ->
          let config =
            { image.Image.config with Image.env = (k, v) :: List.remove_assoc k image.Image.config.Image.env }
          in
          Ok { image with Image.config = config }
      | Entrypoint argv ->
          Ok { image with Image.config = { image.Image.config with Image.entrypoint = argv } }
      | Workdir dir ->
          Ok { image with Image.config = { image.Image.config with Image.workdir = dir } }
      | User uid ->
          Ok { image with Image.config = { image.Image.config with Image.user = uid } }
      | Run cmd ->
          (* execute in a build container; the fs diff becomes a layer *)
          let* proc = build_container kernel image in
          let before = snapshot kernel proc in
          let* code = Kernel.exec kernel proc "/bin/sh" [ "sh"; "-c"; cmd ] in
          if code <> 0 then begin
            Kernel.exit kernel proc code;
            Error Errno.EIO
          end
          else begin
            let after = snapshot kernel proc in
            Kernel.exit kernel proc 0;
            let entries = diff_layers ~before ~after in
            let layers =
              if entries = [] then image.Image.layers
              else image.Image.layers @ [ fresh_layer entries ]
            in
            Ok { image with Image.layers }
          end)
    (Ok base) rest
