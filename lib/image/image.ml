(* Container images: an ordered stack of layers plus run configuration.
   [materialize] unions the layers into a fresh filesystem — the rootfs a
   container engine boots from. *)

open Repro_util
open Repro_vfs
open Repro_os

type config = {
  env : (string * string) list;
  entrypoint : string list;
  workdir : string;
  user : int; (* uid the main process runs as *)
}

let default_config = {
  env = [ ("PATH", "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin") ];
  entrypoint = [];
  workdir = "/";
  user = 0;
}

type t = {
  name : string;
  tag : string;
  layers : Layer.t list; (* bottom-most first *)
  config : config;
}

let v ?(tag = "latest") ?(config = default_config) ~name layers = { name; tag; layers; config }

let ref_ t = t.name ^ ":" ^ t.tag

(* Total uncompressed size. *)
let size t = List.fold_left (fun acc l -> acc + Layer.size l) 0 t.layers

let file_count t =
  List.fold_left (fun acc l -> acc + List.length (Layer.paths l)) 0 t.layers

(* All paths present after union (whiteouts applied). *)
let effective_paths t =
  let present = Hashtbl.create 256 in
  List.iter
    (fun layer ->
      List.iter
        (function
          | Layer.Whiteout p -> Hashtbl.remove present p
          | Layer.Dir { path; _ } | Layer.File { path; _ } | Layer.Symlink { path; _ } ->
              Hashtbl.replace present path ())
        layer.Layer.entries)
    t.layers;
  Hashtbl.fold (fun p () acc -> p :: acc) present []
  |> List.sort compare

(* Winning entry per path after union — the static view a partitioner
   walks without materializing the image. *)
let effective_entries t =
  let entries = Hashtbl.create 256 in
  List.iter
    (fun layer ->
      List.iter
        (fun entry ->
          match entry with
          | Layer.Whiteout p -> Hashtbl.remove entries p
          | Layer.Dir { path; _ } | Layer.File { path; _ } | Layer.Symlink { path; _ } ->
              Hashtbl.replace entries path entry)
        layer.Layer.entries)
    t.layers;
  entries

(* Effective size per path after union. *)
let effective_sizes t =
  let sizes = Hashtbl.create 256 in
  List.iter
    (fun layer ->
      List.iter
        (function
          | Layer.Whiteout p -> Hashtbl.remove sizes p
          | Layer.Dir { path; _ } -> Hashtbl.replace sizes path 0
          | Layer.File { path; content; _ } -> Hashtbl.replace sizes path (Content.size content)
          | Layer.Symlink { path; target } -> Hashtbl.replace sizes path (String.length target))
        layer.Layer.entries)
    t.layers;
  sizes

let effective_size t =
  Hashtbl.fold (fun _ s acc -> acc + s) (effective_sizes t) 0

let ( let* ) = Result.bind

let rec mkdir_p kernel proc path =
  match Kernel.stat kernel proc path with
  | Ok _ -> Ok ()
  | Error Errno.ENOENT ->
      let parent = Pathx.dirname path in
      let* () = if parent = "/" || parent = "." then Ok () else mkdir_p kernel proc parent in
      (match Kernel.mkdir kernel proc path ~mode:0o755 with
      | Ok () | (Error Errno.EEXIST) -> Ok ()
      | Error e -> Error e)
  | Error e -> Error e

(* Union-materialize the image into a fresh RAM filesystem, applying layers
   bottom-up with whiteouts.  Returns the rootfs.  [proc] supplies the
   kernel context doing the work (the engine daemon). *)
let materialize t ~kernel ~proc =
  let rootfs =
    Nativefs.create ~metrics:(Repro_obs.Obs.metrics kernel.Kernel.obs) ~name:(ref_ t ^ "/rootfs")
      ~clock:kernel.Kernel.clock Store.Ram ()
  in
  (* Work in a scratch process whose root is the new fs, so paths are
     simply image-absolute. *)
  let scratch = Kernel.fork kernel proc in
  Kernel.enter_new_mnt_ns kernel scratch ~fs:(Nativefs.ops rootfs);
  let apply entry =
    match entry with
    | Layer.Dir { path; mode } ->
        let* () = mkdir_p kernel scratch (Pathx.dirname path) in
        (match Kernel.mkdir kernel scratch path ~mode with
        | Ok () | (Error Errno.EEXIST) -> Ok ()
        | Error e -> Error e)
    | Layer.File { path; mode; content } ->
        let* () = mkdir_p kernel scratch (Pathx.dirname path) in
        let* fd =
          Kernel.open_ kernel scratch path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode
        in
        let* _n =
          Kernel.write_padded kernel scratch rootfs fd (Content.header content)
            ~len:(Content.size content) (Content.fill content)
        in
        let* () = Kernel.close kernel scratch fd in
        Kernel.chmod kernel scratch path mode
    | Layer.Symlink { path; target } ->
        let* () = mkdir_p kernel scratch (Pathx.dirname path) in
        (match Kernel.symlink kernel scratch ~target ~linkpath:path with
        | Ok () | (Error Errno.EEXIST) -> Ok ()
        | Error e -> Error e)
    | Layer.Whiteout path -> (
        match Kernel.stat kernel scratch path with
        | Error Errno.ENOENT -> Ok ()
        | Error e -> Error e
        | Ok st ->
            if st.Types.st_kind = Types.Dir then Kernel.rmdir kernel scratch path
            else Kernel.unlink kernel scratch path)
  in
  let result =
    List.fold_left
      (fun acc layer ->
        let* () = acc in
        List.fold_left
          (fun acc e ->
            let* () = acc in
            apply e)
          (Ok ()) layer.Layer.entries)
      (Ok ()) t.layers
  in
  Kernel.exit kernel scratch 0;
  match result with Ok () -> Ok rootfs | Error e -> Error e
