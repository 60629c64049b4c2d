(* Step #1 (§3.2.1): obtain the container's execution context by reading
   the /proc filesystem of its main process — namespaces, environment,
   capabilities, cgroup, LSM profile, uid/gid maps.  Everything is parsed
   from the procfs *text*, exactly as the real CNTR does, rather than
   peeking at kernel structures. *)

open Repro_os

type t = {
  cx_pid : int;
  cx_uid : int;
  cx_gid : int;
  cx_caps : Caps.Set.t;
  cx_env : (string * string) list;
  cx_cgroup : string;
  cx_lsm_profile : string option;
  cx_ns_ids : (Namespace.kind * string) list; (* textual ns tags *)
  cx_uid_map : string;
  cx_gid_map : string;
}

let ( let* ) = Result.bind

let parse_status_field status field =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         let prefix = field ^ ":" in
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then
           Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
         else None)

let parse_environ text =
  String.split_on_char '\000' text
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

(* Read and parse /proc/<pid>/* as process [proc]. *)
let inspect kernel proc ~pid =
  let read rel = Kernel.read_whole kernel proc (Printf.sprintf "/proc/%d/%s" pid rel) in
  let* status = read "status" in
  let* environ = read "environ" in
  let* cgroup_text = read "cgroup" in
  let* lsm = read "attr/current" in
  let* uid_map = read "uid_map" in
  let* gid_map = read "gid_map" in
  let ns_ids =
    List.filter_map
      (fun kind ->
        match
          Kernel.readlink kernel proc
            (Printf.sprintf "/proc/%d/ns/%s" pid (Namespace.kind_to_string kind))
        with
        | Ok tag -> Some (kind, tag)
        | Error _ -> None)
      Namespace.all_kinds
  in
  let uid =
    match parse_status_field status "Uid" with
    | Some s -> (
        match String.split_on_char '\t' s with
        | u :: _ -> Option.value ~default:0 (int_of_string_opt u)
        | [] -> 0)
    | None -> 0
  in
  let gid =
    match parse_status_field status "Gid" with
    | Some s -> (
        match String.split_on_char '\t' s with
        | g :: _ -> Option.value ~default:0 (int_of_string_opt g)
        | [] -> 0)
    | None -> 0
  in
  let caps =
    match parse_status_field status "CapEff" with
    | Some hex -> (try Caps.Set.of_hex hex with _ -> Caps.Set.empty)
    | None -> Caps.Set.empty
  in
  let cgroup =
    match String.split_on_char '\n' cgroup_text with
    | first :: _ -> (
        match String.index_opt first ':' with
        | Some _ -> (
            (* "0::<path>" *)
            match String.split_on_char ':' first with
            | [ _; _; path ] -> path
            | _ -> "/")
        | None -> "/")
    | [] -> "/"
  in
  let lsm_profile =
    let trimmed = String.trim lsm in
    if trimmed = "unconfined" || trimmed = "" then None else Some trimmed
  in
  Ok
    {
      cx_pid = pid;
      cx_uid = uid;
      cx_gid = gid;
      cx_caps = caps;
      cx_env = parse_environ environ;
      cx_cgroup = cgroup;
      cx_lsm_profile = lsm_profile;
      cx_ns_ids = ns_ids;
      cx_uid_map = uid_map;
      cx_gid_map = gid_map;
    }
