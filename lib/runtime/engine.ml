(* The container-engine interface and the name→PID resolution CNTR builds
   on (step #1, §3.2.1).  Four engines are provided: Docker, LXC, rkt and
   systemd-nspawn — each a thin convention wrapper over [Container]. *)

open Repro_util
open Repro_os

type t = {
  e_name : string;
  e_kernel : Kernel.t;
  e_containers : (string, Container.t) Hashtbl.t; (* by id *)
  (* engine-specific conventions *)
  e_make_id : string -> string; (* name -> id *)
  e_cgroup : id:string -> name:string -> string;
  e_lsm_profile : string option;
}

let create ~kernel ~name ~make_id ~cgroup ~lsm_profile = {
  e_name = name;
  e_kernel = kernel;
  e_containers = Hashtbl.create 16;
  e_make_id = make_id;
  e_cgroup = cgroup;
  e_lsm_profile = lsm_profile;
}

let ( let* ) = Result.bind

(* Run a container from [image] under this engine's conventions. *)
let run t ~name ?(privileged = false) ?wrap_rootfs image =
  let id = t.e_make_id name in
  let settings =
    {
      Container.s_engine = t.e_name;
      s_id = id;
      s_name = name;
      s_cgroup = t.e_cgroup ~id ~name;
      s_lsm_profile = t.e_lsm_profile;
      s_privileged = privileged;
    }
  in
  let* ct = Container.create ~kernel:t.e_kernel ~image ?wrap_rootfs settings in
  Hashtbl.replace t.e_containers id ct;
  Ok ct

let list t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.e_containers []
  |> List.sort (fun a b -> compare a.Container.ct_name b.Container.ct_name)

let find t key =
  let matches c =
    c.Container.ct_name = key || c.Container.ct_id = key
    || (String.length key >= 4
       && String.length c.Container.ct_id >= String.length key
       && String.sub c.Container.ct_id 0 (String.length key) = key)
  in
  match List.find_opt matches (list t) with
  | Some c when Container.is_running c -> Ok c
  | Some _ -> Error Errno.ESRCH
  | None -> Error Errno.ENOENT

let remove t key =
  match find t key with
  | Ok c ->
      Container.stop ~kernel:t.e_kernel c;
      Hashtbl.remove t.e_containers c.Container.ct_id;
      Ok ()
  | Error e -> Error e

(* --- the four engines ------------------------------------------------------ *)

(* Hex digest stand-in for Docker's content-addressed container ids: the
   hash of the name and of how many containers this engine has run. *)
let docker ~kernel =
  let runs = ref 0 in
  let hex_id name =
    incr runs;
    let h = Hashtbl.hash (name, !runs) in
    let raw = Printf.sprintf "%08x%08x%08x%08x" h (h * 31) (h * 131) (h * 1031) in
    String.sub (raw ^ raw) 0 64
  in
  create ~kernel ~name:"docker" ~make_id:hex_id
    ~cgroup:(fun ~id ~name:_ -> "/docker/" ^ id)
    ~lsm_profile:(Some "docker-default")

let lxc ~kernel =
  create ~kernel ~name:"lxc"
    ~make_id:(fun name -> name)
    ~cgroup:(fun ~id:_ ~name -> "/lxc/" ^ name)
    ~lsm_profile:(Some "lxc-container-default")

let rkt ~kernel =
  let uuid name =
    let h = Hashtbl.hash name in
    Printf.sprintf "%08x-%04x-%04x-%04x-%012x" h (h land 0xffff) ((h lsr 4) land 0xffff)
      ((h lsr 8) land 0xffff) (h land 0xffffffffffff)
  in
  create ~kernel ~name:"rkt" ~make_id:uuid
    ~cgroup:(fun ~id ~name:_ -> "/machine.slice/machine-rkt-" ^ id ^ ".scope")
    ~lsm_profile:None

let systemd_nspawn ~kernel =
  create ~kernel ~name:"systemd-nspawn"
    ~make_id:(fun name -> name)
    ~cgroup:(fun ~id:_ ~name -> "/machine.slice/systemd-nspawn@" ^ name ^ ".service")
    ~lsm_profile:None

(* A registry of engines, so `cntr attach <name>` can search them all. *)
type engines = t list

let all ~kernel = [ docker ~kernel; lxc ~kernel; rkt ~kernel; systemd_nspawn ~kernel ]

let by_name engines name = List.find_opt (fun e -> e.e_name = name) engines

let resolve_any engines key =
  let rec go = function
    | [] -> Error Errno.ENOENT
    | e :: rest -> (
        match find e key with
        | Ok c -> Ok (e, c)
        | Error _ -> go rest)
  in
  go engines
