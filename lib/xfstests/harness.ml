(* The xfstests-style regression harness (§5.1).  A test is a predicate
   over a scratch directory on the filesystem under test; the same 94-test
   "generic" suite runs against native tmpfs and against CntrFS mounted on
   top of tmpfs (the paper's methodology), and the report compares
   outcomes. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_cntrfs

type env = {
  k : Kernel.t;
  root : Proc.t; (* privileged *)
  user : Proc.t; (* uid 1000, no capabilities *)
  user2 : Proc.t; (* uid 1001, no capabilities *)
  base : string; (* per-test scratch directory, mode 0777 *)
}

type test = {
  t_id : int; (* xfstests-style "generic/NNN" number *)
  t_groups : string list; (* auto, quick, aio, prealloc, ioctl, dangerous *)
  t_desc : string;
  t_run : env -> (unit, string) result;
}

type outcome = Pass | Fail of string

type row = { r_test : test; r_outcome : outcome }

type summary = {
  s_rows : row list;
  s_total : int;
  s_passed : int;
  s_failed : (int * string) list;
}

(* --- assertion helpers ---------------------------------------------------- *)

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let check_eq ~what pp expected actual =
  if expected = actual then Ok ()
  else Error (Printf.sprintf "%s: expected %s, got %s" what (pp expected) (pp actual))

let check_int ~what expected actual = check_eq ~what string_of_int expected actual
let check_str ~what expected actual = check_eq ~what (fun s -> "\"" ^ String.escaped s ^ "\"") expected actual

(* Unwrap a syscall result, tagging failures with the operation name. *)
let req what = function
  | Ok v -> Ok v
  | Error e -> Error (Printf.sprintf "%s failed: %s" what (Errno.to_string e))

let expect_errno ~what expected = function
  | Error e when e = expected -> Ok ()
  | Error e ->
      Error
        (Printf.sprintf "%s: expected %s, got %s" what (Errno.to_string expected)
           (Errno.to_string e))
  | Ok _ -> Error (Printf.sprintf "%s: expected %s, but it succeeded" what (Errno.to_string expected))

(* --- file helpers ----------------------------------------------------------- *)

let write_file env proc path ?(mode = 0o644) data =
  let* fd =
    req ("open " ^ path)
      (Kernel.open_ env.k proc path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode)
  in
  let* _ = req "write" (Kernel.write env.k proc fd data) in
  req "close" (Kernel.close env.k proc fd)

let read_file env proc path = req ("read " ^ path) (Kernel.read_whole env.k proc path)

(* --- environments ------------------------------------------------------------ *)

type setup = {
  su_env_root : string; (* directory the suite scratches under *)
  su_kernel : Kernel.t;
  su_root : Proc.t;
  su_user : Proc.t;
  su_user2 : Proc.t;
  su_session : Session.t option; (* present when testing CntrFS *)
}

let ok = Errno.ok_exn

(* A minimal world: tmpfs root with a backing directory for the fs under
   test, plus the probe binary used by the exec test. *)
let make_world () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"tmpfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o755)) [ "/back"; "/mnt" ];
  ok (Kernel.chmod k init "/back" 0o777);
  Kernel.register_program k "xfs-probe" (fun _ _ _ -> 0);
  (k, init)

let make_procs k init =
  let user = Kernel.fork k init in
  user.Proc.comm <- "fsqa-user";
  user.Proc.cred.Proc.uid <- 1000;
  user.Proc.cred.Proc.gid <- 1000;
  user.Proc.cred.Proc.groups <- [ 1000 ];
  user.Proc.cred.Proc.caps <- Caps.Set.empty;
  let user2 = Kernel.fork k init in
  user2.Proc.comm <- "fsqa-user2";
  user2.Proc.cred.Proc.uid <- 1001;
  user2.Proc.cred.Proc.gid <- 1001;
  user2.Proc.cred.Proc.groups <- [ 1001 ];
  user2.Proc.cred.Proc.caps <- Caps.Set.empty;
  (user, user2)

(* Native: tests run directly on the tmpfs-backed directory. *)
let setup_native () =
  let k, init = make_world () in
  let user, user2 = make_procs k init in
  { su_env_root = "/back"; su_kernel = k; su_root = init; su_user = user; su_user2 = user2; su_session = None }

(* CntrFS: the same directory served through the FUSE stack, mounted at
   /mnt (the paper: "we mounted CNTRFS on top of tmpfs"). *)
let setup_cntrfs ?(opts = Repro_fuse.Opts.cntr_default) () =
  let k, init = make_world () in
  let server_proc = Kernel.fork k init in
  server_proc.Proc.comm <- "cntrfs";
  let budget = Mem_budget.create ~limit_bytes:(256 * 1024 * 1024) in
  let conn = Repro_fuse.Conn.create ~obs:k.Kernel.obs ~clock:k.Kernel.clock () in
  let session = Session.create ~kernel:k ~conn ~server_proc ~root_path:"/back" ~opts ~budget () in
  ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/mnt"));
  let user, user2 = make_procs k init in
  { su_env_root = "/mnt"; su_kernel = k; su_root = init; su_user = user; su_user2 = user2; su_session = Some session }

(* --- runner -------------------------------------------------------------------- *)

let run_one setup test =
  let base = Printf.sprintf "%s/t%03d" setup.su_env_root test.t_id in
  let env =
    { k = setup.su_kernel; root = setup.su_root; user = setup.su_user; user2 = setup.su_user2; base }
  in
  let scratch =
    let* () = Kernel.mkdir setup.su_kernel setup.su_root base ~mode:0o777 in
    (* umask-proof: the suite needs a world-writable scratch dir *)
    Kernel.chmod setup.su_kernel setup.su_root base 0o777
  in
  match scratch with
  | Error e -> { r_test = test; r_outcome = Fail ("scratch dir: " ^ Errno.to_string e) }
  | Ok () -> (
      match test.t_run env with
      | Ok () -> { r_test = test; r_outcome = Pass }
      | Error msg -> { r_test = test; r_outcome = Fail msg }
      | exception Errno.Error e ->
          { r_test = test; r_outcome = Fail ("uncaught errno: " ^ Errno.to_string e) })

let run_suite setup tests =
  let rows = List.map (run_one setup) tests in
  let failed =
    List.filter_map
      (fun r -> match r.r_outcome with Fail m -> Some (r.r_test.t_id, m) | Pass -> None)
      rows
  in
  {
    s_rows = rows;
    s_total = List.length rows;
    s_passed = List.length rows - List.length failed;
    s_failed = failed;
  }
