(* Serverless functions (the paper's §6 future work: "we plan to support
   auxiliary tools for lambda functions using CNTR").

   A lambda platform deploys functions as minimal micro-containers: a
   language-runtime layer plus the handler, nothing else — no shell, no
   tools, not even coreutils.  Clients normally have no access to the
   container (the paper's complaint about serverless debuggability); CNTR
   can attach to a warm instance like to any container, because instances
   are ordinary containers under a dedicated engine. *)

open Repro_util
open Repro_os
open Repro_image

type func = {
  fn_name : string;
  fn_handler : string; (* registered program implementing the handler *)
  fn_image : Image.t;
  mutable fn_instances : Container.t list; (* warm instances *)
  mutable fn_invocations : int;
}

type t = {
  l_kernel : Kernel.t;
  l_engine : Engine.t;
  l_funcs : (string, func) Hashtbl.t;
  mutable l_counter : int;
}

(* The function runtime: reads the handler name from /var/task/handler and
   execs it with the payload as argument. *)
let bootstrap_prog = "lambda-bootstrap"

let install_programs kernel =
  Kernel.register_program kernel bootstrap_prog (fun k proc args ->
      match Kernel.exec k proc "/var/task/handler" ("handler" :: List.tl args) with
      | Ok code -> code
      | Error _ -> 42)

let create ~kernel =
  install_programs kernel;
  let engine =
    Engine.create ~kernel ~name:"lambda"
      ~make_id:(fun name -> name)
      ~cgroup:(fun ~id:_ ~name -> "/lambda/" ^ name)
      ~lsm_profile:(Some "lambda-runtime")
  in
  { l_kernel = kernel; l_engine = engine; l_funcs = Hashtbl.create 8; l_counter = 0 }

let engine t = t.l_engine

(* The micro-image: scratch base + runtime layer + the handler, a 256 KiB
   code bundle. *)
let function_image ~name ~handler =
  Image.v ~name:("lambda/" ^ name)
    ~config:
      {
        Image.env = [ ("AWS_LAMBDA_FUNCTION_NAME", name); ("PATH", "/var/runtime") ];
        entrypoint = [ "/var/runtime/bootstrap" ];
        workdir = "/var/task";
        user = 1000;
      }
    [
      Catalog.scratch_base;
      Layer.v ~id:("lambda-runtime:" ^ name)
        [
          Layer.Dir { path = "/var"; mode = 0o755 };
          Layer.Dir { path = "/var/runtime"; mode = 0o755 };
          Layer.Dir { path = "/var/task"; mode = 0o777 };
          Layer.Dir { path = "/tmp"; mode = 0o1777 };
          Layer.File
            {
              path = "/var/runtime/bootstrap";
              mode = 0o755;
              content = Content.Binary { prog = bootstrap_prog; size = Size.kib 64 };
            };
          Layer.File
            {
              path = "/var/task/handler";
              mode = 0o755;
              content = Content.Binary { prog = handler; size = Size.kib 256 };
            };
        ];
    ]

let deploy t ~name ~handler =
  let fn =
    {
      fn_name = name;
      fn_handler = handler;
      fn_image = function_image ~name ~handler;
      fn_instances = [];
      fn_invocations = 0;
    }
  in
  Hashtbl.replace t.l_funcs name fn;
  fn

let find t name = Hashtbl.find_opt t.l_funcs name

let ( let* ) = Result.bind

(* Invoke: reuse a warm instance or cold-start a fresh micro-container,
   then run the handler with the payload. *)
let invoke t name ~payload =
  match find t name with
  | None -> Error Errno.ENOENT
  | Some fn ->
      let* instance, cold =
        match fn.fn_instances with
        | inst :: _ when Container.is_running inst -> Ok (inst, false)
        | _ ->
            t.l_counter <- t.l_counter + 1;
            let iname = Printf.sprintf "%s-%d" name t.l_counter in
            let* inst = Engine.run t.l_engine ~name:iname fn.fn_image in
            fn.fn_instances <- inst :: fn.fn_instances;
            Ok (inst, true)
      in
      fn.fn_invocations <- fn.fn_invocations + 1;
      let* code =
        Kernel.exec t.l_kernel instance.Container.ct_main "/var/runtime/bootstrap"
          [ "bootstrap"; payload ]
      in
      Ok (code, cold, instance)

let stats t name =
  match find t name with
  | None -> (0, 0)
  | Some fn -> (fn.fn_invocations, List.length fn.fn_instances)
