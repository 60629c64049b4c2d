(* The §6 future-work extension: serverless functions as micro-containers,
   debuggable with CNTR.  "Lambdas offer limited or no support for
   interactive debugging because clients have no access to the lambda's
   container" — here CNTR provides exactly that access. *)

open Repro_util
open Repro_os
open Repro_runtime
open Repro_cntr

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let ok = Errno.ok_exn

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let boot () =
  let world = Testbed.create () in
  let platform = Lambda.create ~kernel:world.World.kernel in
  (* a handler that records its payload in /tmp *)
  Kernel.register_program world.World.kernel "thumbnailer" (fun k proc args ->
      let payload = match args with _ :: p :: _ -> p | _ -> "?" in
      let fd =
        ok (Kernel.open_ k proc "/tmp/processed" [ Repro_vfs.Types.O_CREAT; Repro_vfs.Types.O_WRONLY; Repro_vfs.Types.O_APPEND ] ~mode:0o644)
      in
      ignore (ok (Kernel.write k proc fd (payload ^ "\n")));
      ok (Kernel.close k proc fd);
      0);
  (world, platform)

let test_deploy_and_invoke () =
  let _world, platform = boot () in
  let _fn = Lambda.deploy platform ~name:"thumb" ~handler:"thumbnailer" in
  let code, cold, _inst = ok (Lambda.invoke platform "thumb" ~payload:"img1.png") in
  check_i "handler ok" 0 code;
  check_b "first invocation cold-starts" true cold;
  let code, cold, _inst = ok (Lambda.invoke platform "thumb" ~payload:"img2.png") in
  check_i "second ok" 0 code;
  check_b "second is warm" false cold;
  let invocations, instances = Lambda.stats platform "thumb" in
  check_i "two invocations" 2 invocations;
  check_i "one warm instance" 1 instances

let test_unknown_function () =
  let _world, platform = boot () in
  check_b "invoke unknown" true (Lambda.invoke platform "nope" ~payload:"x" = Error Errno.ENOENT)

let test_micro_image_is_minimal () =
  let _world, platform = boot () in
  let fn = Lambda.deploy platform ~name:"thumb" ~handler:"thumbnailer" in
  let paths = Repro_image.Image.effective_paths fn.Lambda.fn_image in
  check_b "no shell in the image" true (not (List.exists (fun p -> Repro_util.Pathx.basename p = "sh") paths));
  check_b "bootstrap present" true (List.mem "/var/runtime/bootstrap" paths);
  check_b "handler present" true (List.mem "/var/task/handler" paths);
  check_b "tiny" true (Repro_image.Image.effective_size fn.Lambda.fn_image < Repro_util.Size.mib 1)

let test_cntr_attach_to_lambda () =
  let world, platform = boot () in
  let _fn = Lambda.deploy platform ~name:"thumb" ~handler:"thumbnailer" in
  let _code, _cold, inst = ok (Lambda.invoke platform "thumb" ~payload:"img1.png") in
  (* the instance has no shell, no tools — CNTR brings them *)
  let engines = Lambda.engine platform :: world.World.engines in
  let session =
    ok
      (Attach.attach ~kernel:world.World.kernel ~engines ~budget:world.World.budget
         inst.Container.ct_name)
  in
  (* host tools work inside the function sandbox *)
  let code, out = Attach.run session "which gdb" in
  check_i "gdb available" 0 code;
  check_b "from host" true (contains ~needle:"/usr/bin/gdb" out);
  (* the function's filesystem and state are inspectable *)
  let _c, out = Attach.run session "cat /var/lib/cntr/tmp/processed" in
  check_b "handler state visible" true (contains ~needle:"img1.png" out);
  let _c, out = Attach.run session "ls /var/lib/cntr/var/task" in
  check_b "code bundle visible" true (contains ~needle:"handler" out);
  (* the lambda engine's conventions were captured *)
  check_b "lambda cgroup" true
    (contains ~needle:"/lambda/" (Attach.context session).Context.cx_cgroup);
  check_b "lambda lsm profile" true
    ((Attach.context session).Context.cx_lsm_profile = Some "lambda-runtime");
  Attach.detach session;
  (* a further invocation still works after detach *)
  let code, _cold, _ = ok (Lambda.invoke platform "thumb" ~payload:"img3.png") in
  check_i "function unharmed" 0 code

let () =
  Alcotest.run "lambda"
    [
      ( "platform",
        [
          Alcotest.test_case "deploy & invoke" `Quick test_deploy_and_invoke;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "micro image minimal" `Quick test_micro_image_is_minimal;
        ] );
      ( "cntr-integration",
        [ Alcotest.test_case "attach to a lambda" `Quick test_cntr_attach_to_lambda ] );
    ]
