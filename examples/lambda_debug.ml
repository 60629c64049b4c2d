(* Debugging serverless functions with CNTR (the paper's §6 future work).

   Lambdas run in sealed micro-containers with no shell and no tools;
   platform users normally cannot inspect them at all.  With the instance
   being an ordinary container under the hood, CNTR attaches to a warm
   instance and brings a full toolbox.

   Run with:  dune exec examples/lambda_debug.exe *)

open Repro_util
open Repro_os
open Repro_runtime
open Repro_cntr

let ok = Errno.ok_exn

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n%!")
let show (code, out) = Printf.printf "%s(exit %d)\n%!" out code

let () =
  step "boot a machine with a lambda platform";
  let world = Testbed.create () in
  let platform = Lambda.create ~kernel:world.World.kernel in

  step "deploy a function: resize-image (handler + runtime, nothing else)";
  Kernel.register_program world.World.kernel "resize-image" (fun k proc args ->
      let payload = match args with _ :: p :: _ -> p | _ -> "?" in
      let fd =
        ok
          (Kernel.open_ k proc "/tmp/work.log"
             [ Repro_vfs.Types.O_CREAT; Repro_vfs.Types.O_WRONLY; Repro_vfs.Types.O_APPEND ]
             ~mode:0o644)
      in
      ignore (ok (Kernel.write k proc fd ("resized " ^ payload ^ "\n")));
      ok (Kernel.close k proc fd);
      if payload = "corrupt.png" then 1 else 0);
  let fn = Lambda.deploy platform ~name:"resize-image" ~handler:"resize-image" in
  Printf.printf "image %s: %s, %d files (no shell, no coreutils)\n"
    (Repro_image.Image.ref_ fn.Lambda.fn_image)
    (Size.to_string (Repro_image.Image.effective_size fn.Lambda.fn_image))
    (List.length (Repro_image.Image.effective_paths fn.Lambda.fn_image));

  step "invoke it a few times (one cold start, then warm)";
  List.iter
    (fun payload ->
      let code, cold, _ = ok (Lambda.invoke platform "resize-image" ~payload) in
      Printf.printf "  invoke %-12s -> exit %d (%s)\n" payload code
        (if cold then "cold start" else "warm"))
    [ "cat.png"; "dog.png"; "corrupt.png" ];

  step "that last invocation failed — attach to the warm instance with cntr";
  let _code, _cold, inst = ok (Lambda.invoke platform "resize-image" ~payload:"probe.png") in
  let engines = Lambda.engine platform :: world.World.engines in
  let session =
    ok
      (Attach.attach ~kernel:world.World.kernel ~engines ~budget:world.World.budget
         inst.Container.ct_name)
  in
  Printf.printf "attached to instance %s (cgroup %s)\n" inst.Container.ct_name
    (Attach.context session).Context.cx_cgroup;

  step "inspect the sealed sandbox with host tools";
  show (Attach.run session "cat /var/lib/cntr/tmp/work.log");
  show (Attach.run session "ls /var/lib/cntr/var/task");
  show (Attach.run session "ps");

  step "detach — the function keeps serving";
  Attach.detach session;
  let code, _cold, _ = ok (Lambda.invoke platform "resize-image" ~payload:"bird.png") in
  Printf.printf "post-debug invoke: exit %d\n" code;
  print_endline "\nlambda_debug done."
