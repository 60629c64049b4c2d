(* `cntr ls-containers`: the demo fleet, one row per container,
   optionally restricted to one engine. *)

open Repro_runtime
open Cmdliner

let run common =
  let world = Cmd_common.demo_world () in
  let engines =
    match common.Cmd_common.engine with
    | None -> world.World.engines
    | Some e -> (
        match Engine.by_name world.World.engines e with
        | Some engine -> [ engine ]
        | None ->
            Printf.eprintf "cntr: unknown engine %s\n" e;
            [])
  in
  if engines = [] then 1
  else begin
    Printf.printf "%-16s %-8s %-14s %-24s %s\n" "ENGINE" "PID" "ID" "IMAGE" "NAME";
    List.iter
      (fun engine ->
        List.iter
          (fun c ->
            Printf.printf "%-16s %-8d %-14s %-24s %s\n" engine.Engine.e_name (Container.pid c)
              (Container.short_id c)
              (Repro_image.Image.ref_ c.Container.ct_image)
              c.Container.ct_name)
          (Engine.list engine))
      engines;
    0
  end

let term = Term.(const run $ Cmd_common.common_term)
let cmd = Cmd.v (Cmd.info "ls-containers" ~doc:"List the demo fleet's containers.") term
