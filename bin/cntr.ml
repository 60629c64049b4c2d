(* cntr — the command-line front end, mirroring the real tool's interface:

     cntr attach <container> [--fat-container NAME] [--command CMD] [--engine E]
     cntr exec <container> <cmd> [--fat-container NAME]
     cntr ls-containers [--engine E]
     cntr stats [CONTAINER] [--json] [--trace FILE]
     cntr daemon [--wire] [--json]
     cntr demo

   The simulation is self-contained: each invocation boots a world with a
   demo fleet (one slim container per engine plus a fat debug container)
   and operates on it.  The attach/exec/stats subcommands are thin
   clients over an in-process cntrd (Repro_ctrl.Daemon) — every verb goes
   through the JSON-RPC session API; `cntr daemon` showcases the control
   plane itself.  Subcommands live in their own modules (Cmd_attach,
   Cmd_exec, Cmd_ls, Cmd_stats, Cmd_demo, Cmd_daemon) over the shared
   Cmd_common flags. *)

open Cmdliner

let main =
  Cmd.group
    (Cmd.info "cntr" ~version:"1.0.0"
       ~doc:"Lightweight OS containers: attach fat tool images to slim application containers (simulated reproduction of USENIX ATC'18).")
    [ Cmd_attach.cmd; Cmd_exec.cmd; Cmd_ls.cmd; Cmd_stats.cmd; Cmd_daemon.cmd; Cmd_demo.cmd ]

let () = exit (Cmd.eval' main)
