(* `cntr stats [CONTAINER] [--json] [--trace FILE]`: attach, drive a
   seeded deterministic workload through the CntrFS mount, and report the
   unified metrics registry — every fuse.*, cntrfs.*, vfs.*, os.* and
   ctrl.* counter the session produced.  Identical seeds print
   byte-identical JSON.  --trace writes the request spans as JSON-lines.
   The workload rides the cntrd session API like every other subcommand. *)

open Repro_util
open Repro_runtime
open Repro_ctrl
open Cmdliner

(* The seeded workload: a deterministic mix of metadata and data traffic
   over the attach mount, shaped by --seed. *)
let drive client sid seed =
  let rng = Rng.create ~seed in
  let exec cmd = ignore (Client.session_exec client ~session:sid cmd) in
  let files =
    [| "/var/lib/cntr/etc/passwd"; "/var/lib/cntr/etc/group";
       "/var/lib/cntr/etc/hostname"; "/var/lib/cntr/etc/hosts" |]
  in
  let rounds = 4 + Rng.int rng 4 in
  for _ = 1 to rounds do
    match Rng.int rng 4 with
    | 0 -> exec ("cat " ^ Rng.choose rng files)
    | 1 -> exec ("stat " ^ Rng.choose rng files)
    | 2 -> exec "ls /var/lib/cntr/etc"
    | _ -> exec "du /var/lib/cntr/etc"
  done;
  exec "ps";
  exec "hostname"

let run common name json trace_file =
  let world = Cmd_common.demo_world () in
  match Cmd_common.resolve world common name with
  | Error e ->
      Printf.eprintf "cntr: cannot resolve %s: %s\n" name (Errno.message e);
      1
  | Ok (_engine, container) -> (
      let daemon = Daemon.create world in
      let client = Client.in_process daemon in
      match Client.session_create client ~tenant:"cli" container.Container.ct_name with
      | Error err ->
          Printf.eprintf "cntr: cannot attach to %s: %s\n" name err.Rpc.e_message;
          1
      | Ok created ->
          let sid = created.Client.sc_session in
          let obs = Daemon.obs daemon in
          (* The sink is the tracer's only output: every span from here on. *)
          let buf = Buffer.create 4096 in
          (match trace_file with
          | Some _ ->
              Repro_obs.Trace.set_sink (Repro_obs.Obs.tracer obs)
                (Some (Repro_obs.Trace.buffer_sink buf))
          | None -> ());
          drive client sid common.Cmd_common.seed;
          let report =
            match Client.session_stat client ~session:sid with
            | Ok stat -> Option.value (Jsonx.field_str stat "report") ~default:""
            | Error _ -> ""
          in
          ignore (Client.session_detach client ~session:sid);
          let trace_error = ref false in
          (match trace_file with
          | Some path -> (
              match open_out path with
              | oc ->
                  Buffer.output_buffer oc buf;
                  close_out oc;
                  Printf.eprintf "cntr: wrote trace to %s\n" path
              | exception Sys_error msg ->
                  Printf.eprintf "cntr: cannot write trace: %s\n" msg;
                  trace_error := true)
          | None -> ());
          if json then print_string (Repro_obs.Obs.to_json obs)
          else begin
            Printf.printf "metrics for attach session on %s (seed %#x):\n"
              container.Container.ct_name common.Cmd_common.seed;
            Format.printf "%a@?" Repro_obs.Obs.pp obs;
            print_string report
          end;
          if !trace_error then 1 else 0)

let name_arg =
  Arg.(value & pos 0 string "web" & info [] ~docv:"CONTAINER" ~doc:"Container name or id prefix (default: web).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics registry as deterministic JSON.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the session's request spans to $(docv) as JSON-lines.")

let cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Attach, drive a seeded workload, and report the unified observability metrics.")
    Term.(const run $ Cmd_common.common_term $ name_arg $ json_arg $ trace_arg)
