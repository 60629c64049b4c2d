(* `cntr daemon [--wire] [--json]`: boot the demo fleet, start cntrd with
   deliberately small quotas, and drive a scripted multi-tenant session
   mix through the JSON-RPC API — admission queueing, a quota rejection,
   a cancellation, an injected crash with transparent recovery, and
   idempotent detach.  Prints the event stream and the final ctrl.*
   counters; --wire carries every request Content-Length-framed over the
   forwarding plane instead of in-process. *)

open Repro_util
open Repro_ctrl
open Cmdliner

let wire_path = "/run/cntrd.sock"

let counters obs =
  let m = Repro_obs.Obs.metrics obs in
  fun name -> Repro_obs.Metrics.counter_value m name

let run common json wire =
  let world = Cmd_common.demo_world () in
  let say fmt =
    if json then Printf.ifprintf stdout fmt else Printf.printf fmt
  in
  let plan_text =
    Printf.sprintf "seed %d\nctrl exec nth=4 crash" common.Cmd_common.seed
  in
  let plan =
    match Repro_fault.Fault.parse plan_text with
    | Ok (plan, _) -> plan
    | Error msg -> failwith ("cntr daemon: internal fault plan rejected: " ^ msg)
  in
  let config =
    {
      Daemon.default_config with
      Daemon.c_max_active = 3;
      c_queue_depth = 2;
      c_tenant = { Daemon.q_active = 2; q_queued = 2 };
      c_fault = Some plan;
    }
  in
  let daemon = Daemon.create ~config world in
  let endpoint =
    if wire then
      match Daemon.wire_serve daemon ~path:wire_path () with
      | Ok w -> Some w
      | Error e -> failwith ("cntr daemon: cannot serve wire: " ^ Errno.message e)
    else None
  in
  let client =
    match endpoint with Some w -> Client.connect w | None -> Client.in_process daemon
  in
  ignore (Client.subscribe client);
  let transport = if wire then wire_path else "in-process" in
  say "cntrd serving %s (seed %#x): max_active=3 queue_depth=2 tenant=2/2\n"
    transport common.Cmd_common.seed;
  (* Fill capacity: one session per tenant. *)
  let create tenant container =
    match Client.session_create client ~tenant container with
    | Ok c ->
        say "session %d: %s for %s (queue wait %dus)\n" c.Client.sc_session
          container tenant c.Client.sc_queue_wait_us;
        c.Client.sc_session
    | Error err -> failwith ("cntr daemon: create failed: " ^ err.Rpc.e_message)
  in
  let s1 = create "ops" "web" in
  let s2 = create "dev" "cache" in
  let s3 = create "ci" "db" in
  (* Capacity is full: the next two creates park in the admission queue,
     the third bounces off the queue bound. *)
  let park tenant container =
    let params =
      Jsonx.Obj [ ("container", Jsonx.Str container); ("tenant", Jsonx.Str tenant) ]
    in
    let tk = Client.submit client ~params "session.create" in
    (match Client.poll client tk with
    | None -> say "create %s for %s: parked in admission queue\n" container tenant
    | Some _ -> say "create %s for %s: answered immediately\n" container tenant);
    tk
  in
  let tk_queue = park "ops" "queue" in
  let tk_search = park "dev" "search" in
  let params =
    Jsonx.Obj [ ("container", Jsonx.Str "web"); ("tenant", Jsonx.Str "ci") ]
  in
  let tk_reject = Client.submit client ~params "session.create" in
  (match Client.poll client tk_reject with
  | Some { Rpc.p_result = Error e; _ } when e.Rpc.e_code = Rpc.admission_rejected ->
      say "create web for ci: rejected (%s)\n" e.Rpc.e_message
  | _ -> say "create web for ci: expected an admission rejection\n");
  (* Cancel one parked create. *)
  Client.cancel client tk_queue;
  (match Client.poll client tk_queue with
  | Some { Rpc.p_result = Error e; _ } when e.Rpc.e_code = Rpc.cancelled ->
      say "create queue for ops: cancelled while queued\n"
  | _ -> say "create queue for ops: expected cancellation\n");
  (* Drive the active sessions; the fault plan crashes the attach server
     under the 4th exec and cntrd recovers it transparently. *)
  let exec sid cmd =
    match Client.session_exec client ~session:sid cmd with
    | Ok x ->
        if x.Client.sx_recovered then
          say "session %d: recovered after injected crash, then ran %s\n" sid cmd
        else say "session %d: $ %s -> %d\n" sid cmd x.Client.sx_code
    | Error err -> say "session %d: exec failed: %s\n" sid err.Rpc.e_message
  in
  exec s1 "hostname";
  exec s1 "ps";
  exec s2 "hostname";
  exec s3 "hostname";
  (* One batched round trip: three execs in a single JSON-RPC array
     envelope (one frame over the wire), replies claimed out of order. *)
  let batched =
    Client.batch client (fun () ->
        List.map (fun sid -> (sid, Client.start_exec client ~session:sid "ls /etc")) [ s1; s2; s3 ])
  in
  List.iter
    (fun (sid, h) ->
      match Client.finish client h with
      | Ok x -> say "session %d: batched $ ls /etc -> %d\n" sid x.Client.sx_code
      | Error err -> say "session %d: batched exec failed: %s\n" sid err.Rpc.e_message)
    (List.rev batched);
  (* Detaching frees a slot: the parked create gets admitted (FIFO). *)
  ignore (Client.session_detach client ~session:s1);
  say "session %d: detached\n" s1;
  let s4 =
    match Client.poll client tk_search with
    | Some { Rpc.p_result = Ok v; _ } ->
        let sid = Option.value (Jsonx.field_int v "session") ~default:(-1) in
        say "session %d: search for dev admitted after %dus in queue\n" sid
          (Option.value (Jsonx.field_int v "queue_wait_us") ~default:0);
        Some sid
    | _ ->
        say "create search for dev: expected admission after detach\n";
        None
  in
  (match s4 with Some sid -> exec sid "hostname" | None -> ());
  (* The session table, then drain it. *)
  (match Client.session_list client with
  | Ok rows ->
      say "sessions:\n";
      List.iter
        (fun r ->
          say "  #%d %-6s %-8s %-9s execs=%d\n" r.Client.sr_session r.Client.sr_tenant
            r.Client.sr_container r.Client.sr_state r.Client.sr_execs)
        rows;
      List.iter (fun r -> ignore (Client.session_detach client ~session:r.Client.sr_session)) rows
  | Error _ -> ());
  (match Client.session_detach client ~session:s1 with
  | Ok true -> say "session %d: detach again -> already detached (idempotent)\n" s1
  | _ -> say "session %d: expected idempotent detach\n" s1);
  let events = Client.notifications client in
  List.iter
    (fun n ->
      match Option.bind (Jsonx.mem n "params") (fun p -> Jsonx.field_str p "event") with
      | Some ev ->
          let sid =
            Option.bind (Jsonx.mem n "params") (fun p -> Jsonx.field_int p "session")
          in
          say "event: %-16s%s\n" ev
            (match sid with Some s -> Printf.sprintf " session=%d" s | None -> "")
      | None -> ())
    events;
  let obs = Daemon.obs daemon in
  let c = counters obs in
  let active =
    int_of_float (Repro_obs.Metrics.gauge_value (Repro_obs.Obs.metrics obs) "ctrl.sessions.active")
  in
  let wait = Repro_obs.Metrics.histogram_summary (Repro_obs.Obs.metrics obs) "ctrl.queue.wait_us" in
  if json then begin
    let summary =
      match wait with
      | None -> Jsonx.Null
      | Some s ->
          Jsonx.Obj
            [
              ("count", Jsonx.Int s.Repro_obs.Metrics.s_count);
              ("mean", Jsonx.Float s.Repro_obs.Metrics.s_mean);
              ("p95", Jsonx.Float s.Repro_obs.Metrics.s_p95);
            ]
    in
    let doc =
      Jsonx.Obj
        [
          ("protocol", Jsonx.Str "cntrd/1.0");
          ("transport", Jsonx.Str transport);
          ( "sessions",
            Jsonx.Obj
              [
                ("total", Jsonx.Int (c "ctrl.sessions.total"));
                ("rejected", Jsonx.Int (c "ctrl.sessions.rejected"));
                ("recovered", Jsonx.Int (c "ctrl.sessions.recovered"));
                ("active", Jsonx.Int active);
              ] );
          ( "rpc",
            Jsonx.Obj
              [
                ("calls", Jsonx.Int (c "ctrl.rpc.calls"));
                ("cancelled", Jsonx.Int (c "ctrl.rpc.cancelled"));
              ] );
          ("queue_wait_us", summary);
          ("events", Jsonx.Int (List.length events));
        ]
    in
    print_endline (Jsonx.to_string doc)
  end
  else begin
    Printf.printf
      "ctrl.sessions: total=%d rejected=%d recovered=%d active=%d\n"
      (c "ctrl.sessions.total") (c "ctrl.sessions.rejected")
      (c "ctrl.sessions.recovered") active;
    Printf.printf "ctrl.rpc: calls=%d cancelled=%d\n" (c "ctrl.rpc.calls")
      (c "ctrl.rpc.cancelled");
    if wire then
      Printf.printf
        "ctrl.wire: conns=%d batches=%d pipelined.max=%.0f stalls=%d overloaded=%d\n"
        (c "ctrl.wire.conns") (c "ctrl.wire.batches")
        (Repro_obs.Metrics.gauge_value (Repro_obs.Obs.metrics obs) "ctrl.wire.pipelined.max")
        (c "ctrl.wire.stalls") (c "ctrl.wire.overloaded");
    match wait with
    | Some s ->
        Printf.printf "ctrl.queue.wait_us: count=%d mean=%.1f p95=%.1f\n"
          s.Repro_obs.Metrics.s_count s.Repro_obs.Metrics.s_mean
          s.Repro_obs.Metrics.s_p95
    | None -> ()
  end;
  Option.iter Daemon.wire_close endpoint;
  0

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the final ctrl.* counters as deterministic JSON instead of the narrated run.")

let wire_arg =
  Arg.(value & flag & info [ "wire" ]
         ~doc:"Carry every request Content-Length-framed over the forwarding plane (the bytes a remote client would send) instead of in-process dispatch.")

let cmd =
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Run cntrd over the demo fleet and drive a scripted multi-tenant session mix through its JSON-RPC API.")
    Term.(const run $ Cmd_common.common_term $ json_arg $ wire_arg)
