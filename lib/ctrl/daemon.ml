(* cntrd: the persistent attach control plane.

   Split-brain by design: fibers on the daemon's scheduler own every piece
   of control-plane state (session table, admission queue, quotas,
   cancellation flags), while the data-plane verbs — attach, exec, detach,
   recover, crash — are *actions* queued to the top level.  [pump]
   alternates: drive fibers until they quiesce or request an action, then
   commit the next action where the FUSE/TTY event loops can be driven
   (those loops no-op inside foreign fibers).  Everything stays on the one
   virtual clock, so identical submissions replay identically. *)

open Repro_util
open Repro_os
open Repro_cntr
module Sched = Repro_sched.Sched
module Metrics = Repro_obs.Metrics
module Fault = Repro_fault.Fault
module Proxy = Repro_proxy.Proxy

type quota = { q_active : int; q_queued : int }

type config = {
  c_max_active : int;
  c_queue_depth : int;
  c_tenant : quota;
  c_fault : Fault.plan option;
  c_sub_buffer : int;  (* undelivered events retained per subscriber *)
  (* wire plane: per-connection flow control *)
  c_wire_inflight : int;  (* admitted-but-unflushed requests per connection *)
  c_wire_high : int;  (* wc_out bytes at which a connection stalls *)
  c_wire_low : int;  (* wc_out bytes at which a stalled connection resumes *)
}

let default_config =
  {
    c_max_active = 64;
    c_queue_depth = 32;
    c_tenant = { q_active = 16; q_queued = 8 };
    c_fault = None;
    c_sub_buffer = 256;
    c_wire_inflight = 64;
    c_wire_high = 65536;
    c_wire_low = 16384;
  }

(* One in-flight request. *)
type ticket = {
  p_rid : Rpc.id;
  p_origin : origin;
  mutable p_cancelled : bool;
  mutable p_resp : Rpc.response option;
}

(* The requests one client (a wire connection or an in-process client)
   has in flight.  Every client numbers its ids from 1, so a $/cancel
   looks only among its own client's requests. *)
and origin = { mutable o_inflight : ticket list }

let origin () = { o_inflight = [] }

type state = Queued | Active | Recovering | Detached

let state_str = function
  | Queued -> "queued"
  | Active -> "active"
  | Recovering -> "recovering"
  | Detached -> "detached"

type op = Op_exec of ticket * string | Op_detach of ticket

type sess = {
  s_id : int;
  s_tenant : string;
  s_container : string;
  s_config : Attach.Config.t;
  mutable s_state : state;
  mutable s_attach : Attach.session option;
  mutable s_execs : int;
  mutable s_admitted : bool;
  mutable s_crash_pending : bool; (* ctrl create fault: crash right after attach *)
  s_ops : op Queue.t;
  s_cond : Sched.cond;
}

(* Data-plane actions, executed by [pump] at top level. *)
type action =
  | A_attach of Attach.Config.t * string * (Attach.session, Errno.t) result Sched.ivar
  | A_run of Attach.session * string * (int * string) Sched.ivar
  | A_detach of Attach.session * unit Sched.ivar
  | A_recover of Attach.session * unit Sched.ivar
  | A_crash of Attach.session * unit Sched.ivar

(* A subscriber: the sink plus a bounded ring of undelivered events.  A
   slow transport stops draining instead of letting the daemon buffer its
   entire event history; at capacity the *oldest* event is dropped and
   counted (recent state beats stale history for a monitoring stream). *)
type sub = {
  sb_sink : Jsonx.t -> unit;
  sb_buf : Jsonx.t Queue.t;
  sb_ready : unit -> bool;  (* can the transport take another event now? *)
}

(* ctrl.wire.* instruments, created lazily by the first [wire_serve] so
   in-process daemons never touch this registry namespace. *)
type wire_metrics = {
  wm_conns : Metrics.counter;
  wm_batches : Metrics.counter;
  wm_stalls : Metrics.counter;
  wm_overloaded : Metrics.counter;
  wm_pipelined_max : Metrics.gauge;
  wm_backlog_peak : Metrics.gauge;
  wm_frame_max : Metrics.gauge;
}

(* Per-connection write-side flow control: a connection whose framed
   output backlog reaches the high watermark stops being read (requests
   back up into the bounded kernel socket, then into the sender) and
   stops taking buffered replies/events until the backlog drains to the
   low watermark.  One stalled reader never wedges the others. *)
type flow = Flowing | Stalled

(* One admitted element of a batch envelope.  [Slot_done] holds replies
   produced without dispatch (malformed elements, overload rejections);
   [Slot_wait] resolves through its ticket.  The envelope flushes as one
   order-preserving reply array when every slot has a response. *)
type slot = Slot_wait of ticket | Slot_done of Rpc.response

type wire_conn = {
  wc_fd : int;
  wc_reader : Rpc.reader;
  wc_outq : string Queue.t;  (* framed chunks awaiting the socket *)
  mutable wc_out_off : int;  (* written prefix of the head chunk *)
  mutable wc_out_len : int;  (* total unwritten backlog bytes *)
  mutable wc_flow : flow;
  wc_now : Rpc.response Queue.t;  (* immediate replies awaiting room *)
  mutable wc_singles : ticket list;  (* pipelined calls: flushed as resolved *)
  mutable wc_batches : slot array list;  (* envelopes: flushed when complete *)
  mutable wc_inflight : int;  (* admitted, not yet flushed *)
  wc_origin : origin;
}

type wire = {
  w_path : string;
  w_proc : Proc.t; (* daemon-side endpoint: owns the backend listener *)
  w_client_proc : Proc.t;
  w_plane : Proxy.t;
  w_lfd : int;
  w_daemon : t;
  mutable w_conns : wire_conn list;
  mutable w_rr : int; (* round-robin cursor over w_conns *)
}

and t = {
  d_world : Repro_runtime.World.t;
  d_config : config;
  d_sched : Sched.t;
  d_fault : Fault.t option;
  d_actions : action Queue.t;
  d_sessions : (int, sess) Hashtbl.t;
  mutable d_next_id : int;
  mutable d_subs : sub list;
  mutable d_m_sub_dropped : Metrics.counter option;
      (* lazily created: only daemons that ever drop touch the registry *)
  mutable d_wm : wire_metrics option;
  mutable d_wires : wire list;
  mutable d_wire_rr : int; (* round-robin cursor over d_wires *)
  (* admission *)
  d_adm_cond : Sched.cond;
  mutable d_active : int;
  mutable d_queued : int;
  d_t_active : (string, int) Hashtbl.t;
  d_t_queued : (string, int) Hashtbl.t;
  (* metrics *)
  m_active : Metrics.gauge;
  m_total : Metrics.counter;
  m_rejected : Metrics.counter;
  m_recovered : Metrics.counter;
  m_calls : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_wait : Metrics.histogram;
}

let protocol_version = "cntrd/1.0"

let methods =
  [
    "daemon.info";
    "session.create";
    "session.exec";
    "session.stat";
    "session.detach";
    "session.list";
    "stats.subscribe";
    "$/cancel";
  ]

let create ?(config = default_config) world =
  let kernel = world.Repro_runtime.World.kernel in
  let obs = kernel.Kernel.obs in
  let metrics = Repro_obs.Obs.metrics obs in
  let clock = kernel.Kernel.clock in
  {
    d_world = world;
    d_config = config;
    d_sched = Sched.create ~clock;
    d_fault = Option.map (Fault.arm ~obs ~clock) config.c_fault;
    d_actions = Queue.create ();
    d_sessions = Hashtbl.create 64;
    d_next_id = 1;
    d_subs = [];
    d_m_sub_dropped = None;
    d_wm = None;
    d_wires = [];
    d_wire_rr = 0;
    d_adm_cond = Sched.cond ();
    d_active = 0;
    d_queued = 0;
    d_t_active = Hashtbl.create 8;
    d_t_queued = Hashtbl.create 8;
    m_active = Metrics.gauge metrics "ctrl.sessions.active";
    m_total = Metrics.counter metrics "ctrl.sessions.total";
    m_rejected = Metrics.counter metrics "ctrl.sessions.rejected";
    m_recovered = Metrics.counter metrics "ctrl.sessions.recovered";
    m_calls = Metrics.counter metrics "ctrl.rpc.calls";
    m_cancelled = Metrics.counter metrics "ctrl.rpc.cancelled";
    m_wait = Metrics.histogram metrics "ctrl.queue.wait_us";
  }

let kernel t = t.d_world.Repro_runtime.World.kernel
let obs t = (kernel t).Kernel.obs
let clock t = (kernel t).Kernel.clock

(* ------------------------------------------------------------------ *)
(* Replies, events, cancellation                                      *)
(* ------------------------------------------------------------------ *)

let reply p result =
  (match p.p_resp with
  | Some _ -> () (* first reply wins; late paths are no-ops *)
  | None -> p.p_resp <- Some { Rpc.p_id = Some p.p_rid; p_result = result });
  p.p_origin.o_inflight <- List.filter (fun q -> q != p) p.p_origin.o_inflight

let reply_cancelled t p =
  Metrics.incr t.m_cancelled;
  reply p (Error (Rpc.error Rpc.cancelled "request cancelled"))

let errno_data e = Jsonx.Obj [ ("errno", Jsonx.Str (Errno.to_string e)) ]

let sub_dropped t =
  match t.d_m_sub_dropped with
  | Some c -> c
  | None ->
      let c =
        Metrics.counter (Repro_obs.Obs.metrics (obs t)) "ctrl.subscribe.dropped"
      in
      t.d_m_sub_dropped <- Some c;
      c

(* Events are buffered per subscriber, never sunk inline: the emitter must
   not block (or allocate unboundedly) on a slow client.  [flush_subs]
   drains each ring as long as its transport reports ready. *)
let emit t event fields =
  if t.d_subs <> [] then begin
    let params =
      Jsonx.Obj
        (("event", Jsonx.Str event)
        :: ("t_ns", Jsonx.Int (Int64.to_int (Clock.now_ns (clock t))))
        :: fields)
    in
    let msg = Rpc.request_json { Rpc.r_id = None; r_method = "stats.event"; r_params = params } in
    List.iter
      (fun sb ->
        if Queue.length sb.sb_buf >= t.d_config.c_sub_buffer then begin
          ignore (Queue.pop sb.sb_buf);
          Metrics.incr (sub_dropped t)
        end;
        Queue.push msg sb.sb_buf)
      t.d_subs
  end

let flush_subs t =
  List.iter
    (fun sb ->
      while (not (Queue.is_empty sb.sb_buf)) && sb.sb_ready () do
        sb.sb_sink (Queue.pop sb.sb_buf)
      done)
    t.d_subs

let cancel t origin id =
  match List.find_opt (fun p -> p.p_rid = id && p.p_resp = None) origin.o_inflight with
  | None -> false
  | Some p ->
      p.p_cancelled <- true;
      (* wake parked admissions so a cancelled create leaves the queue *)
      ignore (Sched.broadcast t.d_sched t.d_adm_cond);
      true

(* ------------------------------------------------------------------ *)
(* Admission bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

let tcount tbl tenant = Option.value (Hashtbl.find_opt tbl tenant) ~default:0

let tbump tbl tenant delta =
  let v = tcount tbl tenant + delta in
  if v <= 0 then Hashtbl.remove tbl tenant else Hashtbl.replace tbl tenant v

let can_admit t tenant =
  t.d_active < t.d_config.c_max_active
  && tcount t.d_t_active tenant < t.d_config.c_tenant.q_active

let take_slot t sess =
  t.d_active <- t.d_active + 1;
  tbump t.d_t_active sess.s_tenant 1;
  sess.s_admitted <- true;
  Metrics.set t.m_active (float_of_int t.d_active)

let release_slot t sess =
  if sess.s_admitted then begin
    sess.s_admitted <- false;
    t.d_active <- t.d_active - 1;
    tbump t.d_t_active sess.s_tenant (-1);
    Metrics.set t.m_active (float_of_int t.d_active);
    ignore (Sched.broadcast t.d_sched t.d_adm_cond)
  end

(* ------------------------------------------------------------------ *)
(* Data-plane actions                                                 *)
(* ------------------------------------------------------------------ *)

let act t mk =
  let iv = Sched.ivar () in
  Queue.add (mk iv) t.d_actions;
  Sched.read t.d_sched iv

let act_attach t cfg name = act t (fun iv -> A_attach (cfg, name, iv))
let act_run t a cmd = act t (fun iv -> A_run (a, cmd, iv))
let act_detach t a = act t (fun iv -> A_detach (a, iv))
let act_recover t a = act t (fun iv -> A_recover (a, iv))
let act_crash t a = act t (fun iv -> A_crash (a, iv))

let perform t = function
  | A_attach (cfg, name, iv) ->
      Sched.fill t.d_sched iv (Testbed.attach t.d_world ~config:cfg name)
  | A_run (a, cmd, iv) -> Sched.fill t.d_sched iv (Attach.run a cmd)
  | A_detach (a, iv) ->
      Attach.detach a;
      Sched.fill t.d_sched iv ()
  | A_recover (a, iv) ->
      Attach.recover a;
      Sched.fill t.d_sched iv ()
  | A_crash (a, iv) ->
      Attach.crash_server a;
      Sched.fill t.d_sched iv ()

let ctrl_fault t op =
  match t.d_fault with None -> None | Some f -> Fault.ctrl_action f ~op

(* Map a fired ctrl-site action onto the request: [Some errno] fails it,
   sleeps stall it, [Crash_server] marks the session for a post-attach
   crash (create) or kills the live server (exec). *)
let apply_ctrl_fault t op ~on_crash =
  match ctrl_fault t op with
  | None | Some Fault.Duplicate_reply -> None
  | Some (Fault.Delay ns) | Some (Fault.Hang ns) ->
      Sched.sleep_ns t.d_sched ns;
      None
  | Some (Fault.Fail e) -> Some e
  | Some Fault.Drop_reply -> Some Errno.ETIMEDOUT
  | Some Fault.Crash_server ->
      on_crash ();
      None

(* ------------------------------------------------------------------ *)
(* Session fiber                                                      *)
(* ------------------------------------------------------------------ *)

let remove t sess = Hashtbl.remove t.d_sessions sess.s_id

let conn_dead a = a.Attach.sn_cntrfs.Repro_cntrfs.Session.conn.Repro_fuse.Conn.dead

let handle_op t sess op =
  match op with
  | Op_exec (p, _) when sess.s_state = Detached || sess.s_attach = None ->
      reply p (Error (Rpc.error Rpc.no_session (Printf.sprintf "no session %d" sess.s_id)))
  | Op_exec (p, _) when p.p_cancelled -> reply_cancelled t p
  | Op_exec (p, cmd) -> (
      let a = Option.get sess.s_attach in
      let injected = apply_ctrl_fault t "exec" ~on_crash:(fun () -> act_crash t a) in
      if p.p_cancelled then reply_cancelled t p
      else
        match injected with
        | Some e ->
            reply p (Error (Rpc.error ~data:(errno_data e) Rpc.fault_injected "exec fault injected"))
        | None ->
            (* a crashed server recovers transparently before the exec *)
            let recovered = conn_dead a in
            if recovered then begin
              sess.s_state <- Recovering;
              emit t "session.recovering" [ ("session", Jsonx.Int sess.s_id) ];
              (* deterministic race window: a detach submitted now lands
                 behind this op and still detaches cleanly *)
              Sched.yield t.d_sched;
              act_recover t a;
              Metrics.incr t.m_recovered;
              sess.s_state <- Active;
              emit t "session.recovered" [ ("session", Jsonx.Int sess.s_id) ]
            end;
            let code, output = act_run t a cmd in
            sess.s_execs <- sess.s_execs + 1;
            reply p
              (Ok
                 (Jsonx.Obj
                    [
                      ("code", Jsonx.Int code);
                      ("output", Jsonx.Str output);
                      ("recovered", Jsonx.Bool recovered);
                    ])))
  | Op_detach p ->
      if sess.s_state = Detached then
        reply p (Ok (Jsonx.Obj [ ("detached", Jsonx.Bool true); ("already", Jsonx.Bool true) ]))
      else begin
        (* clean even when the server is dead or mid-recovery *)
        (match sess.s_attach with Some a -> act_detach t a | None -> ());
        sess.s_state <- Detached;
        release_slot t sess;
        remove t sess;
        emit t "session.detached"
          [ ("session", Jsonx.Int sess.s_id); ("tenant", Jsonx.Str sess.s_tenant) ];
        reply p (Ok (Jsonx.Obj [ ("detached", Jsonx.Bool true); ("already", Jsonx.Bool false) ]))
      end

let rec serve t sess =
  match Queue.take_opt sess.s_ops with
  | Some op ->
      handle_op t sess op;
      serve t sess
  | None ->
      if sess.s_state = Detached then ()
      else begin
        Sched.park t.d_sched sess.s_cond;
        serve t sess
      end

(* Failure exits before the mailbox loop still answer queued ops. *)
let drain_ops sess =
  Queue.iter
    (fun op ->
      match op with
      | Op_exec (p, _) ->
          reply p (Error (Rpc.error Rpc.no_session (Printf.sprintf "no session %d" sess.s_id)))
      | Op_detach p ->
          reply p (Ok (Jsonx.Obj [ ("detached", Jsonx.Bool true); ("already", Jsonx.Bool true) ])))
    sess.s_ops;
  Queue.clear sess.s_ops

let reject t sess p why =
  Metrics.incr t.m_rejected;
  emit t "session.rejected"
    [
      ("session", Jsonx.Int sess.s_id);
      ("tenant", Jsonx.Str sess.s_tenant);
      ("reason", Jsonx.Str why);
    ];
  sess.s_state <- Detached;
  remove t sess;
  reply p (Error (Rpc.error Rpc.admission_rejected ("admission rejected: " ^ why)));
  drain_ops sess

let create_fiber t sess p =
  let cfg = t.d_config in
  let injected = apply_ctrl_fault t "create" ~on_crash:(fun () -> sess.s_crash_pending <- true) in
  match injected with
  | Some e ->
      sess.s_state <- Detached;
      remove t sess;
      reply p (Error (Rpc.error ~data:(errno_data e) Rpc.fault_injected "create fault injected"));
      drain_ops sess
  | None ->
      let cancelled () =
        sess.s_state <- Detached;
        remove t sess;
        reply_cancelled t p;
        drain_ops sess
      in
      if p.p_cancelled then cancelled ()
      else begin
        (* admission: immediate, queued, or rejected *)
        let wait_ns = ref 0L in
        let verdict =
          if can_admit t sess.s_tenant then `Admit
          else if t.d_queued >= cfg.c_queue_depth then `Reject "queue full"
          else if tcount t.d_t_queued sess.s_tenant >= cfg.c_tenant.q_queued then
            `Reject ("tenant queue full: " ^ sess.s_tenant)
          else begin
            t.d_queued <- t.d_queued + 1;
            tbump t.d_t_queued sess.s_tenant 1;
            let t0 = Clock.now_ns (clock t) in
            while (not (can_admit t sess.s_tenant)) && not p.p_cancelled do
              Sched.park t.d_sched t.d_adm_cond
            done;
            t.d_queued <- t.d_queued - 1;
            tbump t.d_t_queued sess.s_tenant (-1);
            wait_ns := Int64.sub (Clock.now_ns (clock t)) t0;
            if p.p_cancelled then `Cancelled
            else begin
              Metrics.observe_ns t.m_wait (Int64.to_int !wait_ns);
              `Admit
            end
          end
        in
        match verdict with
        | `Cancelled -> cancelled ()
        | `Reject why -> reject t sess p why
        | `Admit -> (
            take_slot t sess;
            if p.p_cancelled then begin
              release_slot t sess;
              cancelled ()
            end
            else
              match act_attach t sess.s_config sess.s_container with
              | Error e ->
                  release_slot t sess;
                  sess.s_state <- Detached;
                  remove t sess;
                  reply p
                    (Error
                       (Rpc.error ~data:(errno_data e) Rpc.attach_failed
                          ("attach failed: " ^ Errno.to_string e)));
                  drain_ops sess
              | Ok a ->
                  sess.s_attach <- Some a;
                  sess.s_state <- Active;
                  Metrics.incr t.m_total;
                  if sess.s_crash_pending then begin
                    sess.s_crash_pending <- false;
                    act_crash t a
                  end;
                  emit t "session.created"
                    [
                      ("session", Jsonx.Int sess.s_id);
                      ("tenant", Jsonx.Str sess.s_tenant);
                      ("container", Jsonx.Str sess.s_container);
                    ];
                  let ctx = Attach.context a in
                  reply p
                    (Ok
                       (Jsonx.Obj
                          [
                            ("session", Jsonx.Int sess.s_id);
                            ("container", Jsonx.Str sess.s_container);
                            ("tenant", Jsonx.Str sess.s_tenant);
                            ("pid", Jsonx.Int ctx.Context.cx_pid);
                            ("cgroup", Jsonx.Str ctx.Context.cx_cgroup);
                            ( "queue_wait_us",
                              Jsonx.Int (Int64.to_int (Int64.div !wait_ns 1000L)) );
                          ]));
                  serve t sess)
      end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let parse_attach_config params =
  let base = Attach.Config.default in
  let base =
    match Jsonx.field_int params "threads" with
    | Some n when n > 0 -> { base with Attach.Config.threads = n }
    | _ -> base
  in
  let base =
    match Jsonx.field_str params "tools" with
    | Some "host" -> { base with Attach.Config.tools = Attach.From_host }
    | Some fat -> { base with Attach.Config.tools = Attach.From_container fat }
    | None -> base
  in
  match Jsonx.field_str params "fault_plan" with
  | None -> Ok base
  | Some text -> (
      match Fault.parse text with
      | Ok (plan, retry) -> Ok { base with Attach.Config.fault = Some plan; retry }
      | Error msg -> Error msg)

let find_sess t params =
  match Jsonx.field_int params "session" with
  | None -> Error (Rpc.error Rpc.invalid_params "missing integer param: session")
  | Some id -> (
      match Hashtbl.find_opt t.d_sessions id with
      | Some sess -> Ok sess
      | None -> Error (Rpc.error Rpc.no_session (Printf.sprintf "no session %d" id)))

let post_op t sess op =
  Queue.add op sess.s_ops;
  ignore (Sched.signal t.d_sched sess.s_cond)

let sess_row sess =
  Jsonx.Obj
    [
      ("session", Jsonx.Int sess.s_id);
      ("tenant", Jsonx.Str sess.s_tenant);
      ("container", Jsonx.Str sess.s_container);
      ("state", Jsonx.Str (state_str sess.s_state));
      ("execs", Jsonx.Int sess.s_execs);
    ]

let info_json =
  Jsonx.Obj
    [
      ("server", Jsonx.Str "cntrd");
      ("protocol", Jsonx.Str "2.0");
      ("version", Jsonx.Str protocol_version);
      ("methods", Jsonx.List (List.map (fun m -> Jsonx.Str m) methods));
    ]

let dispatch t ?sink ?sink_ready p (req : Rpc.request) =
  let params = req.Rpc.r_params in
  match req.Rpc.r_method with
  | "daemon.info" -> reply p (Ok info_json)
  | "session.create" -> (
      match Jsonx.field_str params "container" with
      | None -> reply p (Error (Rpc.error Rpc.invalid_params "missing string param: container"))
      | Some container -> (
          match parse_attach_config params with
          | Error msg ->
              reply p (Error (Rpc.error Rpc.invalid_params ("bad fault_plan: " ^ msg)))
          | Ok acfg ->
              let tenant =
                Option.value (Jsonx.field_str params "tenant") ~default:"default"
              in
              let sess =
                {
                  s_id = t.d_next_id;
                  s_tenant = tenant;
                  s_container = container;
                  s_config = acfg;
                  s_state = Queued;
                  s_attach = None;
                  s_execs = 0;
                  s_admitted = false;
                  s_crash_pending = false;
                  s_ops = Queue.create ();
                  s_cond = Sched.cond ();
                }
              in
              t.d_next_id <- t.d_next_id + 1;
              Hashtbl.replace t.d_sessions sess.s_id sess;
              ignore (Sched.spawn t.d_sched (fun () -> create_fiber t sess p))))
  | "session.exec" -> (
      match (find_sess t params, Jsonx.field_str params "cmd") with
      | Error e, _ -> reply p (Error e)
      | Ok _, None -> reply p (Error (Rpc.error Rpc.invalid_params "missing string param: cmd"))
      | Ok sess, Some cmd -> post_op t sess (Op_exec (p, cmd)))
  | "session.stat" -> (
      match find_sess t params with
      | Error e -> reply p (Error e)
      | Ok sess ->
          let report =
            match sess.s_attach with Some a -> Attach.report a | None -> ""
          in
          let fields =
            match sess_row sess with Jsonx.Obj f -> f | _ -> assert false
          in
          reply p (Ok (Jsonx.Obj (fields @ [ ("report", Jsonx.Str report) ]))))
  | "session.detach" -> (
      (* idempotent at the RPC layer: unknown ids are already-detached *)
      match Jsonx.field_int params "session" with
      | None -> reply p (Error (Rpc.error Rpc.invalid_params "missing integer param: session"))
      | Some id -> (
          match Hashtbl.find_opt t.d_sessions id with
          | None ->
              reply p
                (Ok (Jsonx.Obj [ ("detached", Jsonx.Bool true); ("already", Jsonx.Bool true) ]))
          | Some sess -> post_op t sess (Op_detach p)))
  | "session.list" ->
      let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.d_sessions [] in
      let rows =
        List.sort compare ids
        |> List.map (fun id -> sess_row (Hashtbl.find t.d_sessions id))
      in
      reply p (Ok (Jsonx.Obj [ ("sessions", Jsonx.List rows) ]))
  | "stats.subscribe" -> (
      match sink with
      | None ->
          reply p
            (Error (Rpc.error Rpc.internal_error "transport provides no notification sink"))
      | Some sink ->
          let ready = Option.value sink_ready ~default:(fun () -> true) in
          t.d_subs <-
            t.d_subs @ [ { sb_sink = sink; sb_buf = Queue.create (); sb_ready = ready } ];
          reply p
            (Ok
               (Jsonx.Obj
                  [
                    ("subscribed", Jsonx.Bool true);
                    ("buffer", Jsonx.Int t.d_config.c_sub_buffer);
                  ])))
  | "$/cancel" -> (
      match Option.bind (Jsonx.mem params "id") Rpc.id_of_json with
      | None -> reply p (Error (Rpc.error Rpc.invalid_params "missing param: id"))
      | Some id ->
          let found = cancel t p.p_origin id in
          reply p (Ok (Jsonx.Obj [ ("cancelled", Jsonx.Bool found) ])))
  | m -> reply p (Error (Rpc.error Rpc.method_not_found ("unknown method: " ^ m)))

let submit t ~origin ?sink ?sink_ready (req : Rpc.request) =
  Metrics.incr t.m_calls;
  match req.Rpc.r_id with
  | None ->
      (* notifications: only $/cancel is meaningful *)
      (if req.Rpc.r_method = "$/cancel" then
         match Option.bind (Jsonx.mem req.Rpc.r_params "id") Rpc.id_of_json with
         | Some id -> ignore (cancel t origin id)
         | None -> ());
      None
  | Some id ->
      let p = { p_rid = id; p_origin = origin; p_cancelled = false; p_resp = None } in
      origin.o_inflight <- origin.o_inflight @ [ p ];
      dispatch t ?sink ?sink_ready p req;
      Some p

(* ------------------------------------------------------------------ *)
(* The pump                                                           *)
(* ------------------------------------------------------------------ *)

let k t = kernel t

(* ctrl.wire.* counters, created by the first wire_serve *)
let wire_metrics t =
  match t.d_wm with
  | Some m -> m
  | None ->
      let mx = Repro_obs.Obs.metrics (obs t) in
      let m =
        {
          wm_conns = Metrics.counter mx "ctrl.wire.conns";
          wm_batches = Metrics.counter mx "ctrl.wire.batches";
          wm_stalls = Metrics.counter mx "ctrl.wire.stalls";
          wm_overloaded = Metrics.counter mx "ctrl.wire.overloaded";
          wm_pipelined_max = Metrics.gauge mx "ctrl.wire.pipelined.max";
          wm_backlog_peak = Metrics.gauge mx "ctrl.wire.backlog.peak";
          wm_frame_max = Metrics.gauge mx "ctrl.wire.frame.max";
        }
      in
      t.d_wm <- Some m;
      m

let wm t = Option.get t.d_wm (* wire paths only run after wire_serve *)

(* [rotate l n]: l starting at index [n mod length], wrapping — the
   round-robin order for one service pass. *)
let rotate l n =
  let len = List.length l in
  if len <= 1 then l
  else
    let rec split i acc = function
      | x :: tl when i > 0 -> split (i - 1) (x :: acc) tl
      | rest -> rest @ List.rev acc
    in
    split (n mod len) [] l

(* Append one framed payload to the connection's backlog, tracking the
   peak backlog and largest single frame (the flow-control gate in the
   fleet bench checks peak <= high watermark + one frame). *)
let conn_push t wc payload =
  let framed = Rpc.frame payload in
  Queue.push framed wc.wc_outq;
  wc.wc_out_len <- wc.wc_out_len + String.length framed;
  let m = wm t in
  Metrics.high_water m.wm_frame_max (String.length framed);
  Metrics.high_water m.wm_backlog_peak wc.wc_out_len

let conn_room t wc = wc.wc_out_len < t.d_config.c_wire_high

(* Admit one id-carrying request from a connection, or refuse it with
   -32005 when the connection's inbound queue (admitted requests whose
   replies have not yet been flushed) is full.  Notifications are always
   processed — dropping a $/cancel under load would be unkind. *)
let wire_admit t wc ~sink ~sink_ready (req : Rpc.request) =
  match req.Rpc.r_id with
  | None ->
      ignore (submit t ~origin:wc.wc_origin ~sink ~sink_ready req);
      `None
  | Some id ->
      if wc.wc_inflight >= t.d_config.c_wire_inflight then begin
        Metrics.incr (wm t).wm_overloaded;
        `Reply
          {
            Rpc.p_id = Some id;
            p_result =
              Error
                (Rpc.error Rpc.overloaded
                   (Printf.sprintf "connection inbound queue full (%d in flight)"
                      wc.wc_inflight));
          }
      end
      else
        match submit t ~origin:wc.wc_origin ~sink ~sink_ready req with
        | Some tk ->
            wc.wc_inflight <- wc.wc_inflight + 1;
            Metrics.high_water (wm t).wm_pipelined_max wc.wc_inflight;
            `Ticket tk
        | None -> `None

let handle_frame t wc ~sink ~sink_ready payload =
  let now r = Queue.push r wc.wc_now in
  match Rpc.decode_incoming payload with
  | Error e -> now { Rpc.p_id = None; p_result = Error e }
  | Ok (Rpc.Single (Error e)) -> now { Rpc.p_id = None; p_result = Error e }
  | Ok (Rpc.Single (Ok (Rpc.Response _))) -> () (* clients don't call us back *)
  | Ok (Rpc.Single (Ok (Rpc.Request req))) -> (
      match wire_admit t wc ~sink ~sink_ready req with
      | `Reply r -> now r
      | `Ticket tk -> wc.wc_singles <- wc.wc_singles @ [ tk ]
      | `None -> ())
  | Ok (Rpc.Batch elems) ->
      Metrics.incr (wm t).wm_batches;
      let slots =
        List.filter_map
          (function
            | Error e -> Some (Slot_done { Rpc.p_id = None; p_result = Error e })
            | Ok (Rpc.Response _) -> None
            | Ok (Rpc.Request req) -> (
                match wire_admit t wc ~sink ~sink_ready req with
                | `Reply r -> Some (Slot_done r)
                | `Ticket tk -> Some (Slot_wait tk)
                | `None -> None))
          elems
      in
      (* an all-notification (or all-ignored) batch gets no reply frame *)
      if slots <> [] then wc.wc_batches <- wc.wc_batches @ [ Array.of_list slots ]

let slot_response = function Slot_done r -> Some r | Slot_wait tk -> tk.p_resp

(* Move finished replies into the framed backlog while the watermark
   allows: immediate replies first, then resolved pipelined singles in
   arrival order (unresolved ones are skipped — replies are deliverable
   out of order), then complete batch envelopes as one array frame each.
   Anything without room stays queued; flow control, not truncation. *)
let conn_flush t wc =
  let progress = ref false in
  while conn_room t wc && not (Queue.is_empty wc.wc_now) do
    conn_push t wc (Rpc.encode_response (Queue.pop wc.wc_now));
    progress := true
  done;
  let rec sweep_singles = function
    | [] -> []
    | tk :: rest when conn_room t wc -> (
        match tk.p_resp with
        | Some r ->
            conn_push t wc (Rpc.encode_response r);
            wc.wc_inflight <- wc.wc_inflight - 1;
            progress := true;
            sweep_singles rest
        | None -> tk :: sweep_singles rest)
    | rest -> rest
  in
  wc.wc_singles <- sweep_singles wc.wc_singles;
  let batch_complete slots = Array.for_all (fun s -> slot_response s <> None) slots in
  let rec sweep_batches = function
    | [] -> []
    | slots :: rest when conn_room t wc && batch_complete slots ->
        let rs =
          Array.to_list (Array.map (fun s -> Option.get (slot_response s)) slots)
        in
        conn_push t wc (Rpc.encode_responses rs);
        let admitted =
          Array.fold_left
            (fun a -> function Slot_wait _ -> a + 1 | Slot_done _ -> a)
            0 slots
        in
        wc.wc_inflight <- wc.wc_inflight - admitted;
        progress := true;
        sweep_batches rest
    | slots :: rest -> slots :: sweep_batches rest
  in
  wc.wc_batches <- sweep_batches wc.wc_batches;
  !progress

(* Push backlog bytes into the (bounded) kernel socket; partial writes
   leave an offset into the head chunk. *)
let conn_write t w wc =
  let progress = ref false in
  let blocked = ref false in
  while (not !blocked) && not (Queue.is_empty wc.wc_outq) do
    let chunk = Queue.peek wc.wc_outq in
    let s =
      if wc.wc_out_off = 0 then chunk
      else String.sub chunk wc.wc_out_off (String.length chunk - wc.wc_out_off)
    in
    match Kernel.write (k t) w.w_proc wc.wc_fd s with
    | Ok n when n > 0 ->
        progress := true;
        wc.wc_out_len <- wc.wc_out_len - n;
        if n = String.length s then begin
          ignore (Queue.pop wc.wc_outq);
          wc.wc_out_off <- 0
        end
        else begin
          wc.wc_out_off <- wc.wc_out_off + n;
          blocked := true
        end
    | _ -> blocked := true
  done;
  !progress

(* The flow-control state machine: FLOWING --(backlog >= high)--> STALLED
   --(backlog <= low)--> FLOWING.  Stalled connections are not read and
   take no buffered replies or events; stall entries are counted. *)
let conn_update_flow t wc =
  match wc.wc_flow with
  | Flowing when wc.wc_out_len >= t.d_config.c_wire_high ->
      wc.wc_flow <- Stalled;
      Metrics.incr (wm t).wm_stalls
  | Stalled when wc.wc_out_len <= t.d_config.c_wire_low -> wc.wc_flow <- Flowing
  | _ -> ()

(* One service pass over a wire endpoint: move plane bytes, accept new
   clients, deframe + dispatch (pipelined; batches envelope-at-a-time),
   flush finished replies and events under the watermark, write. *)
let wire_step t w =
  let progress = ref false in
  Proxy.drain w.w_plane;
  let rec accept_loop () =
    match Kernel.socket_accept (k t) w.w_proc w.w_lfd with
    | Ok fd ->
        progress := true;
        Metrics.incr (wm t).wm_conns;
        w.w_conns <-
          {
            wc_fd = fd;
            wc_reader = Rpc.reader ();
            wc_outq = Queue.create ();
            wc_out_off = 0;
            wc_out_len = 0;
            wc_flow = Flowing;
            wc_now = Queue.create ();
            wc_singles = [];
            wc_batches = [];
            wc_inflight = 0;
            wc_origin = origin ();
          }
          :: w.w_conns;
        accept_loop ()
    | Error _ -> ()
  in
  accept_loop ();
  (* service connections round-robin so no socket is list-position-biased *)
  let conns = rotate w.w_conns w.w_rr in
  if conns <> [] then w.w_rr <- w.w_rr + 1;
  List.iter
    (fun wc ->
      (* read + dispatch only while flowing: a stalled reader's requests
         back up into the bounded socket, then into the sender *)
      if wc.wc_flow = Flowing then begin
        let rec read_loop () =
          match Kernel.read (k t) w.w_proc wc.wc_fd ~len:65536 with
          | Ok s when String.length s > 0 ->
              Rpc.feed wc.wc_reader s;
              progress := true;
              read_loop ()
          | _ -> ()
        in
        read_loop ();
        let sink j =
          if conn_room t wc then conn_push t wc (Jsonx.to_string j)
        in
        let sink_ready () = wc.wc_flow = Flowing && conn_room t wc in
        let rec frame_loop () =
          match Rpc.next wc.wc_reader with
          | `Frame payload ->
              progress := true;
              handle_frame t wc ~sink ~sink_ready payload;
              frame_loop ()
          | `Garbage _ ->
              progress := true;
              Queue.push
                {
                  Rpc.p_id = None;
                  p_result = Error (Rpc.error Rpc.parse_error "malformed framing header");
                }
                wc.wc_now;
              frame_loop ()
          | `More -> ()
        in
        frame_loop ()
      end)
    conns;
  (* buffered events drain into whichever subscriber sinks report ready
     (a wire sink is ready while its connection flows under the
     watermark) *)
  flush_subs t;
  List.iter
    (fun wc ->
      if conn_flush t wc then progress := true;
      if conn_write t w wc then progress := true;
      conn_update_flow t wc)
    conns;
  Proxy.drain w.w_plane;
  !progress

let pump t =
  let rec loop () =
    Sched.drive_main t.d_sched (fun () ->
        (not (Queue.is_empty t.d_actions)) || Sched.pending_events t.d_sched = 0);
    match Queue.take_opt t.d_actions with
    | Some a ->
        perform t a;
        loop ()
    | None ->
        (* in-process subscribers (always ready) drain here even when no
           wire exists *)
        flush_subs t;
        (* wire endpoints are serviced round-robin, not list-position
           first *)
        let wires = rotate t.d_wires t.d_wire_rr in
        if wires <> [] then t.d_wire_rr <- t.d_wire_rr + 1;
        let progressed = List.fold_left (fun acc w -> wire_step t w || acc) false wires in
        if progressed then loop ()
  in
  loop ()

let peek _t tk = tk.p_resp

exception Stalled of string

let response t tk =
  let rec go () =
    match tk.p_resp with
    | Some r -> r
    | None ->
        pump t;
        (match tk.p_resp with
        | Some r -> r
        | None ->
            if Queue.is_empty t.d_actions && Sched.pending_events t.d_sched = 0 then
              raise
                (Stalled
                   "request parked with no runnable work (admission queue with no detach coming?)")
            else go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Wire serving                                                       *)
(* ------------------------------------------------------------------ *)

let wire_serve t ~path () =
  ignore (wire_metrics t);
  let kernel = k t in
  let init = Kernel.init_proc kernel in
  let dproc = Kernel.fork kernel init in
  dproc.Proc.comm <- "cntrd";
  let cproc = Kernel.fork kernel init in
  cproc.Proc.comm <- "cntr-cli";
  let pproc = Kernel.fork kernel init in
  pproc.Proc.comm <- "cntrd-rpc";
  let plane = Proxy.create ~kernel ~proc:pproc () in
  (* best-effort parent dir (e.g. /run) so callers don't need setup *)
  (match String.rindex_opt path '/' with
  | Some i when i > 0 ->
      ignore (Kernel.mkdir kernel init (String.sub path 0 i) ~mode:0o755)
  | _ -> ());
  let backend_path = path ^ ".d" in
  match Kernel.socket_listen kernel dproc backend_path with
  | Error e -> Error e
  | Ok lfd -> (
      match
        Proxy.forward plane ~front_proc:init ~back_proc:dproc ~backend_path ~label:"rpc" path
      with
      | Error e -> Error e
      | Ok _fwd ->
          let w =
            {
              w_path = path;
              w_proc = dproc;
              w_client_proc = cproc;
              w_plane = plane;
              w_lfd = lfd;
              w_daemon = t;
              w_conns = [];
              w_rr = 0;
            }
          in
          (* O(1) registration; service order is round-robin, so list
             position carries no priority *)
          t.d_wires <- w :: t.d_wires;
          Ok w)

(* The pair of [wire_serve]: the plane's reactor, acceptor and pumps end,
   the wire's three processes exit (closing the daemon's listener and the
   client ends), and [pump] stops servicing it. *)
let wire_close w =
  let t = w.w_daemon in
  if List.memq w t.d_wires then begin
    t.d_wires <- List.filter (fun x -> x != w) t.d_wires;
    Proxy.close w.w_plane;
    List.iter (fun p -> Kernel.exit (k t) p 0) [ w.w_proc; w.w_client_proc; Proxy.proc w.w_plane ]
  end

let wire_path w = w.w_path
let wire_client_proc w = w.w_client_proc
let wire_daemon w = w.w_daemon
