(* The forwarding plane (§3.2.4): sockets and the attach TTY ride an
   event-driven data path instead of ad-hoc turn-based relays.

   Structure: one reactor fiber per plane blocks in epoll_wait_edge and
   parks on its scheduler between wakeups — the watched fds' waitqueues
   fire the epoll notify hook, which pokes the reactor.  Each connection
   runs two per-direction pump fibers moving bytes src -> staging pipe ->
   dst with splice(2) (or a userspace read/write relay in [Copy] mode, the
   baseline e9 compares against).  A pump that drains to EAGAIN re-arms
   its fds' edge state (EPOLL_CTL_MOD idiom) and parks; the reactor kicks
   it when readiness returns.  The staging pipe's capacity bounds
   in-flight bytes per direction — that is the backpressure ceiling, and
   stalls against it are counted.

   Everything runs on the shared virtual clock; event order is
   (time, sequence)-deterministic, so two identical runs move identical
   bytes at identical timestamps. *)

open Repro_util
open Repro_os
module Sched = Repro_sched.Sched
module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Fault = Repro_fault.Fault

type mode = Splice | Copy

(* One direction of a connection: src fd -> staging pipe -> dst fd. *)
type dir = {
  d_label : string;
  d_src : int;
  d_dst : int;
  d_buf : Pipe.t; (* staging: bounds in-flight bytes for this direction *)
  d_buf_r : int;
  d_buf_w : int;
  mutable d_carry : string; (* Copy mode: bytes read but not yet written *)
  d_cond : Sched.cond;
  mutable d_dirty : bool; (* kicked since the pump last looked *)
  mutable d_src_eof : bool;
  mutable d_buf_closed : bool; (* staging writer closed (EOF propagating) *)
  mutable d_done : bool;
  d_bytes : Metrics.counter;
  d_extra : Metrics.counter option; (* per-forwarder byte accounting *)
}

type conn = {
  cn_label : string;
  cn_dirs : dir array; (* [| c2b; b2c |] *)
  cn_endpoint_fds : int list; (* unique endpoint fds, for teardown *)
  mutable cn_closed : bool;
}

type stream = conn

(* Per-fd reactor bookkeeping: merged epoll interest plus the pump kicks
   readiness transitions should fire. *)
type kick = { k_on_in : bool; k_on_out : bool; k_fn : unit -> unit }
type watch = { mutable w_interest : Epoll.interest; mutable w_kicks : kick list }

type forwarder = {
  fw_path : string;
  fw_label : string;
  fw_bytes : (Metrics.counter * Metrics.counter) option; (* (c2b, b2c) *)
  fw_backend_path : string;
  fw_back_proc : Proc.t;
  fw_lfd : int; (* listener fd, moved into the plane's proc *)
  fw_cond : Sched.cond;
  mutable fw_dirty : bool;
  mutable fw_closed : bool;
  mutable fw_proxied : int;
}

type t = {
  px_kernel : Kernel.t;
  px_proc : Proc.t;
  px_sched : Sched.t;
  px_mode : mode;
  px_fault : Fault.t option;
  px_buffer : int;
  px_epfd : int;
  px_cond : Sched.cond; (* reactor parks here *)
  mutable px_dirty : bool;
  mutable px_closed : bool;
  px_watch : (int, watch) Hashtbl.t;
  mutable px_conns : conn list;
  mutable px_forwarders : forwarder list;
  mutable px_error : exn option;
  m_active : Metrics.gauge;
  m_total : Metrics.counter;
  m_refused : Metrics.counter;
  m_c2b : Metrics.counter;
  m_b2c : Metrics.counter;
  m_unflushed : Metrics.counter;
  m_splice : Metrics.counter;
  m_stalls : Metrics.counter;
  m_wakeups : Metrics.counter;
  m_datapath : Metrics.counter;
}

let proc t = t.px_proc
let connection_count fw = fw.fw_proxied

(* A fiber that dies takes the whole plane's credibility with it: remember
   the first exception and re-raise it at the next drain. *)
let guard t f =
  try f () with e -> if t.px_error = None then t.px_error <- Some e

(* Wake the reactor.  The dirty flag is set before the signal so a kick
   landing while the reactor is mid-cycle is not lost (Mesa-style). *)
let poke t =
  t.px_dirty <- true;
  if not t.px_closed then ignore (Sched.signal t.px_sched t.px_cond)

let kick_dir t d =
  d.d_dirty <- true;
  ignore (Sched.signal t.px_sched d.d_cond)

(* --- reactor ------------------------------------------------------------ *)

let dispatch t (ev : Epoll.event) =
  match Hashtbl.find_opt t.px_watch ev.Epoll.ev_fd with
  | None -> ()
  | Some w ->
      List.iter
        (fun k ->
          if (ev.Epoll.ev_in && k.k_on_in) || (ev.Epoll.ev_out && k.k_on_out) then k.k_fn ())
        w.w_kicks

let rec reactor t =
  if t.px_closed then ()
  else if t.px_dirty then begin
    t.px_dirty <- false;
    Metrics.incr t.m_wakeups;
    (match Kernel.epoll_wait_edge t.px_kernel t.px_proc t.px_epfd with
    | Ok events -> List.iter (dispatch t) events
    | Error _ -> ());
    Sched.yield t.px_sched;
    reactor t
  end
  else begin
    Sched.park t.px_sched t.px_cond;
    reactor t
  end

let register_kick t fd ~on_in ~on_out fn =
  let w =
    match Hashtbl.find_opt t.px_watch fd with
    | Some w -> w
    | None ->
        let w = { w_interest = { Epoll.want_in = false; want_out = false }; w_kicks = [] } in
        Hashtbl.replace t.px_watch fd w;
        w
  in
  w.w_interest <-
    {
      Epoll.want_in = w.w_interest.Epoll.want_in || on_in;
      want_out = w.w_interest.Epoll.want_out || on_out;
    };
  w.w_kicks <- w.w_kicks @ [ { k_on_in = on_in; k_on_out = on_out; k_fn = fn } ];
  Errno.ok_exn
    (Kernel.epoll_add t.px_kernel t.px_proc ~epfd:t.px_epfd ~fd ~interest:w.w_interest)

(* Reset the fd's edge state before parking on it: the ET contract only
   reports false->true transitions, and our wait_edge samples rather than
   journals, so a flap between two waits would otherwise be lost. *)
let rearm t fd =
  if Hashtbl.mem t.px_watch fd then
    ignore (Kernel.epoll_rearm t.px_kernel t.px_proc ~epfd:t.px_epfd ~fd)

let unwatch t fd =
  if Hashtbl.mem t.px_watch fd then begin
    Hashtbl.remove t.px_watch fd;
    ignore (Kernel.epoll_del t.px_kernel t.px_proc ~epfd:t.px_epfd ~fd)
  end

(* Close an fd if the plane still owns it (fd numbers are never reused, so
   a vanished entry means someone already closed it). *)
let close_fd t fd =
  if Proc.fd t.px_proc fd <> None then ignore (Kernel.close t.px_kernel t.px_proc fd)

(* --- connection teardown ------------------------------------------------ *)

let close_buf_writer t d =
  if not d.d_buf_closed then begin
    d.d_buf_closed <- true;
    close_fd t d.d_buf_w
  end

let conn_retired t = Metrics.shift t.m_active (-1.)

(* Half-close the destination once this direction has delivered everything:
   sockets shut down their send side (the peer's read side stays usable),
   pipe writers just close. *)
let half_close_dst t cn d =
  (match Proc.fd t.px_proc d.d_dst with
  | Some (Proc.Sock_conn _) -> ignore (Kernel.shutdown_write t.px_kernel t.px_proc d.d_dst)
  | Some _ -> close_fd t d.d_dst
  | None -> ());
  d.d_done <- true;
  if Array.for_all (fun d -> d.d_done) cn.cn_dirs && not cn.cn_closed then begin
    cn.cn_closed <- true;
    List.iter
      (fun fd ->
        unwatch t fd;
        close_fd t fd)
      cn.cn_endpoint_fds;
    Array.iter
      (fun d ->
        close_buf_writer t d;
        close_fd t d.d_buf_r)
      cn.cn_dirs;
    conn_retired t
  end

(* Abortive teardown (injected crash, peer reset, plane close): count every
   in-flight byte the connection accepted but never delivered — source
   queue, staging pipe, carry — RST socket ends so nobody waits on a byte
   that will not come, and release everything. *)
let fd_pending t fd =
  match Proc.fd t.px_proc fd with
  | Some (Proc.Pipe_r p) -> Pipe.available p
  | Some (Proc.Sock_conn ep) -> Sock.available ep
  | _ -> 0

let abort_conn t cn =
  if not cn.cn_closed then begin
    cn.cn_closed <- true;
    Array.iter
      (fun d ->
        let stranded =
          fd_pending t d.d_src + Pipe.available d.d_buf + String.length d.d_carry
        in
        if stranded > 0 then Metrics.add t.m_unflushed stranded;
        d.d_carry <- "";
        d.d_done <- true)
      cn.cn_dirs;
    List.iter
      (fun fd ->
        unwatch t fd;
        match Proc.fd t.px_proc fd with
        | Some (Proc.Sock_conn _) -> ignore (Kernel.socket_abort t.px_kernel t.px_proc fd)
        | Some _ -> close_fd t fd
        | None -> ())
      cn.cn_endpoint_fds;
    Array.iter
      (fun d ->
        close_buf_writer t d;
        close_fd t d.d_buf_r)
      cn.cn_dirs;
    conn_retired t;
    Array.iter (fun d -> ignore (Sched.signal t.px_sched d.d_cond)) cn.cn_dirs
  end

(* --- fault consultation ------------------------------------------------- *)

let fd_readable t fd =
  match Proc.fd t.px_proc fd with
  | Some (Proc.Pipe_r p) -> Pipe.readable p
  | Some (Proc.Sock_conn ep) -> Sock.readable ep
  | _ -> false

let dir_has_work t d =
  (not d.d_src_eof) && fd_readable t d.d_src
  || Pipe.available d.d_buf > 0
  || String.length d.d_carry > 0

(* Consult the [proxy data] site once per pass that has bytes to move.
   Delay/hang stall this direction on the virtual clock; anything else
   kills the connection abortively — a bounded ECONNRESET, never a hang. *)
let fault_data t cn d =
  match t.px_fault with
  | None -> ()
  | Some f ->
      if dir_has_work t d && not cn.cn_closed then begin
        match Fault.proxy_action f ~op:"data" with
        | None -> ()
        | Some (Fault.Delay ns) | Some (Fault.Hang ns) -> Sched.sleep_ns t.px_sched ns
        | Some _ -> abort_conn t cn
      end

(* --- pumps -------------------------------------------------------------- *)

(* Splice pass: drain src into the staging pipe, then the staging pipe into
   dst, each until EAGAIN.  Kernel.splice clamps its pull to the sink's
   free room, so nothing read is ever stranded mid-flight. *)
let splice_pass t cn d =
  let progress = ref false in
  let src_finished () =
    if not d.d_src_eof then begin
      d.d_src_eof <- true;
      close_buf_writer t d;
      progress := true
    end
  in
  let moved = ref true in
  (* Doorbell discipline: splice only when the plane already knows the
     call can make headway (source readable — which includes EOF and RST,
     both of which a call must observe — and staging room / staged bytes).
     A blind probe costs a full virtual syscall+setup; an event-driven
     relay earns its keep by not paying that on every wakeup. *)
  let rec pull () =
    if
      (not d.d_src_eof) && (not cn.cn_closed)
      && Pipe.room d.d_buf > 0
      && fd_readable t d.d_src
    then
      match
        Kernel.splice t.px_kernel t.px_proc ~fd_in:d.d_src ~fd_out:d.d_buf_w
          ~len:Pipe.default_capacity
      with
      | Ok 0 -> src_finished ()
      | Ok _ ->
          Metrics.incr t.m_splice;
          progress := true;
          moved := true;
          pull ()
      | Error Errno.EAGAIN -> ()
      | Error Errno.ECONNRESET -> abort_conn t cn
      | Error _ -> src_finished ()
  in
  let rec push () =
    if
      (not d.d_done) && (not cn.cn_closed)
      && (Pipe.available d.d_buf > 0 || d.d_buf_closed)
    then
      match
        Kernel.splice t.px_kernel t.px_proc ~fd_in:d.d_buf_r ~fd_out:d.d_dst
          ~len:Pipe.default_capacity
      with
      | Ok 0 ->
          (* staging EOF: src side finished and fully drained *)
          progress := true;
          half_close_dst t cn d
      | Ok n ->
          Metrics.incr t.m_splice;
          Metrics.add d.d_bytes n;
          (match d.d_extra with Some c -> Metrics.add c n | None -> ());
          progress := true;
          moved := true;
          push ()
      | Error Errno.EAGAIN -> ()
      | Error (Errno.EPIPE | Errno.ECONNRESET) -> abort_conn t cn
      | Error Errno.EBADF -> d.d_done <- true
      | Error _ -> abort_conn t cn
  in
  (* Cycle until quiescent: a push that frees staging room can unblock
     another pull.  The readiness gates make an idle cycle free, so the
     pass always leaves the direction with nothing more it could do. *)
  while !moved && (not cn.cn_closed) && not d.d_done do
    moved := false;
    pull ();
    push ()
  done;
  !progress

(* Copy pass: the userspace relay baseline.  Bytes cross the boundary
   twice (read + write), each leg charged per KiB.  A short write keeps
   its remainder in d_carry — bytes read out of the source are never
   dropped; the carry also serves as this mode's in-flight bound. *)
let copy_pass t cn d =
  let clock = t.px_kernel.Kernel.clock in
  let progress = ref false in
  let rec step () =
    if cn.cn_closed || d.d_done then ()
    else if String.length d.d_carry > 0 then begin
      match Kernel.write t.px_kernel t.px_proc d.d_dst d.d_carry with
      | Ok n when n > 0 ->
          Clock.consume_int clock (Cost.copy_cost n);
          Metrics.add d.d_bytes n;
          (match d.d_extra with Some c -> Metrics.add c n | None -> ());
          d.d_carry <- String.sub d.d_carry n (String.length d.d_carry - n);
          progress := true;
          step ()
      | Ok _ | Error Errno.EAGAIN -> ()
      | Error (Errno.EPIPE | Errno.ECONNRESET) -> abort_conn t cn
      | Error Errno.EBADF -> d.d_done <- true
      | Error _ -> abort_conn t cn
    end
    else if d.d_src_eof then begin
      progress := true;
      half_close_dst t cn d
    end
    else if not (fd_readable t d.d_src) then
      (* nothing to read: skip the probe (same doorbell discipline as the
         splice pass; readable covers EOF and RST, so both still surface) *)
      ()
    else begin
      match Kernel.read t.px_kernel t.px_proc d.d_src ~len:(min Pipe.default_capacity t.px_buffer) with
      | Ok "" ->
          d.d_src_eof <- true;
          progress := true;
          step ()
      | Ok s ->
          Clock.consume_int clock (Cost.copy_cost (String.length s));
          d.d_carry <- s;
          progress := true;
          step ()
      | Error Errno.EAGAIN -> ()
      | Error Errno.ECONNRESET -> abort_conn t cn
      | Error Errno.EBADF -> d.d_done <- true
      | Error _ ->
          d.d_src_eof <- true;
          progress := true;
          step ()
    end
  in
  step ();
  !progress

(* Is this direction parked against its in-flight ceiling?  (Source still
   has more, but the staging pipe / carry cannot take it.) *)
let backpressured t d =
  match t.px_mode with
  | Splice -> (not d.d_src_eof) && Pipe.room d.d_buf = 0
  | Copy -> String.length d.d_carry > 0

let rec pump_loop t cn d =
  if t.px_closed || cn.cn_closed || d.d_done then ()
  else begin
    fault_data t cn d;
    if t.px_closed || cn.cn_closed || d.d_done then ()
    else
      (* Meter the virtual time one pass consumes.  Fibers overlap on the
         clock, so this — not wall virtual time — is the plane's own cost;
         a pass has no suspension point, making the delta well defined. *)
      let t0 = Clock.now_ns t.px_kernel.Kernel.clock in
      ignore
        (match t.px_mode with Splice -> splice_pass t cn d | Copy -> copy_pass t cn d);
      let spent = Int64.sub (Clock.now_ns t.px_kernel.Kernel.clock) t0 in
      if Int64.compare spent 0L > 0 then
        Metrics.add t.m_datapath (Int64.to_int spent);
      if t.px_closed || cn.cn_closed || d.d_done then ()
      else if d.d_dirty then begin
        (* a kick landed mid-pass: give the reactor a turn, then re-pass
           (the readiness gates make a spurious re-pass free) *)
        d.d_dirty <- false;
        Sched.yield t.px_sched;
        pump_loop t cn d
      end
      else begin
        if backpressured t d then Metrics.incr t.m_stalls;
        (* Re-arm only the edges this direction is actually blocked on.
           Each such fd is not-ready right now (that is why the pass
           stalled), so the rearm cannot re-report it spuriously — while a
           blanket rearm of a still-writable destination would kick the
           pump into a futile pass on every reactor cycle. *)
        if Pipe.available d.d_buf > 0 || String.length d.d_carry > 0 then rearm t d.d_dst;
        if
          (not d.d_src_eof)
          &&
          match t.px_mode with
          | Splice -> Pipe.room d.d_buf > 0
          | Copy -> String.length d.d_carry = 0
        then rearm t d.d_src;
        (* No effect points since the dirty check above, so parking here
           cannot miss a kick. *)
        Sched.park t.px_sched d.d_cond;
        pump_loop t cn d
      end
  end

(* --- wiring up a connection --------------------------------------------- *)

let add_conn t ?(extra = (None, None)) ~label ~a_rfd ~a_wfd ~b_rfd ~b_wfd () =
  let mk d_label src dst counter extra =
    let buf = Pipe.create ~capacity:t.px_buffer () in
    let buf_r = Proc.alloc_fd t.px_proc (Proc.Pipe_r buf) in
    let buf_w = Proc.alloc_fd t.px_proc (Proc.Pipe_w buf) in
    {
      d_label;
      d_src = src;
      d_dst = dst;
      d_buf = buf;
      d_buf_r = buf_r;
      d_buf_w = buf_w;
      d_carry = "";
      d_cond = Sched.cond ();
      d_dirty = false;
      d_src_eof = false;
      d_buf_closed = false;
      d_done = false;
      d_bytes = counter;
      d_extra = extra;
    }
  in
  let extra_c2b, extra_b2c = extra in
  let c2b = mk "c2b" a_rfd b_wfd t.m_c2b extra_c2b in
  let b2c = mk "b2c" b_rfd a_wfd t.m_b2c extra_b2c in
  let cn =
    {
      cn_label = label;
      cn_dirs = [| c2b; b2c |];
      cn_endpoint_fds = List.sort_uniq compare [ a_rfd; a_wfd; b_rfd; b_wfd ];
      cn_closed = false;
    }
  in
  t.px_conns <- cn :: t.px_conns;
  Metrics.shift t.m_active 1.;
  register_kick t a_rfd ~on_in:true ~on_out:false (fun () -> kick_dir t c2b);
  register_kick t b_wfd ~on_in:false ~on_out:true (fun () -> kick_dir t c2b);
  register_kick t b_rfd ~on_in:true ~on_out:false (fun () -> kick_dir t b2c);
  register_kick t a_wfd ~on_in:false ~on_out:true (fun () -> kick_dir t b2c);
  ignore (Sched.spawn t.px_sched (fun () -> guard t (fun () -> pump_loop t cn c2b)));
  ignore (Sched.spawn t.px_sched (fun () -> guard t (fun () -> pump_loop t cn b2c)));
  cn

let add_stream t ?(label = "stream") ~a_rfd ~a_wfd ~b_rfd ~b_wfd () =
  add_conn t ~label ~a_rfd ~a_wfd ~b_rfd ~b_wfd ()

(* --- forwarders --------------------------------------------------------- *)

let refuse t fw ~client_fd ~why =
  Metrics.incr t.m_refused;
  let now = Clock.now_ns t.px_kernel.Kernel.clock in
  Trace.record
    (Repro_obs.Obs.tracer t.px_kernel.Kernel.obs)
    ~name:"proxy.refused" ~begin_ns:now ~end_ns:now
    ~attrs:[ ("path", fw.fw_path); ("reason", why) ]
    ();
  (match Proc.fd t.px_proc client_fd with
  | Some (Proc.Sock_conn _) -> ignore (Kernel.socket_abort t.px_kernel t.px_proc client_fd)
  | Some _ -> close_fd t client_fd
  | None -> ())

(* One accepted client: consult the [proxy accept] fault site, dial the
   backend as the host-side process, move both fds into the plane and
   start the pumps.  A backend that will not connect refuses the client
   loudly (counter + trace), never silently. *)
let accept_one t fw client_fd =
  let faulted =
    match t.px_fault with
    | None -> false
    | Some f -> (
        match Fault.proxy_action f ~op:"accept" with
        | None -> false
        | Some (Fault.Delay ns) | Some (Fault.Hang ns) ->
            Sched.sleep_ns t.px_sched ns;
            false
        | Some _ ->
            refuse t fw ~client_fd ~why:"fault";
            true)
  in
  if not faulted then
    match Kernel.socket_connect t.px_kernel fw.fw_back_proc fw.fw_backend_path with
    | Error e -> refuse t fw ~client_fd ~why:(Errno.to_string e)
    | Ok backend_fd ->
        let bfd =
          Errno.ok_exn (Kernel.pass_fd t.px_kernel ~src:fw.fw_back_proc ~dst:t.px_proc backend_fd)
        in
        let extra =
          match fw.fw_bytes with
          | Some (c2b, b2c) -> (Some c2b, Some b2c)
          | None -> (None, None)
        in
        ignore
          (add_conn t ~extra ~label:fw.fw_label ~a_rfd:client_fd ~a_wfd:client_fd ~b_rfd:bfd
             ~b_wfd:bfd ());
        Metrics.incr t.m_total;
        fw.fw_proxied <- fw.fw_proxied + 1

let accept_pass t fw =
  if fw.fw_closed || t.px_closed then false
  else
    match Kernel.socket_accept t.px_kernel t.px_proc fw.fw_lfd with
    | Error _ -> false
    | Ok client_fd ->
        accept_one t fw client_fd;
        true

let rec accept_loop t fw =
  if t.px_closed || fw.fw_closed then ()
  else if accept_pass t fw then begin
    Sched.yield t.px_sched;
    accept_loop t fw
  end
  else if fw.fw_dirty then begin
    fw.fw_dirty <- false;
    accept_loop t fw
  end
  else begin
    rearm t fw.fw_lfd;
    Sched.park t.px_sched fw.fw_cond;
    accept_loop t fw
  end

let forward t ~front_proc ~back_proc ?backend_path ?label path =
  let backend_path = Option.value backend_path ~default:path in
  match Kernel.socket_listen t.px_kernel front_proc path with
  | Error e -> Error e
  | Ok lfd_front ->
      let lfd = Errno.ok_exn (Kernel.pass_fd t.px_kernel ~src:front_proc ~dst:t.px_proc lfd_front) in
      let fw_bytes =
        (* labelled forwarders get their own byte accounting, e.g. the RPC
           carriage under [proxy.fwd.rpc.bytes.*] *)
        match label with
        | None -> None
        | Some l ->
            let m = Repro_obs.Obs.metrics t.px_kernel.Kernel.obs in
            Some
              ( Metrics.counter m (Printf.sprintf "proxy.fwd.%s.bytes.c2b" l),
                Metrics.counter m (Printf.sprintf "proxy.fwd.%s.bytes.b2c" l) )
      in
      let fw =
        {
          fw_path = path;
          fw_label = Option.value label ~default:path;
          fw_bytes;
          fw_backend_path = backend_path;
          fw_back_proc = back_proc;
          fw_lfd = lfd;
          fw_cond = Sched.cond ();
          fw_dirty = false;
          fw_closed = false;
          fw_proxied = 0;
        }
      in
      t.px_forwarders <- fw :: t.px_forwarders;
      register_kick t lfd ~on_in:true ~on_out:false (fun () ->
          fw.fw_dirty <- true;
          ignore (Sched.signal t.px_sched fw.fw_cond));
      ignore (Sched.spawn t.px_sched (fun () -> guard t (fun () -> accept_loop t fw)));
      Ok fw

let close_forwarder t fw =
  if not fw.fw_closed then begin
    fw.fw_closed <- true;
    unwatch t fw.fw_lfd;
    close_fd t fw.fw_lfd;
    ignore (Sched.signal t.px_sched fw.fw_cond)
  end

(* --- plane lifecycle ---------------------------------------------------- *)

let raise_error t = match t.px_error with Some e -> raise e | None -> ()

(* Quiescence is the scheduler's event queue draining: parked fibers are
   not pending events, so "nothing runnable" means every pump has hit
   EAGAIN and parked — no turn budget, no fixed cap. *)
let drain t =
  raise_error t;
  if not (Sched.in_task ()) then
    Sched.drive_main t.px_sched (fun () -> Sched.pending_events t.px_sched = 0);
  raise_error t

let close t =
  if not t.px_closed then begin
    drain t;
    List.iter (fun fw -> close_forwarder t fw) t.px_forwarders;
    List.iter (fun cn -> abort_conn t cn) t.px_conns;
    t.px_closed <- true;
    ignore (Sched.broadcast t.px_sched t.px_cond);
    List.iter
      (fun cn -> Array.iter (fun d -> ignore (Sched.signal t.px_sched d.d_cond)) cn.cn_dirs)
      t.px_conns;
    (* Let the reactor, pumps and acceptors observe the flag and unwind. *)
    if not (Sched.in_task ()) then
      Sched.drive_main t.px_sched (fun () -> Sched.pending_events t.px_sched = 0);
    close_fd t t.px_epfd;
    raise_error t
  end

let create ?(mode = Splice) ?(buffer = Pipe.default_capacity) ?fault ~kernel ~proc () =
  let sched = Sched.create ~clock:kernel.Kernel.clock in
  let metrics = Repro_obs.Obs.metrics kernel.Kernel.obs in
  let epfd = Kernel.epoll_create kernel proc in
  let t =
    {
      px_kernel = kernel;
      px_proc = proc;
      px_sched = sched;
      px_mode = mode;
      px_fault = fault;
      px_buffer = max 1 buffer;
      px_epfd = epfd;
      px_cond = Sched.cond ();
      px_dirty = false;
      px_closed = false;
      px_watch = Hashtbl.create 16;
      px_conns = [];
      px_forwarders = [];
      px_error = None;
      m_active = Metrics.gauge metrics "proxy.connections.active";
      m_total = Metrics.counter metrics "proxy.connections.total";
      m_refused = Metrics.counter metrics "proxy.connections.refused";
      m_c2b = Metrics.counter metrics "proxy.bytes.c2b";
      m_b2c = Metrics.counter metrics "proxy.bytes.b2c";
      m_unflushed = Metrics.counter metrics "proxy.bytes.unflushed";
      m_splice = Metrics.counter metrics "proxy.splice.calls";
      m_stalls = Metrics.counter metrics "proxy.buffer.stalls";
      m_wakeups = Metrics.counter metrics "proxy.loop.wakeups";
      m_datapath = Metrics.counter metrics "proxy.datapath.ns";
    }
  in
  Errno.ok_exn (Kernel.epoll_set_notify kernel proc ~epfd (Some (fun () -> poke t)));
  ignore (Sched.spawn sched (fun () -> guard t (fun () -> reactor t)));
  t
