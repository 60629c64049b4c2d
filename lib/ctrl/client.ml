(* Ctrl.Client: the one request path shared by the CLI subcommands and
   the fleet bench.  The in-process transport hands decoded requests
   straight to the daemon; the wire transport frames them over a kernel
   socket and the forwarding plane, exercising the same bytes a remote
   client would produce.  Both co-simulate: the client pumps the daemon
   it talks to.

   The surface is pipelined end to end: [submit] fires without awaiting,
   replies are matched by id and may arrive out of submission order, and
   [batch] coalesces a run of submits into one JSON-RPC 2.0 array
   envelope (one frame on the wire).  Every typed verb is built on
   [start_*]/[finish], so any of them can be pipelined or batched. *)

open Repro_util
open Repro_os
module Config = Repro_cntr.Attach.Config

type wire_state = {
  ws_wire : Daemon.wire;
  mutable ws_fd : int;
  ws_reader : Rpc.reader;
  ws_resps : (Rpc.id, Rpc.response) Hashtbl.t;
}

(* an in-process client is its own $/cancel scope; a wire client's is its
   connection, kept by the daemon *)
type transport = In_process of Daemon.origin | Wire of wire_state

type t = {
  c_daemon : Daemon.t;
  c_transport : transport;
  mutable c_next_id : int;
  mutable c_notifs : Jsonx.t list;
  mutable c_batch : Rpc.request list option;  (* collecting when Some *)
  c_tickets : (Rpc.id, Daemon.ticket) Hashtbl.t; (* in-process only *)
}

type ticket = Rpc.id


let in_process d =
  {
    c_daemon = d;
    c_transport = In_process (Daemon.origin ());
    c_next_id = 1;
    c_notifs = [];
    c_batch = None;
    c_tickets = Hashtbl.create 16;
  }

let connect w =
  let ws =
    { ws_wire = w; ws_fd = -1; ws_reader = Rpc.reader (); ws_resps = Hashtbl.create 16 }
  in
  {
    c_daemon = Daemon.wire_daemon w;
    c_transport = Wire ws;
    c_next_id = 1;
    c_notifs = [];
    c_batch = None;
    c_tickets = Hashtbl.create 16;
  }

(* --- wire plumbing ------------------------------------------------- *)

let kernel t = Daemon.kernel t.c_daemon
let cli_proc ws = Daemon.wire_client_proc ws.ws_wire

let wire_connect t ws =
  if ws.ws_fd < 0 then begin
    ws.ws_fd <-
      Repro_util.Errno.ok_exn
        (Kernel.socket_connect (kernel t) (cli_proc ws) (Daemon.wire_path ws.ws_wire));
    (* let the plane accept and dial the daemon before the first write *)
    Daemon.pump t.c_daemon
  end

(* Stash every complete frame the daemon sent us: responses by id (batch
   reply arrays element-wise), notifications in arrival order. *)
let wire_slurp t ws =
  let rec read_loop () =
    match Kernel.read (kernel t) (cli_proc ws) ws.ws_fd ~len:65536 with
    | Ok s when String.length s > 0 ->
        Rpc.feed ws.ws_reader s;
        read_loop ()
    | _ -> ()
  in
  read_loop ();
  let element = function
    | Ok (Rpc.Response r) -> (
        match r.Rpc.p_id with
        | Some id -> Hashtbl.replace ws.ws_resps id r
        | None ->
            (* id-less protocol error (e.g. we sent garbage): surface
               as a notification so callers can observe it *)
            t.c_notifs <- t.c_notifs @ [ Rpc.response_json r ])
    | Ok (Rpc.Request req) ->
        if req.Rpc.r_id = None then t.c_notifs <- t.c_notifs @ [ Rpc.request_json req ]
    | Error _ -> ()
  in
  let rec frame_loop () =
    match Rpc.next ws.ws_reader with
    | `Frame payload ->
        (match Rpc.decode_incoming payload with
        | Ok (Rpc.Single m) -> element m
        | Ok (Rpc.Batch ms) -> List.iter element ms
        | Error _ -> ());
        frame_loop ()
    | `Garbage _ -> frame_loop ()
    | `More -> ()
  in
  frame_loop ()

let wire_send t ws text =
  wire_connect t ws;
  let framed = Rpc.frame text in
  let rec push s attempts =
    if String.length s > 0 then
      match Kernel.write (kernel t) (cli_proc ws) ws.ws_fd s with
      | Ok n when n > 0 ->
          Daemon.pump t.c_daemon;
          push (String.sub s n (String.length s - n)) 0
      | _ ->
          if attempts > 64 then failwith "cntrd wire: send stalled";
          Daemon.pump t.c_daemon;
          wire_slurp t ws;
          push s (attempts + 1)
  in
  push framed 0

(* --- transport-independent request path ---------------------------- *)

let fresh_id t =
  let id = Rpc.I t.c_next_id in
  t.c_next_id <- t.c_next_id + 1;
  id

let send_request t (req : Rpc.request) =
  match t.c_batch with
  | Some acc -> t.c_batch <- Some (acc @ [ req ])
  | None -> (
      match t.c_transport with
      | In_process origin -> (
          let sink j = t.c_notifs <- t.c_notifs @ [ j ] in
          match Daemon.submit t.c_daemon ~origin ~sink req with
          | Some tk -> Hashtbl.replace t.c_tickets (Option.get req.Rpc.r_id) tk
          | None -> ())
      | Wire ws -> wire_send t ws (Rpc.encode_request req))

let submit t ?(params = Jsonx.Null) meth =
  let id = fresh_id t in
  send_request t { Rpc.r_id = Some id; r_method = meth; r_params = params };
  id

let notify t meth params = send_request t { Rpc.r_id = None; r_method = meth; r_params = params }

let flush_batch t =
  match t.c_batch with
  | None -> ()
  | Some reqs -> (
      t.c_batch <- None;
      match (reqs, t.c_transport) with
      | [], _ -> ()
      | reqs, Wire ws -> wire_send t ws (Rpc.encode_requests reqs)
      | reqs, In_process origin ->
          (* same envelope semantics, minus the framing: dispatch in
             order, replies claimable in any order *)
          List.iter
            (fun (req : Rpc.request) ->
              let sink j = t.c_notifs <- t.c_notifs @ [ j ] in
              match Daemon.submit t.c_daemon ~origin ~sink req with
              | Some tk -> Hashtbl.replace t.c_tickets (Option.get req.Rpc.r_id) tk
              | None -> ())
            reqs)

let batch t f =
  if t.c_batch <> None then invalid_arg "Client.batch: already batching";
  t.c_batch <- Some [];
  match f () with
  | v ->
      flush_batch t;
      v
  | exception e ->
      t.c_batch <- None;
      raise e

let cancel t id = notify t "$/cancel" (Jsonx.Obj [ ("id", Rpc.id_json id) ])

let poll t id =
  if t.c_batch <> None then invalid_arg "Client.poll: inside a batch (flush first)";
  Daemon.pump t.c_daemon;
  match t.c_transport with
  | In_process _ -> (
      match Hashtbl.find_opt t.c_tickets id with
      | None -> None
      | Some tk -> (
          match Daemon.peek t.c_daemon tk with
          | Some r ->
              Hashtbl.remove t.c_tickets id;
              Some r
          | None -> None))
  | Wire ws -> (
      wire_slurp t ws;
      match Hashtbl.find_opt ws.ws_resps id with
      | Some r ->
          Hashtbl.remove ws.ws_resps id;
          Some r
      | None -> None)

let await t id =
  if t.c_batch <> None then invalid_arg "Client.await: inside a batch (flush first)";
  match t.c_transport with
  | In_process _ -> (
      match Hashtbl.find_opt t.c_tickets id with
      | None -> Error (Rpc.error Rpc.internal_error "unknown or already-awaited ticket")
      | Some tk ->
          let r = Daemon.response t.c_daemon tk in
          Hashtbl.remove t.c_tickets id;
          r.Rpc.p_result)
  | Wire _ ->
      let rec go attempts =
        match poll t id with
        | Some r -> r.Rpc.p_result
        | None ->
            if attempts > 1024 then
              raise (Daemon.Stalled "wire reply never arrived (request parked?)")
            else go (attempts + 1)
      in
      go 0

let call t meth = await t (submit t meth)

let notifications t =
  (match t.c_transport with Wire ws -> wire_slurp t ws | In_process _ -> ());
  let ns = t.c_notifs in
  t.c_notifs <- [];
  ns

(* --- typed verbs: start_* submits, finish awaits -------------------- *)

type 'a call = { cl_id : ticket; cl_decode : Jsonx.t -> 'a }

let start t ?params decode meth = { cl_id = submit t ?params meth; cl_decode = decode }

let finish t c =
  match await t c.cl_id with Error e -> Error e | Ok v -> Ok (c.cl_decode v)

type created = { sc_session : int; sc_pid : int; sc_cgroup : string; sc_queue_wait_us : int }

let need_int v k =
  match Jsonx.field_int v k with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "cntrd reply missing integer field %S" k)

let need_str v k =
  match Jsonx.field_str v k with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "cntrd reply missing string field %S" k)

let decode_created v =
  {
    sc_session = need_int v "session";
    sc_pid = need_int v "pid";
    sc_cgroup = need_str v "cgroup";
    sc_queue_wait_us = need_int v "queue_wait_us";
  }

let start_create t ?tenant ?tools ?fault_plan container =
  let fields =
    [ ("container", Jsonx.Str container) ]
    @ (match tenant with Some x -> [ ("tenant", Jsonx.Str x) ] | None -> [])
    @ (match tools with Some x -> [ ("tools", Jsonx.Str x) ] | None -> [])
    @ match fault_plan with Some x -> [ ("fault_plan", Jsonx.Str x) ] | None -> []
  in
  start t ~params:(Jsonx.Obj fields) decode_created "session.create"

let session_create t ?tenant ?tools ?fault_plan container =
  finish t (start_create t ?tenant ?tools ?fault_plan container)

type execed = { sx_code : int; sx_output : string; sx_recovered : bool }

let decode_execed v =
  {
    sx_code = need_int v "code";
    sx_output = need_str v "output";
    sx_recovered = Jsonx.field_bool v "recovered" = Some true;
  }

let start_exec t ~session cmd =
  let params = Jsonx.Obj [ ("session", Jsonx.Int session); ("cmd", Jsonx.Str cmd) ] in
  start t ~params decode_execed "session.exec"

let session_exec t ~session cmd = finish t (start_exec t ~session cmd)

let start_stat t ~session =
  start t ~params:(Jsonx.Obj [ ("session", Jsonx.Int session) ]) (fun v -> v) "session.stat"

let session_stat t ~session = finish t (start_stat t ~session)

let start_detach t ~session =
  start t
    ~params:(Jsonx.Obj [ ("session", Jsonx.Int session) ])
    (fun v -> Jsonx.field_bool v "already" = Some true)
    "session.detach"

let session_detach t ~session = finish t (start_detach t ~session)

type row = {
  sr_session : int;
  sr_tenant : string;
  sr_container : string;
  sr_state : string;
  sr_execs : int;
}

let decode_rows v =
  let rows = Option.value (Option.bind (Jsonx.mem v "sessions") Jsonx.list_) ~default:[] in
  List.map
    (fun r ->
      {
        sr_session = need_int r "session";
        sr_tenant = need_str r "tenant";
        sr_container = need_str r "container";
        sr_state = need_str r "state";
        sr_execs = need_int r "execs";
      })
    rows

let start_list t = start t decode_rows "session.list"
let session_list t = finish t (start_list t)
let start_subscribe t = start t (fun _ -> ()) "stats.subscribe"
let subscribe t = finish t (start_subscribe t)
