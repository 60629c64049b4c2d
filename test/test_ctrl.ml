(* The cntrd control plane: JSON / JSON-RPC codec round-trips (qcheck),
   malformed-input error replies, the session lifecycle over both
   transports, $/cancel of in-flight requests, admission-queue rejection
   and queueing under quota, the ctrl fault site with crash → recover,
   and RPC-layer detach idempotency (detach racing a crash-triggered
   recovery never sees ENOTCONN). *)

open Repro_util
open Repro_runtime
open Repro_ctrl
module Fault = Repro_fault.Fault
module Metrics = Repro_obs.Metrics
module Kernel = Repro_os.Kernel

let ok = Errno.ok_exn
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let ok' = function
  | Ok v -> v
  | Error (e : Rpc.rerror) -> Alcotest.failf "rpc error %d: %s" e.Rpc.e_code e.Rpc.e_message

let err_code = function
  | Ok _ -> Alcotest.fail "expected an rpc error"
  | Error (e : Rpc.rerror) -> e.Rpc.e_code

let boot () =
  let world = Repro_cntr.Testbed.create () in
  List.iter
    (fun (name, image) ->
      ignore
        (ok (World.run_container world ~engine:(World.docker world) ~name ~image_ref:image ())))
    [ ("web", "nginx:latest"); ("cache", "redis:latest"); ("db", "postgres:latest") ];
  world

(* A raw client socket on a fresh daemon's wire endpoint: Content-Length
   frames go in and reply frames come out, with no client reply table in
   between to mask a missing or duplicate reply. *)
type raw = {
  r_daemon : Daemon.t;
  r_kernel : Kernel.t;
  r_proc : Repro_os.Proc.t;
  r_fd : int;
  r_reader : Rpc.reader;
}

let raw_connect ?config () =
  let d = Daemon.create ?config (boot ()) in
  let w = ok (Daemon.wire_serve d ~path:"/run/cntrd.sock" ()) in
  let kernel = Daemon.kernel d and proc = Daemon.wire_client_proc w in
  let fd = ok (Kernel.socket_connect kernel proc (Daemon.wire_path w)) in
  Daemon.pump d;
  { r_daemon = d; r_kernel = kernel; r_proc = proc; r_fd = fd; r_reader = Rpc.reader () }

(* Write one frame carrying [payload], pumping while the socket is full. *)
let raw_send r payload =
  let rec write_all s =
    if String.length s > 0 then
      match Kernel.write r.r_kernel r.r_proc r.r_fd s with
      | Ok k when k > 0 -> write_all (String.sub s k (String.length s - k))
      | _ ->
          Daemon.pump r.r_daemon;
          write_all s
  in
  write_all (Rpc.frame payload)

(* Pump and read until [until ()] holds or 64 reads in a row come back
   empty, handing each reply frame's payload to [on_frame] in order. *)
let raw_drain r ~until on_frame =
  let rec frames () =
    match Rpc.next r.r_reader with
    | `Frame p ->
        on_frame p;
        frames ()
    | `Garbage _ -> Alcotest.fail "garbage framing from the daemon"
    | `More -> ()
  in
  let rec go idle =
    if idle <= 64 && not (until ()) then begin
      Daemon.pump r.r_daemon;
      match Kernel.read r.r_kernel r.r_proc r.r_fd ~len:65536 with
      | Ok s when String.length s > 0 ->
          Rpc.feed r.r_reader s;
          frames ();
          go 0
      | _ -> go (idle + 1)
    end
  in
  go 0

(* Send one frame; every reply frame it draws, in order. *)
let raw_exchange r payload =
  raw_send r payload;
  let replies = ref [] in
  raw_drain r ~until:(fun () -> false) (fun p -> replies := p :: !replies);
  List.rev !replies

let counter world name =
  Metrics.counter_value (Repro_obs.Obs.metrics world.World.kernel.Repro_os.Kernel.obs) name

let gauge world name =
  Metrics.gauge_value (Repro_obs.Obs.metrics world.World.kernel.Repro_os.Kernel.obs) name

(* --- codec: qcheck round-trips --------------------------------------------- *)

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Jsonx.Null;
              map (fun b -> Jsonx.Bool b) bool;
              map (fun i -> Jsonx.Int i) (int_range (-1000000) 1000000);
              map (fun f -> Jsonx.Float (float_of_int f /. 16.)) (int_range (-10000) 10000);
              map (fun s -> Jsonx.Str s) (string_size ~gen:printable (int_range 0 12));
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (3, scalar);
              (1, map (fun l -> Jsonx.List l) (list_size (int_range 0 4) (self (n / 2))));
              ( 1,
                map
                  (fun l -> Jsonx.Obj l)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 1 8)) (self (n / 2)))) );
            ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"jsonx print/parse round-trip" ~count:500
    (QCheck.make ~print:Jsonx.to_string gen_json)
    (fun v ->
      match Jsonx.parse (Jsonx.to_string v) with
      | Ok v' -> Jsonx.equal v v'
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let prop_json_pretty =
  QCheck.Test.make ~name:"jsonx pretty and compact parse alike" ~count:500
    (QCheck.make ~print:Jsonx.to_string_pretty gen_json)
    (fun v ->
      match (Jsonx.parse (Jsonx.to_string_pretty v), Jsonx.parse (Jsonx.to_string v)) with
      | Ok a, Ok b -> Jsonx.equal a b
      | Error msg, _ | _, Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let test_json_fixed_and_pretty () =
  let show v = Jsonx.to_string v in
  check_s "Fixed 4" "2.8903" (show (Jsonx.Fixed (4, 2.89034)));
  check_s "Fixed 1" "13.3" (show (Jsonx.Fixed (1, 13.3)));
  check_s "Fixed non-finite" "null" (show (Jsonx.Fixed (6, nan)));
  let doc =
    Jsonx.(
      Obj
        [
          ("experiment", Str "x");
          ( "rows",
            List
              [
                Obj [ ("name", Str "a"); ("v", Fixed (2, 0.5)) ];
                Obj [ ("name", Str "b"); ("v", List [ Int 1; Int 2 ]); ("w", Obj [ ("k", Null) ]) ];
              ] );
          ("total", Obj [ ("n", Int 2) ]);
        ])
  in
  check_s "two-row pretty document"
    {|{
  "experiment": "x",
  "rows": [
    {"name": "a", "v": 0.50},
    {"name": "b", "v": [1, 2], "w": {"k": null}}
  ],
  "total": {"n": 2}
}|}
    (Jsonx.to_string_pretty doc)

let gen_request =
  QCheck.Gen.(
    map3
      (fun id meth params ->
        { Rpc.r_id = id; r_method = meth; r_params = params })
      (oneof
         [
           return None;
           map (fun n -> Some (Rpc.I n)) (int_range 0 100000);
           map (fun s -> Some (Rpc.S s)) (string_size ~gen:printable (int_range 1 10));
         ])
      (string_size ~gen:printable (int_range 1 16))
      gen_json)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"rpc request encode/decode round-trip" ~count:500
    (QCheck.make ~print:Rpc.encode_request gen_request)
    (fun r ->
      match Rpc.decode (Rpc.encode_request r) with
      | Ok (Rpc.Request r') ->
          r.Rpc.r_id = r'.Rpc.r_id
          && String.equal r.Rpc.r_method r'.Rpc.r_method
          && Jsonx.equal r.Rpc.r_params r'.Rpc.r_params
      | Ok (Rpc.Response _) -> false
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Rpc.e_message)

let gen_response =
  QCheck.Gen.(
    map2
      (fun id result -> { Rpc.p_id = id; p_result = result })
      (oneof [ return None; map (fun n -> Some (Rpc.I n)) (int_range 0 100000) ])
      (oneof
         [
           map (fun v -> Ok v) gen_json;
           map2
             (fun code msg -> Error (Rpc.error code msg))
             (int_range (-33000) (-32000))
             (string_size ~gen:printable (int_range 0 20));
         ]))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"rpc response encode/decode round-trip" ~count:500
    (QCheck.make ~print:Rpc.encode_response gen_response)
    (fun p ->
      match Rpc.decode (Rpc.encode_response p) with
      | Ok (Rpc.Response p') -> (
          p.Rpc.p_id = p'.Rpc.p_id
          &&
          match (p.Rpc.p_result, p'.Rpc.p_result) with
          | Ok a, Ok b -> Jsonx.equal a b
          | Error a, Error b ->
              a.Rpc.e_code = b.Rpc.e_code && String.equal a.Rpc.e_message b.Rpc.e_message
          | _ -> false)
      | Ok (Rpc.Request _) -> false
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Rpc.e_message)

let test_malformed_error_replies () =
  let r = raw_connect () in
  let reply text =
    match raw_exchange r text with
    | [ reply ] -> reply
    | replies -> Alcotest.failf "%d reply frames for %S" (List.length replies) text
  in
  let expect_code text code =
    let reply = reply text in
    match Rpc.decode reply with
    | Ok (Rpc.Response { p_id = None; p_result = Error e }) ->
        check_i ("code for " ^ text) code e.Rpc.e_code
    | _ -> Alcotest.failf "unexpected reply %s" reply
  in
  expect_code "{not json" Rpc.parse_error;
  expect_code "[]" Rpc.invalid_request;
  (* empty batch: one error, null id — a non-empty array is a batch and
     answers per element (see the batch tests) *)
  expect_code "{\"id\":1,\"method\":\"x\"}" Rpc.invalid_request;
  (* missing jsonrpc *)
  expect_code "{\"jsonrpc\":\"2.0\",\"id\":{},\"method\":\"x\"}" Rpc.invalid_request;
  expect_code "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":7}" Rpc.invalid_request;
  expect_code "{\"jsonrpc\":\"2.0\",\"id\":1}" Rpc.invalid_request;
  (* unknown method is a real (id-carrying) error *)
  let reply = reply "{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"nope\"}" in
  match Rpc.decode reply with
  | Ok (Rpc.Response { p_id = Some (Rpc.I 9); p_result = Error e }) ->
      check_i "method_not_found" Rpc.method_not_found e.Rpc.e_code
  | _ -> Alcotest.failf "unexpected reply %s" reply

(* --- batch envelopes (JSON-RPC 2.0 §6) -------------------------------------- *)

let test_batch_raw_frames () =
  let r = raw_connect () in
  (* mixed batch: call, notification, malformed element, call — one
     order-preserving reply array; the notification is elided, the
     malformed element answers in place with a null id *)
  let text =
    "[{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"daemon.info\"},"
    ^ "{\"jsonrpc\":\"2.0\",\"method\":\"$/cancel\",\"params\":{\"id\":99}},"
    ^ "7,"
    ^ "{\"jsonrpc\":\"2.0\",\"id\":2,\"method\":\"session.list\"}]"
  in
  (match raw_exchange r text with
  | [] -> Alcotest.fail "expected a reply array"
  | _ :: _ :: _ -> Alcotest.fail "expected one reply frame"
  | [ reply ] -> (
      match Rpc.decode_incoming reply with
      | Ok (Rpc.Batch [ a; b; c ]) ->
          (match a with
          | Ok (Rpc.Response { p_id = Some (Rpc.I 1); p_result = Ok info }) ->
              check_s "first slot is daemon.info" "cntrd/1.0"
                (Option.value (Jsonx.field_str info "version") ~default:"")
          | _ -> Alcotest.fail "slot 1: expected the daemon.info result");
          (match b with
          | Ok (Rpc.Response { p_id = None; p_result = Error e }) ->
              check_i "malformed element answers in place" Rpc.invalid_request e.Rpc.e_code
          | _ -> Alcotest.fail "slot 2: expected a null-id invalid_request");
          (match c with
          | Ok (Rpc.Response { p_id = Some (Rpc.I 2); p_result = Ok _ }) -> ()
          | _ -> Alcotest.fail "slot 3: expected the session.list result")
      | _ -> Alcotest.failf "expected a 3-element reply array, got %s" reply));
  (* an all-notification batch gets no reply frame at all *)
  check_b "all-notification batch elided" true
    (raw_exchange r
       "[{\"jsonrpc\":\"2.0\",\"method\":\"$/cancel\",\"params\":{\"id\":1}}]"
    = []);
  (* all-malformed batch: every element answers, order preserved *)
  match raw_exchange r "[1,2,3]" with
  | [] -> Alcotest.fail "expected per-element errors"
  | _ :: _ :: _ -> Alcotest.fail "expected one reply frame"
  | [ reply ] -> (
      match Rpc.decode_incoming reply with
      | Ok (Rpc.Batch elems) ->
          check_i "three error slots" 3 (List.length elems);
          List.iter
            (function
              | Ok (Rpc.Response { p_id = None; p_result = Error e }) ->
                  check_i "per-element invalid_request" Rpc.invalid_request e.Rpc.e_code
              | _ -> Alcotest.fail "expected null-id errors")
            elems
      | _ -> Alcotest.failf "expected a reply array, got %s" reply)

(* --- lifecycle over both transports ---------------------------------------- *)

let lifecycle_roundtrip mk_client =
  let world = boot () in
  let d = Daemon.create world in
  let c = mk_client d in
  let created = ok' (Client.session_create c ~tenant:"ops" "web") in
  check_b "session id assigned" true (created.Client.sc_session >= 1);
  check_b "cgroup captured" true (contains ~needle:"docker" created.Client.sc_cgroup);
  let x = ok' (Client.session_exec c ~session:created.Client.sc_session "echo hi") in
  check_i "exec exit code" 0 x.Client.sx_code;
  check_b "exec output" true (contains ~needle:"hi" x.Client.sx_output);
  let rows = ok' (Client.session_list c) in
  check_i "one live session" 1 (List.length rows);
  let row = List.hd rows in
  check_s "state" "active" row.Client.sr_state;
  check_i "execs counted" 1 row.Client.sr_execs;
  let stat = ok' (Client.session_stat c ~session:created.Client.sc_session) in
  check_b "stat has report" true
    (contains ~needle:"cntrfs session" (Option.value (Jsonx.field_str stat "report") ~default:""));
  let already = ok' (Client.session_detach c ~session:created.Client.sc_session) in
  check_b "first detach is fresh" false already;
  let again = ok' (Client.session_detach c ~session:created.Client.sc_session) in
  check_b "second detach reports already" true again;
  check_i "table empty" 0 (List.length (ok' (Client.session_list c)));
  check_i "ctrl.sessions.total" 1 (counter world "ctrl.sessions.total")

let test_lifecycle_in_process () = lifecycle_roundtrip Client.in_process

let test_lifecycle_wire () =
  lifecycle_roundtrip (fun d ->
      let w = ok (Daemon.wire_serve d ~path:"/run/cntrd.sock" ()) in
      Client.connect w)

let test_daemon_info () =
  let world = boot () in
  let d = Daemon.create world in
  let c = Client.in_process d in
  let info = ok' (Client.call c "daemon.info") in
  check_s "protocol version" "cntrd/1.0"
    (Option.value (Jsonx.field_str info "version") ~default:"");
  check_b "methods listed" true
    (match Option.bind (Jsonx.mem info "methods") Jsonx.list_ with
    | Some ms -> List.mem (Jsonx.Str "session.exec") ms
    | None -> false)

(* --- cancellation ----------------------------------------------------------- *)

let test_cancel_inflight_exec () =
  let world = boot () in
  let d = Daemon.create world in
  let c = Client.in_process d in
  let created = ok' (Client.session_create c "web") in
  let sid = created.Client.sc_session in
  (* submit the exec but cancel before pumping: it is in flight (queued in
     the session mailbox), and the cancel wins at the dispatch point *)
  let tk =
    Client.submit c
      ~params:(Jsonx.Obj [ ("session", Jsonx.Int sid); ("cmd", Jsonx.Str "echo never") ])
      "session.exec"
  in
  Client.cancel c tk;
  check_i "cancelled code" Rpc.cancelled (err_code (Client.await c tk));
  check_i "ctrl.rpc.cancelled" 1 (counter world "ctrl.rpc.cancelled");
  (* the session is untouched and still serves *)
  let x = ok' (Client.session_exec c ~session:sid "echo alive") in
  check_b "session still serves" true (contains ~needle:"alive" x.Client.sx_output);
  ignore (ok' (Client.session_detach c ~session:sid))

let test_cancel_queued_create () =
  let world = boot () in
  let config =
    {
      Daemon.default_config with
      Daemon.c_max_active = 1;
      c_queue_depth = 4;
      c_tenant = { Daemon.q_active = 1; q_queued = 4 };
    }
  in
  let d = Daemon.create ~config world in
  let c = Client.in_process d in
  let first = ok' (Client.session_create c "web") in
  (* second create parks in the admission queue... *)
  let tk = Client.submit c ~params:(Jsonx.Obj [ ("container", Jsonx.Str "cache") ]) "session.create" in
  check_b "still queued" true (Client.poll c tk = None);
  let rows = ok' (Client.session_list c) in
  check_i "two table entries" 2 (List.length rows);
  check_b "one queued" true (List.exists (fun r -> r.Client.sr_state = "queued") rows);
  (* ...and $/cancel unparks it with a cancelled reply *)
  Client.cancel c tk;
  check_i "queued create cancelled" Rpc.cancelled (err_code (Client.await c tk));
  check_i "ctrl.sessions.total" 1 (counter world "ctrl.sessions.total");
  ignore (ok' (Client.session_detach c ~session:first.Client.sc_session))

(* Every client numbers its ids from 1, so a $/cancel must reach only the
   canceller's own requests: B cancelling id 2 leaves A's queued create
   (A's id 2) alone, between two wire clients and between two in-process
   clients alike. *)
let test_cancel_scoped_to_client () =
  let config = { Daemon.default_config with Daemon.c_max_active = 1 } in
  List.iter
    (fun (transport, pair) ->
      let d = Daemon.create ~config (boot ()) in
      let a, b = pair d in
      let first = ok' (Client.session_create a "web") in
      let queued =
        Client.submit a ~params:(Jsonx.Obj [ ("container", Jsonx.Str "cache") ]) "session.create"
      in
      check_b (transport ^ ": A's second create queued") true (Client.poll a queued = None);
      let cancel = Client.submit b ~params:(Jsonx.Obj [ ("id", Jsonx.Int 2) ]) "$/cancel" in
      check_b (transport ^ ": B's cancel found nothing of its own") true
        (Jsonx.mem (ok' (Client.await b cancel)) "cancelled" = Some (Jsonx.Bool false));
      check_b (transport ^ ": A's create still queued") true (Client.poll a queued = None);
      ignore (ok' (Client.session_detach a ~session:first.Client.sc_session));
      match Jsonx.field_int (ok' (Client.await a queued)) "session" with
      | Some sid -> ignore (ok' (Client.session_detach a ~session:sid))
      | None -> Alcotest.failf "%s: A's create was not admitted" transport)
    [
      ( "wire",
        fun d ->
          let w = ok (Daemon.wire_serve d ~path:"/run/cntrd.sock" ()) in
          (Client.connect w, Client.connect w) );
      ("in-process", fun d -> (Client.in_process d, Client.in_process d));
    ]

(* --- admission --------------------------------------------------------------- *)

let test_admission_rejection_under_quota () =
  let world = boot () in
  let config =
    {
      Daemon.default_config with
      Daemon.c_max_active = 2;
      c_queue_depth = 1;
      c_tenant = { Daemon.q_active = 1; q_queued = 1 };
    }
  in
  let d = Daemon.create ~config world in
  let c = Client.in_process d in
  let a = ok' (Client.session_create c ~tenant:"alice" "web") in
  (* alice is at her active quota: her next create queues (1 allowed)... *)
  let queued =
    Client.submit c
      ~params:(Jsonx.Obj [ ("container", Jsonx.Str "cache"); ("tenant", Jsonx.Str "alice") ])
      "session.create"
  in
  check_b "parked, not rejected" true (Client.poll c queued = None);
  (* ...and the one after that bursts her queue quota: rejected *)
  let r = Client.session_create c ~tenant:"alice" "db" in
  check_i "tenant queue full" Rpc.admission_rejected (err_code r);
  (* bob still fits (global active 2) *)
  let b = ok' (Client.session_create c ~tenant:"bob" "db") in
  (* global queue depth is 1 and alice holds it: bob's second create is
     rejected fleet-wide *)
  let r2 = Client.session_create c ~tenant:"bob" "cache" in
  check_i "global queue full" Rpc.admission_rejected (err_code r2);
  check_i "ctrl.sessions.rejected" 2 (counter world "ctrl.sessions.rejected");
  (* detaching alice's first admits her queued one (FIFO) *)
  ignore (ok' (Client.session_detach c ~session:a.Client.sc_session));
  let second = ok' (Client.await c queued) in
  check_b "queued create admitted after detach" true
    (Jsonx.field_int second "session" <> None);
  check_b "waited a measurable time" true
    (match Jsonx.field_int second "queue_wait_us" with Some _ -> true | None -> false);
  ignore (ok' (Client.session_detach c ~session:b.Client.sc_session));
  (match Jsonx.field_int second "session" with
  | Some sid -> ignore (ok' (Client.session_detach c ~session:sid))
  | None -> ());
  check_i "all slots released" 0 (List.length (ok' (Client.session_list c)));
  check_i "ctrl.sessions.total" 3 (counter world "ctrl.sessions.total")

(* --- ctrl fault site: create/crash/recover ---------------------------------- *)

let test_fault_create_crash_recover () =
  let world = boot () in
  let plan, _ =
    Result.get_ok (Fault.parse "seed 7\nctrl create nth=2 crash\nctrl exec nth=2 delay=50000")
  in
  let config = { Daemon.default_config with Daemon.c_fault = Some plan } in
  let d = Daemon.create ~config world in
  let c = Client.in_process d in
  let s1 = ok' (Client.session_create c "web") in
  (* the 2nd create fires Crash_server: attach succeeds, then the session's
     CntrFS server is killed — the first exec transparently recovers *)
  let s2 = ok' (Client.session_create c "cache") in
  let x = ok' (Client.session_exec c ~session:s2.Client.sc_session "echo back") in
  check_b "exec recovered the session" true x.Client.sx_recovered;
  check_b "output after recovery" true (contains ~needle:"back" x.Client.sx_output);
  check_i "ctrl.sessions.recovered" 1 (counter world "ctrl.sessions.recovered");
  (* the delayed 3rd exec still completes (virtual time absorbs it) *)
  let y = ok' (Client.session_exec c ~session:s1.Client.sc_session "echo slow") in
  check_b "delayed exec completes" true (contains ~needle:"slow" y.Client.sx_output);
  check_b "fault plane counted injections" true (counter world "fault.injected.total" >= 2);
  ignore (ok' (Client.session_detach c ~session:s1.Client.sc_session));
  ignore (ok' (Client.session_detach c ~session:s2.Client.sc_session))

(* Detach racing a crash-triggered recovery: the detach lands while the
   session is recovering and must return a clean result — never ENOTCONN —
   and a repeat detach reports already=true. *)
let test_detach_races_recovery () =
  let world = boot () in
  let plan, _ = Result.get_ok (Fault.parse "seed 7\nctrl exec nth=1 crash") in
  let config = { Daemon.default_config with Daemon.c_fault = Some plan } in
  let d = Daemon.create ~config world in
  let c = Client.in_process d in
  let s = ok' (Client.session_create c "web") in
  let sid = s.Client.sc_session in
  (* exec will crash the server and recover; the detach is submitted before
     any of that runs, so it races the recovery inside one pump *)
  let xk =
    Client.submit c
      ~params:(Jsonx.Obj [ ("session", Jsonx.Int sid); ("cmd", Jsonx.Str "echo boom") ])
      "session.exec"
  in
  let dk = Client.submit c ~params:(Jsonx.Obj [ ("session", Jsonx.Int sid) ]) "session.detach" in
  let x = ok' (Client.await c xk) in
  check_b "exec recovered" true (Jsonx.field_bool x "recovered" = Some true);
  let det = ok' (Client.await c dk) in
  check_b "racing detach is clean" true (Jsonx.field_bool det "detached" = Some true);
  check_b "racing detach was fresh" true (Jsonx.field_bool det "already" = Some false);
  let again = ok' (Client.session_detach c ~session:sid) in
  check_b "repeat detach reports already" true again;
  check_i "one recovery" 1 (counter world "ctrl.sessions.recovered")

(* --- subscriptions ----------------------------------------------------------- *)

let test_stats_subscribe () =
  let world = boot () in
  let d = Daemon.create world in
  let c = Client.in_process d in
  ok' (Client.subscribe c);
  let s = ok' (Client.session_create c ~tenant:"ops" "web") in
  ignore (ok' (Client.session_detach c ~session:s.Client.sc_session));
  let events =
    Client.notifications c
    |> List.filter_map (fun j ->
           match Jsonx.mem j "params" with
           | Some p -> Jsonx.field_str p "event"
           | None -> None)
  in
  check_b "created event" true (List.mem "session.created" events);
  check_b "detached event" true (List.mem "session.detached" events)

let test_subscribe_bounded_buffer () =
  (* A subscriber whose transport never becomes ready: events pile into
     its ring, the ring never exceeds the configured bound, the overflow
     is counted under ctrl.subscribe.dropped, and nothing is ever
     delivered through the stuck sink. *)
  let world = boot () in
  let d =
    Daemon.create ~config:{ Daemon.default_config with Daemon.c_sub_buffer = 4 } world
  in
  let delivered = ref 0 in
  let req =
    {
      Rpc.r_id = Some (Rpc.I 1);
      r_method = "stats.subscribe";
      r_params = Jsonx.Obj [];
    }
  in
  let tk =
    Option.get
      (Daemon.submit d ~origin:(Daemon.origin ())
         ~sink:(fun _ -> incr delivered)
         ~sink_ready:(fun () -> false)
         req)
  in
  ignore (Daemon.response d tk);
  (* churn out more events than the ring holds *)
  let c = Client.in_process d in
  for _ = 1 to 6 do
    let s = ok' (Client.session_create c ~tenant:"ops" "web") in
    ignore (ok' (Client.session_detach c ~session:s.Client.sc_session))
  done;
  Daemon.pump d;
  check_i "stuck sink received nothing" 0 !delivered;
  check_b "overflow counted" true (counter world "ctrl.subscribe.dropped" > 0)

(* --- wire plane: pipelining, batching, flow control --------------------------- *)

let wire_boot ?config () =
  let world = boot () in
  let d = Daemon.create ?config world in
  let w = ok (Daemon.wire_serve d ~path:"/run/cntrd.sock" ()) in
  (world, d, w)

let test_wire_batch_roundtrip () =
  let world, _d, w = wire_boot () in
  let c = Client.connect w in
  let s = ok' (Client.session_create c "web") in
  let sid = s.Client.sc_session in
  (* three typed verbs in one array envelope — one frame on the wire —
     then claim the replies in reverse submission order *)
  let h1, h2, h3 =
    Client.batch c (fun () ->
        ( Client.start_exec c ~session:sid "echo one",
          Client.start_stat c ~session:sid,
          Client.start_list c ))
  in
  let rows = ok' (Client.finish c h3) in
  check_i "list inside batch" 1 (List.length rows);
  let stat = ok' (Client.finish c h2) in
  check_b "stat inside batch" true (Jsonx.field_str stat "report" <> None);
  let x = ok' (Client.finish c h1) in
  check_b "exec inside batch" true (contains ~needle:"one" x.Client.sx_output);
  check_b "envelope counted" true (counter world "ctrl.wire.batches" >= 1);
  check_b "batch pipelined on the connection" true
    (gauge world "ctrl.wire.pipelined.max" > 1.);
  ignore (ok' (Client.session_detach c ~session:sid))

let test_wire_out_of_order_replies () =
  let world, _d, w =
    wire_boot
      ~config:
        {
          Daemon.default_config with
          Daemon.c_max_active = 1;
          c_queue_depth = 2;
          c_tenant = { Daemon.q_active = 1; q_queued = 2 };
        }
      ()
  in
  let c = Client.connect w in
  let s1 = ok' (Client.session_create c "web") in
  (* capacity is full: this create parks in the admission queue... *)
  let parked =
    Client.submit c ~params:(Jsonx.Obj [ ("container", Jsonx.Str "cache") ]) "session.create"
  in
  check_b "create parked" true (Client.poll c parked = None);
  (* ...so a request submitted later overtakes it on the same connection *)
  let listed = Client.submit c "session.list" in
  let rows = ok' (Client.await c listed) in
  check_b "later list answered first" true (Jsonx.mem rows "sessions" <> None);
  check_b "parked create still unanswered" true (Client.poll c parked = None);
  check_b "two in flight at peak" true (gauge world "ctrl.wire.pipelined.max" >= 2.);
  (* freeing the slot unparks it; the out-of-order reply still matches *)
  ignore (ok' (Client.session_detach c ~session:s1.Client.sc_session));
  let second = ok' (Client.await c parked) in
  (match Jsonx.field_int second "session" with
  | Some sid -> ignore (ok' (Client.session_detach c ~session:sid))
  | None -> Alcotest.fail "unparked create carries its session id");
  check_i "ctrl.sessions.total" 2 (counter world "ctrl.sessions.total")

let test_wire_watermark_stall_resume () =
  (* A reader that claims nothing while a storm of stat replies heads its
     way: the client-bound pipes fill, then the connection's framed
     backlog crosses the high watermark and the connection stalls.  The
     late drain must deliver every reply exactly once, and the backlog
     peak must stay under high + one frame. *)
  let high = 4096 and low = 1024 in
  let world, _d, w =
    wire_boot
      ~config:
        {
          Daemon.default_config with
          Daemon.c_wire_inflight = 1_000_000;
          c_wire_high = high;
          c_wire_low = low;
        }
      ()
  in
  let c = Client.connect w in
  let s = ok' (Client.session_create c "web") in
  let sid = s.Client.sc_session in
  let handles = List.init 1500 (fun _ -> Client.start_stat c ~session:sid) in
  check_b "connection stalled under backlog" true (counter world "ctrl.wire.stalls" > 0);
  List.iter
    (fun h ->
      match Client.finish c h with
      | Ok v -> check_b "stat reply intact" true (Jsonx.field_str v "report" <> None)
      | Error e -> Alcotest.failf "stat lost under flow control: %s" e.Rpc.e_message)
    handles;
  check_b "backlog peak bounded by high + one frame" true
    (gauge world "ctrl.wire.backlog.peak"
    <= float_of_int high +. gauge world "ctrl.wire.frame.max");
  check_i "flow control never refuses" 0 (counter world "ctrl.wire.overloaded");
  ignore (ok' (Client.session_detach c ~session:sid))

(* wire_close ends what wire_serve started: the plane's fibers (so no
   proxied connection stays open), the wire's three processes, and the
   listener at its path.  The daemon itself keeps serving. *)
let test_wire_close () =
  let world, d, w = wire_boot () in
  let kernel = Daemon.kernel d in
  List.iter
    (fun c -> ignore (ok' (Client.call c "daemon.info")))
    [ Client.connect w; Client.connect w ];
  check_b "two connections proxied" true (gauge world "proxy.connections.active" = 2.);
  let wire_procs =
    Hashtbl.fold
      (fun _ p acc ->
        if List.mem p.Repro_os.Proc.comm [ "cntrd"; "cntr-cli"; "cntrd-rpc" ] then p :: acc
        else acc)
      kernel.Kernel.procs []
  in
  check_i "three wire processes" 3 (List.length wire_procs);
  Daemon.wire_close w;
  (match Kernel.socket_connect kernel (Kernel.init_proc kernel) (Daemon.wire_path w) with
  | Error Errno.ECONNREFUSED -> ()
  | Ok _ -> Alcotest.fail "connected to a closed wire"
  | Error e -> Alcotest.failf "expected ECONNREFUSED, got %s" (Errno.to_string e));
  check_b "no proxied connection" true (gauge world "proxy.connections.active" = 0.);
  check_b "the wire's processes exited" false (List.exists Repro_os.Proc.alive wire_procs);
  Daemon.wire_close w;
  ignore (ok' (Client.call (Client.in_process d) "daemon.info"))

(* [proxy.connections.active] is one gauge on the kernel's registry, the
   sum over every plane: an attach session's TTY plane opening and closing
   its connection leaves cntrd's wire plane's connection counted. *)
let test_active_gauge_sums_planes () =
  let world, _d, w = wire_boot () in
  let active () = gauge world "proxy.connections.active" in
  let c = Client.connect w in
  ignore (ok' (Client.call c "daemon.info"));
  check_b "the wire connection" true (active () = 1.);
  let s = ok' (Client.session_create c "web") in
  ignore (ok' (Client.session_detach c ~session:s.Client.sc_session));
  check_b "the wire connection after a session came and went" true (active () = 1.);
  Daemon.wire_close w;
  check_b "none after the wire closed" true (active () = 0.)

(* Overload property, over raw frames so duplicate replies cannot be
   masked by the client's reply table: burst n calls at a connection with
   an in-flight cap, then drain — every submitted id must get exactly one
   reply, a result or a -32005, never both and never twice. *)
let prop_wire_overload_exactly_once =
  QCheck.Test.make ~name:"wire overload: every id answered exactly once" ~count:15
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (cap, n) ->
      let r =
        raw_connect ~config:{ Daemon.default_config with Daemon.c_wire_inflight = cap } ()
      in
      (* queue the whole burst before the daemon sees any of it *)
      for i = 1 to n do
        raw_send r
          (Rpc.encode_request
             { Rpc.r_id = Some (Rpc.I i); r_method = "daemon.info"; r_params = Jsonx.Null })
      done;
      let seen = Hashtbl.create 64 in
      (* id -> (results, refusals) *)
      let record = function
        | Ok (Rpc.Response { Rpc.p_id = Some (Rpc.I i); p_result }) -> (
            let oks, refusals =
              Option.value (Hashtbl.find_opt seen i) ~default:(0, 0)
            in
            match p_result with
            | Ok _ -> Hashtbl.replace seen i (oks + 1, refusals)
            | Error e when e.Rpc.e_code = Rpc.overloaded ->
                Hashtbl.replace seen i (oks, refusals + 1)
            | Error e -> QCheck.Test.fail_reportf "unexpected error %d" e.Rpc.e_code)
        | _ -> QCheck.Test.fail_reportf "unexpected frame from the daemon"
      in
      let answered () = Hashtbl.fold (fun _ (a, b) acc -> acc + a + b) seen 0 in
      raw_drain r ~until:(fun () -> answered () >= n) (fun p ->
          match Rpc.decode_incoming p with
          | Ok (Rpc.Single m) -> record m
          | Ok (Rpc.Batch ms) -> List.iter record ms
          | Error _ -> QCheck.Test.fail_reportf "undecodable reply frame");
      let refused = Hashtbl.fold (fun _ (_, b) acc -> acc + b) seen 0 in
      if n > cap && refused = 0 then
        QCheck.Test.fail_reportf "burst of %d over cap %d was never refused" n cap;
      List.for_all
        (fun i ->
          match Hashtbl.find_opt seen i with
          | Some (1, 0) | Some (0, 1) -> true
          | Some (a, b) ->
              QCheck.Test.fail_reportf "id %d answered %d times (%d ok, %d refused)" i
                (a + b) a b
          | None -> QCheck.Test.fail_reportf "id %d never answered" i)
        (List.init n (fun i -> i + 1)))

(* --- fault plan grammar: ctrl site round-trip -------------------------------- *)

let test_ctrl_site_grammar () =
  let text = "seed 11\nctrl create every=10 fail=EAGAIN\nctrl * prob=0.25 delay=1000" in
  let plan, _ = Result.get_ok (Fault.parse text) in
  check_i "two rules" 2 (List.length plan.Fault.rules);
  let printed = Fault.to_string plan in
  check_b "ctrl site prints" true (contains ~needle:"ctrl create" printed);
  let plan2, _ = Result.get_ok (Fault.parse printed) in
  check_b "grammar round-trips" true (Fault.to_string plan = Fault.to_string plan2)

let () =
  Alcotest.run "ctrl"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_pretty;
          Alcotest.test_case "jsonx fixed and pretty layout" `Quick test_json_fixed_and_pretty;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "malformed input replies" `Quick test_malformed_error_replies;
          Alcotest.test_case "ctrl fault-plan grammar" `Quick test_ctrl_site_grammar;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "in-process transport" `Quick test_lifecycle_in_process;
          Alcotest.test_case "wire transport" `Quick test_lifecycle_wire;
          Alcotest.test_case "daemon.info" `Quick test_daemon_info;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "in-flight exec" `Quick test_cancel_inflight_exec;
          Alcotest.test_case "queued create" `Quick test_cancel_queued_create;
          Alcotest.test_case "scoped to the client" `Quick test_cancel_scoped_to_client;
        ] );
      ( "admission",
        [ Alcotest.test_case "rejection under quota" `Quick test_admission_rejection_under_quota ] );
      ( "faults",
        [
          Alcotest.test_case "create/crash/recover" `Quick test_fault_create_crash_recover;
          Alcotest.test_case "detach races recovery" `Quick test_detach_races_recovery;
        ] );
      ( "events",
        [
          Alcotest.test_case "stats.subscribe" `Quick test_stats_subscribe;
          Alcotest.test_case "bounded subscriber buffer" `Quick
            test_subscribe_bounded_buffer;
        ] );
      ( "wire",
        [
          Alcotest.test_case "batch envelopes over raw frames" `Quick
            test_batch_raw_frames;
          Alcotest.test_case "batched verbs over the wire" `Quick
            test_wire_batch_roundtrip;
          Alcotest.test_case "out-of-order pipelined replies" `Quick
            test_wire_out_of_order_replies;
          Alcotest.test_case "watermark stall and resume" `Quick
            test_wire_watermark_stall_resume;
          Alcotest.test_case "close ends the endpoint" `Quick test_wire_close;
          Alcotest.test_case "active connections summed over planes" `Quick
            test_active_gauge_sums_planes;
          QCheck_alcotest.to_alcotest prop_wire_overload_exactly_once;
        ] );
    ]
