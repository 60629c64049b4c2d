(* Tests for the forwarding plane (§3.2.4): duplex echo, per-direction
   half-close, the backpressure ceiling, the [proxy] fault site, and the
   splice-vs-copy stream-equivalence property. *)

open Repro_util
open Repro_vfs
open Repro_os
module Proxy = Repro_proxy.Proxy
module Fault = Repro_fault.Fault
module Metrics = Repro_obs.Metrics

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let ok = Errno.ok_exn

let boot () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"root" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  List.iter (fun d -> ok (Kernel.mkdir k init d ~mode:0o755)) [ "/run"; "/tmp" ];
  (k, init)

let mk_plane ?mode ?buffer ?fault k init =
  let pd = Kernel.fork k init in
  pd.Proc.comm <- "proxyd";
  Proxy.create ?mode ?buffer ?fault ~kernel:k ~proc:pd ()

(* Listener at /run/backend.sock, plane forwarder at /tmp/front.sock,
   one connected client.  Returns (backend listener fd, client fd, fwd). *)
let bridge k init plane =
  let blfd = ok (Kernel.socket_listen k init "/run/backend.sock") in
  let fwd =
    ok
      (Proxy.forward plane ~front_proc:init ~back_proc:init
         ~backend_path:"/run/backend.sock" "/tmp/front.sock")
  in
  let cfd = ok (Kernel.socket_connect k init "/tmp/front.sock") in
  (blfd, cfd, fwd)

let counter k name = Metrics.counter_value (Repro_obs.Obs.metrics k.Kernel.obs) name
let gauge k name = Metrics.gauge_value (Repro_obs.Obs.metrics k.Kernel.obs) name

(* --- duplex echo ------------------------------------------------------------ *)

let test_duplex_echo () =
  let k, init = boot () in
  let plane = mk_plane k init in
  let blfd, cfd, fwd = bridge k init plane in
  ignore (ok (Kernel.write k init cfd "ping"));
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  check_s "client->backend" "ping" (ok (Kernel.read k init sfd ~len:64));
  ignore (ok (Kernel.write k init sfd "pong"));
  Proxy.drain plane;
  check_s "backend->client" "pong" (ok (Kernel.read k init cfd ~len:64));
  (* both directions in flight at once *)
  ignore (ok (Kernel.write k init cfd "abc"));
  ignore (ok (Kernel.write k init sfd "xyz"));
  Proxy.drain plane;
  check_s "c2b interleaved" "abc" (ok (Kernel.read k init sfd ~len:64));
  check_s "b2c interleaved" "xyz" (ok (Kernel.read k init cfd ~len:64));
  check_i "one proxied connection" 1 (Proxy.connection_count fwd);
  check_i "total counter" 1 (counter k "proxy.connections.total");
  check_b "bytes counted c2b" true (counter k "proxy.bytes.c2b" = 7);
  check_b "bytes counted b2c" true (counter k "proxy.bytes.b2c" = 7);
  check_b "splice mode actually spliced" true (counter k "proxy.splice.calls" > 0);
  check_b "reactor woke without busy polling" true (counter k "proxy.loop.wakeups" > 0);
  Proxy.close plane

let test_backend_down_refuses_loudly () =
  let k, init = boot () in
  let plane = mk_plane k init in
  let refusals = ref [] in
  Repro_obs.Trace.set_sink (Repro_obs.Obs.tracer k.Kernel.obs)
    (Some
       (fun sp ->
         if sp.Repro_obs.Trace.sp_name = "proxy.refused" then
           refusals := sp.Repro_obs.Trace.sp_attrs :: !refusals));
  (* no listener behind the forwarder's backend path *)
  let fwd =
    ok
      (Proxy.forward plane ~front_proc:init ~back_proc:init
         ~backend_path:"/run/nobody-home.sock" "/tmp/front.sock")
  in
  let cfd = ok (Kernel.socket_connect k init "/tmp/front.sock") in
  Proxy.drain plane;
  check_i "refused counted" 1 (counter k "proxy.connections.refused");
  check_i "not proxied" 0 (Proxy.connection_count fwd);
  (* the client observes a dead connection, not a hang *)
  check_err Errno.ECONNRESET (Kernel.read k init cfd ~len:16);
  (* the refusal reached the trace sink, naming the front path *)
  check_i "one trace event" 1 (List.length !refusals);
  check_b "names the path" true
    (List.mem ("path", "/tmp/front.sock") (List.concat !refusals));
  Proxy.close plane

(* --- half-close ordering ---------------------------------------------------- *)

let test_half_close_per_direction () =
  let k, init = boot () in
  let plane = mk_plane k init in
  let blfd, cfd, _fwd = bridge k init plane in
  ignore (ok (Kernel.write k init cfd "request"));
  ok (Kernel.shutdown_write k init cfd);
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  check_s "request before EOF" "request" (ok (Kernel.read k init sfd ~len:64));
  check_s "EOF propagated c2b" "" (ok (Kernel.read k init sfd ~len:64));
  (* the other direction stays open: the backend can still answer *)
  ignore (ok (Kernel.write k init sfd "late-reply"));
  Proxy.drain plane;
  check_s "reply after client half-close" "late-reply" (ok (Kernel.read k init cfd ~len:64));
  (* backend closes: EOF reaches the client, the connection retires *)
  ok (Kernel.close k init sfd);
  Proxy.drain plane;
  check_s "EOF propagated b2c" "" (ok (Kernel.read k init cfd ~len:64));
  check_b "connection retired" true (gauge k "proxy.connections.active" = 0.);
  Proxy.close plane

(* --- backpressure ceiling ---------------------------------------------------- *)

let test_backpressure_ceiling () =
  let k, init = boot () in
  let plane = mk_plane ~buffer:4096 k init in
  let _blfd, cfd, _fwd = bridge k init plane in
  (* nobody reads on the backend: the plane may buffer at most the two
     socket queues plus its 4 KiB staging pipe *)
  let ceiling = (2 * Pipe.default_capacity) + 4096 in
  let chunk = String.make 8192 'x' in
  let total = ref 0 in
  let rec stuff budget =
    if budget > 0 then begin
      let wrote =
        match Kernel.write k init cfd chunk with Ok n -> n | Error _ -> 0
      in
      Proxy.drain plane;
      total := !total + wrote;
      if wrote > 0 then stuff budget
      else begin
        (* one more attempt after a drain; stop when still stuck *)
        match Kernel.write k init cfd chunk with
        | Ok n when n > 0 ->
            total := !total + n;
            stuff (budget - 1)
        | _ -> ()
      end
    end
  in
  stuff 4;
  check_b "made progress" true (!total >= Pipe.default_capacity);
  check_b "in-flight bytes bounded" true (!total <= ceiling);
  check_b "stalls counted" true (counter k "proxy.buffer.stalls" > 0);
  Proxy.close plane

(* --- fault plane: the proxy site --------------------------------------------- *)

let arm k text =
  match Fault.parse text with
  | Ok (plan, _) -> Fault.arm ~obs:k.Kernel.obs ~clock:k.Kernel.clock plan
  | Error e -> Alcotest.failf "bad plan: %s" e

let roundtrip k init plane blfd cfd payload =
  ignore (ok (Kernel.write k init cfd payload));
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  let got = ok (Kernel.read k init sfd ~len:(String.length payload + 16)) in
  ok (Kernel.close k init sfd);
  Proxy.drain plane;
  got

let test_fault_delay_slows_but_delivers () =
  let k, init = boot () in
  let f = arm k "proxy data nth=1 delay=5000000" in
  let plane = mk_plane ~fault:f k init in
  let blfd, cfd, _fwd = bridge k init plane in
  let before = Clock.now_ns k.Kernel.clock in
  check_s "delivered despite delay" "slow" (roundtrip k init plane blfd cfd "slow");
  let elapsed = Int64.sub (Clock.now_ns k.Kernel.clock) before in
  check_b "the delay burned virtual time" true (Int64.compare elapsed 5_000_000L >= 0);
  check_i "fault recorded" 1 (counter k "fault.injected.proxy.delay");
  Proxy.close plane

let test_fault_accept_crash_refuses_then_recovers () =
  let k, init = boot () in
  let f = arm k "proxy accept nth=1 crash" in
  let plane = mk_plane ~fault:f k init in
  let blfd, cfd, fwd = bridge k init plane in
  ignore (ok (Kernel.write k init cfd "doomed"));
  Proxy.drain plane;
  (* first connection refused abortively: ECONNRESET, bounded, no hang *)
  check_err Errno.ECONNRESET (Kernel.read k init cfd ~len:16);
  check_i "refused counted" 1 (counter k "proxy.connections.refused");
  (* the plane stays usable: the next connection goes through *)
  let cfd2 = ok (Kernel.socket_connect k init "/tmp/front.sock") in
  ignore (ok (Kernel.write k init cfd2 "fine"));
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  check_s "second connection clean" "fine" (ok (Kernel.read k init sfd ~len:16));
  check_i "one proxied" 1 (Proxy.connection_count fwd);
  Proxy.close plane

let test_fault_data_crash_resets_connection () =
  let k, init = boot () in
  let f = arm k "proxy data nth=1 crash" in
  let plane = mk_plane ~fault:f k init in
  let blfd, cfd, _fwd = bridge k init plane in
  ignore (ok (Kernel.write k init cfd "boom"));
  Proxy.drain plane;
  check_err Errno.ECONNRESET (Kernel.read k init cfd ~len:16);
  check_b "nothing left active" true (gauge k "proxy.connections.active" = 0.);
  check_i "stranded bytes accounted" 4 (counter k "proxy.bytes.unflushed");
  (* the crashed connection's backend end is still queued on the listener *)
  let dead = ok (Kernel.socket_accept k init blfd) in
  check_err Errno.ECONNRESET (Kernel.read k init dead ~len:16);
  (* a fresh connection works: the plan's nth rule is spent *)
  let cfd2 = ok (Kernel.socket_connect k init "/tmp/front.sock") in
  ignore (ok (Kernel.write k init cfd2 "alive"));
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  check_s "plane survives the crash" "alive" (ok (Kernel.read k init sfd ~len:16));
  Proxy.close plane

(* --- splice and copy relays move identical streams --------------------------- *)

(* A random duplex schedule: writes in either direction with arbitrary
   drain points.  Both relay modes must deliver every accepted byte, in
   order, in both directions — and therefore identical streams.  Write
   volume stays under the socket queue capacity so acceptance itself
   cannot diverge between modes. *)
let run_schedule mode ops =
  let k, init = boot () in
  let plane = mk_plane ~mode ~buffer:8192 k init in
  let blfd, cfd, _fwd = bridge k init plane in
  Proxy.drain plane;
  let sfd = ok (Kernel.socket_accept k init blfd) in
  let sent_c2b = Buffer.create 256 and sent_b2c = Buffer.create 256 in
  let got_c2b = Buffer.create 256 and got_b2c = Buffer.create 256 in
  List.iteri
    (fun i op ->
      match op with
      | `C2b n ->
          let data = String.init n (fun j -> Char.chr (97 + ((i * 31) + j) mod 26)) in
          (match Kernel.write k init cfd data with
          | Ok m -> Buffer.add_string sent_c2b (String.sub data 0 m)
          | Error _ -> ())
      | `B2c n ->
          let data = String.init n (fun j -> Char.chr (65 + ((i * 17) + j) mod 26)) in
          (match Kernel.write k init sfd data with
          | Ok m -> Buffer.add_string sent_b2c (String.sub data 0 m)
          | Error _ -> ())
      | `Drain -> Proxy.drain plane)
    ops;
  Proxy.drain plane;
  let rec slurp fd buf =
    match Kernel.read k init fd ~len:4096 with
    | Ok s when s <> "" ->
        Buffer.add_string buf s;
        slurp fd buf
    | _ -> ()
  in
  slurp sfd got_c2b;
  slurp cfd got_b2c;
  Proxy.close plane;
  ( Buffer.contents sent_c2b,
    Buffer.contents sent_b2c,
    Buffer.contents got_c2b,
    Buffer.contents got_b2c )

let prop_splice_equals_copy =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun n -> `C2b n) (int_range 1 1024));
          (3, map (fun n -> `B2c n) (int_range 1 1024));
          (2, return `Drain);
        ])
  in
  let print_op = function
    | `C2b n -> Printf.sprintf "c2b:%d" n
    | `B2c n -> Printf.sprintf "b2c:%d" n
    | `Drain -> "drain"
  in
  QCheck.Test.make ~name:"splice plane streams = copy relay streams" ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_op l))
       QCheck.Gen.(list_size (int_range 1 40) op))
    (fun ops ->
      let s_sent_c2b, s_sent_b2c, s_got_c2b, s_got_b2c = run_schedule Proxy.Splice ops in
      let c_sent_c2b, c_sent_b2c, c_got_c2b, c_got_b2c = run_schedule Proxy.Copy ops in
      (* no relay loses, duplicates or reorders accepted bytes *)
      s_got_c2b = s_sent_c2b && s_got_b2c = s_sent_b2c
      && c_got_c2b = c_sent_c2b
      && c_got_b2c = c_sent_b2c
      (* and the two planes moved identical streams *)
      && s_got_c2b = c_got_c2b
      && s_got_b2c = c_got_b2c)

let () =
  Alcotest.run "proxy"
    [
      ( "plane",
        [
          Alcotest.test_case "duplex echo" `Quick test_duplex_echo;
          Alcotest.test_case "backend down refuses loudly" `Quick test_backend_down_refuses_loudly;
          Alcotest.test_case "half-close per direction" `Quick test_half_close_per_direction;
          Alcotest.test_case "backpressure ceiling" `Quick test_backpressure_ceiling;
        ] );
      ( "faults",
        [
          Alcotest.test_case "delay delivers late" `Quick test_fault_delay_slows_but_delivers;
          Alcotest.test_case "accept crash refuses, plane survives" `Quick
            test_fault_accept_crash_refuses_then_recovers;
          Alcotest.test_case "data crash resets, plane survives" `Quick
            test_fault_data_crash_resets_connection;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_splice_equals_copy ] );
    ]
