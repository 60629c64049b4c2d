(* The deterministic fault plane: plan parsing, every injection action at
   the FUSE / backing / disk sites, supervised retry and deadlines, and the
   crash → recover cycle.  The closing qcheck property drives random fault
   plans against a CntrFS session and demands that (a) the app container's
   backing state survives byte-identical, and (b) the session is usable
   again after bounded recovery work — the ISSUE's robustness contract. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs
module Fault = Repro_fault.Fault

let ok = Errno.ok_exn
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* --- harness ----------------------------------------------------------- *)

type sys = {
  k : Kernel.t;
  init : Proc.t;
  rootfs : Nativefs.t;
  session : Session.t;
}

let files = [ ("alpha", 3000); ("beta", 300); ("gamma", 12000) ]

let payload name n =
  String.init n (fun i -> Char.chr (33 + ((Hashtbl.hash name + (i * 7)) mod 90)))

let boot ?opts ?fault ?retry ?(budget = 32 * 1024 * 1024) () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  ok (Kernel.mkdir k init "/back" ~mode:0o777);
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  List.iter
    (fun (name, n) ->
      let fd = ok (Kernel.open_ k init ("/back/" ^ name) [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644) in
      ignore (ok (Kernel.write k init fd (payload name n)));
      ok (Kernel.close k init fd))
    files;
  let server = Kernel.fork k init in
  let budget = Mem_budget.create ~limit_bytes:budget in
  let session =
    Session.create ~kernel:k ~conn:(Conn.create ~obs:k.Kernel.obs ~clock ()) ~server_proc:server
      ~root_path:"/back" ?opts ?fault ?retry ~budget ()
  in
  (* disk-site rules throttle the backing store itself *)
  (match Session.fault session with
  | Some f ->
      Store.set_fault_delay (Nativefs.store rootfs)
        (Some (fun ~op -> Fault.disk_delay_ns f ~op))
  | None -> ());
  ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/mnt"));
  { k; init; rootfs; session }

let read_file sys path =
  Kernel.read_whole sys.k sys.init path

let metrics sys = Repro_obs.Obs.metrics (Session.obs sys.session)
let counter sys name = Repro_obs.Metrics.counter_value (metrics sys) name

(* Native view of the backing directory, bypassing CntrFS entirely: the
   "app container integrity" observation. *)
let backing_fingerprint sys =
  let buf = Buffer.create 256 in
  (match Kernel.readdir sys.k sys.init "/back" with
  | Error e -> Buffer.add_string buf ("err:" ^ Errno.to_string e)
  | Ok entries ->
      entries
      |> List.map (fun e -> e.Types.d_name)
      |> List.sort compare
      |> List.iter (fun name ->
             if name <> "." && name <> ".." then begin
               Buffer.add_string buf name;
               match read_file sys ("/back/" ^ name) with
               | Ok data -> Buffer.add_string buf (Printf.sprintf "#%d;" (Hashtbl.hash data))
               | Error e -> Buffer.add_string buf ("!" ^ Errno.to_string e ^ ";")
             end));
  Buffer.contents buf

(* --- plan files -------------------------------------------------------- *)

let test_parse_roundtrip () =
  let text =
    "# robustness plan\n\
     seed 7\n\
     retry deadline=1000000 max=3 backoff=50000 mult=2\n\
     fuse read nth=2 fail=EINTR\n\
     fuse * every=10 delay=5000\n\
     backing write nth=1 fail=ENOSPC\n\
     disk * prob=0.5 delay=800\n\
     fuse lookup nth=4 crash\n"
  in
  match Fault.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (plan, retry) ->
      check_i "seed" 7 plan.Fault.seed;
      check_i "rules" 5 (List.length plan.Fault.rules);
      (match retry with
      | Some r ->
          check_i "deadline" 1_000_000 r.Fault.deadline_ns;
          check_i "max" 3 r.Fault.max_retries;
          check_i "backoff" 50_000 r.Fault.backoff_ns;
          check_i "mult" 2 r.Fault.backoff_mult
      | None -> Alcotest.fail "retry line lost");
      (* to_string → parse is stable *)
      (match Fault.parse (Fault.to_string plan) with
      | Ok (plan2, _) ->
          check_s "roundtrip" (Fault.to_string plan) (Fault.to_string plan2)
      | Error e -> Alcotest.failf "reparse failed: %s" e)

let test_parse_errors () =
  let bad l = match Fault.parse l with Ok _ -> Alcotest.failf "accepted %S" l | Error _ -> () in
  bad "fuse read nth=x crash";
  bad "nonsense read nth=1 crash";
  bad "fuse read sometimes crash";
  bad "fuse read nth=1 explode";
  bad "seed many"

(* --- single-action behaviour ------------------------------------------ *)

let test_transient_eintr_retried () =
  let plan = Fault.plan [ { Fault.site = Fault.Fuse (Some "read"); trigger = Fault.Nth 1; action = Fault.Fail Errno.EINTR } ] in
  let sys = boot ~fault:plan ~retry:Fault.retry_default () in
  (* the first READ is failed with EINTR; the supervised path retries it *)
  let data = ok (read_file sys "/mnt/alpha") in
  check_s "content intact" (payload "alpha" 3000) data;
  check_b "fault was injected" true (counter sys "fault.injected.fail.EINTR" >= 1);
  check_b "retry counted" true (counter sys "fuse.retries" >= 1)

let test_dropped_reply_times_out_and_retries () =
  let plan = Fault.plan [ { Fault.site = Fault.Fuse (Some "read"); trigger = Fault.Nth 1; action = Fault.Drop_reply } ] in
  let sys = boot ~fault:plan ~retry:Fault.retry_default () in
  let data = ok (read_file sys "/mnt/beta") in
  check_s "content intact" (payload "beta" 300) data;
  check_b "drop injected" true (counter sys "fault.injected.drop" >= 1);
  check_b "deadline tripped" true (counter sys "fuse.timeouts" >= 1);
  check_b "retry counted" true (counter sys "fuse.retries" >= 1)

let test_duplicate_reply_harmless () =
  let plan = Fault.plan [ { Fault.site = Fault.Fuse None; trigger = Fault.Every 3; action = Fault.Duplicate_reply } ] in
  let sys = boot ~fault:plan () in
  List.iter
    (fun (name, n) ->
      let data = ok (read_file sys ("/mnt/" ^ name)) in
      check_s (name ^ " intact") (payload name n) data)
    files;
  check_b "dups injected" true (counter sys "fault.injected.dup" >= 1)

let test_latency_spike_slows_but_succeeds () =
  let spike = 5_000_000 in
  let plan = Fault.plan [ { Fault.site = Fault.Fuse (Some "lookup"); trigger = Fault.Nth 1; action = Fault.Delay spike } ] in
  let sys = boot ~fault:plan () in
  let before = Clock.now_ns sys.k.Kernel.clock in
  let data = ok (read_file sys "/mnt/alpha") in
  let elapsed = Int64.to_int (Int64.sub (Clock.now_ns sys.k.Kernel.clock) before) in
  check_s "content intact" (payload "alpha" 3000) data;
  check_b "spike charged" true (elapsed >= spike);
  check_b "delay injected" true (counter sys "fault.injected.delay" >= 1)

let test_disk_delay_charged () =
  let plan = Fault.plan [ { Fault.site = Fault.Disk; trigger = Fault.Every 1; action = Fault.Delay 40_000 } ] in
  let sys = boot ~fault:plan () in
  let data = ok (read_file sys "/mnt/gamma") in
  check_s "content intact" (payload "gamma" 12000) data;
  check_b "disk delays injected" true (counter sys "fault.injected.disk.delay" >= 1)

let test_enospc_on_write_path () =
  let plan =
    Fault.plan
      [
        { Fault.site = Fault.Backing (Some "write"); trigger = Fault.Every 1; action = Fault.Fail Errno.ENOSPC };
        { Fault.site = Fault.Backing (Some "pwrite"); trigger = Fault.Every 1; action = Fault.Fail Errno.ENOSPC };
      ]
  in
  let sys = boot ~fault:plan () in
  let before = backing_fingerprint sys in
  let fd = ok (Kernel.open_ sys.k sys.init "/mnt/alpha" [ Types.O_WRONLY ] ~mode:0) in
  let r = Kernel.write sys.k sys.init fd "overwrite-attempt" in
  ignore (Kernel.close sys.k sys.init fd);
  (* with writeback caching the error may surface at write or at flush time;
     either way the backing file must be untouched *)
  (match r with
  | Error Errno.ENOSPC | Ok _ -> ()
  | Error e -> Alcotest.failf "expected ENOSPC or deferred error, got %s" (Errno.to_string e));
  Session.quiesce sys.session;
  check_b "ENOSPC injected" true (counter sys "fault.injected.backing.ENOSPC" >= 1);
  check_s "backing unchanged" before (backing_fingerprint sys)

(* With a two-page cache, a writeback write over gamma's three pages
   evicts its own last page (fetched first, for the bytes past the write)
   when it stores the middle one, so it fetches that page again.  That
   fetch fails: the pages already stored stay written and the write
   returns short at them. *)
let test_short_write_on_failed_refetch () =
  let plan =
    Fault.plan
      [ { Fault.site = Fault.Fuse (Some "read"); trigger = Fault.Nth 3; action = Fault.Fail Errno.EIO } ]
  in
  let sys = boot ~budget:(2 * 4096) ~fault:plan () in
  let fd = ok (Kernel.open_ sys.k sys.init "/mnt/gamma" [ Types.O_WRONLY ] ~mode:0) in
  let n = ok (Kernel.pwrite sys.k sys.init fd ~off:100 (String.make 11800 'w')) in
  ok (Kernel.close sys.k sys.init fd);
  check_i "short at the failed page" (8192 - 100) n;
  let old = payload "gamma" 12000 in
  check_s "stored pages written back"
    (String.sub old 0 100 ^ String.make (8192 - 100) 'w' ^ String.sub old 8192 (12000 - 8192))
    (ok (read_file sys "/back/gamma"))

let test_backing_faults_spare_other_processes () =
  let plan = Fault.plan [ { Fault.site = Fault.Backing None; trigger = Fault.Every 1; action = Fault.Fail Errno.EIO } ] in
  let sys = boot ~fault:plan () in
  (* the shell's own syscalls bypass the plane: only the server's backing
     operations are poisoned *)
  let data = ok (read_file sys "/back/alpha") in
  check_s "native read fine" (payload "alpha" 3000) data;
  (match read_file sys "/mnt/alpha" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "server-side faults should surface through the mount")

let test_crash_without_recovery_is_bounded () =
  let plan = Fault.plan [ { Fault.site = Fault.Fuse (Some "read"); trigger = Fault.Nth 1; action = Fault.Crash_server } ] in
  let sys = boot ~fault:plan () in
  let before = Clock.now_ns sys.k.Kernel.clock in
  (match read_file sys "/mnt/alpha" with
  | Error Errno.ENOTCONN -> ()
  | Error e -> Alcotest.failf "expected ENOTCONN, got %s" (Errno.to_string e)
  | Ok _ -> Alcotest.fail "read should fail after crash");
  (* never a hang: the failure resolves in bounded virtual time *)
  let elapsed = Int64.sub (Clock.now_ns sys.k.Kernel.clock) before in
  check_b "bounded failure" true (elapsed < 1_000_000_000L);
  (* later requests keep failing fast, still ENOTCONN *)
  (match Kernel.stat sys.k sys.init "/mnt/beta" with
  | Error Errno.ENOTCONN -> ()
  | Error _ | Ok _ -> ());
  check_b "crash injected" true (counter sys "fault.injected.crash" >= 1)

let test_crash_then_recover () =
  let plan = Fault.plan [ { Fault.site = Fault.Fuse (Some "read"); trigger = Fault.Nth 2; action = Fault.Crash_server } ] in
  let sys = boot ~fault:plan ~retry:Fault.retry_default () in
  let data = ok (read_file sys "/mnt/alpha") in
  check_s "first read fine" (payload "alpha" 3000) data;
  (* second READ crashes the server (retries meet a dead conn and stop) *)
  (match read_file sys "/mnt/beta" with
  | Error Errno.ENOTCONN -> ()
  | Error e -> Alcotest.failf "expected ENOTCONN, got %s" (Errno.to_string e)
  | Ok _ -> Alcotest.fail "read should fail at the crash");
  Session.recover sys.session;
  (* the relaunched server inherits the live ino map: all content back *)
  List.iter
    (fun (name, n) ->
      let data = ok (read_file sys ("/mnt/" ^ name)) in
      check_s (name ^ " after recovery") (payload name n) data)
    files;
  check_i "one recovery" 1 (counter sys "session.recoveries")

(* Crash while a passthrough grant is live: the capability dies with the
   server's backing fds, so the driver must revoke it locally (counted in
   fuse.passthrough.revocations), and recovery reopens the handle WITHOUT
   the stale grant — content stays intact through the mount. *)
let test_crash_with_live_grant () =
  let opts = { Opts.cntr_default with Opts.passthrough = 8 } in
  let sys = boot ~opts () in
  let fd = ok (Kernel.open_ sys.k sys.init "/mnt/alpha" [ Types.O_RDONLY ] ~mode:0) in
  let head = ok (Kernel.pread sys.k sys.init fd ~off:0 ~len:512) in
  check_s "granted read" (String.sub (payload "alpha" 3000) 0 512) head;
  check_b "grant issued" true (counter sys "fuse.passthrough.grants" >= 1);
  Conn.inject_crash sys.session.Session.conn;
  (* the next I/O on the held fd notices the dead transport and drops the
     grant; whether the bytes themselves come from cache or fail with
     ENOTCONN is incidental — the revocation is the contract *)
  (match Kernel.pread sys.k sys.init fd ~off:0 ~len:512 with
  | Ok _ | Error Errno.ENOTCONN -> ()
  | Error e -> Alcotest.failf "unexpected error while dead: %s" (Errno.to_string e));
  check_b "grant revoked by crash" true
    (counter sys "fuse.passthrough.revocations" >= 1);
  Session.recover sys.session;
  List.iter
    (fun (name, n) ->
      let data = ok (read_file sys ("/mnt/" ^ name)) in
      check_s (name ^ " after pt recovery") (payload name n) data)
    files;
  ok (Kernel.close sys.k sys.init fd);
  check_i "one recovery" 1 (counter sys "session.recoveries")

(* --- the robustness property ------------------------------------------ *)

(* Random plans: every rule is one-shot (Nth) so a plan can only inject a
   bounded number of faults — the recovery loop below is then guaranteed to
   converge.  Persistent rules (Every/Prob) are covered by the unit tests
   above. *)
let gen_rule =
  QCheck.Gen.(
    let site =
      frequency
        [
          (4, return (Fault.Fuse None));
          (2, return (Fault.Fuse (Some "read")));
          (2, return (Fault.Fuse (Some "lookup")));
          (1, return (Fault.Backing None));
          (1, return (Fault.Backing (Some "read")));
          (1, return Fault.Disk);
        ]
    in
    let action =
      frequency
        [
          (2, return Fault.Crash_server);
          (2, return Fault.Drop_reply);
          (2, return Fault.Duplicate_reply);
          (2, map (fun n -> Fault.Delay n) (int_range 1_000 1_000_000));
          (2, map (fun n -> Fault.Hang n) (int_range 1_000_000 100_000_000));
          (1, return (Fault.Fail Errno.EINTR));
          (1, return (Fault.Fail Errno.ENOMEM));
          (1, return (Fault.Fail Errno.EIO));
          (1, return (Fault.Fail Errno.ENOSPC));
        ]
    in
    map3
      (fun site trigger action ->
        let action =
          match (site, action) with
          (* only FUSE rules can crash/hang/drop/dup; elsewhere fall back to
             a benign delay so the site stays exercised *)
          | (Fault.Backing _ | Fault.Disk), (Fault.Crash_server | Fault.Hang _ | Fault.Drop_reply | Fault.Duplicate_reply) ->
              Fault.Delay 10_000
          | _ -> action
        in
        { Fault.site; trigger = Fault.Nth trigger; action })
      site (int_range 1 12) action)

let gen_plan =
  QCheck.Gen.(
    map2
      (fun seed rules -> Fault.plan ~seed rules)
      (int_range 0 10_000)
      (list_size (int_range 1 5) gen_rule))

let prop_faults_never_corrupt =
  QCheck.Test.make ~name:"random fault plans: integrity + recovery" ~count:120
    (QCheck.make ~print:(fun p -> Fault.to_string p) gen_plan)
    (fun plan ->
      let sys = boot ~fault:plan ~retry:Fault.retry_default () in
      let before = backing_fingerprint sys in
      (* a read-heavy workload through the mount; individual operations may
         fail (that is the point), the machine must not wedge or corrupt *)
      for round = 1 to 4 do
        List.iter
          (fun (name, _) ->
            ignore (read_file sys ("/mnt/" ^ name));
            ignore (Kernel.stat sys.k sys.init ("/mnt/" ^ name)))
          files;
        ignore (Kernel.readdir sys.k sys.init "/mnt");
        if sys.session.Session.conn.Conn.dead then Session.recover sys.session;
        ignore round
      done;
      (* every one-shot rule has had ample chances; drain stragglers and
         verify the session answers again (recovering if a late crash hit) *)
      let attempts = ref 0 in
      let rec settle () =
        incr attempts;
        if !attempts > 12 then Alcotest.fail "session did not settle";
        if sys.session.Session.conn.Conn.dead then begin
          Session.recover sys.session;
          settle ()
        end
        else
          match read_file sys "/mnt/alpha" with
          | Ok data -> data
          | Error _ -> settle ()
      in
      let data = settle () in
      check_s "readable after faults" (payload "alpha" 3000) data;
      (* the app container's own state never changed: a read-only workload
         under any fault plan must leave the backing bytes alone *)
      check_s "backing intact" before (backing_fingerprint sys);
      (* if the plan crashed the server, recovery must have been counted *)
      if counter sys "fault.injected.crash" >= 1 then
        check_b "recovery counted" true (counter sys "session.recoveries" >= 1);
      true)

let () =
  Alcotest.run "fault"
    [
      ( "plans",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "actions",
        [
          Alcotest.test_case "EINTR retried" `Quick test_transient_eintr_retried;
          Alcotest.test_case "drop -> timeout -> retry" `Quick test_dropped_reply_times_out_and_retries;
          Alcotest.test_case "duplicate reply harmless" `Quick test_duplicate_reply_harmless;
          Alcotest.test_case "latency spike" `Quick test_latency_spike_slows_but_succeeds;
          Alcotest.test_case "disk delay" `Quick test_disk_delay_charged;
          Alcotest.test_case "ENOSPC on write path" `Quick test_enospc_on_write_path;
          Alcotest.test_case "short write on failed refetch" `Quick test_short_write_on_failed_refetch;
          Alcotest.test_case "backing faults are server-only" `Quick test_backing_faults_spare_other_processes;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "crash is bounded, never a hang" `Quick test_crash_without_recovery_is_bounded;
          Alcotest.test_case "crash then recover" `Quick test_crash_then_recover;
          Alcotest.test_case "crash with live passthrough grant" `Quick test_crash_with_live_grant;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_faults_never_corrupt ] );
    ]
