(* Unit tests for the FUSE layer: connection accounting, batching, splice,
   the background (uncharged) mode, forget coalescing and the driver's
   caches — observed through the protocol statistics. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let ok = Errno.ok_exn

type world = {
  k : Kernel.t;
  init : Proc.t;
  session : Session.t;
}

let boot ?(opts = Opts.cntr_default) () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  let init = Kernel.init_proc k in
  ok (Kernel.mkdir k init "/back" ~mode:0o777);
  ok (Kernel.mkdir k init "/mnt" ~mode:0o755);
  let server = Kernel.fork k init in
  let budget = Mem_budget.create ~limit_bytes:(64 * 1024 * 1024) in
  let session =
    Session.create ~kernel:k ~conn:(Conn.create ~obs:k.Kernel.obs ~clock ()) ~server_proc:server
      ~root_path:"/back" ~opts ~budget ()
  in
  ignore (ok (Kernel.mount_at k init ~fs:(Session.fs session) "/mnt"));
  { k; init; session }

let write_file w path data =
  let fd = ok (Kernel.open_ w.k w.init path [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode:0o644) in
  ignore (ok (Kernel.write w.k w.init fd data));
  ok (Kernel.close w.k w.init fd)

let metric w name =
  Repro_obs.Metrics.counter_value (Repro_obs.Obs.metrics (Session.obs w.session)) name

let kind_count w kind = metric w (Printf.sprintf "fuse.req.%s.count" kind)

(* --- connection accounting -------------------------------------------------- *)

let test_requests_counted_by_kind () =
  let w = boot () in
  write_file w "/mnt/f" "x";
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  check_b "create counted" true (kind_count w "create" >= 1);
  check_b "lookups counted" true (kind_count w "lookup" >= 1);
  check_b "writes counted" true (kind_count w "write" >= 1);
  check_b "bytes to server tracked" true (metric w "fuse.bytes.to_server" > 0);
  check_b "bytes from server tracked" true (metric w "fuse.bytes.from_server" > 0)

let test_not_serving_before_handshake () =
  (* a fresh connection without start_serving refuses requests, like a FUSE
     fd before the mount signal (§3.2.2) *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  (match Conn.call conn Protocol.root_ctx Protocol.Statfs with
  | Protocol.R_err Errno.ENOTCONN -> ()
  | _ -> Alcotest.fail "expected ENOTCONN before start_serving");
  Conn.start_serving conn;
  match Conn.call conn Protocol.root_ctx Protocol.Statfs with
  | Protocol.R_ok -> ()
  | _ -> Alcotest.fail "expected R_ok after start_serving"

let test_close_refuses_and_charges_nothing () =
  (* a closed connection refuses requests like one that never started, and
     ending its workers costs no virtual time and leaves nothing queued on
     the scheduler it created *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  Conn.start_serving conn;
  ignore (Conn.call conn Protocol.root_ctx Protocol.Statfs);
  let before = Clock.now_ns clock in
  Conn.close conn;
  Alcotest.(check int64) "close charges nothing" before (Clock.now_ns clock);
  Alcotest.(check int) "nothing left scheduled" 0
    (Repro_sched.Sched.pending_events conn.Conn.sched);
  match Conn.call conn Protocol.root_ctx Protocol.Statfs with
  | Protocol.R_err Errno.ENOTCONN -> ()
  | _ -> Alcotest.fail "expected ENOTCONN after close"

let test_batching_amortizes_context_switches () =
  (* a group of 8 requests submitted at once crosses /dev/fuse once: the
     worker pipelines through the queue without re-parking, so the group
     costs far fewer context switches than 8 separate round trips *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  conn.Conn.threads <- 1;
  Conn.start_serving conn;
  let t0 = Clock.now_ns clock in
  for _ = 1 to 8 do
    ignore (Conn.call conn Protocol.root_ctx Protocol.Statfs)
  done;
  let singles = Int64.to_int (Int64.sub (Clock.now_ns clock) t0) in
  let t1 = Clock.now_ns clock in
  ignore (Conn.call_group conn Protocol.root_ctx (List.init 8 (fun _ -> Protocol.Statfs)));
  let grouped = Int64.to_int (Int64.sub (Clock.now_ns clock) t1) in
  check_b "grouped submission cheaper" true (grouped < singles);
  check_b "saves most of the context switches" true
    (singles - grouped > Cost.context_switch_ns)

let test_background_mode_free () =
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  Conn.start_serving conn;
  conn.Conn.background <- true;
  let t0 = Clock.now_ns clock in
  ignore (Conn.call conn Protocol.root_ctx Protocol.Statfs);
  check_b "background call charges nothing" true (Clock.now_ns clock = t0);
  conn.Conn.background <- false;
  let t1 = Clock.now_ns clock in
  ignore (Conn.call conn Protocol.root_ctx Protocol.Statfs);
  check_b "foreground call charges" true (Clock.now_ns clock > t1)

let test_splice_accounting () =
  let w = boot () in
  write_file w "/back/big" (String.make (256 * 1024) 'x');
  ignore (ok (Kernel.read_whole w.k w.init "/mnt/big"));
  check_b "spliced bytes recorded (splice_read on)" true (metric w "fuse.bytes.spliced" > 0)

let test_no_splice_when_disabled () =
  let w = boot ~opts:{ Opts.cntr_default with Opts.splice_read = false } () in
  write_file w "/back/big" (String.make (256 * 1024) 'x');
  ignore (ok (Kernel.read_whole w.k w.init "/mnt/big"));
  check_i "no spliced bytes" 0 (metric w "fuse.bytes.spliced")

(* --- the shared data-path model ----------------------------------------------- *)

(* A bare kernel (no CntrFS session) for exercising Kernel.splice itself. *)
let kboot () =
  let clock = Clock.create () in
  let rootfs = Nativefs.create ~name:"rootfs" ~clock Store.Ram () in
  let k = Kernel.create ~clock ~root_fs:(Nativefs.ops rootfs) () in
  (k, Kernel.init_proc k, clock)

let test_splice_eagain_consumes_nothing () =
  (* a full destination is EAGAIN before anything is pulled out of the
     source — the clamp runs before the read, so no bytes are stranded *)
  let k, init, _ = kboot () in
  let src_r, src_w = Kernel.pipe k init in
  let _dst_r, dst_w = Kernel.pipe k init in
  ignore (ok (Kernel.write k init src_w "precious"));
  ignore (ok (Kernel.write k init dst_w (String.make (64 * 1024) 'f')));
  (match Kernel.splice k init ~fd_in:src_r ~fd_out:dst_w ~len:8 with
  | Error Errno.EAGAIN -> ()
  | Ok n -> Alcotest.failf "expected EAGAIN, spliced %d" n
  | Error e -> Alcotest.failf "expected EAGAIN, got %s" (Errno.to_string e));
  check_s "source intact" "precious" (ok (Kernel.read k init src_r ~len:64))

let test_splice_clamps_to_sink_room () =
  (* len larger than the sink's free room moves exactly the room; the
     remainder stays queued at the source *)
  let k, init, _ = kboot () in
  let src_r, src_w = Kernel.pipe k init in
  let _dst_r, dst_w = Kernel.pipe k init in
  ignore (ok (Kernel.write k init src_w (String.make 4096 's')));
  ignore (ok (Kernel.write k init dst_w (String.make ((64 * 1024) - 1000) 'f')));
  check_i "moves exactly the sink's room" 1000
    (ok (Kernel.splice k init ~fd_in:src_r ~fd_out:dst_w ~len:4096));
  check_i "remainder still at the source" 3096
    (String.length (ok (Kernel.read k init src_r ~len:8192)))

let test_splice_priced_per_page () =
  (* splice pricing is Cost's: fixed setup plus a per-page
     remap — growing the chunk by N pages costs exactly N more remaps *)
  let k, init, clock = kboot () in
  let measure pages =
    let src_r, src_w = Kernel.pipe k init in
    let dst_r, dst_w = Kernel.pipe k init in
    let len = pages * Cost.page_size in
    ignore (ok (Kernel.write k init src_w (String.make len 'x')));
    let t0 = Clock.now_ns clock in
    check_i "full chunk moved" len
      (ok (Kernel.splice k init ~fd_in:src_r ~fd_out:dst_w ~len));
    let d = Int64.to_int (Int64.sub (Clock.now_ns clock) t0) in
    List.iter (fun fd -> ok (Kernel.close k init fd)) [ src_r; src_w; dst_r; dst_w ];
    d
  in
  let one = measure 1 in
  let nine = measure 9 in
  check_i "eight more pages cost eight more remaps" (8 * Cost.splice_page_ns)
    (nine - one)

let test_splice_read_cost_bearing () =
  (* the same cold streaming read is cheaper over the splice path than over
     the copy path, and only the splice path touches fuse.splice.* *)
  let run opts =
    let w = boot ~opts () in
    write_file w "/back/big" (String.make (512 * 1024) 'x');
    let t0 = Clock.now_ns w.k.Kernel.clock in
    ignore (ok (Kernel.read_whole w.k w.init "/mnt/big"));
    let d = Int64.to_int (Int64.sub (Clock.now_ns w.k.Kernel.clock) t0) in
    (d, metric w "fuse.splice.calls", metric w "fuse.splice.bytes")
  in
  let d_splice, calls, bytes = run Opts.cntr_default in
  let d_copy, calls0, bytes0 = run { Opts.cntr_default with Opts.splice_read = false } in
  check_b "spliced streaming read cheaper than copied" true (d_splice < d_copy);
  check_b "splice calls counted" true (calls >= 1);
  check_b "splice bytes cover the payload" true (bytes >= 512 * 1024);
  check_i "copy path leaves the splice counters untouched" 0 (calls0 + bytes0)

(* --- forget batching ---------------------------------------------------------- *)

let test_forget_batching () =
  let w = boot () in
  (* create then unlink many files: forgets queue until the batch size *)
  for i = 0 to 99 do
    write_file w (Printf.sprintf "/mnt/f%d" i) "x"
  done;
  for i = 0 to 99 do
    ignore (ok (Kernel.unlink w.k w.init (Printf.sprintf "/mnt/f%d" i)))
  done;
  let forgets = kind_count w "forget" in
  check_b "forgets sent" true (forgets >= 1);
  check_b "forgets coalesced (100 inos, batch 64)" true (forgets <= 3)

let test_forget_unbatched () =
  let w = boot ~opts:{ Opts.cntr_default with Opts.forget_batch = 1 } () in
  for i = 0 to 9 do
    write_file w (Printf.sprintf "/mnt/f%d" i) "x"
  done;
  for i = 0 to 9 do
    ignore (ok (Kernel.unlink w.k w.init (Printf.sprintf "/mnt/f%d" i)))
  done;
  check_b "one forget per ino" true (kind_count w "forget" >= 10)

(* --- driver caches -------------------------------------------------------------- *)

let test_entry_cache_avoids_lookups () =
  let w = boot () in
  write_file w "/back/f" "x";
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  let lookups1 = kind_count w "lookup" in
  (* repeated stats resolve from the dentry cache *)
  for _ = 1 to 10 do
    ignore (ok (Kernel.stat w.k w.init "/mnt/f"))
  done;
  check_i "no further lookup requests" lookups1 (kind_count w "lookup")

let test_entry_cache_disabled () =
  let w = boot ~opts:{ Opts.cntr_default with Opts.dcache = false } () in
  write_file w "/back/f" "x";
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  let lookups1 = kind_count w "lookup" in
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  check_b "every walk pays lookups" true (kind_count w "lookup" > lookups1)

let test_write_coalescing () =
  let w = boot () in
  let fd = ok (Kernel.open_ w.k w.init "/mnt/f" [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644) in
  (* 64 x 4 KiB sequential writes = 256 KiB -> at most a handful of WRITE
     requests (128 KiB each) thanks to the writeback cache *)
  for i = 0 to 63 do
    ignore (ok (Kernel.pwrite w.k w.init fd ~off:(i * 4096) (String.make 4096 'w')))
  done;
  ok (Kernel.close w.k w.init fd);
  let writes = kind_count w "write" in
  check_b (Printf.sprintf "writes coalesced (%d requests for 64 calls)" writes) true (writes <= 4)

let test_write_through_no_coalescing () =
  let w = boot ~opts:{ Opts.cntr_default with Opts.writeback = false } () in
  let fd = ok (Kernel.open_ w.k w.init "/mnt/f" [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644) in
  for i = 0 to 15 do
    ignore (ok (Kernel.pwrite w.k w.init fd ~off:(i * 4096) (String.make 4096 'w')))
  done;
  ok (Kernel.close w.k w.init fd);
  check_b "one WRITE per call" true (kind_count w "write" >= 16)

(* The per-inode dirty limit: a write that leaves one inode holding 4096
   dirty pages (16 MiB) flushes that inode at once and no other. *)
let test_dirty_limit_flushes_one_inode () =
  let w = boot () in
  let open_w path =
    ok (Kernel.open_ w.k w.init path [ Types.O_CREAT; Types.O_WRONLY ] ~mode:0o644)
  in
  let backing path = ok (Kernel.read_whole w.k w.init path) in
  let small = open_w "/mnt/small" in
  (* should the first write fire the 5 ms dirty expiry, the second lands
     inside its window and stays dirty *)
  ignore (ok (Kernel.pwrite w.k w.init small ~off:0 "old"));
  ignore (ok (Kernel.pwrite w.k w.init small ~off:0 "new"));
  let big = open_w "/mnt/big" in
  let data = String.make ((4096 + 1) * Cost.page_size) 'b' in
  ignore (ok (Kernel.pwrite w.k w.init big ~off:0 data));
  check_b "the big file reached the backing store before close" true
    (String.equal data (backing "/back/big"));
  check_b "the small file's page is still dirty" false (String.equal "new" (backing "/back/small"));
  ok (Kernel.close w.k w.init big);
  ok (Kernel.close w.k w.init small);
  check_s "close flushes the small file" "new" (backing "/back/small")

(* --- connection counter accounting (regression) ------------------------------- *)
(* fuse.round_trips / os.context_switches must report what was *charged*:
   a group of n requests crosses /dev/fuse once (one round trip), the
   worker wakes once and the submitter resumes once (two context
   switches), however many members the group has. *)

let test_batched_counters_amortized () =
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  conn.Conn.threads <- 1;
  Conn.start_serving conn;
  let m = Repro_obs.Obs.metrics (Conn.obs conn) in
  let rt0 = Repro_obs.Metrics.counter_value m "fuse.round_trips" in
  let cs0 = Repro_obs.Metrics.counter_value m "os.context_switches" in
  ignore (Conn.call_group conn Protocol.root_ctx (List.init 8 (fun _ -> Protocol.Statfs)));
  check_i "8 grouped requests = one round trip" (rt0 + 1)
    (Repro_obs.Metrics.counter_value m "fuse.round_trips");
  check_i "and two context switches" (cs0 + 2)
    (Repro_obs.Metrics.counter_value m "os.context_switches")

let test_unbatched_counters_exact () =
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  (* one worker: no herd, so the accounting is exact — each call wakes the
     worker once and resumes the submitter once *)
  conn.Conn.threads <- 1;
  Conn.start_serving conn;
  let m = Repro_obs.Obs.metrics (Conn.obs conn) in
  for _ = 1 to 5 do
    ignore (Conn.call conn Protocol.root_ctx Protocol.Statfs)
  done;
  check_i "one round trip per call" 5 (Repro_obs.Metrics.counter_value m "fuse.round_trips");
  check_i "two context switches each" 10
    (Repro_obs.Metrics.counter_value m "os.context_switches")

(* A max gauge lives only in the registry: a second connection on the same
   registry whose queue peaks lower must leave the first's maxima. *)
let test_max_gauges_shared_registry () =
  let obs = Repro_obs.Obs.create () in
  let connect () =
    let conn = Conn.create ~obs ~clock:(Clock.create ()) () in
    Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
    conn.Conn.threads <- 1;
    Conn.start_serving conn;
    conn
  in
  let peaks () =
    List.map
      (Repro_obs.Metrics.gauge_value (Repro_obs.Obs.metrics obs))
      [ "fuse.queue.depth.max"; "fuse.inflight.max"; "fuse.queue.per_worker_depth.0" ]
  in
  (* two requests in one submission: both queue on the one worker *)
  ignore (Conn.call_group (connect ()) Protocol.root_ctx [ Protocol.Statfs; Protocol.Statfs ]);
  Alcotest.(check (list (float 0.))) "first connection peaks at 2" [ 2.; 2.; 2. ] (peaks ());
  ignore (Conn.call (connect ()) Protocol.root_ctx Protocol.Statfs);
  check_i "the second connection's request ran" 3
    (Repro_obs.Metrics.counter_value (Repro_obs.Obs.metrics obs) "fuse.req.count");
  Alcotest.(check (list (float 0.))) "its lower peak leaves the maxima" [ 2.; 2.; 2. ] (peaks ())

(* --- metadata fast path --------------------------------------------------------- *)


let test_readdirplus_populates_caches () =
  let w = boot ~opts:Opts.fastpath () in
  ok (Kernel.mkdir w.k w.init "/back/d" ~mode:0o755);
  for i = 0 to 9 do
    write_file w (Printf.sprintf "/back/d/f%d" i) "x"
  done;
  ignore (ok (Kernel.readdir w.k w.init "/mnt/d"));
  check_b "readdirplus returned entries" true (metric w "fuse.readdirplus.entries" >= 10);
  let lookups = kind_count w "lookup" in
  let getattrs = kind_count w "getattr" in
  (* every child is already in the dentry+attr caches: stats are free *)
  for i = 0 to 9 do
    ignore (ok (Kernel.stat w.k w.init (Printf.sprintf "/mnt/d/f%d" i)))
  done;
  check_i "no LOOKUP after readdirplus" lookups (kind_count w "lookup");
  check_i "no GETATTR after readdirplus" getattrs (kind_count w "getattr")

let test_readdir_plain_when_disabled () =
  let w = boot () in
  (* paper profile: READDIRPLUS off, stats after readdir still pay lookups *)
  ok (Kernel.mkdir w.k w.init "/back/d" ~mode:0o755);
  write_file w "/back/d/f" "x";
  ignore (ok (Kernel.readdir w.k w.init "/mnt/d"));
  check_i "no readdirplus entries in paper profile" 0 (metric w "fuse.readdirplus.entries");
  let lookups = kind_count w "lookup" in
  ignore (ok (Kernel.stat w.k w.init "/mnt/d/f"));
  check_b "stat still pays a LOOKUP" true (kind_count w "lookup" > lookups)

let test_negative_dentries () =
  let w = boot ~opts:Opts.fastpath () in
  (match Kernel.stat w.k w.init "/mnt/ghost" with
  | Error Errno.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT");
  let lookups = kind_count w "lookup" in
  for _ = 1 to 5 do
    match Kernel.stat w.k w.init "/mnt/ghost" with
    | Error Errno.ENOENT -> ()
    | _ -> Alcotest.fail "expected cached ENOENT"
  done;
  check_i "repeat misses served from the negative cache" lookups (kind_count w "lookup");
  check_b "negative hits counted" true (metric w "fuse.dentry.negative_hits" >= 5);
  (* coherence: creating the name must drop the negative entry *)
  write_file w "/mnt/ghost" "now";
  (match Kernel.stat w.k w.init "/mnt/ghost" with
  | Ok st -> check_i "created file visible" 3 st.Types.st_size
  | Error _ -> Alcotest.fail "negative dentry survived create")

let test_unlink_installs_negative_entry () =
  let w = boot ~opts:Opts.fastpath () in
  write_file w "/mnt/churn" "x";
  ignore (ok (Kernel.unlink w.k w.init "/mnt/churn"));
  let lookups = kind_count w "lookup" in
  (* postmark's create-after-unlink: the failed LOOKUP is skipped *)
  write_file w "/mnt/churn" "y";
  check_i "create-after-unlink pays no failed LOOKUP" lookups (kind_count w "lookup");
  (match Kernel.stat w.k w.init "/mnt/churn" with
  | Ok st -> check_i "recreated file visible" 1 st.Types.st_size
  | Error _ -> Alcotest.fail "recreated file invisible")

let test_ttl_expiry_re_lookups () =
  (* tiny TTLs: entries expire between operations (every op consumes
     virtual time), so walks go back to the wire *)
  let w =
    boot
      ~opts:
        { Opts.fastpath with Opts.entry_timeout_ns = 1; attr_timeout_ns = 1; negative_timeout_ns = 1 }
      ()
  in
  write_file w "/back/f" "x";
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  let lookups = kind_count w "lookup" in
  ignore (ok (Kernel.stat w.k w.init "/mnt/f"));
  check_b "expired entry pays a fresh LOOKUP" true (kind_count w "lookup" > lookups)

let test_handle_cache_hits () =
  (* expired dentries force re-LOOKUPs; the server-side handle cache then
     answers them without re-paying open()+stat() *)
  let w =
    boot
      ~opts:
        { Opts.fastpath with Opts.entry_timeout_ns = 1; attr_timeout_ns = 1; negative_timeout_ns = 1 }
      ()
  in
  write_file w "/back/f" "x";
  for _ = 1 to 10 do
    ignore (ok (Kernel.stat w.k w.init "/mnt/f"))
  done;
  check_b "handle cache hit on re-LOOKUP" true (metric w "cntrfs.handle_cache.hits" >= 1);
  check_b "misses counted too" true (metric w "cntrfs.handle_cache.misses" >= 1)

let test_handle_cache_coherent_after_write () =
  let w =
    boot ~opts:{ Opts.fastpath with Opts.entry_timeout_ns = 1; attr_timeout_ns = 1 } ()
  in
  write_file w "/mnt/f" "old";
  write_file w "/mnt/f" "older!";
  (* the cached handle's stat must not serve the pre-write size *)
  match Kernel.stat w.k w.init "/mnt/f" with
  | Ok st -> check_i "size after rewrite" 6 st.Types.st_size
  | Error _ -> Alcotest.fail "stat failed"

let test_fastpath_off_is_inert () =
  (* the paper profile must not touch any fast-path machinery *)
  let w = boot () in
  write_file w "/mnt/f" "x";
  ignore (Kernel.stat w.k w.init "/mnt/ghost");
  ignore (Kernel.stat w.k w.init "/mnt/ghost");
  ignore (ok (Kernel.readdir w.k w.init "/mnt"));
  check_i "no negative hits" 0 (metric w "fuse.dentry.negative_hits");
  check_i "no readdirplus entries" 0 (metric w "fuse.readdirplus.entries");
  check_i "no handle-cache traffic" 0
    (metric w "cntrfs.handle_cache.hits" + metric w "cntrfs.handle_cache.misses")

let test_server_lookup_tax_counted () =
  let w = boot () in
  for i = 0 to 9 do
    write_file w (Printf.sprintf "/back/s%d" i) "x"
  done;
  let before = metric w "cntrfs.lookup.count" in
  for i = 0 to 9 do
    ignore (ok (Kernel.stat w.k w.init (Printf.sprintf "/mnt/s%d" i)))
  done;
  check_b "server-side open()+stat() per cold lookup" true
    (metric w "cntrfs.lookup.count" - before >= 10)

(* --- passthrough grants -------------------------------------------------------- *)

let test_passthrough_reads_bypass_fuse () =
  (* a granted open serves its reads out of the backing file: the payload
     crosses zero FUSE READ round trips *)
  let w = boot ~opts:{ Opts.cntr_default with Opts.passthrough = 8 } () in
  let payload = String.make (256 * 1024) 'h' in
  write_file w "/back/hot" payload;
  let reads_before = kind_count w "read" in
  let fd = ok (Kernel.open_ w.k w.init "/mnt/hot" [ Types.O_RDONLY ] ~mode:0) in
  let data = ok (Kernel.pread w.k w.init fd ~off:0 ~len:(256 * 1024)) in
  ok (Kernel.close w.k w.init fd);
  check_b "payload intact" true (String.equal data payload);
  check_b "grant issued" true (metric w "fuse.passthrough.grants" >= 1);
  check_b "grant served the reads" true (metric w "fuse.passthrough.reads" >= 1);
  check_i "zero READ round trips" reads_before (kind_count w "read")

let test_passthrough_off_is_inert () =
  (* the default profile must leave the grant plane untouched: not a
     single fuse.passthrough.* counter may exist in the registry *)
  let w = boot () in
  write_file w "/mnt/f" "x";
  ignore (ok (Kernel.read_whole w.k w.init "/mnt/f"));
  check_i "no passthrough counters in the registry" 0
    (List.length
       (Repro_obs.Metrics.counters_with_prefix
          (Repro_obs.Obs.metrics (Session.obs w.session))
          ~prefix:"fuse.passthrough."))

let test_passthrough_write_through () =
  (* with the writeback cache off every write is a synchronous WRITE round
     trip — unless a grant carries it straight to the backing file *)
  let w =
    boot ~opts:{ Opts.cntr_default with Opts.passthrough = 8; writeback = false } ()
  in
  write_file w "/back/f" "aaaaaaaa";
  let writes_before = kind_count w "write" in
  let fd = ok (Kernel.open_ w.k w.init "/mnt/f" [ Types.O_WRONLY ] ~mode:0) in
  check_i "written" 4 (ok (Kernel.pwrite w.k w.init fd ~off:0 "ZZZZ"));
  ok (Kernel.close w.k w.init fd);
  check_i "zero WRITE round trips" writes_before (kind_count w "write");
  check_b "grant carried the write" true (metric w "fuse.passthrough.writes" >= 1);
  check_s "backing updated synchronously" "ZZZZaaaa"
    (ok (Kernel.read_whole w.k w.init "/back/f"))

let test_passthrough_revocation_races_writeback () =
  (* LRU capacity 1: the second grant evicts the first (a server-side
     revocation).  The revoked handle's writes ride the writeback cache;
     a regrant over the same file must serve reads that see the pending
     dirty data — the grant fill must never clobber dirty pages — and the
     eventual flush must land it in the backing file. *)
  let w = boot ~opts:{ Opts.cntr_default with Opts.passthrough = 1 } () in
  write_file w "/back/f1" (String.make 8192 'a');
  write_file w "/back/f2" "bbbb";
  let fd1 = ok (Kernel.open_ w.k w.init "/mnt/f1" [ Types.O_RDWR ] ~mode:0) in
  ignore (ok (Kernel.pread w.k w.init fd1 ~off:0 ~len:16));
  let fd2 = ok (Kernel.open_ w.k w.init "/mnt/f2" [ Types.O_RDONLY ] ~mode:0) in
  check_b "LRU overflow revoked the first grant" true
    (metric w "fuse.passthrough.revocations" >= 1);
  (* the revoked handle falls back to the writeback cache: dirty pages *)
  check_i "fallback write accepted" 3 (ok (Kernel.pwrite w.k w.init fd1 ~off:0 "XYZ"));
  ok (Kernel.close w.k w.init fd2);
  (* a fresh open regrants f1 while those dirty pages are still pending *)
  let fd3 = ok (Kernel.open_ w.k w.init "/mnt/f1" [ Types.O_RDONLY ] ~mode:0) in
  check_s "regranted read sees the unflushed write" "XYZ"
    (ok (Kernel.pread w.k w.init fd3 ~off:0 ~len:3));
  ok (Kernel.fsync w.k w.init fd1);
  ok (Kernel.close w.k w.init fd1);
  ok (Kernel.close w.k w.init fd3);
  Session.quiesce w.session;
  let backing = ok (Kernel.read_whole w.k w.init "/back/f1") in
  check_s "backing caught up after the flush" "XYZ" (String.sub backing 0 3);
  check_b "every open earned a grant" true (metric w "fuse.passthrough.grants" >= 3)

(* --- request queue ----------------------------------------------------------- *)

let test_queue_fifo_ordering () =
  (* a single worker drains the pending queue in submission order — the
     queue is the kernel's FIFO fuse_conn list, not a priority structure *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  let served = ref [] in
  Conn.set_handler conn (fun _ req ->
      (match req with
      | Protocol.Getattr ino -> served := ino :: !served
      | _ -> ());
      Protocol.R_err Errno.ENOSYS);
  conn.Conn.threads <- 1;
  Conn.start_serving conn;
  let inos = List.init 16 (fun i -> i + 100) in
  ignore
    (Conn.call_group conn Protocol.root_ctx
       (List.map (fun i -> Protocol.Getattr i) inos));
  check_b "served in submission order" true (List.rev !served = inos)

let test_background_backpressure () =
  (* one-way messages are the background class: at [max_background] the
     submitter blocks until workers drain below the threshold, so the
     in-flight count can touch but never exceed it *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  conn.Conn.threads <- 2;
  conn.Conn.max_background <- 3;
  Conn.start_serving conn;
  let max_seen = ref 0 in
  for fh = 1 to 32 do
    Conn.post conn Protocol.root_ctx (Protocol.Release fh);
    if conn.Conn.bg_inflight > !max_seen then max_seen := conn.Conn.bg_inflight
  done;
  check_i "submitter held at the congestion threshold" 3 !max_seen;
  Conn.quiesce conn;
  check_i "background class drains to zero" 0 conn.Conn.bg_inflight

let test_worker_fairness () =
  (* grouped submissions keep the queue deep enough that the whole pool
     engages: every worker accumulates busy time, and no single worker
     pipelines the queue dry while its peers starve (the yield between
     requests models re-entering read(2) on /dev/fuse) *)
  let clock = Clock.create () in
  let conn = Conn.create ~clock () in
  Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
  conn.Conn.threads <- 4;
  Conn.start_serving conn;
  for _ = 1 to 8 do
    ignore
      (Conn.call_group conn Protocol.root_ctx
         (List.init 16 (fun _ -> Protocol.Statfs)))
  done;
  let m = Repro_obs.Obs.metrics (Conn.obs conn) in
  let busy = Repro_obs.Metrics.counters_with_prefix m ~prefix:"cntrfs.worker." in
  check_i "one busy counter per worker" 4 (List.length busy);
  let vals = List.map snd busy in
  let mn = List.fold_left min max_int vals in
  let mx = List.fold_left max 0 vals in
  check_b "every worker served requests" true (mn > 0);
  check_b
    (Printf.sprintf "no worker monopolizes the pool (min %dns, max %dns)" mn mx)
    true
    (mx <= 4 * mn)

let test_sixteen_worker_determinism () =
  (* 16 workers, a grouped concurrent load: two fresh runs leave
     byte-identical registries — counters, gauges AND latency histograms.
     Placement scoring, steal walks and park order all derive from the
     virtual clock and the pool's seeded rng streams, never from host
     scheduling, so `cntr stats --json` is reproducible at any width. *)
  let run () =
    let clock = Clock.create () in
    let conn = Conn.create ~clock () in
    Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
    conn.Conn.threads <- 16;
    Conn.start_serving conn;
    for _ = 1 to 6 do
      ignore
        (Conn.call_group conn Protocol.root_ctx (List.init 24 (fun _ -> Protocol.Statfs)))
    done;
    Conn.quiesce conn;
    Repro_obs.Metrics.to_json (Repro_obs.Obs.metrics (Conn.obs conn))
  in
  Alcotest.(check string) "byte-identical stats at 16 workers" (run ()) (run ())

let test_supervised_group () =
  (* under supervision each member of a group keeps its own deadline and
     retry bracket, so the group degrades to one round trip per member; a
     member whose server hangs past the deadline times out and is retried
     until it answers *)
  let run ?fault () =
    let clock = Clock.create () in
    let conn = Conn.create ~clock () in
    Conn.set_handler conn (fun _ _ -> Protocol.R_ok);
    conn.Conn.threads <- 1;
    Conn.start_serving conn;
    Conn.supervise conn ~retry:Repro_fault.Fault.retry_default ();
    Option.iter (Conn.inject conn) fault;
    let resps =
      Conn.call_group conn Protocol.root_ctx (List.init 8 (fun _ -> Protocol.Statfs))
    in
    check_b "every member answers R_ok" true
      (List.for_all (function Protocol.R_ok -> true | _ -> false) resps);
    Repro_obs.Metrics.counter_value (Repro_obs.Obs.metrics (Conn.obs conn))
  in
  let counter = run () in
  check_i "8 members cost 8 round trips" 8 (counter "fuse.round_trips");
  let counter = run ~fault:(Repro_fault.Fault.Hang 10_000_000) () in
  check_i "round trips with one hang" 12 (counter "fuse.round_trips");
  check_i "retries" 4 (counter "fuse.retries");
  check_i "timeouts" 4 (counter "fuse.timeouts")

let test_rename_storm_no_deadlock () =
  (* Serialized dirops shard the directory locks by inode hash, and rename
     takes its two shards in table order.  A seeded storm of concurrent
     cross-directory renames — enough parents that some must collide in
     the 64-entry shard table, with tasks hopping in opposing directions —
     must run to completion (a lock cycle would surface as
     Sched.Deadlock) with every file still reachable where its task left
     it. *)
  let w = boot ~opts:{ Opts.cntr_default with Opts.parallel_dirops = false } () in
  let ndirs = 66 (* > 64 shards: the pigeonhole guarantees collisions *) in
  let ntasks = 8 and hops = 20 in
  for d = 0 to ndirs - 1 do
    ok (Kernel.mkdir w.k w.init (Printf.sprintf "/mnt/d%02d" d) ~mode:0o777)
  done;
  for t = 0 to ntasks - 1 do
    write_file w (Printf.sprintf "/mnt/d%02d/f%d" t t) "payload"
  done;
  let sched = Conn.sched w.session.Session.conn in
  let final = Array.make ntasks 0 in
  Repro_sched.Sched.run sched (fun () ->
      let tasks =
        List.init ntasks (fun t ->
            Repro_sched.Sched.spawn sched (fun () ->
                (* distinct strides give opposing lock orders across the
                   same directory pairs *)
                let stride = (t * 13) + 7 in
                let cur = ref t in
                for _ = 1 to hops do
                  let next = (!cur + stride) mod ndirs in
                  ok
                    (Kernel.rename w.k w.init
                       ~src:(Printf.sprintf "/mnt/d%02d/f%d" !cur t)
                       ~dst:(Printf.sprintf "/mnt/d%02d/f%d" next t));
                  cur := next
                done;
                final.(t) <- !cur))
      in
      List.iter (fun task -> Repro_sched.Sched.await sched task) tasks);
  for t = 0 to ntasks - 1 do
    let st =
      ok (Kernel.stat w.k w.init (Printf.sprintf "/mnt/d%02d/f%d" final.(t) t))
    in
    check_b (Printf.sprintf "file %d intact after the storm" t) true
      (st.Types.st_size = String.length "payload")
  done

let () =
  Alcotest.run "fuse"
    [
      ( "connection",
        [
          Alcotest.test_case "requests by kind" `Quick test_requests_counted_by_kind;
          Alcotest.test_case "handshake gate" `Quick test_not_serving_before_handshake;
          Alcotest.test_case "close refuses, charges nothing" `Quick
            test_close_refuses_and_charges_nothing;
          Alcotest.test_case "batching amortizes" `Quick test_batching_amortizes_context_switches;
          Alcotest.test_case "background mode free" `Quick test_background_mode_free;
          Alcotest.test_case "splice accounting" `Quick test_splice_accounting;
          Alcotest.test_case "splice disabled" `Quick test_no_splice_when_disabled;
          Alcotest.test_case "batched counters amortized" `Quick test_batched_counters_amortized;
          Alcotest.test_case "unbatched counters exact" `Quick test_unbatched_counters_exact;
          Alcotest.test_case "max gauges shared by connections" `Quick
            test_max_gauges_shared_registry;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "splice EAGAIN consumes nothing" `Quick
            test_splice_eagain_consumes_nothing;
          Alcotest.test_case "splice clamps to sink room" `Quick test_splice_clamps_to_sink_room;
          Alcotest.test_case "splice priced per page" `Quick test_splice_priced_per_page;
          Alcotest.test_case "splice read cost-bearing" `Quick test_splice_read_cost_bearing;
        ] );
      ( "passthrough",
        [
          Alcotest.test_case "reads bypass FUSE" `Quick test_passthrough_reads_bypass_fuse;
          Alcotest.test_case "off is inert" `Quick test_passthrough_off_is_inert;
          Alcotest.test_case "write-through bypass" `Quick test_passthrough_write_through;
          Alcotest.test_case "revocation races writeback" `Quick
            test_passthrough_revocation_races_writeback;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "readdirplus populates caches" `Quick test_readdirplus_populates_caches;
          Alcotest.test_case "plain readdir when disabled" `Quick test_readdir_plain_when_disabled;
          Alcotest.test_case "negative dentries" `Quick test_negative_dentries;
          Alcotest.test_case "unlink installs negative entry" `Quick test_unlink_installs_negative_entry;
          Alcotest.test_case "ttl expiry re-lookups" `Quick test_ttl_expiry_re_lookups;
          Alcotest.test_case "handle cache hits" `Quick test_handle_cache_hits;
          Alcotest.test_case "handle cache coherent" `Quick test_handle_cache_coherent_after_write;
          Alcotest.test_case "fast path off is inert" `Quick test_fastpath_off_is_inert;
        ] );
      ( "queue",
        [
          Alcotest.test_case "FIFO ordering" `Quick test_queue_fifo_ordering;
          Alcotest.test_case "congestion backpressure" `Quick test_background_backpressure;
          Alcotest.test_case "worker fairness" `Quick test_worker_fairness;
          Alcotest.test_case "16-worker determinism" `Quick test_sixteen_worker_determinism;
          Alcotest.test_case "supervised group" `Quick test_supervised_group;
          Alcotest.test_case "rename storm is deadlock-free" `Quick
            test_rename_storm_no_deadlock;
        ] );
      ( "forgets",
        [
          Alcotest.test_case "batched" `Quick test_forget_batching;
          Alcotest.test_case "unbatched" `Quick test_forget_unbatched;
        ] );
      ( "caches",
        [
          Alcotest.test_case "entry cache" `Quick test_entry_cache_avoids_lookups;
          Alcotest.test_case "entry cache disabled" `Quick test_entry_cache_disabled;
          Alcotest.test_case "write coalescing" `Quick test_write_coalescing;
          Alcotest.test_case "write-through" `Quick test_write_through_no_coalescing;
          Alcotest.test_case "dirty limit flushes one inode" `Quick
            test_dirty_limit_flushes_one_inode;
          Alcotest.test_case "server lookup tax" `Quick test_server_lookup_tax_counted;
        ] );
    ]
