(* Two-clock benchmark of the CNTR reproduction.

   One process runs one workload on one seed and prints every metric by
   name, with its unit and sample count; the last line is one JSON object
   ({correct, attempted, failed, metrics}).  Each workload is a closed loop
   of whole passes repeated until [--seconds] of host time have gone by.
   Two clocks are measured from outside the library, around the
   benchmark's own calls into each layer:

   - virtual time, what the modelled system costs ([Clock] of the world
     under test).  It is exact for a seed, so it is taken from pass 0;
   - host time and allocation, what the OCaml simulator costs
     ([Monotonic_clock.now] and [Gc] counters).  Host times are medians
     over passes; the end-to-end ones are calibrated for the machine's
     load (see [Calib]).

   With [--trace 1] even passes record one span per benchmark call into a
   layer and odd passes do not; the per-layer metrics come from the traced
   passes and the tracing overhead is their median calibrated wall time
   minus the untraced passes'.  See README.md for the workloads and the metric map. *)

open Repro_util
module Metrics = Repro_obs.Metrics
module Obs = Repro_obs.Obs
module Kernel = Repro_os.Kernel
module Types = Repro_vfs.Types
module Bench_env = Repro_workloads.Bench_env
module Suite = Repro_workloads.Suite
module World = Repro_runtime.World
module Catalog = Repro_image.Catalog
module Family = Repro_image.Family
module Image = Repro_image.Image
module Registry = Repro_image.Registry
module Store = Repro_store.Store
module Daemon = Repro_ctrl.Daemon
module Client = Repro_ctrl.Client
module Rpc = Repro_ctrl.Rpc

(* --- host clock, allocation ------------------------------------------------ *)

let host_ns = Monotonic_clock.now
let process_start = host_ns ()
let secs a b = Int64.to_float (Int64.sub b a) /. 1e9
let us a b = Int64.to_float (Int64.sub b a) /. 1e3
let virt_ms a b = Int64.to_float (Int64.sub b a) /. 1e6

let gc_words () =
  let minor, _, major = Gc.counters () in
  (minor, major)

let mwords w = w /. 1e6
let mib_of_words w = float_of_int w *. 8. /. 1048576.

(* --- statistics ------------------------------------------------------------- *)

(* Samples are consed onto lists, O(1) each, and sorted once when
   summarised. *)
let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile; 0 for no samples. *)
let pct p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = pct 0.5 xs
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let ratio a b = if b = 0. then 0. else a /. b

(* --- spans ---------------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 at the root *)
  sp_op : string;  (** shared by every span of one row, session or image *)
  sp_name : string;  (** "<layer>.<function>" *)
  sp_h0 : int64;
  mutable sp_h1 : int64;
  sp_v0 : int64;  (** -1 when the call has no virtual clock *)
  mutable sp_v1 : int64;
}

let tracing = ref false
let spans : span list ref = ref [] (* newest first *)
let n_spans = ref 0
let open_span = ref (-1)
let vnow = function Some c -> Clock.now_ns c | None -> -1L

(* Record one span around a benchmark call into a layer.  Reads the
   virtual clock, never advances it. *)
let span ?clock ?(op = "") name f =
  if not !tracing then f ()
  else begin
    let parent = !open_span in
    let s =
      {
        sp_id = !n_spans;
        sp_parent = parent;
        sp_op = op;
        sp_name = name;
        sp_h0 = host_ns ();
        sp_h1 = 0L;
        sp_v0 = vnow clock;
        sp_v1 = 0L;
      }
    in
    incr n_spans;
    spans := s :: !spans;
    open_span := s.sp_id;
    let close () =
      s.sp_h1 <- host_ns ();
      s.sp_v1 <- vnow clock;
      open_span := parent
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Host self time per layer (span length minus its child spans), summed
   over every recorded span. *)
let self_seconds () =
  let all = Array.of_list (List.rev !spans) in
  let child = Array.make (Array.length all) 0L in
  Array.iter
    (fun s -> if s.sp_parent >= 0 then child.(s.sp_parent) <- Int64.add child.(s.sp_parent) (Int64.sub s.sp_h1 s.sp_h0))
    all;
  let by_layer = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let self = Int64.sub (Int64.sub s.sp_h1 s.sp_h0) child.(s.sp_id) in
      let l = layer_of s.sp_name in
      let prev = Option.value (Hashtbl.find_opt by_layer l) ~default:0L in
      Hashtbl.replace by_layer l (Int64.add prev self))
    all;
  Hashtbl.fold (fun l ns acc -> (l, Int64.to_float ns /. 1e9) :: acc) by_layer [] |> List.sort compare

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":\"%s\",\"name\":\"%s\",\"host_start_ns\":%Ld,\"host_end_ns\":%Ld,\"virt_start_ns\":%Ld,\"virt_end_ns\":%Ld}\n"
        s.sp_id s.sp_parent (Metrics.json_escape s.sp_op) (Metrics.json_escape s.sp_name)
        (Int64.sub s.sp_h0 process_start) (Int64.sub s.sp_h1 process_start) s.sp_v0 s.sp_v1)
    (List.rev !spans);
  close_out oc

(* --- metrics -------------------------------------------------------------- *)

(* The end-to-end metrics every workload reports with [--trace 0]. *)
let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("peak_heap_mb", "MB"); ("virt_ms_mean", "ms") ]

(* The per-layer metrics every workload reports with [--trace 1]; a layer
   the workload does not exercise reads 0. *)
let per_layer =
  [
    ("workloads.native.host_s", "s"); ("workloads.cntrfs.host_s", "s");
    ("workloads.native.major_mwords", "Mwords"); ("workloads.cntrfs.major_mwords", "Mwords");
    ("workloads.native.read_ms", "ms"); ("workloads.native.write_ms", "ms");
    ("workloads.native.meta_ms", "ms"); ("workloads.fs_read_x", "x");
    ("workloads.fs_write_x", "x"); ("workloads.fs_meta_x", "x");
    ("os.syscalls", "count"); ("os.context_switches", "count"); ("os.syscall_host_ns", "ns");
    ("os.forks_per_session", "count"); ("os.syscalls_per_exec", "count");
    ("os.retained_kb_per_session", "KiB");
    ("fuse.round_trips", "count"); ("fuse.dentry_hit_ratio", "ratio");
    ("fuse.lookup_us_p99", "us"); ("fuse.read_us_p99", "us"); ("fuse.write_us_p99", "us");
    ("fuse.queue_wait_us_p50", "us"); ("fuse.queue_wait_us_p99", "us");
    ("fuse.bytes_copied", "B"); ("fuse.bytes_spliced", "B"); ("fuse.requests_per_exec", "count");
    ("cntrfs.lookup_amplification", "x"); ("cntrfs.handle_cache_hit_ratio", "ratio");
    ("cntrfs.worker_busy_ms", "ms");
    ("vfs.fuse_cache_hit_ratio", "ratio"); ("vfs.ext4_cache_hit_ratio", "ratio");
    ("vfs.disk_write_ios", "count");
    ("sched.steals", "count");
    ("runtime.testbed_s", "s"); ("runtime.containers_s", "s");
    ("ctrl.create_host_us", "us"); ("ctrl.exec_host_us", "us"); ("ctrl.detach_host_us", "us");
    ("ctrl.major_mwords", "Mwords"); ("ctrl.queue_wait_us_p50", "us"); ("ctrl.queue_wait_us_p99", "us");
    ("ctrl.wire_batches", "count"); ("ctrl.wire_stalls", "count"); ("ctrl.wire_overloaded", "count");
    ("ctrl.rejected", "count"); ("ctrl.attach_ms_p50", "ms"); ("ctrl.attach_ms_p99", "ms");
    ("ctrl.exec_ms_p50", "ms"); ("ctrl.exec_ms_p99", "ms");
    ("proxy.splices_per_exec", "count"); ("proxy.wakeups_per_call", "count");
    ("proxy.rpc_bytes_per_call", "B");
    ("image.synthesize_s", "s"); ("image.push_host_us_p50", "us"); ("image.push_host_us_p99", "us");
    ("image.push_major_mwords", "Mwords"); ("image.pull_host_us_p50", "us");
    ("image.pull_kib_p50", "KiB"); ("image.pull_kib_p99", "KiB");
    ("image.pull_ms_p50", "ms"); ("image.pull_ms_p99", "ms");
    ("store.dedup_ratio", "x"); ("store.physical_mb", "MB"); ("store.host_physical_mb", "MB");
    ("slim.partition_host_us_p50", "us"); ("slim.partition_host_us_p99", "us");
    ("workloads.self_s", "s"); ("os.self_s", "s"); ("runtime.self_s", "s"); ("ctrl.self_s", "s");
    ("image.self_s", "s"); ("slim.self_s", "s");
    ("trace.overhead_s", "s"); ("trace.spans", "count");
  ]

let show ?n name value unit =
  Printf.printf "  %-34s %16.6f %-7s%s\n" name value unit
    (match n with Some n -> Printf.sprintf " n=%d" n | None -> "")

(* --- passes ---------------------------------------------------------------- *)

(* Calibrated host time.  The machine is a few vCPUs of a shared host, and
   the load other tenants put on its caches and memory slows this program
   by up to a factor of two, in phases from a second to minutes long:
   more than most changes to the program.  So every pass is bracketed by
   [reference], a fixed computation on the OCaml standard library alone
   (allocation, a growing hash table, scans), timed from a collected heap,
   whose time tracks that load.  A workload's host time follows the
   reference's to the power [elasticity], the least-squares slope of log
   host time on log reference time over runs at varied load (README.md).
   A pass's calibrated time is its host time times
   ([nominal_s] / r) ** elasticity, with r the mean of the two references
   around it: the host time on a machine where the reference takes
   [nominal_s], about what it takes on a quiet 2-vCPU Xeon host.  The raw
   host times are printed beside. *)
module Calib = struct
  let nominal_s = 0.05

  let reference () =
    Gc.full_major ();
    let t0 = host_ns () in
    let h = Hashtbl.create 16 in
    for i = 0 to 100_000 do
      Hashtbl.replace h (i * 7919 mod 1_000_003) (string_of_int i)
    done;
    let s = ref 0 in
    for _ = 1 to 5 do
      Hashtbl.iter (fun k v -> s := !s + k + String.length v) h
    done;
    ignore (Sys.opaque_identity !s);
    let t = secs t0 (host_ns ()) in
    Gc.full_major ();
    t
end

type 'a pass = {
  traced : bool;
  setup_s : float;  (** raw host seconds *)
  wall_s : float;
  ref_s : float;  (** mean of the two references around the pass *)
  data : 'a;
}

let calibrated ~elasticity p t = t *. ((Calib.nominal_s /. p.ref_s) ** elasticity)

let peak_heap_words = ref 0

(* Run whole passes until [seconds] of host time have gone by: at least
   one, and at least three in traced mode so that traced and untraced
   passes both follow the warm-up pass.  Pass 0 is traced in traced mode,
   so its virtual results can be compared with an untraced run's.  The
   first pass's set-up runs from process start.  [peak_heap_words] is the
   top of the heap after the first pass, a fixed amount of work, taken
   before the first reference runs.  Every later pass starts from a
   collected heap, whatever the last one left. *)
let passes ~seconds ~trace f =
  let t0 = host_ns () in
  let rec go i before acc =
    let traced = trace && i mod 2 = 0 in
    tracing := traced;
    let setup_s, wall_s, data = f i ~traced in
    tracing := false;
    let setup_s = if i = 0 then setup_s +. secs process_start t0 else setup_s in
    if i = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let after = Calib.reference () in
    (* pass 0 has no reference before it *)
    let ref_s = match before with Some b -> (b +. after) /. 2. | None -> after in
    let acc = { traced; setup_s; wall_s; ref_s; data } :: acc in
    if i + 1 >= (if trace then 3 else 1) && secs t0 (host_ns ()) >= seconds then List.rev acc
    else go (i + 1) (Some after) acc
  in
  go 0 None []

(* Host-time medians skip the warm-up pass (first touch of the heap and
   of process-wide memos) whenever a later pass exists. *)
let warm ps = match ps with _ :: (_ :: _ as rest) -> rest | _ -> ps
let traced_passes ps = List.filter (fun p -> p.traced) (warm ps)
let first ps = (List.hd ps).data

type outcome = {
  attempted : int;
  failed : int;
  ok : bool;  (** every check beyond per-operation failures held *)
  virt : (string * float * string * int) list;
      (** the workload's virtual-clock metrics from pass 0: name, value,
          unit, samples; includes [virt_ms_mean] *)
  layer : (string * float) list;
  vdigest : string;  (** pass 0's virtual results and registry counters *)
  gc : float * float;  (** minor and major words allocated in pass 0's timed phase *)
}

(* Every pass of a workload with fixed inputs must reproduce pass 0's
   virtual results, traced or not. *)
let same_virtual name digest_of ps =
  let d0 = digest_of (first ps) in
  let bad = List.filter (fun p -> digest_of p.data <> d0) ps in
  if bad <> [] then Printf.printf "CHECK FAILED: %d of %d %s passes diverge from pass 0\n" (List.length bad) (List.length ps) name;
  bad = []

let counter m name = float_of_int (Metrics.counter_value m name)

let hist m name p =
  match Metrics.histogram_summary m name with
  | None -> 0.
  | Some s -> ( match p with `P50 -> s.Metrics.s_p50 | `P99 -> s.Metrics.s_p99)

let registry_digest m = Digest.to_hex (Digest.string (Metrics.to_json m))

(* Zipf popularity over [n] items: weight 1/(rank+1).  Item i has rank i,
   or a seeded random rank when [shuffle] is given.  A draw is a binary
   search, O(log n). *)
module Zipf = struct
  type t = { items : int array; cum : float array }

  let make ?shuffle n =
    let items = Array.init n Fun.id in
    Option.iter (fun rng -> Rng.shuffle rng items) shuffle;
    let cum = Array.make n 0. in
    let acc = ref 0. in
    for r = 0 to n - 1 do
      acc := !acc +. (1. /. float_of_int (r + 1));
      cum.(r) <- !acc
    done;
    { items; cum }

  let draw rng t =
    let n = Array.length t.cum in
    let x = Rng.float rng *. t.cum.(n - 1) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) > x then hi := mid else lo := mid + 1
    done;
    t.items.(!lo)
end

(* --- phoronix: the 20 Figure-2 rows on native and CntrFS ------------------- *)

module Phoronix = struct
  (* fitted as [Calib] says: slope 0.47 *)
  let elasticity = 0.5

  let read_rows =
    [ "IOzone: Read"; "Threaded I/O: Read"; "Dbench: 1 Clients"; "Dbench: 12 Clients";
      "Dbench: 48 Clients"; "Dbench: 128 Clients"; "Gzip"; "FIO" ]

  let write_rows =
    [ "IOzone: Write"; "Threaded I/O: Write"; "AIO-Stress"; "FS-Mark"; "SQlite"; "Pgbench";
      "Unpack tarball" ]

  let meta_rows = [ "Compileb.: Read"; "Compileb.: Create"; "Compileb.: Comp."; "PostMark"; "Apachebench" ]
  let classes = [ ("read", read_rows); ("write", write_rows); ("meta", meta_rows) ]

  let () =
    List.iter
      (fun (w : Bench_env.workload) ->
        if List.length (List.filter (fun (_, rows) -> List.mem w.w_name rows) classes) <> 1 then
          failwith ("phoronix: row in no class or several: " ^ w.w_name))
      Suite.figure2

  (* Names, kinds and content digests of the measured tree, read through
     the native path. *)
  let tree_digest (env : Bench_env.env) =
    let k = env.kernel and p = env.proc in
    let buf = Buffer.create 4096 in
    let rec walk path =
      match Kernel.readdir k p path with
      | Error e -> Buffer.add_string buf ("readdir " ^ Errno.to_string e)
      | Ok ents ->
          ents
          |> List.filter (fun (d : Types.dirent) -> d.d_name <> "." && d.d_name <> "..")
          |> List.sort (fun (a : Types.dirent) b -> compare a.d_name b.d_name)
          |> List.iter (fun (d : Types.dirent) ->
                 let child = path ^ "/" ^ d.d_name in
                 Buffer.add_string buf d.d_name;
                 Buffer.add_char buf ' ';
                 Buffer.add_string buf (Types.kind_to_string d.d_kind);
                 Buffer.add_char buf ' ';
                 (match d.d_kind with
                 | Types.Reg -> (
                     match Kernel.read_whole k p child with
                     | Ok s -> Buffer.add_string buf (Digest.to_hex (Digest.string s))
                     | Error e -> Buffer.add_string buf ("read " ^ Errno.to_string e))
                 | Types.Dir ->
                     Buffer.add_char buf '{';
                     walk child;
                     Buffer.add_char buf '}'
                 | Types.Symlink -> (
                     match Kernel.readlink k p child with
                     | Ok t -> Buffer.add_string buf t
                     | Error e -> Buffer.add_string buf ("readlink " ^ Errno.to_string e))
                 | _ -> ());
                 Buffer.add_char buf '\n')
    in
    walk env.backing_dir;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  type leg = {
    l_virt_ns : int64;
    l_setup_s : float;
    l_run_s : float;
    l_minor : float;
    l_major : float;
    l_digest : string;
  }

  (* One leg of one row: [Bench_env.run_workload] with the seed in
     [env.rng], then the tree digest. *)
  let leg ~obs ~seed ~backend ~op (w : Bench_env.workload) =
    let h0 = host_ns () in
    let env =
      span ~op "workloads.make_env" (fun () -> Bench_env.make_env ~obs ~backend ~budget_mb:w.w_budget_mb ())
    in
    let env = { env with Bench_env.rng = Rng.create ~seed } in
    let clock = env.kernel.Kernel.clock in
    span ~clock ~op "workloads.w_setup" (fun () -> w.w_setup env);
    span ~clock ~op "workloads.settle" (fun () -> Bench_env.settle env);
    let h1 = host_ns () in
    let minor0, major0 = gc_words () in
    let v0 = Clock.now_ns clock in
    span ~clock ~op "workloads.w_run" (fun () -> Repro_sched.Sched.run env.sched (fun () -> w.w_run env));
    let v1 = Clock.now_ns clock in
    let minor1, major1 = gc_words () in
    let h2 = host_ns () in
    let digest = span ~clock ~op "os.tree_digest" (fun () -> tree_digest env) in
    {
      l_virt_ns = Int64.sub v1 v0;
      l_setup_s = secs h0 h1;
      l_run_s = secs h1 h2;
      l_minor = minor1 -. minor0;
      l_major = major1 -. major0;
      l_digest = digest;
    }

  type row = { r_name : string; r_paper : float; r_native : leg; r_cntr : leg }

  (* A pass keeps its rows and a summary of the CntrFS legs' registry, not
     the registries: those pin a world each, and a growing live heap would
     slow every later pass's collections. *)
  type data = {
    rows : row list;
    counters : (string * float) list;  (** CntrFS legs' registry, read at the end of the pass *)
    vdigest : string;
  }

  let row_ok r = r.r_native.l_digest = r.r_cntr.l_digest
  let x r = Int64.to_float r.r_cntr.l_virt_ns /. Int64.to_float r.r_native.l_virt_ns

  let registry_values m =
    let hit name = ratio (counter m (name ^ ".hits")) (counter m (name ^ ".hits") +. counter m (name ^ ".misses")) in
    let busy_ns =
      Metrics.counters_with_prefix m ~prefix:"cntrfs.worker."
      |> List.filter (fun (n, _) -> String.ends_with ~suffix:".busy_ns" n)
      |> List.fold_left (fun a (_, v) -> a + v) 0
    in
    [
      ("os.syscalls", counter m "os.syscall.count");
      ("os.context_switches", counter m "os.context_switches");
      ("fuse.round_trips", counter m "fuse.round_trips");
      ("fuse.dentry_hit_ratio", hit "fuse.dentry");
      ("fuse.lookup_us_p99", hist m "fuse.req.lookup.latency_us" `P99);
      ("fuse.read_us_p99", hist m "fuse.req.read.latency_us" `P99);
      ("fuse.write_us_p99", hist m "fuse.req.write.latency_us" `P99);
      ("fuse.queue_wait_us_p50", hist m "fuse.queue.wait_us" `P50);
      ("fuse.queue_wait_us_p99", hist m "fuse.queue.wait_us" `P99);
      ("fuse.bytes_copied", counter m "fuse.bytes.copied");
      ("fuse.bytes_spliced", counter m "fuse.bytes.spliced");
      ("cntrfs.lookup_amplification", ratio (counter m "cntrfs.lookup.backing_ops") (counter m "cntrfs.lookup.count"));
      ("cntrfs.handle_cache_hit_ratio", hit "cntrfs.handle_cache");
      ("cntrfs.worker_busy_ms", float_of_int busy_ns /. 1e6);
      ("vfs.fuse_cache_hit_ratio", hit "vfs.page_cache.fuse");
      ("vfs.ext4_cache_hit_ratio", hit "vfs.page_cache.ext4");
      ("vfs.disk_write_ios", counter m "vfs.disk.write_ios");
      ("sched.steals", counter m "sched.steals");
    ]

  let pass ~seed _i ~traced:_ =
    let native_obs = Obs.create () and cntr_obs = Obs.create () in
    let rows =
      List.mapi
        (fun i (w : Bench_env.workload) ->
          let op = Printf.sprintf "row%02d" i in
          span ~op "workloads.row" (fun () ->
              let r_native = leg ~obs:native_obs ~seed ~backend:Bench_env.Native ~op w in
              let r_cntr =
                leg ~obs:cntr_obs ~seed ~backend:(Bench_env.Cntrfs Repro_fuse.Opts.cntr_default) ~op w
              in
              { r_name = w.w_name; r_paper = w.w_paper; r_native; r_cntr }))
        Suite.figure2
    in
    let sum f = List.fold_left (fun a r -> a +. f r.r_native +. f r.r_cntr) 0. rows in
    let vdigest =
      Digest.to_hex
        (Digest.string
           (String.concat ";"
              (registry_digest (Obs.metrics native_obs)
              :: registry_digest (Obs.metrics cntr_obs)
              :: List.map
                   (fun r -> Printf.sprintf "%Ld/%Ld/%s" r.r_native.l_virt_ns r.r_cntr.l_virt_ns r.r_cntr.l_digest)
                   rows)))
    in
    ( sum (fun l -> l.l_setup_s),
      sum (fun l -> l.l_run_s),
      { rows; counters = registry_values (Obs.metrics cntr_obs); vdigest } )

  let class_rows d rows = List.filter (fun r -> List.mem r.r_name rows) d.rows

  let run ~seed ~seconds ~trace =
    let ps = passes ~seconds ~trace (pass ~seed) in
    let d = first ps in
    let ok = same_virtual "phoronix" (fun d -> d.vdigest) ps in
    let attempted = 20 * List.length ps in
    let failed = List.fold_left (fun a p -> a + List.length (List.filter (fun r -> not (row_ok r)) p.data.rows)) 0 ps in
    Printf.printf "phoronix: %d passes x 20 rows, native and CntrFS legs\n" (List.length ps);
    Printf.printf "  %-22s %12s %12s %8s %6s %10s %s\n" "row" "native_ms" "cntrfs_ms" "x" "paper" "|log(m/p)|" "digest";
    List.iter
      (fun r ->
        Printf.printf "  %-22s %12.4f %12.4f %8.3f %6.2f %10.3f %s\n" r.r_name
          (Int64.to_float r.r_native.l_virt_ns /. 1e6) (Int64.to_float r.r_cntr.l_virt_ns /. 1e6) (x r) r.r_paper
          (Float.abs (log (x r /. r.r_paper))) (if row_ok r then "match" else "MISMATCH"))
      d.rows;
    let class_x =
      List.map
        (fun (cls, rows) ->
          let rs = class_rows d rows in
          (cls, geomean (List.map x rs), geomean (List.map (fun r -> r.r_paper) rs),
           geomean (List.map (fun r -> Int64.to_float r.r_native.l_virt_ns /. 1e6) rs), List.length rs))
        classes
    in
    Printf.printf "model error: Figure-2 geomean (w_paper) and |log(measured/paper)| per class\n";
    List.iter
      (fun (cls, m, paper, _, n) ->
        show ~n (Printf.sprintf "fs_%s_x.paper" cls) paper "x";
        show ~n (Printf.sprintf "fs_%s_x.abs_log_error" cls) (Float.abs (log (m /. paper))) "")
      class_x;
    let virt =
      ("virt_ms_mean", mean (List.map (fun r -> Int64.to_float r.r_cntr.l_virt_ns /. 1e6) d.rows), "ms", 20)
      :: List.map (fun (cls, m, _, _, n) -> (Printf.sprintf "fs_%s_x" cls, m, "x", n)) class_x
    in
    let layer =
      if not trace then []
      else
        let tps = traced_passes ps in
        let run_s f p = List.fold_left (fun a r -> a +. (f r).l_run_s) 0. p.data.rows in
        let words f = List.fold_left (fun a r -> a +. (f r).l_major) 0. d.rows in
        let cntr_host = median (List.map (run_s (fun r -> r.r_cntr)) tps) in
        let native_class cls = List.find_map (fun (c, _, _, ms, _) -> if c = cls then Some ms else None) class_x in
        let x_class cls = List.find_map (fun (c, v, _, _, _) -> if c = cls then Some v else None) class_x in
        [
          ("workloads.native.host_s", median (List.map (run_s (fun r -> r.r_native)) tps));
          ("workloads.cntrfs.host_s", cntr_host);
          ("workloads.native.major_mwords", mwords (words (fun r -> r.r_native)));
          ("workloads.cntrfs.major_mwords", mwords (words (fun r -> r.r_cntr)));
          ("workloads.native.read_ms", Option.get (native_class "read"));
          ("workloads.native.write_ms", Option.get (native_class "write"));
          ("workloads.native.meta_ms", Option.get (native_class "meta"));
          ("workloads.fs_read_x", Option.get (x_class "read"));
          ("workloads.fs_write_x", Option.get (x_class "write"));
          ("workloads.fs_meta_x", Option.get (x_class "meta"));
          ("os.syscall_host_ns", ratio (cntr_host *. 1e9) (List.assoc "os.syscalls" d.counters));
        ]
        @ d.counters
    in
    let minor = List.fold_left (fun a r -> a +. r.r_native.l_minor +. r.r_cntr.l_minor) 0. d.rows in
    let major = List.fold_left (fun a r -> a +. r.r_native.l_major +. r.r_cntr.l_major) 0. d.rows in
    ( ps,
      { attempted; failed; ok; virt; layer; vdigest = d.vdigest; gc = (minor, major) } )
end

(* --- attach-churn: cntrd over the framed wire, two clients ----------------- *)

module Churn = struct
  (* fitted as [Calib] says: slope 0.82 *)
  let elasticity = 0.8

  let containers = 8
  let clients = 2
  let round_sessions = 16
  let rounds = 32 (* per client per pass: 2 x 32 x 16 = 1024 sessions *)
  let engines = [| "docker"; "lxc"; "rkt"; "systemd-nspawn" |]
  let tenants = [| "alice"; "bob"; "carol"; "dave" |]

  (* The first eight catalogue images with a distro base: a scratch image
     has no /etc/passwd for [cat] to read. *)
  let images =
    List.filter (fun (s : Catalog.spec) -> s.sp_base <> `Scratch) Catalog.specs
    |> List.filteri (fun i _ -> i < containers)
    |> List.map (fun (s : Catalog.spec) -> s.sp_name)
    |> Array.of_list

  (* [strace -p 1] exits 1, so it stays out. *)
  let commands =
    [| "hostname"; "ps"; "ls /var/lib/cntr"; "cat /var/lib/cntr/etc/passwd"; "ls /usr/bin"; "gdb --version" |]

  type data = {
    attach_ms : float list;  (** per session.create, virtual *)
    exec_ms : float list;  (** per session.exec, virtual *)
    create_us : float list;  (** host us per call, one sample per envelope *)
    exec_us : float list;
    detach_us : float list;
    testbed_s : float;
    containers_s : float;
    calls : int;
    failed : int;
    drained : bool;
    minor : float;
    major : float;
    deltas : (string * float) list;  (** counter deltas over the churn *)
    queue_wait : float * float;
    wire : float * float * float * float;
    retained_kb : float;
    sessions : int;
    execs : int;
    digest : string;
  }

  let churn_counters =
    [ "os.proc.forks"; "os.syscall.count"; "fuse.req.count"; "proxy.splice.calls"; "proxy.loop.wakeups";
      "proxy.fwd.rpc.bytes.c2b"; "proxy.fwd.rpc.bytes.b2c" ]

  let lists_app comm out =
    List.exists (fun l -> String.ends_with ~suffix:(" " ^ comm) l) (String.split_on_char '\n' out)

  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words

  let pass ~seed i ~traced =
    let rng = Rng.create ~seed in
    let h0 = host_ns () in
    let world = span "runtime.testbed_create" (fun () -> Repro_cntr.Testbed.create ()) in
    let h1 = host_ns () in
    let cts =
      Array.init containers (fun c ->
          let name = Printf.sprintf "c%d" c in
          span ~op:name "runtime.run_container" (fun () ->
              Errno.ok_exn
                (World.run_container world ~engine:(World.engine world engines.(c mod Array.length engines)) ~name
                   ~image_ref:(images.(c) ^ ":latest") ())))
    in
    let h2 = host_ns () in
    let daemon = span "ctrl.daemon_create" (fun () -> Daemon.create world) in
    let wire = span "ctrl.wire_serve" (fun () -> Errno.ok_exn (Daemon.wire_serve daemon ~path:"/run/cntrd.sock" ())) in
    let conns = Array.init clients (fun _ -> span "ctrl.connect" (fun () -> Client.connect wire)) in
    let zipf = Zipf.make containers in
    let clock = world.World.kernel.Kernel.clock in
    let m = Obs.metrics world.World.obs in
    let retain = traced && i = 0 in
    let live0 = if retain then live_words () else 0 in
    let h3 = host_ns () in
    (* ---- timed churn ---- *)
    let minor0, major0 = gc_words () in
    let before = List.map (counter m) churn_counters in
    let attach_ms = ref [] and exec_ms = ref [] in
    let create_us = ref [] and exec_us = ref [] and detach_us = ref [] in
    let calls = ref 0 and failed = ref 0 and sessions = ref 0 and execs = ref 0 in
    (* One single-verb envelope on one client: send it, claim every reply.
       The replies share one frame, so each call's latency runs from the
       send to the first claim. *)
    let envelope c ~verb ~op host lat start =
      let conn = conns.(c) in
      let hs = host_ns () and v0 = Clock.now_ns clock in
      let handles = span ~clock ~op ("ctrl.batch_" ^ verb) (fun () -> Client.batch conn start) in
      let claimed = ref None in
      let results =
        List.map
          (fun h ->
            let r = span ~clock ~op ("ctrl.finish_" ^ verb) (fun () -> Client.finish conn h) in
            if !claimed = None then claimed := Some (Clock.now_ns clock);
            r)
          handles
      in
      let n = List.length handles in
      host := (us hs (host_ns ()) /. float_of_int (max 1 n)) :: !host;
      (match (lat, !claimed) with
      | Some l, Some v1 ->
          let ms = virt_ms v0 v1 in
          List.iter (fun _ -> l := ms :: !l) handles
      | _ -> ());
      calls := !calls + n;
      List.map
        (function
          | Ok v -> Some v
          | Error (_ : Rpc.rerror) ->
              incr failed;
              None)
        results
    in
    for round = 0 to rounds - 1 do
      (* per client: the container, tenant and command list of each session *)
      let plans =
        Array.init clients (fun _ ->
            Array.init round_sessions (fun _ ->
                let ct = Zipf.draw rng zipf in
                let tenant = tenants.(!sessions mod Array.length tenants) in
                incr sessions;
                let cmds = Array.init (Rng.int_range rng 1 8) (fun _ -> Rng.choose rng commands) in
                (ct, tenant, cmds)))
      in
      let op c = Printf.sprintf "c%dr%d" c round in
      let sids =
        Array.mapi
          (fun c plan ->
            envelope c ~verb:"create" ~op:(op c) create_us (Some attach_ms) (fun () ->
                Array.to_list
                  (Array.map
                     (fun (ct, tenant, _) -> Client.start_create conns.(c) ~tenant (Printf.sprintf "c%d" ct))
                     plan))
            |> List.map (Option.map (fun (r : Client.created) -> r.Client.sc_session))
            |> Array.of_list)
          plans
      in
      let depth = Array.fold_left (fun a plan -> Array.fold_left (fun a (_, _, cmds) -> max a (Array.length cmds)) a plan) 0 plans in
      for step = 0 to depth - 1 do
        for c = 0 to clients - 1 do
          (* the sessions of this client with a command left at [step] *)
          let live =
            List.filter_map
              (fun j ->
                let ct, _, cmds = plans.(c).(j) in
                match sids.(c).(j) with
                | Some sid when step < Array.length cmds -> Some (sid, ct, cmds.(step))
                | _ -> None)
              (List.init round_sessions Fun.id)
          in
          if live <> [] then begin
            let replies =
              envelope c ~verb:"exec" ~op:(op c) exec_us (Some exec_ms) (fun () ->
                  List.map (fun (sid, _, cmd) -> Client.start_exec conns.(c) ~session:sid cmd) live)
            in
            List.iter2
              (fun (_, ct, cmd) reply ->
                incr execs;
                match reply with
                | Some (x : Client.execed) ->
                    let comm = cts.(ct).Repro_runtime.Container.ct_main.Repro_os.Proc.comm in
                    if x.Client.sx_code <> 0 || (cmd = "ps" && not (lists_app comm x.Client.sx_output)) then begin
                      incr failed;
                      Printf.printf "CHECK FAILED: exec %S in c%d exited %d\n" cmd ct x.Client.sx_code
                    end
                | None -> ())
              live replies
          end
        done
      done;
      Array.iteri
        (fun c ids ->
          let live = List.filter_map Fun.id (Array.to_list ids) in
          if live <> [] then
            ignore
              (envelope c ~verb:"detach" ~op:(op c) detach_us None (fun () ->
                   List.map (fun sid -> Client.start_detach conns.(c) ~session:sid) live)))
        sids
    done;
    let minor1, major1 = gc_words () in
    let h4 = host_ns () in
    (* ---- end of timed churn ---- *)
    let retained_kb =
      if retain then
        float_of_int (live_words () - live0) *. 8. /. 1024. /. float_of_int !sessions
      else 0.
    in
    (* the world is what retains dead sessions: keep it reachable until here *)
    ignore (Sys.opaque_identity (world, daemon, conns));
    let drained = Metrics.gauge_value m "ctrl.sessions.active" = 0. in
    if not drained then Printf.printf "CHECK FAILED: %.0f sessions still active after the drain\n" (Metrics.gauge_value m "ctrl.sessions.active");
    let deltas = List.map2 (fun name b -> (name, counter m name -. b)) churn_counters before in
    let data =
      {
        attach_ms = !attach_ms;
        exec_ms = !exec_ms;
        create_us = !create_us;
        exec_us = !exec_us;
        detach_us = !detach_us;
        testbed_s = secs h0 h1;
        containers_s = secs h1 h2;
        calls = !calls;
        failed = !failed;
        drained;
        minor = minor1 -. minor0;
        major = major1 -. major0;
        deltas;
        queue_wait = (hist m "ctrl.queue.wait_us" `P50, hist m "ctrl.queue.wait_us" `P99);
        wire =
          ( counter m "ctrl.wire.batches", counter m "ctrl.wire.stalls", counter m "ctrl.wire.overloaded",
            counter m "ctrl.sessions.rejected" );
        retained_kb;
        sessions = !sessions;
        execs = !execs;
        digest =
          Digest.to_hex
            (Digest.string
               (String.concat "|"
                  [
                    String.concat "," (List.map (Printf.sprintf "%.6f") !attach_ms);
                    String.concat "," (List.map (Printf.sprintf "%.6f") !exec_ms);
                    registry_digest m;
                  ]));
      }
    in
    (secs h0 h3, secs h3 h4, data)

  let run ~seed ~seconds ~trace =
    let ps = passes ~seconds ~trace (pass ~seed) in
    let d = first ps in
    let ok = same_virtual "attach-churn" (fun d -> d.digest) ps && List.for_all (fun p -> p.data.drained) ps in
    let attempted = List.fold_left (fun a p -> a + p.data.calls) 0 ps in
    let failed = List.fold_left (fun a p -> a + p.data.failed) 0 ps in
    Printf.printf "attach-churn: %d passes x %d sessions over %d wire clients, %d execs per pass\n"
      (List.length ps) d.sessions clients d.execs;
    Printf.printf "attach_ms and exec_ms have no paper reference: unvalidated\n";
    let na = List.length d.attach_ms and ne = List.length d.exec_ms in
    let virt =
      [
        ("virt_ms_mean", mean d.attach_ms, "ms", na);
        ("attach_ms_p50", median d.attach_ms, "ms", na);
        ("attach_ms_p99", pct 0.99 d.attach_ms, "ms", na);
        ("exec_ms_p50", median d.exec_ms, "ms", ne);
        ("exec_ms_p99", pct 0.99 d.exec_ms, "ms", ne);
      ]
    in
    let layer =
      if not trace then []
      else
        let tps = traced_passes ps in
        let med f = median (List.map (fun p -> f p.data) tps) in
        let pooled f = median (List.concat_map (fun p -> f p.data) tps) in
        let delta name = List.assoc name d.deltas in
        let per a b = ratio a (float_of_int b) in
        let batches, stalls, overloaded, rejected = d.wire in
        [
          ("runtime.testbed_s", med (fun d -> d.testbed_s));
          ("runtime.containers_s", med (fun d -> d.containers_s));
          ("ctrl.create_host_us", pooled (fun d -> d.create_us));
          ("ctrl.exec_host_us", pooled (fun d -> d.exec_us));
          ("ctrl.detach_host_us", pooled (fun d -> d.detach_us));
          ("ctrl.major_mwords", mwords d.major);
          ("ctrl.queue_wait_us_p50", fst d.queue_wait);
          ("ctrl.queue_wait_us_p99", snd d.queue_wait);
          ("ctrl.wire_batches", batches);
          ("ctrl.wire_stalls", stalls);
          ("ctrl.wire_overloaded", overloaded);
          ("ctrl.rejected", rejected);
          ("ctrl.attach_ms_p50", median d.attach_ms);
          ("ctrl.attach_ms_p99", pct 0.99 d.attach_ms);
          ("ctrl.exec_ms_p50", median d.exec_ms);
          ("ctrl.exec_ms_p99", pct 0.99 d.exec_ms);
          ("os.forks_per_session", per (delta "os.proc.forks") d.sessions);
          ("os.syscalls_per_exec", per (delta "os.syscall.count") d.execs);
          ("os.retained_kb_per_session", d.retained_kb);
          ("fuse.requests_per_exec", per (delta "fuse.req.count") d.execs);
          ("proxy.splices_per_exec", per (delta "proxy.splice.calls") d.execs);
          ("proxy.wakeups_per_call", per (delta "proxy.loop.wakeups") d.calls);
          ( "proxy.rpc_bytes_per_call",
            per (delta "proxy.fwd.rpc.bytes.c2b" +. delta "proxy.fwd.rpc.bytes.b2c") d.calls );
        ]
    in
    ( ps,
      { attempted; failed; ok; virt; layer; vdigest = d.digest; gc = (d.minor, d.major) } )
end

(* --- registry: push, zipf pulls from fresh nodes, parallel static slim ------ *)

module Reg = struct
  (* fitted as [Calib] says: slope 0.34 *)
  let elasticity = 0.35

  let images = 1000
  let pulls = 10000
  let drop_every = 50
  let workers = 8
  let member_space = 1_000_000

  type data = {
    synth_s : float;
    push_us : float list;  (** host us per call *)
    pull_us : float list;
    part_us : float list;
    pull_ms : float list;  (** virtual *)
    pull_kib : float list;
    push_major : float;
    minor : float;
    major : float;
    dedup : float;
    physical_mb : float;
    host_physical_mb : float;
    steals : float;
    attempted : int;
    failed : int;
    reps : Image.t list;  (** the first member of each family *)
    digest : string;
  }

  (* The sweep's per-image virtual cost, as in bench e5r. *)
  let cost_ns image = 150_000 + (Image.file_count image * 2_000) + (Image.effective_size image / 256)

  (* [fresh ()] draws a member index never used before in this process, so
     every pass pushes images whose content the chunker has not seen. *)
  let pass ~rng ~fresh _i ~traced:_ =
    let fams = Array.of_list Family.specs in
    let h0 = host_ns () in
    let imgs =
      Array.init images (fun k ->
          let spec = fams.(k mod Array.length fams) in
          let idx = fresh () in
          span ~op:(Printf.sprintf "%s-%d" spec.Family.f_name idx) "image.synthesize" (fun () ->
              Family.member spec ~members:member_space idx))
    in
    let clock = Clock.create () and metrics = Metrics.create () in
    let reg = Registry.create ~metrics ~clock () in
    let h1 = host_ns () in
    (* ---- timed: push, pull, sweep ---- *)
    let minor0, major0 = gc_words () in
    let push_us = ref [] and pull_us = ref [] and part_us = ref [] in
    Array.iter
      (fun im ->
        let t = host_ns () in
        span ~clock ~op:(Image.ref_ im) "image.push" (fun () -> Registry.push reg im);
        push_us := us t (host_ns ()) :: !push_us)
      imgs;
    let _, major_push = gc_words () in
    let zipf = Zipf.make ~shuffle:rng images in
    let pull_ms = ref [] and pull_kib = ref [] and failed = ref 0 in
    for k = 0 to pulls - 1 do
      if k mod drop_every = 0 then span ~clock "image.drop_cache" (fun () -> Registry.drop_cache reg);
      let im = imgs.(Zipf.draw rng zipf) in
      let ref_ = Image.ref_ im in
      let v0 = Clock.now_ns clock and t = host_ns () in
      let r = span ~clock ~op:ref_ "image.pull" (fun () -> Registry.pull reg ref_) in
      pull_us := us t (host_ns ()) :: !pull_us;
      pull_ms := virt_ms v0 (Clock.now_ns clock) :: !pull_ms;
      match r with
      | Ok (got, bytes) when got == im -> pull_kib := (float_of_int bytes /. 1024.) :: !pull_kib
      | _ ->
          incr failed;
          Printf.printf "CHECK FAILED: pull %s did not return the pushed image\n" ref_
    done;
    let sweep_clock = Clock.create () in
    let stats, reports =
      span ~clock:sweep_clock "slim.sweep" (fun () ->
          Repro_slim.Sweep.run ~workers ~metrics ~clock:sweep_clock ~images:(Array.to_list imgs) ~cost_ns
            ~f:(fun im ->
              let t = host_ns () in
              let r =
                span ~clock:sweep_clock ~op:(Image.ref_ im) "slim.partition" (fun () ->
                    fst (Repro_slim.Partition.slim im))
              in
              part_us := us t (host_ns ()) :: !part_us;
              r)
            ())
    in
    List.iteri
      (fun k (r : Repro_slim.Partition.report) ->
        if r.p_image <> Image.ref_ imgs.(k) || r.p_slim_bytes > r.p_original_bytes then begin
          incr failed;
          Printf.printf "CHECK FAILED: partition of %s\n" (Image.ref_ imgs.(k))
        end)
      reports;
    let minor1, major1 = gc_words () in
    let h2 = host_ns () in
    (* ---- end of timed phase ---- *)
    let mb b = float_of_int b /. 1048576. in
    let data =
      {
        synth_s = secs h0 h1;
        push_us = !push_us;
        pull_us = !pull_us;
        part_us = !part_us;
        pull_ms = !pull_ms;
        pull_kib = !pull_kib;
        push_major = major_push -. major0;
        minor = minor1 -. minor0;
        major = major1 -. major0;
        dedup = Store.dedup_ratio (Registry.store reg);
        physical_mb = mb (Store.physical_bytes (Registry.store reg));
        host_physical_mb = mb (Store.physical_bytes (Registry.host_store reg));
        steals = float_of_int stats.Repro_slim.Sweep.sw_steals;
        attempted = images + pulls + List.length reports;
        failed = !failed + (if List.length reports = images then 0 else 1);
        reps = List.init (Array.length fams) (fun k -> imgs.(k));
        digest =
          Digest.to_hex
            (Digest.string
               (String.concat "|"
                  [
                    String.concat "," (List.map (Printf.sprintf "%.6f") !pull_ms);
                    Int64.to_string stats.Repro_slim.Sweep.sw_elapsed_ns;
                    registry_digest metrics;
                  ]));
      }
    in
    (secs h0 h1, secs h1 h2, data)

  (* After the timed phase: one static slim per family must still run its
     entrypoint to exit 0. *)
  let validate reps =
    let world = Repro_cntr.Testbed.create () in
    List.fold_left
      (fun bad im ->
        let slim = snd (Repro_slim.Partition.slim im) in
        match Repro_slim.Slimmer.validate ~world slim with
        | Ok true -> bad
        | Ok false | Error _ ->
            Printf.printf "CHECK FAILED: static slim of %s does not validate\n" (Image.ref_ im);
            bad + 1)
      0 reps

  let run ~seed ~seconds ~trace =
    let rng = Rng.create ~seed in
    let used = Hashtbl.create 4096 in
    let rec fresh () =
      let idx = Rng.int rng member_space in
      if Hashtbl.mem used idx then fresh ()
      else begin
        Hashtbl.replace used idx ();
        idx
      end
    in
    let ps = passes ~seconds ~trace (pass ~rng ~fresh) in
    let d = first ps in
    let invalid = validate d.reps in
    let attempted = List.fold_left (fun a p -> a + p.data.attempted) 0 ps + List.length d.reps in
    let failed = List.fold_left (fun a p -> a + p.data.failed) 0 ps + invalid in
    Printf.printf "registry: %d passes x (%d pushes, %d pulls, %d-worker sweep); %d family slims validated\n"
      (List.length ps) images pulls workers (List.length d.reps - invalid);
    Printf.printf "pull_ms has no paper reference: unvalidated\n";
    let n = List.length d.pull_ms in
    let virt =
      [
        ("virt_ms_mean", mean d.pull_ms, "ms", n);
        ("pull_ms_p50", median d.pull_ms, "ms", n);
        ("pull_ms_p99", pct 0.99 d.pull_ms, "ms", n);
      ]
    in
    let layer =
      if not trace then []
      else
        let tps = traced_passes ps in
        let pooled f = List.concat_map (fun p -> f p.data) tps in
        [
          ("image.synthesize_s", median (List.map (fun p -> p.data.synth_s) tps));
          ("image.push_host_us_p50", median (pooled (fun d -> d.push_us)));
          ("image.push_host_us_p99", pct 0.99 (pooled (fun d -> d.push_us)));
          ("image.push_major_mwords", mwords d.push_major);
          ("image.pull_host_us_p50", median (pooled (fun d -> d.pull_us)));
          ("image.pull_kib_p50", median d.pull_kib);
          ("image.pull_kib_p99", pct 0.99 d.pull_kib);
          ("image.pull_ms_p50", median d.pull_ms);
          ("image.pull_ms_p99", pct 0.99 d.pull_ms);
          ("store.dedup_ratio", d.dedup);
          ("store.physical_mb", d.physical_mb);
          ("store.host_physical_mb", d.host_physical_mb);
          ("slim.partition_host_us_p50", median (pooled (fun d -> d.part_us)));
          ("slim.partition_host_us_p99", pct 0.99 (pooled (fun d -> d.part_us)));
          ("sched.steals", d.steals);
        ]
    in
    ( ps,
      { attempted; failed; ok = true; virt; layer; vdigest = d.digest; gc = (d.minor, d.major) } )
end

(* --- entry point ----------------------------------------------------------- *)

let json_metrics pairs =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         let value = if Float.is_finite value then value else 0. in
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit)
       pairs)

let finish ~workload ~elasticity ~trace ~trace_file (ps, (o : outcome)) =
  let calibrated = calibrated ~elasticity in
  let untraced = List.filter (fun p -> not p.traced) (warm ps) in
  let traced_walls = List.map (fun p -> calibrated p p.wall_s) (traced_passes ps) in
  let n = List.length ps in
  let virt_mean, virt_n =
    List.find_map (fun (name, v, _, n) -> if name = "virt_ms_mean" then Some (v, n) else None) o.virt
    |> Option.get
  in
  Printf.printf "%s: per pass host setup_s/wall_s, reference ms:%s\n" workload
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf " %.3f/%.3f%s,%.1f" p.setup_s p.wall_s (if p.traced then "t" else "") (p.ref_s *. 1e3))
          ps));
  Printf.printf "%s: end to end (calibrated host medians over warm passes; virtual from pass 0)\n" workload;
  let e2e =
    [
      ("setup_s", median (List.map (fun p -> calibrated p p.setup_s) ps));
      ("wall_s", median (List.map (fun p -> calibrated p p.wall_s) untraced));
      ("peak_heap_mb", mib_of_words !peak_heap_words);
      ("virt_ms_mean", virt_mean);
    ]
  in
  let samples_of = function
    | "setup_s" -> n
    | "wall_s" -> List.length untraced
    | "virt_ms_mean" -> virt_n
    | _ -> 1
  in
  List.iter (fun (name, v) -> show ~n:(samples_of name) name v (List.assoc name end_to_end)) e2e;
  show ~n "setup_host_s" (median (List.map (fun p -> p.setup_s) ps)) "s";
  show ~n:(List.length untraced) "wall_host_s" (median (List.map (fun p -> p.wall_s) untraced)) "s";
  show ~n "reference_ms" (median (List.map (fun p -> p.ref_s *. 1e3) ps)) "ms";
  show "elasticity" elasticity "";
  show ~n:o.attempted "failed_frac" (ratio (float_of_int o.failed) (float_of_int o.attempted)) "ratio";
  Printf.printf "%s: virtual clock (pass 0)\n" workload;
  List.iter (fun (name, v, unit, n) -> show ~n name v unit) o.virt;
  (* what a same-seed rerun must reproduce exactly *)
  Printf.printf "virtual: {%s}\n"
    (String.concat ", " (List.map (fun (name, v, _, _) -> Printf.sprintf "\"%s\": %.17g" name v) o.virt));
  Printf.printf "virtual digest: %s\n" (Digest.to_hex (Digest.string o.vdigest));
  Printf.printf "gc words (pass 0 timed phase): %.0f minor, %.0f major\n" (fst o.gc) (snd o.gc);
  let layer =
    if not trace then []
    else begin
      let self = self_seconds () in
      let n_traced = float_of_int (List.length (List.filter (fun p -> p.traced) ps)) in
      let overhead = median traced_walls -. List.assoc "wall_s" e2e in
      let measured =
        o.layer
        @ List.map (fun l -> (l ^ ".self_s", Option.value (List.assoc_opt l self) ~default:0. /. n_traced))
            [ "workloads"; "os"; "runtime"; "ctrl"; "image"; "slim" ]
        @ [ ("trace.overhead_s", overhead); ("trace.spans", float_of_int !n_spans) ]
      in
      List.iter
        (fun (name, _) -> if not (List.mem_assoc name per_layer) then failwith ("unlisted per-layer metric " ^ name))
        measured;
      Printf.printf "%s: per layer (traced passes)\n" workload;
      List.map
        (fun (name, unit) ->
          let v = Option.value (List.assoc_opt name measured) ~default:0. in
          show name v unit;
          (name, v, unit))
        per_layer
    end
  in
  (match trace_file with
  | Some path when trace ->
      write_spans path;
      Printf.printf "spans: %d written to %s\n" !n_spans path
  | _ -> ());
  let metrics = if trace then layer else List.map (fun (name, v) -> (name, v, List.assoc name end_to_end)) e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.ok && o.failed = 0) o.attempted o.failed (json_metrics metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "phoronix | attach-churn | registry");
      ("--seed", Arg.Set_int seed, "input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "host seconds of whole passes to run (default 10)");
      ("--trace", Arg.Set_int trace, "1: record spans and print the per-layer metrics");
      ("--trace-file", Arg.Set_string trace_file, "where the traced run writes its spans (JSON lines)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let trace_file = if !trace_file = "" then None else Some !trace_file in
  let fin elasticity r = finish ~workload:!workload ~elasticity ~trace ~trace_file r in
  match !workload with
  | "phoronix" -> fin Phoronix.elasticity (Phoronix.run ~seed ~seconds ~trace)
  | "attach-churn" -> fin Churn.elasticity (Churn.run ~seed ~seconds ~trace)
  | "registry" -> fin Reg.elasticity (Reg.run ~seed ~seconds ~trace)
  | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
