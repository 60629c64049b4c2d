(* Tests for the unified observability layer (lib/obs): the metrics
   registry, the span tracer, and their wiring through the FUSE/CntrFS/VFS
   stack via the bench environment. *)

open Repro_util
open Repro_vfs
open Repro_obs
open Repro_workloads

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* --- Metrics: counters, gauges, derived ---------------------------------- *)

let test_counters () =
  let t = Metrics.create () in
  let c = Metrics.counter t "a.b.count" in
  Metrics.incr c;
  Metrics.add c 4;
  check_i "handle value" 5 (Metrics.value c);
  (* get-or-create returns the same underlying counter *)
  let c' = Metrics.counter t "a.b.count" in
  Metrics.incr c';
  check_i "shared" 6 (Metrics.value c);
  check_i "by name" 6 (Metrics.counter_value t "a.b.count");
  check_i "absent is 0" 0 (Metrics.counter_value t "no.such")

let test_prefix () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "x.b.hits") 2;
  Metrics.add (Metrics.counter t "x.a.hits") 1;
  Metrics.add (Metrics.counter t "y.a.hits") 9;
  Alcotest.(check (list (pair string int)))
    "sorted, filtered"
    [ ("x.a.hits", 1); ("x.b.hits", 2) ]
    (Metrics.counters_with_prefix t ~prefix:"x.")

let test_gauges_and_derived () =
  let t = Metrics.create () in
  let g = Metrics.gauge t "g.depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "stored" 3.5 (Metrics.gauge_value t "g.depth");
  let n = ref 1.0 in
  Metrics.register_derived t "g.ratio" (fun () -> !n);
  n := 2.0;
  (* derived gauges are evaluated at read time, not registration time *)
  Alcotest.(check (float 1e-9)) "derived live" 2.0 (Metrics.gauge_value t "g.ratio");
  (* re-registration keeps the first closure *)
  Metrics.register_derived t "g.ratio" (fun () -> 99.0);
  Alcotest.(check (float 1e-9)) "first wins" 2.0 (Metrics.gauge_value t "g.ratio");
  Alcotest.(check (float 1e-9)) "absent is 0" 0.0 (Metrics.gauge_value t "no.such")

let test_kind_clash () =
  let t = Metrics.create () in
  ignore (Metrics.counter t "m.name");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Metrics: m.name is already a counter, not a gauge")
    (fun () -> ignore (Metrics.gauge t "m.name"))

let test_histogram () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "h.latency_us" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4. ];
  let s = Metrics.summarize h in
  check_i "count" 4 s.Metrics.s_count;
  Alcotest.(check (float 1e-9)) "sum" 10. s.Metrics.s_sum;
  Alcotest.(check (float 1e-9)) "min" 1. s.Metrics.s_min;
  Alcotest.(check (float 1e-9)) "max" 4. s.Metrics.s_max;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Metrics.s_mean;
  check_b "p50 sane" true (s.Metrics.s_p50 >= 1. && s.Metrics.s_p50 <= 4.);
  (* observe_ns records microseconds *)
  let h2 = Metrics.histogram t "h2.latency_us" in
  Metrics.observe_ns h2 2500;
  Alcotest.(check (float 1e-9)) "ns -> us" 2.5 (Metrics.summarize h2).Metrics.s_max

let test_json_deterministic () =
  let build () =
    let t = Metrics.create () in
    Metrics.add (Metrics.counter t "b.count") 2;
    Metrics.add (Metrics.counter t "a.count") 1;
    Metrics.set (Metrics.gauge t "g") 0.5;
    Metrics.set (Metrics.gauge t "g.nan") nan;
    Metrics.set (Metrics.gauge t "g.inf") infinity;
    Metrics.observe (Metrics.histogram t "h.latency_us") 7.;
    Metrics.to_json t
  in
  let j1 = build () and j2 = build () in
  check_s "byte identical" j1 j2;
  (* six decimals everywhere; non-finite gauges clamp to 0 *)
  check_s "exact bytes"
    ({|{"counters":{"a.count":1,"b.count":2},"gauges":{"g":0.500000,"g.inf":0.000000,|}
    ^ {|"g.nan":0.000000},"histograms":{"h.latency_us":{"count":1,"sum":7.000000,|}
    ^ {|"min":7.000000,"max":7.000000,"mean":7.000000,"p50":7.000000,"p95":7.000000,|}
    ^ {|"p99":7.000000}}}|})
    j1;
  check_b "sorted sections" true
    (let a = String.index j1 'a' and b = String.index j1 'b' in
     a < b)

(* --- Trace: the sink is the tracer's only output --------------------------- *)

let test_trace_sink_sees_everything () =
  let tr = Trace.create () in
  (* no sink: recording builds nothing and nothing is kept to read later *)
  Trace.record tr ~name:"unseen" ~begin_ns:0L ~end_ns:1L ();
  let seen = ref [] in
  Trace.set_sink tr (Some (fun sp -> seen := sp.Trace.sp_name :: !seen));
  for i = 1 to 5 do
    Trace.record tr ~name:(Printf.sprintf "s%d" i) ~begin_ns:0L ~end_ns:(Int64.of_int i) ()
  done;
  Trace.set_sink tr None;
  Trace.record tr ~name:"after" ~begin_ns:0L ~end_ns:1L ();
  Alcotest.(check (list string)) "every span recorded while set, in order"
    [ "s1"; "s2"; "s3"; "s4"; "s5" ] (List.rev !seen)

let test_trace_jsonl () =
  let buf = Buffer.create 64 in
  let tr = Trace.create () in
  Trace.set_sink tr (Some (Trace.buffer_sink buf));
  Trace.record tr ~name:{|q"uote|} ~begin_ns:1L ~end_ns:2L ~attrs:[ ("a", "b") ] ();
  Trace.record tr ~name:"plain" ~begin_ns:2L ~end_ns:3L ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")
  in
  check_i "one line per span" 2 (List.length lines);
  (* key order, the escaped quote and integer timestamps, byte for byte *)
  check_s "whole line" {|{"name":"q\"uote","begin_ns":1,"end_ns":2,"attrs":{"a":"b"}}|}
    (List.hd lines)

(* --- Workload-level properties ------------------------------------------- *)

let mib = Size.mib
let kib = Size.kib

(* A small seeded read/write mix over the CntrFS mount. *)
let mini_workload seed =
  {
    Bench_env.w_name = "obs-mini";
    w_paper = 0.;
    w_concurrency = 2;
    w_budget_mb = 8;
    w_setup =
      (fun env ->
        Bench_env.write_file env (env.Bench_env.backing_dir ^ "/seed")
          (String.make (kib 64) 'x'));
    w_run =
      (fun env ->
        let rng = Rng.create ~seed in
        for i = 0 to 15 do
          match Rng.int rng 3 with
          | 0 ->
              ignore
                (Bench_env.read_file env (env.Bench_env.dir ^ "/seed"))
          | 1 ->
              Bench_env.write_file env
                (Printf.sprintf "%s/f%d" env.Bench_env.dir i)
                (String.make (kib 4) 'y')
          | _ -> Bench_env.mkdir env (Printf.sprintf "%s/d%d" env.Bench_env.dir i)
        done);
  }

let run_with_sink ?(obs = Obs.create ()) seed sink_of_obs =
  (match sink_of_obs with
  | None -> ()
  | Some mk -> Trace.set_sink (Obs.tracer obs) (Some (mk ())));
  let backend = Bench_env.Cntrfs Repro_fuse.Opts.cntr_default in
  ignore (Bench_env.run_workload ~obs ~backend (mini_workload seed));
  Obs.to_json obs

(* The tracer is an observer: counter totals must not depend on which sink
   (if any) is attached. *)
let prop_sink_invariant =
  QCheck.Test.make ~name:"counters invariant under trace sink" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let none = run_with_sink seed None in
      let mem =
        run_with_sink seed
          (Some
             (fun () ->
               let seen = ref [] in
               fun sp -> seen := sp :: !seen))
      in
      let buffered =
        run_with_sink seed (Some (fun () -> Trace.buffer_sink (Buffer.create 256)))
      in
      none = mem && mem = buffered)

(* Every FUSE request is both a latency observation and, with a sink set,
   one span: per opcode, the sink sees exactly as many [fuse.req.<kind>]
   spans as [fuse.req.<kind>.latency_us] has observations. *)
let test_one_span_per_request () =
  let obs = Obs.create () in
  let spans = Hashtbl.create 16 in
  ignore
    (run_with_sink ~obs 77
       (Some
          (fun () sp ->
            let n = Option.value ~default:0 (Hashtbl.find_opt spans sp.Trace.sp_name) in
            Hashtbl.replace spans sp.Trace.sp_name (n + 1))));
  let m = Obs.metrics obs in
  let kinds =
    Metrics.counters_with_prefix m ~prefix:"fuse.req."
    |> List.filter_map (fun (name, _) ->
           Scanf.sscanf_opt name "fuse.req.%[^.].count%!" Fun.id)
  in
  check_b "several opcodes" true (List.length kinds >= 3);
  let observations kind =
    match Metrics.histogram_summary m (Printf.sprintf "fuse.req.%s.latency_us" kind) with
    | Some s -> s.Metrics.s_count
    | None -> 0
  in
  let expected =
    List.filter_map
      (fun kind ->
        match observations kind with 0 -> None | n -> Some ("fuse.req." ^ kind, n))
      kinds
  in
  let seen = Hashtbl.fold (fun name n acc -> (name, n) :: acc) spans [] in
  Alcotest.(check (list (pair string int)))
    "spans per opcode = latency observations" expected (List.sort compare seen)

let test_runs_byte_identical () =
  let a = run_with_sink 1234 None and b = run_with_sink 1234 None in
  check_s "same seed, same JSON" a b;
  let c = run_with_sink 4321 None in
  check_b "different seed differs" true (a <> c)

(* E3a: FOPEN_KEEP_CACHE.  With keep_cache off every open invalidates the
   driver's page cache, so re-reads hit the server as READ requests; with
   it on, re-reads are served from the fuse page cache. *)
let e3a_workload =
  {
    Bench_env.w_name = "obs-e3a";
    w_paper = 0.;
    w_concurrency = 4;
    w_budget_mb = 64;
    w_setup =
      (fun env ->
        Bench_env.write_file env (env.Bench_env.backing_dir ^ "/t")
          (String.make (mib 1) 'x'));
    w_run =
      (fun env ->
        for _pass = 0 to 3 do
          let fd =
            Bench_env.openf env (env.Bench_env.dir ^ "/t") [ Types.O_RDONLY ] 0
          in
          Bench_env.seq_read env fd ~total:(mib 1) ~record:(kib 8);
          Bench_env.closef env fd
        done);
  }

let test_e3a_keep_cache_flips_metrics () =
  let run opts =
    let obs = Obs.create () in
    ignore (Bench_env.run_workload ~obs ~backend:(Bench_env.Cntrfs opts) e3a_workload);
    let m = Obs.metrics obs in
    ( Metrics.gauge_value m "vfs.page_cache.fuse.hit_ratio",
      Metrics.counter_value m "fuse.req.read.count" )
  in
  let open Repro_fuse in
  let ratio_off, reads_off = run { Opts.cntr_default with Opts.keep_cache = false } in
  let ratio_on, reads_on = run Opts.cntr_default in
  check_b "keep_cache raises fuse hit ratio" true (ratio_on > ratio_off);
  check_b "hit ratio substantial when on" true (ratio_on > 0.5);
  check_b "keep_cache cuts READ requests" true (reads_on < reads_off);
  check_b "reads happen in both" true (reads_on > 0 && reads_off > 0)

(* cntrfs amplification: every lookup costs open+stat on the backing fs. *)
let test_amplification_reported () =
  let obs = Obs.create () in
  ignore
    (Bench_env.run_workload ~obs
       ~backend:(Bench_env.Cntrfs Repro_fuse.Opts.cntr_default) e3a_workload);
  let m = Obs.metrics obs in
  check_b "lookups counted" true (Metrics.counter_value m "cntrfs.lookup.count" > 0);
  check_b "amplification >= 2" true
    (Metrics.gauge_value m "cntrfs.lookup.amplification" >= 2.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "prefix scan" `Quick test_prefix;
          Alcotest.test_case "gauges + derived" `Quick test_gauges_and_derived;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "json deterministic" `Quick test_json_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sink sees all" `Quick test_trace_sink_sees_everything;
          Alcotest.test_case "jsonl sink" `Quick test_trace_jsonl;
        ] );
      qsuite "sink-invariance" [ prop_sink_invariant ];
      ( "integration",
        [
          Alcotest.test_case "seeded runs byte-identical" `Quick test_runs_byte_identical;
          Alcotest.test_case "one span per request" `Quick test_one_span_per_request;
          Alcotest.test_case "E3a keep_cache flips metrics" `Quick
            test_e3a_keep_cache_flips_metrics;
          Alcotest.test_case "lookup amplification" `Quick test_amplification_reported;
        ] );
    ]
