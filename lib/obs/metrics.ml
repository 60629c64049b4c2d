(* The deterministic metrics registry: named counters, gauges (stored or
   derived) and virtual-time latency histograms, keyed by hierarchical
   names ("fuse.req.lookup.latency_us").  Everything is driven by the
   simulation's virtual clock and seeded RNGs, so two identical runs
   produce byte-identical snapshots — the registry never reads wall-clock
   time or ambient randomness. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

(* Histograms keep power-of-two buckets plus a bounded sample reservoir
   (the *first* [reservoir_cap] observations — deterministic, unlike
   probabilistic reservoir sampling) that backs percentile reporting
   through [Repro_util.Stats]. *)
let reservoir_cap = 4096

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* index = bit-width of the integer value *)
  mutable h_samples : float array;
  mutable h_len : int;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_derived of (unit -> float)
  | M_histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_derived _ -> "derived gauge"
  | M_histogram _ -> "histogram"

let clash name existing want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s is already a %s, not a %s" name
       (kind_name existing) want)

(* --- counters ----------------------------------------------------------- *)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_counter c) -> c
  | Some m -> clash name m "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.tbl name (M_counter c);
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_counter c) -> c.c_value
  | _ -> 0

(* --- gauges ------------------------------------------------------------- *)

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_gauge g) -> g
  | Some m -> clash name m "gauge"
  | None ->
      let g = { g_name = name; g_value = 0. } in
      Hashtbl.replace t.tbl name (M_gauge g);
      g

let set g v = g.g_value <- v
let shift g d = g.g_value <- g.g_value +. d

(* A max gauge lives only here: owners sharing the registry raise it and
   keep no copy, so it reads the maximum over all of them.  [v] is
   converted twice so that only a raise boxes a float. *)
let high_water g v = if float_of_int v > g.g_value then g.g_value <- float_of_int v

(* Derived gauges are computed at snapshot time (hit ratios, amplification
   factors).  Re-registering the same name keeps the first closure, so
   several components can idempotently register a shared derived metric. *)
let register_derived t name f =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_derived _) -> ()
  | Some m -> clash name m "derived gauge"
  | None -> Hashtbl.replace t.tbl name (M_derived f)

let gauge_value t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_gauge g) -> g.g_value
  | Some (M_derived f) -> f ()
  | _ -> 0.

(* --- histograms --------------------------------------------------------- *)

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_histogram h) -> h
  | Some m -> clash name m "histogram"
  | None ->
      let h =
        {
          h_name = name;
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
          h_buckets = Array.make 64 0;
          h_samples = [||];
          h_len = 0;
        }
      in
      Hashtbl.replace t.tbl name (M_histogram h);
      h

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with Some (M_histogram h) -> Some h | _ -> None

let bucket_of v =
  let n = if v <= 0. then 0 else int_of_float v in
  let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
  min 63 (bits 0 n)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = h.h_buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1;
  if h.h_len < reservoir_cap then begin
    if h.h_len >= Array.length h.h_samples then begin
      let grown = Array.make (max 64 (2 * Array.length h.h_samples)) 0. in
      Array.blit h.h_samples 0 grown 0 h.h_len;
      h.h_samples <- grown
    end;
    h.h_samples.(h.h_len) <- v;
    h.h_len <- h.h_len + 1
  end

(* Observe a virtual-time duration in nanoseconds as microseconds. *)
let observe_ns h ns = observe h (float_of_int ns /. 1e3)

type summary = {
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

let summarize h =
  if h.h_count = 0 then
    { s_count = 0; s_sum = 0.; s_min = 0.; s_max = 0.; s_mean = 0.; s_p50 = 0.; s_p95 = 0.; s_p99 = 0. }
  else begin
    let samples = Array.to_list (Array.sub h.h_samples 0 h.h_len) in
    let p q = Repro_util.Stats.percentile q samples in
    {
      s_count = h.h_count;
      s_sum = h.h_sum;
      s_min = h.h_min;
      s_max = h.h_max;
      s_mean = h.h_sum /. float_of_int h.h_count;
      s_p50 = p 0.5;
      s_p95 = p 0.95;
      s_p99 = p 0.99;
    }
  end

let histogram_summary t name = Option.map summarize (find_histogram t name)

(* --- snapshots ----------------------------------------------------------- *)

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of summary

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | M_counter c -> V_counter c.c_value
        | M_gauge g -> V_gauge g.g_value
        | M_derived f -> V_gauge (f ())
        | M_histogram h -> V_histogram (summarize h)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters_with_prefix t ~prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun name m acc ->
      match m with
      | M_counter c when String.length name >= plen && String.sub name 0 plen = prefix ->
          (name, c.c_value) :: acc
      | _ -> acc)
    t.tbl []
  |> List.sort compare

(* --- rendering ----------------------------------------------------------- *)

let json_escape = Repro_util.Jsonx.escape

let to_json t =
  let open Repro_util.Jsonx in
  (* six decimals, non-finite values clamped to 0: byte-stable across runs *)
  let num v = Fixed (6, if Float.is_finite v then v else 0.) in
  let snap = snapshot t in
  let section pick =
    Obj (List.filter_map (fun (name, v) -> Option.map (fun x -> (name, x)) (pick v)) snap)
  in
  let summary s =
    Obj
      [
        ("count", Int s.s_count);
        ("sum", num s.s_sum);
        ("min", num s.s_min);
        ("max", num s.s_max);
        ("mean", num s.s_mean);
        ("p50", num s.s_p50);
        ("p95", num s.s_p95);
        ("p99", num s.s_p99);
      ]
  in
  to_string
    (Obj
       [
         ("counters", section (function V_counter n -> Some (Int n) | _ -> None));
         ("gauges", section (function V_gauge v -> Some (num v) | _ -> None));
         ("histograms", section (function V_histogram s -> Some (summary s) | _ -> None));
       ])

let pp ppf t =
  List.iter
    (fun (name, v) ->
      match v with
      | V_counter n -> Fmt.pf ppf "%-48s %12d@." name n
      | V_gauge g -> Fmt.pf ppf "%-48s %12.4f@." name g
      | V_histogram s ->
          Fmt.pf ppf "%-48s n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f@." name
            s.s_count s.s_mean s.s_p50 s.s_p95 s.s_p99 s.s_max)
    (snapshot t)
