(* Deterministic fault injection.  A plan is data; arming it binds per-rule
   trigger state (match counters, a seeded RNG stream per rule) to a clock
   and a metrics registry.  Consult sites pay nothing when no plan is
   armed — the registry counters here are only created on [arm]. *)

open Repro_util

type action =
  | Crash_server
  | Hang of int
  | Delay of int
  | Drop_reply
  | Duplicate_reply
  | Fail of Errno.t

type site =
  | Fuse of string option
  | Backing of string option
  | Disk
  | Proxy of string option
  | Ctrl of string option
type trigger = Nth of int | Every of int | After_ns of int | Prob of float
type rule = { site : site; trigger : trigger; action : action }
type plan = { seed : int; rules : rule list }

let plan ?(seed = 42) rules = { seed; rules }

type retry = {
  deadline_ns : int;
  max_retries : int;
  backoff_ns : int;
  backoff_mult : int;
}

let no_retry = { deadline_ns = 0; max_retries = 0; backoff_ns = 0; backoff_mult = 1 }

let retry_default =
  { deadline_ns = 2_000_000; max_retries = 5; backoff_ns = 100_000; backoff_mult = 2 }

(* Trigger state lives per rule: [ar_count] counts *matching* events (not
   fires), [ar_rng] is an independent deterministic stream so adding a rule
   never perturbs another rule's draws. *)
type armed_rule = { ar_rule : rule; mutable ar_count : int; ar_rng : Rng.t }

type t = {
  f_clock : Clock.t;
  f_metrics : Repro_obs.Metrics.t;
  f_rules : armed_rule list;
  f_armed_ns : int64;
  f_total : Repro_obs.Metrics.counter;
  f_by_label : (string, Repro_obs.Metrics.counter) Hashtbl.t;
}

let arm ~obs ~clock plan =
  let metrics = Repro_obs.Obs.metrics obs in
  {
    f_clock = clock;
    f_metrics = metrics;
    f_rules =
      List.mapi
        (fun i r ->
          { ar_rule = r; ar_count = 0; ar_rng = Rng.create ~seed:(plan.seed + (7919 * i)) })
        plan.rules;
    f_armed_ns = Clock.now_ns clock;
    f_total = Repro_obs.Metrics.counter metrics "fault.injected.total";
    f_by_label = Hashtbl.create 8;
  }

let action_label = function
  | Crash_server -> "crash"
  | Hang _ -> "hang"
  | Delay _ -> "delay"
  | Drop_reply -> "drop"
  | Duplicate_reply -> "dup"
  | Fail e -> "fail." ^ Errno.to_string e

let record t label =
  Repro_obs.Metrics.incr t.f_total;
  let c =
    match Hashtbl.find_opt t.f_by_label label with
    | Some c -> c
    | None ->
        let c = Repro_obs.Metrics.counter t.f_metrics ("fault.injected." ^ label) in
        Hashtbl.replace t.f_by_label label c;
        c
  in
  Repro_obs.Metrics.incr c

let op_matches filter op =
  match filter with None -> true | Some f -> String.equal f op

(* Called once per matching event; advances the rule's counter and decides
   whether the rule fires this time. *)
let fires t ar =
  ar.ar_count <- ar.ar_count + 1;
  match ar.ar_rule.trigger with
  | Nth n -> ar.ar_count = n
  | Every n -> n > 0 && ar.ar_count mod n = 0
  | After_ns ns ->
      Int64.compare (Clock.now_ns t.f_clock) (Int64.add t.f_armed_ns (Int64.of_int ns)) >= 0
  | Prob p -> Rng.float ar.ar_rng < p

let fuse_action t ~op =
  let rec go = function
    | [] -> None
    | ar :: rest -> (
        match ar.ar_rule.site with
        | Fuse f when op_matches f op ->
            if fires t ar then begin
              record t (action_label ar.ar_rule.action);
              Some ar.ar_rule.action
            end
            else go rest
        | _ -> go rest)
  in
  go t.f_rules

let proxy_action t ~op =
  let rec go = function
    | [] -> None
    | ar :: rest -> (
        match ar.ar_rule.site with
        | Proxy f when op_matches f op ->
            if fires t ar then begin
              record t ("proxy." ^ action_label ar.ar_rule.action);
              Some ar.ar_rule.action
            end
            else go rest
        | _ -> go rest)
  in
  go t.f_rules

let ctrl_action t ~op =
  let rec go = function
    | [] -> None
    | ar :: rest -> (
        match ar.ar_rule.site with
        | Ctrl f when op_matches f op ->
            if fires t ar then begin
              record t ("ctrl." ^ action_label ar.ar_rule.action);
              Some ar.ar_rule.action
            end
            else go rest
        | _ -> go rest)
  in
  go t.f_rules

let backing_errno t ~op =
  let rec go = function
    | [] -> None
    | ar :: rest -> (
        match ar.ar_rule.site, ar.ar_rule.action with
        | Backing f, Fail e when op_matches f op ->
            if fires t ar then begin
              record t ("backing." ^ Errno.to_string e);
              Some e
            end
            else go rest
        | _ -> go rest)
  in
  go t.f_rules

let disk_delay_ns t ~op =
  List.fold_left
    (fun acc ar ->
      match ar.ar_rule.site, ar.ar_rule.action with
      | Disk, Delay ns when op_matches None op ->
          if fires t ar then begin
            record t "disk.delay";
            acc + ns
          end
          else acc
      | _ -> acc)
    0 t.f_rules

let injected t = Repro_obs.Metrics.value t.f_total

(* --- plan files -------------------------------------------------------- *)

let errno_of_string = function
  | "EPERM" -> Some Errno.EPERM
  | "ENOENT" -> Some Errno.ENOENT
  | "EINTR" -> Some Errno.EINTR
  | "EIO" -> Some Errno.EIO
  | "EAGAIN" -> Some Errno.EAGAIN
  | "ENOMEM" -> Some Errno.ENOMEM
  | "EACCES" -> Some Errno.EACCES
  | "EBUSY" -> Some Errno.EBUSY
  | "ENOSPC" -> Some Errno.ENOSPC
  | "EROFS" -> Some Errno.EROFS
  | "ENOTCONN" -> Some Errno.ENOTCONN
  | "ETIMEDOUT" -> Some Errno.ETIMEDOUT
  | _ -> None

let kv key s =
  let pre = key ^ "=" in
  if String.length s > String.length pre
     && String.equal (String.sub s 0 (String.length pre)) pre
  then Some (String.sub s (String.length pre) (String.length s - String.length pre))
  else None

let parse_trigger s =
  match kv "nth" s with
  | Some v -> Option.map (fun n -> Nth n) (int_of_string_opt v)
  | None -> (
      match kv "every" s with
      | Some v -> Option.map (fun n -> Every n) (int_of_string_opt v)
      | None -> (
          match kv "after" s with
          | Some v -> Option.map (fun n -> After_ns n) (int_of_string_opt v)
          | None -> (
              match kv "prob" s with
              | Some v -> Option.map (fun p -> Prob p) (float_of_string_opt v)
              | None -> None)))

let parse_action s =
  match s with
  | "crash" -> Some Crash_server
  | "drop" -> Some Drop_reply
  | "dup" -> Some Duplicate_reply
  | _ -> (
      match kv "hang" s with
      | Some v -> Option.map (fun n -> Hang n) (int_of_string_opt v)
      | None -> (
          match kv "delay" s with
          | Some v -> Option.map (fun n -> Delay n) (int_of_string_opt v)
          | None -> (
              match kv "fail" s with
              | Some v -> Option.map (fun e -> Fail e) (errno_of_string v)
              | None -> None)))

let parse_site kind op =
  let filter = if String.equal op "*" then None else Some op in
  match kind with
  | "fuse" -> Some (Fuse filter)
  | "backing" -> Some (Backing filter)
  | "disk" -> Some Disk
  | "proxy" -> Some (Proxy filter)
  | "ctrl" -> Some (Ctrl filter)
  | _ -> None

let parse text =
  let seed = ref 42 and rules = ref [] and retry = ref None and err = ref None in
  let fail lineno msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  let words s =
    String.split_on_char ' ' s |> List.filter (fun w -> not (String.equal w ""))
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      match words (String.trim line) with
      | [] -> ()
      | [ "seed"; v ] -> (
          match int_of_string_opt v with
          | Some n -> seed := n
          | None -> fail lineno "bad seed")
      | "retry" :: fields ->
          let r = ref { retry_default with deadline_ns = retry_default.deadline_ns } in
          List.iter
            (fun f ->
              match kv "deadline" f, kv "max" f, kv "backoff" f, kv "mult" f with
              | Some v, _, _, _ -> (
                  match int_of_string_opt v with
                  | Some n -> r := { !r with deadline_ns = n }
                  | None -> fail lineno "bad deadline")
              | _, Some v, _, _ -> (
                  match int_of_string_opt v with
                  | Some n -> r := { !r with max_retries = n }
                  | None -> fail lineno "bad max")
              | _, _, Some v, _ -> (
                  match int_of_string_opt v with
                  | Some n -> r := { !r with backoff_ns = n }
                  | None -> fail lineno "bad backoff")
              | _, _, _, Some v -> (
                  match int_of_string_opt v with
                  | Some n -> r := { !r with backoff_mult = n }
                  | None -> fail lineno "bad mult")
              | None, None, None, None ->
                  fail lineno (Printf.sprintf "unknown retry field %S" f))
            fields;
          retry := Some !r
      | [ kind; op; trig; act ] -> (
          match parse_site kind op, parse_trigger trig, parse_action act with
          | Some site, Some trigger, Some action ->
              rules := { site; trigger; action } :: !rules
          | None, _, _ -> fail lineno (Printf.sprintf "unknown site %S" kind)
          | _, None, _ -> fail lineno (Printf.sprintf "bad trigger %S" trig)
          | _, _, None -> fail lineno (Printf.sprintf "bad action %S" act))
      | _ -> fail lineno "expected: <site> <op|*> <trigger> <action>")
    (String.split_on_char '\n' text);
  match !err with
  | Some e -> Error e
  | None -> Ok ({ seed = !seed; rules = List.rev !rules }, !retry)

let trigger_to_string = function
  | Nth n -> Printf.sprintf "nth=%d" n
  | Every n -> Printf.sprintf "every=%d" n
  | After_ns n -> Printf.sprintf "after=%d" n
  | Prob p -> Printf.sprintf "prob=%g" p

let action_to_string = function
  | Crash_server -> "crash"
  | Hang n -> Printf.sprintf "hang=%d" n
  | Delay n -> Printf.sprintf "delay=%d" n
  | Drop_reply -> "drop"
  | Duplicate_reply -> "dup"
  | Fail e -> "fail=" ^ Errno.to_string e

let site_to_string = function
  | Fuse None -> "fuse *"
  | Fuse (Some op) -> "fuse " ^ op
  | Backing None -> "backing *"
  | Backing (Some op) -> "backing " ^ op
  | Disk -> "disk *"
  | Proxy None -> "proxy *"
  | Proxy (Some op) -> "proxy " ^ op
  | Ctrl None -> "ctrl *"
  | Ctrl (Some op) -> "ctrl " ^ op

let to_string p =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "seed %d\n" p.seed);
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s %s %s\n" (site_to_string r.site) (trigger_to_string r.trigger)
           (action_to_string r.action)))
    p.rules;
  Buffer.contents b
