(* LRU page cache with dirty tracking.  Pages are (inode, page-index) keys;
   data lives in the filesystem's inode table or, for the FUSE driver, in
   its per-inode stores — the cache only models *presence* (for cost
   accounting) and dirtiness (for writeback). *)

type key = { k_ino : int; k_page : int }

type node = {
  key : key;
  mutable dirty : bool;
  mutable prev : node option;
  mutable next : node option;
}

module Metrics = Repro_obs.Metrics

type t = {
  name : string;
  budget : Mem_budget.t;
  mutable dirty_total : int;
  pages : (key, node) Hashtbl.t;
  mutable lru_head : node option; (* most recently used *)
  mutable lru_tail : node option; (* least recently used *)
  dirty_by_ino : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  (* Counters live in the metrics registry ("vfs.page_cache.<name>.*");
     two caches created with the same name on one registry share them. *)
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  m_writeback_ios : Metrics.counter;
  m_writeback_pages : Metrics.counter;
  (* Called when a dirty page run must reach the device: [on_flush ~ino
     ~page ~pages] where the run covers [pages] contiguous pages. *)
  mutable on_flush : ino:int -> page:int -> pages:int -> unit;
}

let ratio hits misses =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

(* Hit ratio over every page cache registered on [metrics], whatever their
   names: sums the per-cache hit/miss counters at snapshot time. *)
let aggregate_hit_ratio metrics () =
  let suffixed suffix =
    Metrics.counters_with_prefix metrics ~prefix:"vfs.page_cache."
    |> List.fold_left
         (fun acc (name, v) ->
           if String.length name >= String.length suffix
              && String.sub name
                   (String.length name - String.length suffix)
                   (String.length suffix)
                 = suffix
           then acc + v
           else acc)
         0
  in
  ratio (suffixed ".hits") (suffixed ".misses")

let create ?metrics ~name ~budget () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let key suffix = Printf.sprintf "vfs.page_cache.%s.%s" name suffix in
  let m_hits = Metrics.counter metrics (key "hits") in
  let m_misses = Metrics.counter metrics (key "misses") in
  Metrics.register_derived metrics (key "hit_ratio") (fun () ->
      ratio (Metrics.value m_hits) (Metrics.value m_misses));
  Metrics.register_derived metrics "vfs.page_cache.hit_ratio"
    (aggregate_hit_ratio metrics);
  {
    name;
    budget;
    pages = Hashtbl.create 1024;
    dirty_total = 0;
    lru_head = None;
    lru_tail = None;
    dirty_by_ino = Hashtbl.create 16;
    m_hits;
    m_misses;
    m_evictions = Metrics.counter metrics (key "evictions");
    m_writeback_ios = Metrics.counter metrics (key "writeback_ios");
    m_writeback_pages = Metrics.counter metrics (key "writeback_pages");
    on_flush = (fun ~ino:_ ~page:_ ~pages:_ -> ());
  }

let budget t = t.budget
let set_on_flush t f = t.on_flush <- f

let unlink_node t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.lru_head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.lru_head;
  n.prev <- None;
  (match t.lru_head with Some h -> h.prev <- Some n | None -> t.lru_tail <- Some n);
  t.lru_head <- Some n

let dirty_table t ino =
  match Hashtbl.find_opt t.dirty_by_ino ino with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.replace t.dirty_by_ino ino tbl;
      tbl

let mark_dirty t n =
  if not n.dirty then begin
    n.dirty <- true;
    t.dirty_total <- t.dirty_total + 1;
    Hashtbl.replace (dirty_table t n.key.k_ino) n.key.k_page ()
  end

let clear_dirty t n =
  if n.dirty then begin
    n.dirty <- false;
    t.dirty_total <- max 0 (t.dirty_total - 1);
    match Hashtbl.find_opt t.dirty_by_ino n.key.k_ino with
    | Some tbl ->
        Hashtbl.remove tbl n.key.k_page;
        if Hashtbl.length tbl = 0 then Hashtbl.remove t.dirty_by_ino n.key.k_ino
    | None -> ()
  end

(* Group a sorted page list into (start, count) contiguous runs. *)
let runs_of_pages pages =
  let sorted = List.sort_uniq compare pages in
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some r -> r :: acc | None -> acc)
    | p :: rest -> (
        match cur with
        | Some (start, count) when p = start + count -> go acc (Some (start, count + 1)) rest
        | Some r -> go (r :: acc) (Some (p, 1)) rest
        | None -> go acc (Some (p, 1)) rest)
  in
  go [] None sorted

(* Write all dirty pages of [ino] to the device as contiguous runs. *)
let flush_inode t ino =
  match Hashtbl.find_opt t.dirty_by_ino ino with
  | None -> ()
  | Some tbl ->
      let pages = Hashtbl.fold (fun p () acc -> p :: acc) tbl [] in
      let runs = runs_of_pages pages in
      List.iter
        (fun (start, count) ->
          Metrics.incr t.m_writeback_ios;
          Metrics.add t.m_writeback_pages count;
          t.on_flush ~ino ~page:start ~pages:count)
        runs;
      List.iter
        (fun p ->
          match Hashtbl.find_opt t.pages { k_ino = ino; k_page = p } with
          | Some n -> clear_dirty t n
          | None -> ())
        pages;
      Hashtbl.remove t.dirty_by_ino ino

let flush_all t =
  let inos = Hashtbl.fold (fun ino _ acc -> ino :: acc) t.dirty_by_ino [] in
  List.iter (flush_inode t) inos

let dirty_count t ino =
  match Hashtbl.find_opt t.dirty_by_ino ino with
  | Some tbl -> Hashtbl.length tbl
  | None -> 0

let evict_one t =
  match t.lru_tail with
  | None -> ()
  | Some n ->
      if n.dirty then begin
        (* Evicting a dirty page forces a single-page writeback I/O. *)
        Metrics.incr t.m_writeback_ios;
        Metrics.incr t.m_writeback_pages;
        t.on_flush ~ino:n.key.k_ino ~page:n.key.k_page ~pages:1;
        clear_dirty t n
      end;
      unlink_node t n;
      Hashtbl.remove t.pages n.key;
      Mem_budget.release t.budget Repro_util.Cost.page_size;
      Metrics.incr t.m_evictions

(* Touch a page for reading: returns [`Hit] if cached, otherwise inserts it
   (evicting under memory pressure) and returns [`Miss]. *)
let touch t ~ino ~page ~dirty =
  let key = { k_ino = ino; k_page = page } in
  match Hashtbl.find_opt t.pages key with
  | Some n ->
      unlink_node t n;
      push_front t n;
      if dirty then mark_dirty t n;
      Metrics.incr t.m_hits;
      `Hit
  | None ->
      let n = { key; dirty = false; prev = None; next = None } in
      Hashtbl.replace t.pages key n;
      push_front t n;
      Mem_budget.reserve t.budget Repro_util.Cost.page_size;
      let rec evict_until_fits () =
        if Mem_budget.over t.budget then
          match t.lru_tail with
          | Some m when m != n ->
              evict_one t;
              evict_until_fits ()
          | Some _ | None -> ()
      in
      evict_until_fits ();
      if dirty then mark_dirty t n;
      Metrics.incr t.m_misses;
      `Miss

let mem t ~ino ~page = Hashtbl.mem t.pages { k_ino = ino; k_page = page }

(* Drop all pages of [ino] *without* writing dirty data back — used when a
   file is deleted: its dirty pages never reach the device.  This is what
   makes postmark-style create/delete churn cheap on the native filesystem
   (§5.2.2). *)
let discard_inode t ino =
  (match Hashtbl.find_opt t.dirty_by_ino ino with
  | Some tbl ->
      Hashtbl.iter
        (fun p () ->
          match Hashtbl.find_opt t.pages { k_ino = ino; k_page = p } with
          | Some n ->
              if n.dirty then t.dirty_total <- max 0 (t.dirty_total - 1);
              n.dirty <- false
          | None -> ())
        tbl;
      Hashtbl.remove t.dirty_by_ino ino
  | None -> ());
  let to_remove =
    Hashtbl.fold
      (fun key n acc -> if key.k_ino = ino then n :: acc else acc)
      t.pages []
  in
  List.iter
    (fun n ->
      unlink_node t n;
      Hashtbl.remove t.pages n.key;
      Mem_budget.release t.budget Repro_util.Cost.page_size)
    to_remove

(* Drop all pages of [ino] (used when a FUSE open lacks FOPEN_KEEP_CACHE:
   the kernel invalidates the inode's cached data). *)
let invalidate_inode t ino =
  flush_inode t ino;
  let to_remove =
    Hashtbl.fold
      (fun key n acc -> if key.k_ino = ino then n :: acc else acc)
      t.pages []
  in
  List.iter
    (fun n ->
      unlink_node t n;
      Hashtbl.remove t.pages n.key;
      Mem_budget.release t.budget Repro_util.Cost.page_size)
    to_remove

let dirty_total t = t.dirty_total

(* Background writeback skips inodes with lots of dirty data: heavy
   writers must be throttled by the foreground dirty threshold instead of
   being bailed out for free. *)
let flush_light_inodes t ~max_dirty =
  let inos = Hashtbl.fold (fun ino tbl acc -> (ino, Hashtbl.length tbl) :: acc) t.dirty_by_ino [] in
  List.iter (fun (ino, n) -> if n < max_dirty then flush_inode t ino) inos
