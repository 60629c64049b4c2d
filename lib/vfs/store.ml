(* Backing-store cost model for the native filesystem.  [Ram] models tmpfs
   (the page cache *is* the storage); [Ssd] models a disk-backed filesystem
   (ext4 on EBS GP2 in the paper) with a write-back page cache. *)

open Repro_util

type profile =
  | Ram
  | Ssd of {
      cache : Page_cache.t;
      (* Flush an inode's dirty pages once this many accumulate — the
         kernel's dirty-ratio writeback, scaled down. *)
      flush_pages : int;
    }

(* Writeback policy knobs shared by all Ssd stores: a global dirty-page
   ceiling (vm.dirty_ratio) and a periodic flush (dirty_expire), both
   scaled to the simulation's 1:1000 data sizes. *)
let global_dirty_fraction = 0.25
let flush_interval_ns = 500_000 (* 0.5 ms of virtual time *)

(* Sequential readahead window, in pages (128 KiB). *)
let readahead_pages = 32

module Metrics = Repro_obs.Metrics

type t = {
  clock : Clock.t;
  profile : profile;
  (* "vfs.disk.*" registry counters — only Ssd profiles ever increment
     them, so tmpfs-backed stores report zeros. *)
  m_read_ios : Metrics.counter;
  m_read_bytes : Metrics.counter;
  m_write_ios : Metrics.counter;
  m_write_bytes : Metrics.counter;
  mutable last_flush_ns : int64;
  (* true while the periodic background writeback runs: the application
     does not wait for it, so no virtual time is charged *)
  mutable in_background : bool;
  (* Fault-injection hook: extra device latency (ns) charged on entry to
     read/write/fsync, keyed by the operation name.  Installed by the fault
     plane's [Disk] rules; None costs one branch. *)
  mutable fault_delay : (op:string -> int) option;
}

let create ?metrics ~clock profile =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let t =
    {
      clock;
      profile;
      m_read_ios = Metrics.counter metrics "vfs.disk.read_ios";
      m_read_bytes = Metrics.counter metrics "vfs.disk.read_bytes";
      m_write_ios = Metrics.counter metrics "vfs.disk.write_ios";
      m_write_bytes = Metrics.counter metrics "vfs.disk.write_bytes";
      last_flush_ns = 0L;
      in_background = false;
      fault_delay = None;
    }
  in
  (match profile with
  | Ram -> ()
  | Ssd { cache; _ } ->
      (* Every flushed run is one device write I/O. *)
      Page_cache.set_on_flush cache (fun ~ino:_ ~page:_ ~pages ->
          let bytes = pages * Cost.page_size in
          Metrics.incr t.m_write_ios;
          Metrics.add t.m_write_bytes bytes;
          if not t.in_background then
            Clock.consume_int clock (Cost.disk_write_cost bytes)));
  t

let cache t = match t.profile with Ram -> None | Ssd { cache; _ } -> Some cache

let set_fault_delay t hook = t.fault_delay <- hook

let fault_delay t op =
  match t.fault_delay with
  | None -> ()
  | Some hook ->
      let ns = hook ~op in
      if ns > 0 then Clock.consume_int t.clock ns

let page_range ~off ~len =
  let ps = Cost.page_size in
  let first = off / ps in
  let last = (off + max 0 (len - 1)) / ps in
  (first, last)

let charge_disk_read t bytes =
  Metrics.incr t.m_read_ios;
  Metrics.add t.m_read_bytes bytes;
  Clock.consume_int t.clock (Cost.disk_read_cost bytes)

(* Charge the cost of reading [len] bytes at [off] of [ino]: page-cache
   hits cost memory copies; a miss triggers a readahead window (one I/O
   covering up to [readahead_pages]), clamped to the file size. *)
let read t ~ino ~off ~len ~file_size =
  fault_delay t "read";
  if len <= 0 then ()
  else
    match t.profile with
    | Ram -> Clock.consume_int t.clock (Cost.mem_cost len)
    | Ssd { cache; _ } ->
        let ps = Cost.page_size in
        let first, last = page_range ~off ~len in
        let last_file_page = max first ((max 1 file_size - 1) / ps) in
        let page = ref first in
        while !page <= last do
          match Page_cache.touch cache ~ino ~page:!page ~dirty:false with
          | `Hit ->
              Clock.consume_int t.clock (Cost.mem_cost ps);
              incr page
          | `Miss ->
              (* one device I/O covering the readahead window *)
              let win_end = min last_file_page (!page + readahead_pages - 1) in
              let fetched = ref 1 in
              let q = ref (!page + 1) in
              while
                !q <= win_end
                && (match Page_cache.touch cache ~ino ~page:!q ~dirty:false with
                   | `Miss -> true
                   | `Hit -> false)
              do
                incr fetched;
                incr q
              done;
              charge_disk_read t (!fetched * ps);
              page := !q
        done

(* Charge the cost of writing [len] bytes at [off].  Buffered writes dirty
   page-cache pages and are written back when the per-inode dirty threshold
   is crossed; [sync] forces the inode's dirty pages out before returning
   (O_SYNC / write-through). *)
let write t ~ino ~off ~len ~sync =
  fault_delay t "write";
  if len > 0 then begin
    Clock.consume_int t.clock (Cost.mem_cost len);
    match t.profile with
    | Ram -> ()
    | Ssd { cache; flush_pages } ->
        let first, last = page_range ~off ~len in
        for page = first to last do
          ignore (Page_cache.touch cache ~ino ~page ~dirty:true)
        done;
        if sync then Page_cache.flush_inode cache ino
        else if Page_cache.dirty_count cache ino >= flush_pages then
          (* balance_dirty_pages: the writer is throttled while its inode
             is written out — charged in the foreground *)
          Page_cache.flush_inode cache ino
        else begin
          (* vm.dirty_ratio: global dirty ceiling forces writeback *)
          let limit =
            int_of_float
              (global_dirty_fraction
              *. float_of_int (Mem_budget.limit (Page_cache.budget cache))
              /. float_of_int Cost.page_size)
          in
          if Page_cache.dirty_total cache >= max 16 limit then
            Page_cache.flush_all cache
          else begin
            (* dirty_expire: periodic writeback runs in the background —
               the writer does not wait for it *)
            let now = Clock.now_ns t.clock in
            if Int64.sub now t.last_flush_ns > Int64.of_int flush_interval_ns then begin
              t.last_flush_ns <- now;
              t.in_background <- true;
              (* heavy writers are not bailed out by the background thread *)
              Page_cache.flush_light_inodes cache ~max_dirty:8;
              t.in_background <- false
            end
          end
        end
  end

(* O_DIRECT I/O bypasses the page cache entirely.  [async] models a full
   device queue (AIO): the fixed per-I/O latency is hidden by pipelining and
   only the streaming cost is charged. *)
let write_direct t ~len ~async =
  match t.profile with
  | Ram -> Clock.consume_int t.clock (Cost.mem_cost len)
  | Ssd _ ->
      Metrics.incr t.m_write_ios;
      Metrics.add t.m_write_bytes len;
      let cost =
        if async then Cost.disk_write_ns_per_kib * Cost.kib_of_bytes len
        else Cost.disk_write_cost len
      in
      Clock.consume_int t.clock cost

let read_direct t ~len ~async =
  match t.profile with
  | Ram -> Clock.consume_int t.clock (Cost.mem_cost len)
  | Ssd _ ->
      Metrics.incr t.m_read_ios;
      Metrics.add t.m_read_bytes len;
      let cost =
        if async then Cost.disk_read_ns_per_kib * Cost.kib_of_bytes len
        else Cost.disk_read_cost len
      in
      Clock.consume_int t.clock cost

let fsync t ~ino =
  fault_delay t "fsync";
  match t.profile with
  | Ram -> ()
  | Ssd { cache; _ } ->
      (* device write barrier: an fsync costs at least one I/O round even
         when background writeback already cleaned the pages *)
      Clock.consume_int t.clock Cost.disk_write_latency_ns;
      Page_cache.flush_inode cache ino

let invalidate t ~ino =
  match t.profile with
  | Ram -> ()
  | Ssd { cache; _ } -> Page_cache.invalidate_inode cache ino

(* Forget an inode's cached pages without writeback (file deleted). *)
let discard t ~ino =
  match t.profile with
  | Ram -> ()
  | Ssd { cache; _ } -> Page_cache.discard_inode cache ino

(* Per-write-syscall cost of the ext4 write path (block reservation,
   journal handle) — FUSE's writeback cache amortizes this over large
   coalesced writes, which is how it can beat native small writes. *)
let charge_write_path t =
  match t.profile with
  | Ram -> ()
  | Ssd _ -> Clock.consume_int t.clock Cost.write_path_ns

(* Amortized metadata-journal cost (ext4 jbd2): charged per namespace
   mutation on disk-backed filesystems. *)
let charge_journal t =
  match t.profile with
  | Ram -> ()
  | Ssd _ -> Clock.consume_int t.clock Cost.journal_ns
