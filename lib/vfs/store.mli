(** Backing-store cost model for the native filesystem.  [Ram] models
    tmpfs (the page cache *is* the storage); [Ssd] models ext4 on an SSD
    volume: a write-back page cache over a device with fixed latency and
    per-KiB streaming costs, sequential readahead, a foreground per-inode
    dirty threshold (balance_dirty_pages), a global dirty ceiling, and
    periodic *background* writeback that is free for light writers. *)

open Repro_util

type profile =
  | Ram
  | Ssd of { cache : Page_cache.t; flush_pages : int }

type t

(** Device I/O lands in [metrics] (a private registry when omitted) under
    [vfs.disk.read_ios|read_bytes|write_ios|write_bytes]; only [Ssd]
    profiles ever increment them. *)
val create : ?metrics:Repro_obs.Metrics.t -> clock:Clock.t -> profile -> t

val cache : t -> Page_cache.t option

(** Install (or clear) a fault-injection latency hook: extra device
    nanoseconds charged on entry to {!read} / {!write} / {!fsync}, keyed by
    the operation name ("read" / "write" / "fsync").  The fault plane's
    [Disk] rules use this to model latency spikes; no hook costs one
    branch. *)
val set_fault_delay : t -> (op:string -> int) option -> unit

(** Charge a read: page-cache hits cost memory copies; a miss triggers a
    readahead window (one I/O of up to 32 pages, clamped to [file_size]). *)
val read : t -> ino:int -> off:int -> len:int -> file_size:int -> unit

(** Charge a buffered write; [sync] forces the inode's dirty pages out. *)
val write : t -> ino:int -> off:int -> len:int -> sync:bool -> unit

(** O_DIRECT I/O, bypassing the cache.  [async] models a full device queue
    (AIO): per-I/O latency is hidden and only streaming cost is charged. *)
val write_direct : t -> len:int -> async:bool -> unit

val read_direct : t -> len:int -> async:bool -> unit

(** Flush an inode + charge the device write barrier. *)
val fsync : t -> ino:int -> unit

(** Flush and drop an inode's cached pages. *)
val invalidate : t -> ino:int -> unit

(** Drop an inode's cached pages without writeback (file deleted). *)
val discard : t -> ino:int -> unit

(** ext4 per-write-syscall overhead (block reservation, journal handle) —
    amortized away by FUSE's large coalesced writes. *)
val charge_write_path : t -> unit

(** Amortized jbd2 journal cost per namespace mutation. *)
val charge_journal : t -> unit
