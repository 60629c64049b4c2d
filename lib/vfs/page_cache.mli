(** LRU page cache with dirty tracking.  Pages are (inode, page-index)
    presence records for cost accounting; users that also need the bytes
    (the FUSE driver) keep them alongside. *)

type t

(** Counters are registered on [metrics] as
    [vfs.page_cache.<name>.hits|misses|evictions|writeback_ios|
    writeback_pages], plus derived gauges [vfs.page_cache.<name>.hit_ratio]
    and the cross-cache aggregate [vfs.page_cache.hit_ratio].  Two caches
    created with the same name on one registry share counters. *)
val create : metrics:Repro_obs.Metrics.t -> name:string -> budget:Mem_budget.t -> t

(** Device-write callback for each flushed contiguous run. *)
val set_on_flush : t -> (ino:int -> page:int -> pages:int -> unit) -> unit

val budget : t -> Mem_budget.t

(** Write all dirty pages of an inode out as contiguous runs. *)
val flush_inode : t -> int -> unit

val flush_all : t -> unit

(** Background writeback that skips inodes with [max_dirty] or more dirty
    pages: heavy writers must be throttled in the foreground instead. *)
val flush_light_inodes : t -> max_dirty:int -> unit

val dirty_count : t -> int -> int
val dirty_total : t -> int

(** Touch a page: [`Hit] if cached, otherwise insert (evicting under
    memory pressure) and report [`Miss].  [dirty] marks it for writeback. *)
val touch : t -> ino:int -> page:int -> dirty:bool -> [ `Hit | `Miss ]

(** Presence test without promotion or insertion. *)
val mem : t -> ino:int -> page:int -> bool

(** Drop an inode's pages *without* writeback — deleted files' dirty data
    never reaches the device (the postmark effect, §5.2.2). *)
val discard_inode : t -> int -> unit

(** Flush then drop an inode's pages (FUSE open without FOPEN_KEEP_CACHE). *)
val invalidate_inode : t -> int -> unit
