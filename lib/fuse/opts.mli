(** FUSE mount options — the optimization knobs of §3.3. *)

type t = {
  keep_cache : bool;  (** FOPEN_KEEP_CACHE: the page cache survives opens *)
  writeback : bool;  (** FUSE_WRITEBACK_CACHE: batch + delay writes *)
  parallel_dirops : bool;  (** FUSE_PARALLEL_DIROPS: concurrent lookups *)
  async_read : bool;  (** FUSE_ASYNC_READ: batch concurrent reads, readahead *)
  splice_read : bool;
      (** zero-copy read replies: READ payload legs ride the shared splice
          path (setup + per-page remap) instead of the per-KiB copy *)
  splice_write : bool;
      (** zero-copy writes: WRITE payloads splice through a kernel pipe,
          which costs one extra context switch on every request — both the
          switch and the splice legs are charged (§3.3 leaves it off by
          default for exactly that trade) *)
  forget_batch : int;  (** forget intents coalesced per request *)
  dcache : bool;
      (** the driver's dentry and attribute caches (FUSE entry/attr
          validity above zero) *)
  max_write : int;  (** bytes per WRITE request *)
  max_read : int;  (** bytes per READ request *)
  read_batch : int;  (** concurrent READs amortized by async_read *)
  readdirplus : bool;
      (** READDIRPLUS: readdir replies carry (entry, attr, validity) tuples
          that prefill the dentry/attr caches in one round trip *)
  entry_timeout_ns : int;
      (** virtual-clock TTL on cached dentries; 0 = unbounded (the paper's
          behaviour) *)
  attr_timeout_ns : int;  (** virtual-clock TTL on cached attrs; 0 = unbounded *)
  negative_timeout_ns : int;
      (** ENOENT lookup results are cached this long; 0 = never (the paper) *)
  handle_cache : int;
      (** capacity of the server's LRU handle cache keyed by backing
          (dev, ino); a hit skips the per-LOOKUP open()+stat() pair.
          0 = disabled *)
  passthrough : int;
      (** capacity of the server's LRU of passthrough grants: at open time
          the server may hand the driver a capability onto the backing
          file, after which that handle's READ/WRITE hit the backing VFS
          directly — zero FUSE round trips.  Grants are revoked on LRU
          overflow, on server-side mutation of the inode, and on
          crash/recovery.  0 = disabled (the paper's behaviour) *)
}

(** What CNTR ships: everything on except splice write (§3.3).  The
    metadata fast-path knobs are all off/zero here — the paper's numbers. *)
val cntr_default : t

(** Everything off — the Figure 3 baselines. *)
val unoptimized : t

(** [cntr_default] plus the metadata fast path (READDIRPLUS, TTL'd
    dentry/attr caches, negative dentries, server handle cache) — the ON
    leg of the e3e ablation.  An extension; not a configuration the paper
    measures. *)
val fastpath : t
