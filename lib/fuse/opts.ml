(* FUSE mount options — the optimization knobs of §3.3.  [cntr_default] is
   what CNTR ships (everything on except splice write); [unoptimized] turns
   everything off for the Figure 3 ablations. *)

type t = {
  keep_cache : bool;        (* FOPEN_KEEP_CACHE: page cache survives opens *)
  writeback : bool;         (* FUSE_WRITEBACK_CACHE: batch + delay writes *)
  parallel_dirops : bool;   (* FUSE_PARALLEL_DIROPS: concurrent lookups *)
  async_read : bool;        (* FUSE_ASYNC_READ: batch concurrent reads *)
  splice_read : bool;       (* zero-copy read replies *)
  splice_write : bool;      (* zero-copy write requests (extra ctx switch) *)
  forget_batch : int;       (* forget intents coalesced per request *)
  dcache : bool;            (* dentry + attribute caches in the driver *)
  max_write : int;          (* bytes per WRITE request *)
  max_read : int;           (* bytes per READ request *)
  read_batch : int;         (* concurrent READs batched by async_read *)
  (* --- the metadata fast path (extension; not in the paper) -------------
     All four knobs are off/zero in [cntr_default] so the paper's numbers
     stay byte-identical; [fastpath] turns them on. *)
  readdirplus : bool;       (* READDIRPLUS: readdir prefetches entry+attr *)
  entry_timeout_ns : int;   (* dentry-cache TTL; 0 = unbounded (paper) *)
  attr_timeout_ns : int;    (* attr-cache TTL; 0 = unbounded (paper) *)
  negative_timeout_ns : int;(* ENOENT results cached this long; 0 = never *)
  handle_cache : int;       (* server-side LRU of (dev,ino) handles; 0 = off *)
  passthrough : int;        (* server-granted backing handles; LRU cap, 0 = off *)
}

let cntr_default = {
  keep_cache = true;
  writeback = true;
  parallel_dirops = true;
  async_read = true;
  splice_read = true;
  (* §3.3: splice write adds a context switch to every request and is
     disabled by default. *)
  splice_write = false;
  forget_batch = 64;
  dcache = true;
  max_write = 128 * 1024;
  max_read = 128 * 1024;
  read_batch = 8;
  readdirplus = false;
  entry_timeout_ns = 0;
  attr_timeout_ns = 0;
  negative_timeout_ns = 0;
  handle_cache = 0;
  passthrough = 0;
}

let unoptimized = {
  keep_cache = false;
  writeback = false;
  parallel_dirops = false;
  async_read = false;
  splice_read = false;
  splice_write = false;
  forget_batch = 1;
  (* plain FUSE ships entry/attr validity 0 — no dcache caching; TTL'd
     caching is on CNTR's optimization list, so the baseline lacks it *)
  dcache = false;
  max_write = 128 * 1024;
  max_read = 128 * 1024;
  read_batch = 1;
  readdirplus = false;
  entry_timeout_ns = 0;
  attr_timeout_ns = 0;
  negative_timeout_ns = 0;
  handle_cache = 0;
  passthrough = 0;
}

(* The metadata fast path: everything CNTR ships plus READDIRPLUS, TTL'd
   dentry/attr caches, negative dentry caching, and a server-side handle
   cache.  This is the "e3e" ablation's ON leg; §5.2.2's lookup tax is what
   it attacks.  1 s of virtual validity dwarfs any benchmark's runtime, so
   correctness rests on the driver's invalidation (it is the sole mutator),
   not on expiry. *)
let fastpath = {
  cntr_default with
  readdirplus = true;
  entry_timeout_ns = 1_000_000_000;
  attr_timeout_ns = 1_000_000_000;
  negative_timeout_ns = 1_000_000_000;
  handle_cache = 1024;
}
