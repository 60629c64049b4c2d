(* The kernel-side FUSE driver: an [Fsops.t] whose operations become
   protocol requests on a [Conn.t].  It owns the caches that make FUSE
   bearable — the dentry/attr caches, and a data-bearing page cache with
   FOPEN_KEEP_CACHE and writeback semantics — and implements the request
   batching and splice transports of §3.3.

   Deliberate limitations that reproduce the paper's xfstests failures:
   - O_DIRECT opens fail (mmap and direct I/O are mutually exclusive and
     CNTR needs mmap to exec binaries) — generic/391;
   - inodes are not exportable (no name_to_handle_at) — generic/426;
   - RLIMIT_FSIZE and setgid-clearing are lost because the server replays
     operations under its own credential — generic/228 and generic/375. *)

open Repro_util
open Repro_vfs

type handle = {
  dh_ino : Types.ino;
  mutable dh_server_fh : int; (* refreshed when a relaunched server reopens *)
  dh_readable : bool;
  dh_writable : bool;
  dh_append : bool;
  dh_sync : bool; (* O_SYNC: bypass the writeback cache *)
  mutable dh_open : bool;
  (* passthrough grant: while present and valid, this handle's READ/WRITE
     reach the backing VFS directly — zero FUSE round trips *)
  mutable dh_grant : Protocol.grant option;
}

(* fuse.passthrough.* counters: only materialized when the knob is on, so
   passthrough-off sessions leave the registry untouched. *)
type pt_counters = {
  ptm_grants : Repro_obs.Metrics.counter;
  ptm_reads : Repro_obs.Metrics.counter;
  ptm_writes : Repro_obs.Metrics.counter;
  ptm_revocations : Repro_obs.Metrics.counter;
}

type t = {
  conn : Conn.t;
  opts : Opts.t;
  clock : Clock.t;
  fs_id : int;
  (* page cache: presence/LRU/dirty in [pcache], bytes in [pdata], one
     store per inode.  A cached page is always whole in its store: an
     install writes the server's reply and zero-fills the pages past its
     end, and a write into an uncached page zero-fills the rest of the
     page, or fetches it first when the page holds older data.  Eviction
     leaves a page's bytes in place, so a page evicted while an install
     runs can be re-inserted with its own bytes; otherwise nothing reads
     an uncached page before one of those whole-page writes replaces it.
     An inode's bytes are dropped only with all its pages: when
     [invalidate_inode] or [discard_inode] removes the whole inode. *)
  pcache : Page_cache.t;
  pdata : (Types.ino, Fdata.t) Hashtbl.t;
  (* inodes unlinked while a writable handle kept their pages; the pages
     are discarded at its last close *)
  unlinked : (Types.ino, unit) Hashtbl.t;
  sizes : (Types.ino, int) Hashtbl.t;
  (* dentry/attr caches carry a virtual-clock expiry; 0L = valid forever
     (the paper's behaviour, when the *_timeout_ns knobs are zero) *)
  entries : (Types.ino * string, Types.ino * int64) Hashtbl.t;
  attrs : (Types.ino, Types.stat * int64) Hashtbl.t;
  (* negative dentries: names known absent, until the stored expiry *)
  neg : (Types.ino * string, int64) Hashtbl.t;
  (* inos known to carry no security.capability xattr (write fast path) *)
  capneg : (Types.ino, int64) Hashtbl.t;
  nlookup : (Types.ino, int) Hashtbl.t;
  handles : (int, handle) Hashtbl.t;
  wb_fhs : (Types.ino, int) Hashtbl.t; (* a writable server fh per ino, for writeback *)
  mutable next_fh : int;
  mutable forget_q : (Types.ino * int) list;
  mutable last_wb_flush_ns : int64;
  (* Without FUSE_PARALLEL_DIROPS the kernel serializes directory
     operations under the directory's i_mutex, held across the operation's
     round trips, so concurrent walkers queue behind each other (the
     Figure 3(c) ablation).  The locks live in a fixed-size table sharded
     by inode hash: bounded state however many directories exist, at the
     price of false sharing between hash-colliding directories. *)
  sched : Repro_sched.Sched.t;
  dirlocks : Repro_sched.Sched.mutex array;
  (* dentry-cache accounting on the connection's registry *)
  m_dentry_hits : Repro_obs.Metrics.counter;
  m_dentry_misses : Repro_obs.Metrics.counter;
  m_neg_hits : Repro_obs.Metrics.counter;
  m_rdp_entries : Repro_obs.Metrics.counter;
  m_xattr_neg_hits : Repro_obs.Metrics.counter;
  pt : pt_counters option; (* Some iff opts.passthrough > 0 *)
}

let ( let* ) = Result.bind

let ctx_of (cred : Types.cred) =
  { Protocol.c_uid = cred.Types.uid; c_gid = cred.Types.gid; c_pid = 0 }

(* One request round trip.  Splice write mode costs an extra context switch
   on *every* request: the header must be examined in a pipe first
   (§3.2.4). *)
let rt t ?(splice = false) ctx req =
  if t.opts.Opts.splice_write then begin
    Repro_obs.Metrics.incr t.conn.Conn.m_ctx_switches;
    Clock.consume_int t.clock Cost.context_switch_ns
  end;
  Protocol.err_of_resp (Conn.call t.conn ~splice ctx req)

(* Serialized directory operations: without FUSE_PARALLEL_DIROPS the
   kernel holds the directory's i_mutex across the operation, round trips
   included, so concurrent walkers genuinely queue.  The locks are
   reentrant (unlink looks the child up under the lock it already holds)
   and hash-sharded per directory inode; with FUSE_PARALLEL_DIROPS
   negotiated they are not taken at all. *)
let dir_shard_bits = 6
let dir_shard_count = 1 lsl dir_shard_bits

(* Golden-ratio multiplicative hash; sequentially allocated inos spread
   over the shards instead of clustering. *)
let dir_shard (ino : Types.ino) = ino * 0x9E3779B9 land (dir_shard_count - 1)
let dirlock t ino = t.dirlocks.(dir_shard ino)

(* i_rwsem is a sleeping lock: the uncontended acquisition is a fast-path
   CAS (free), but a *contended* one schedules the waiter out and wakes it
   when the holder unlocks — a context switch on top of the wait itself.
   The scheduler mutex settles a blocked taker's clock through the hold
   gap, so "we actually waited" is visible as the clock having moved. *)
let dirop_lock t m =
  let t0 = Clock.now_ns t.clock in
  Repro_sched.Sched.lock t.sched m;
  if Int64.compare (Clock.now_ns t.clock) t0 > 0 then begin
    Repro_obs.Metrics.incr t.conn.Conn.m_ctx_switches;
    Clock.consume_int t.clock Cost.context_switch_ns
  end

let with_dirlock t m f =
  dirop_lock t m;
  match f () with
  | v ->
      Repro_sched.Sched.unlock t.sched m;
      v
  | exception e ->
      Repro_sched.Sched.unlock t.sched m;
      raise e

let with_dirop t ino f =
  if t.opts.Opts.parallel_dirops then f () else with_dirlock t (dirlock t ino) f

(* Rename spans two directories: take both locks in *shard* order (once
   when the shards coincide — the mutexes are reentrant, so colliding
   parents degrade to one hold) to stay deadlock-free. *)
let with_dirop2 t ino_a ino_b f =
  if t.opts.Opts.parallel_dirops then f ()
  else begin
    let sa = dir_shard ino_a and sb = dir_shard ino_b in
    if sa = sb then with_dirlock t t.dirlocks.(sa) f
    else begin
      let lo = min sa sb and hi = max sa sb in
      with_dirlock t t.dirlocks.(lo) (fun () ->
          with_dirlock t t.dirlocks.(hi) f)
    end
  end

(* Expiry stamp for a validity window: 0 = forever (stored as 0L). *)
let expiry_of t valid_ns =
  if valid_ns <= 0 then 0L
  else Int64.add (Clock.now_ns t.clock) (Int64.of_int valid_ns)

let expired t exp = exp <> 0L && Clock.now_ns t.clock >= exp

let size_of t ino = Option.value ~default:0 (Hashtbl.find_opt t.sizes ino)

(* Cache the server's attributes [st] and return them as the driver sees
   them.  While a file has dirty pages in the writeback cache the driver
   owns its size: the server's is stale until they are flushed, so it
   never shrinks the driver's. *)
let cache_attr ?valid_ns t st =
  let st =
    match st.Types.st_kind with
    | Types.Reg ->
        let ino = st.Types.st_ino in
        let size =
          if Page_cache.dirty_count t.pcache ino > 0 then max st.Types.st_size (size_of t ino)
          else st.Types.st_size
        in
        Hashtbl.replace t.sizes ino size;
        if size = st.Types.st_size then st else { st with Types.st_size = size }
    | _ -> st
  in
  if t.opts.Opts.dcache then begin
    let v = Option.value ~default:t.opts.Opts.attr_timeout_ns valid_ns in
    Hashtbl.replace t.attrs st.Types.st_ino (st, expiry_of t v)
  end;
  st

let cached_attr t ino =
  match Hashtbl.find_opt t.attrs ino with
  | Some (st, exp) when not (expired t exp) -> Some st
  | Some _ ->
      Hashtbl.remove t.attrs ino;
      None
  | None -> None

let put_entry ?valid_ns t parent name ino =
  if t.opts.Opts.dcache then begin
    let v = Option.value ~default:t.opts.Opts.entry_timeout_ns valid_ns in
    Hashtbl.replace t.entries (parent, name) (ino, expiry_of t v)
  end

let cached_entry t parent name =
  if not t.opts.Opts.dcache then None
  else
    match Hashtbl.find_opt t.entries (parent, name) with
    | Some (ino, exp) when not (expired t exp) -> Some ino
    | Some _ ->
        Hashtbl.remove t.entries (parent, name);
        None
    | None -> None

(* Negative dentries: only meaningful with [negative_timeout_ns] > 0.
   Installed on ENOENT lookups and on unlink/rmdir/rename-away (the name is
   then *known* absent); dropped by every name-creating operation. *)
let put_neg t parent name =
  if t.opts.Opts.negative_timeout_ns > 0 then
    Hashtbl.replace t.neg (parent, name)
      (expiry_of t t.opts.Opts.negative_timeout_ns)

let drop_neg t parent name = Hashtbl.remove t.neg (parent, name)

let neg_valid t parent name =
  match Hashtbl.find_opt t.neg (parent, name) with
  | Some exp when not (expired t exp) -> true
  | Some _ ->
      Hashtbl.remove t.neg (parent, name);
      false
  | None -> false

let bump_nlookup t ino =
  Hashtbl.replace t.nlookup ino (1 + Option.value ~default:0 (Hashtbl.find_opt t.nlookup ino))

let getattr t ino =
  match cached_attr t ino with
  | Some st -> Ok st
  | None -> (
      match rt t Protocol.root_ctx (Protocol.Getattr ino) with
      | Ok (Protocol.R_attr st) -> Ok (cache_attr t st)
      | Ok _ -> Error Errno.EIO
      | Error e -> Error e)

(* default_permissions: the driver checks mode bits itself from cached
   attributes (it cannot interpret server-side ACLs). *)
let check_perm t cred ino want =
  let* st = getattr t ino in
  if
    Perm.check cred ~uid:st.Types.st_uid ~gid:st.Types.st_gid
      ~mode:st.Types.st_mode want
  then Ok ()
  else Error Errno.EACCES

let check_delete t cred dir_ino child_ino =
  let* () = check_perm t cred dir_ino (Types.w_ok lor Types.x_ok) in
  let* dir_st = getattr t dir_ino in
  if dir_st.Types.st_mode land Types.s_isvtx = 0 then Ok ()
  else
    let* child_st = getattr t child_ino in
    if
      cred.Types.cap_fowner
      || cred.Types.uid = child_st.Types.st_uid
      || cred.Types.uid = dir_st.Types.st_uid
    then Ok ()
    else Error Errno.EPERM

let invalidate_attr t ino = Hashtbl.remove t.attrs ino

let drop_entry t parent name = Hashtbl.remove t.entries (parent, name)

(* --- forgets ------------------------------------------------------------ *)

(* Is any cached dentry still referencing this inode?  (A second hardlink
   keeps the inode alive after one name is unlinked.) *)
let ino_referenced t ino =
  Hashtbl.fold (fun _ (v, _) acc -> acc || v = ino) t.entries false

let queue_forget t ino =
  match Hashtbl.find_opt t.nlookup ino with
  | None -> ()
  | Some n ->
      Hashtbl.remove t.nlookup ino;
      t.forget_q <- (ino, n) :: t.forget_q;
      if List.length t.forget_q >= t.opts.Opts.forget_batch then begin
        (* FORGET is one-way: coalesced entries leave as a single
           background message nobody waits for (congestion permitting) *)
        let q = t.forget_q in
        t.forget_q <- [];
        Conn.post t.conn Protocol.root_ctx (Protocol.Forget q)
      end

(* --- page data helpers --------------------------------------------------- *)

let store t ino =
  match Hashtbl.find_opt t.pdata ino with
  | Some d -> d
  | None ->
      let d = Fdata.create () in
      Hashtbl.replace t.pdata ino d;
      d

(* Flush, then drop every page of [ino] and their bytes. *)
let invalidate_pages t ino =
  Page_cache.invalidate_inode t.pcache ino;
  Hashtbl.remove t.pdata ino

(* Drop every page of [ino] and their bytes, dirty ones unwritten. *)
let discard_pages t ino =
  Page_cache.discard_inode t.pcache ino;
  Hashtbl.remove t.pdata ino

(* [ino] was unlinked: drop its pages now, or, while a writable handle
   still uses them, at that handle's last close. *)
let drop_unlinked_pages t ino =
  if Hashtbl.mem t.wb_fhs ino then Hashtbl.replace t.unlinked ino ()
  else discard_pages t ino

(* Which of pages [first, first + pages) of [ino] are uncached when a
   reply for them is requested: only those may take its bytes.  A page
   cached then may hold dirty data newer than the reply, and it keeps its
   bytes even if it is evicted (and written back) before the reply is
   installed. *)
let uncached t ~ino ~first ~pages =
  Array.init pages (fun i -> not (Page_cache.mem t.pcache ~ino ~page:(first + i)))

(* Install pages [first, first + Array.length fresh) of [ino] from [data],
   the reply for that range (short at EOF: the rest reads as zeros), where
   [fresh] is {!uncached} taken when the reply was requested.  Every page
   of the range that is not cached right before its turn is inserted, in
   order; the fresh ones that are still uncached take the reply's bytes,
   each run of them with one store write before its pages are inserted.
   An insert can evict a later page of the range or yield to a task that
   caches one, so membership is tested again before each insert. *)
let install t ~ino ~first ~fresh data =
  let ps = Cost.page_size in
  let stop = first + Array.length fresh in
  let cached page = Page_cache.mem t.pcache ~ino ~page in
  let insert page =
    if not (cached page) then ignore (Page_cache.touch t.pcache ~ino ~page ~dirty:false)
  in
  let rec run_end p =
    if p < stop && fresh.(p - first) && not (cached p) then run_end (p + 1) else p
  in
  let rec go p =
    if p < stop then begin
      let e = run_end p in
      if e = p then insert p
      else begin
        let d = store t ino in
        let pos = (p - first) * ps and len = (e - p) * ps in
        let n = max 0 (min len (String.length data - pos)) in
        Fdata.write_sub d ~off:(p * ps) data ~pos ~len:n;
        Fdata.zero d ~off:((p * ps) + n) ~len:(len - n);
        for page = p to e - 1 do
          insert page
        done
      end;
      go (max e (p + 1))
    end
  in
  go first

(* Copy [data.[pos .. pos + len - 1]], just written at [off] behind the
   cache's back, into the pages of it that are cached. *)
let patch_cached t ino ~off data ~pos ~len =
  let ps = Cost.page_size in
  if len > 0 then
    for page = off / ps to (off + len - 1) / ps do
      if Page_cache.mem t.pcache ~ino ~page then begin
        let s = max off (page * ps) and e = min (off + len) ((page + 1) * ps) in
        Fdata.write_sub (store t ino) ~off:s data ~pos:(pos + s - off) ~len:(e - s)
      end
    done

(* Fetch pages [first..last] of [ino] from the server via READ requests
   and install them in the cache.  With async_read the chunks are submitted
   [read_batch] at a time as one queued group — one round trip, and a
   multi-threaded server serves the members in parallel. *)
let fetch_pages t ctx ~server_fh ~ino ~first ~last =
  let ps = Cost.page_size in
  let pages_per_req = max 1 (t.opts.Opts.max_read / ps) in
  let rec chunks page acc =
    if page > last then List.rev acc
    else
      let chunk_pages = min pages_per_req (last - page + 1) in
      chunks (page + chunk_pages) ((page, chunk_pages) :: acc)
  in
  let chunks = chunks first [] in
  let group_size = if t.opts.Opts.async_read then max 1 t.opts.Opts.read_batch else 1 in
  let rec take n = function
    | x :: tl when n > 0 ->
        let hd, rest = take (n - 1) tl in
        (x :: hd, rest)
    | l -> ([], l)
  in
  let splice = t.opts.Opts.splice_read in
  let rec fetch_groups = function
    | [] -> Ok ()
    | pending ->
        let group, rest = take group_size pending in
        if t.opts.Opts.splice_write then begin
          Repro_obs.Metrics.add t.conn.Conn.m_ctx_switches (List.length group);
          Clock.consume_int t.clock
            (List.length group * Cost.context_switch_ns)
        end;
        let reqs =
          List.map
            (fun (page, chunk_pages) ->
              Protocol.Read { fh = server_fh; off = page * ps; len = chunk_pages * ps })
            group
        in
        let fresh =
          List.map
            (fun (page, chunk_pages) -> (page, uncached t ~ino ~first:page ~pages:chunk_pages))
            group
        in
        let resps = Conn.call_group t.conn ~splice ctx reqs in
        let* () =
          List.fold_left2
            (fun acc (page, fresh) resp ->
              let* () = acc in
              match Protocol.err_of_resp resp with
              | Ok (Protocol.R_data d) ->
                  install t ~ino ~first:page ~fresh d;
                  Ok ()
              | Ok _ -> Error Errno.EIO
              | Error e -> Error e)
            (Ok ()) fresh resps
        in
        fetch_groups rest
  in
  fetch_groups chunks

(* --- writeback ----------------------------------------------------------- *)

(* An inode holding this many dirty pages (16 MiB) flushes at once. *)
let writeback_limit_pages = 4096

(* FUSE's own dirty expiry, 10x the native one: holding dirty data this long
   is what absorbs rewrites (FIO/PGBench, §5.2.2). *)
let wb_flush_interval_ns = 5_000_000L

(* Install the flush callback: dirty runs become WRITE requests built from
   the stored page data.  Writeback happens under the kernel's credential,
   as in Linux. *)
let install_flush_hook t =
  Page_cache.set_on_flush t.pcache (fun ~ino ~page ~pages ->
      let ps = Cost.page_size in
      let size = size_of t ino in
      let server_fh =
        match Hashtbl.find_opt t.wb_fhs ino with
        | Some fh -> Some fh
        | None -> (
            (* Dirty data outliving its writable handle: open transiently. *)
            match rt t Protocol.root_ctx (Protocol.Open { ino; flags = [ Types.O_WRONLY ]; want_pt = false }) with
            | Ok (Protocol.R_open fh) ->
                Hashtbl.replace t.wb_fhs ino fh;
                Some fh
            | _ -> None)
      in
      match server_fh with
      | None -> ()
      | Some fh ->
          let chunk_pages = max 1 (t.opts.Opts.max_write / ps) in
          let rec send page remaining =
            if remaining > 0 then begin
              let n = min chunk_pages remaining in
              let off = page * ps in
              let len = min (n * ps) (max 0 (size - off)) in
              if len > 0 then begin
                let data = Fdata.read (store t ino) ~off ~len in
                ignore
                  (rt t ~splice:t.opts.Opts.splice_write Protocol.root_ctx
                     (Protocol.Write { fh; off; data }))
              end;
              send (page + n) (remaining - n)
            end
          in
          send page pages)

let flush_dirty t ino = Page_cache.flush_inode t.pcache ino

(* --- passthrough (the FUSE_PASSTHROUGH analogue) -------------------------- *)

let pt_incr t f = match t.pt with Some c -> Repro_obs.Metrics.incr (f c) | None -> ()

(* Revoke a handle's grant from the driver's side: the server is gone
   (crash) or unreachable, so the driver is the one flipping the flag and
   owns the revocation count.  A grant the server already flipped was
   counted at that flip. *)
let pt_revoke_local t h =
  match h.dh_grant with
  | None -> ()
  | Some g ->
      if g.Protocol.g_valid then begin
        g.Protocol.g_valid <- false;
        pt_incr t (fun c -> c.ptm_revocations)
      end;
      h.dh_grant <- None

(* The grant to use for this I/O, if any.  A server-revoked grant is
   dropped silently (counted at the flip); a dead connection revokes
   driver-side — the caller then falls back to the round-trip path, where
   the failure surfaces as ENOTCONN like any other request. *)
let pt_live t h =
  match h.dh_grant with
  | None -> None
  | Some g ->
      if not g.Protocol.g_valid then begin
        h.dh_grant <- None;
        None
      end
      else if t.conn.Conn.dead then begin
        pt_revoke_local t h;
        None
      end
      else Some g

(* --- construction --------------------------------------------------------- *)

let create ~conn ~opts ~budget =
  let clock = conn.Conn.clock in
  let metrics = Repro_obs.Obs.metrics (Conn.obs conn) in
  let t =
    {
      conn;
      opts;
      clock;
      fs_id = Clock.fresh_fs_id clock;
      pcache = Page_cache.create ~metrics ~name:"fuse" ~budget;
      pdata = Hashtbl.create 64;
      unlinked = Hashtbl.create 8;
      sizes = Hashtbl.create 64;
      entries = Hashtbl.create 256;
      attrs = Hashtbl.create 256;
      neg = Hashtbl.create 64;
      capneg = Hashtbl.create 64;
      nlookup = Hashtbl.create 256;
      handles = Hashtbl.create 32;
      wb_fhs = Hashtbl.create 16;
      next_fh = 1;
      forget_q = [];
      last_wb_flush_ns = 0L;
      sched = Conn.sched conn;
      dirlocks = Array.init dir_shard_count (fun _ -> Repro_sched.Sched.mutex ());
      m_dentry_hits = Repro_obs.Metrics.counter metrics "fuse.dentry.hits";
      m_dentry_misses = Repro_obs.Metrics.counter metrics "fuse.dentry.misses";
      m_neg_hits = Repro_obs.Metrics.counter metrics "fuse.dentry.negative_hits";
      m_rdp_entries = Repro_obs.Metrics.counter metrics "fuse.readdirplus.entries";
      m_xattr_neg_hits = Repro_obs.Metrics.counter metrics "fuse.xattr.negative_hits";
      pt =
        (if opts.Opts.passthrough > 0 then
           Some
             {
               ptm_grants = Repro_obs.Metrics.counter metrics "fuse.passthrough.grants";
               ptm_reads = Repro_obs.Metrics.counter metrics "fuse.passthrough.reads";
               ptm_writes = Repro_obs.Metrics.counter metrics "fuse.passthrough.writes";
               ptm_revocations =
                 Repro_obs.Metrics.counter metrics "fuse.passthrough.revocations";
             }
         else None);
    }
  in
  install_flush_hook t;
  t


(* --- Fsops implementation ------------------------------------------------- *)

let lookup t cred parent name =
  with_dirop t parent @@ fun () ->
  let* () = check_perm t cred parent Types.x_ok in
  match cached_entry t parent name with
  | Some ino ->
      Repro_obs.Metrics.incr t.m_dentry_hits;
      Clock.consume_int t.clock Cost.dentry_ns;
      let* st = getattr t ino in
      Ok (ino, st)
  | None ->
      if neg_valid t parent name then begin
        (* a cached ENOENT: answered like a dentry hit, no round trip *)
        Repro_obs.Metrics.incr t.m_neg_hits;
        Clock.consume_int t.clock Cost.dentry_ns;
        Error Errno.ENOENT
      end
      else begin
        Repro_obs.Metrics.incr t.m_dentry_misses;
        match rt t (ctx_of cred) (Protocol.Lookup { parent; name }) with
        | Ok (Protocol.R_entry (ino, st)) ->
            put_entry t parent name ino;
            drop_neg t parent name;
            let st = cache_attr t st in
            bump_nlookup t ino;
            Ok (ino, st)
        | Ok _ -> Error Errno.EIO
        | Error e ->
            if e = Errno.ENOENT then put_neg t parent name;
            Error e
      end

let driver_getattr t ino = getattr t ino

let setattr t cred ino sa =
  let* () =
    (* truncate/chmod/chown need ownership or write permission; the server
       itself runs privileged, so the driver must gate. *)
    match sa.Types.sa_size with
    | Some _ ->
        let* st = getattr t ino in
        if cred.Types.cap_dac_override || cred.Types.uid = st.Types.st_uid then Ok ()
        else check_perm t cred ino Types.w_ok
    | None -> Ok ()
  in
  let* () =
    match sa.Types.sa_mode with
    | Some _ ->
        let* st = getattr t ino in
        if cred.Types.cap_fowner || cred.Types.uid = st.Types.st_uid then Ok ()
        else Error Errno.EPERM
    | None -> Ok ()
  in
  (* chown gating and ATTR_KILL_SUID/SGID composition happen in the kernel
     (the server would apply them under its own privileged credential) *)
  let* sa =
    match (sa.Types.sa_uid, sa.Types.sa_gid) with
    | None, None -> Ok sa
    | uid_opt, gid_opt ->
        let* st = getattr t ino in
        let uid_change =
          match uid_opt with Some u when u <> st.Types.st_uid -> true | _ -> false
        in
        let allowed =
          cred.Types.cap_chown
          || ((not uid_change)
             && cred.Types.uid = st.Types.st_uid
             && match gid_opt with
                | None -> true
                | Some g -> g = st.Types.st_gid || g = cred.Types.gid || List.mem g cred.Types.groups)
        in
        if not allowed then Error Errno.EPERM
        else if
          (not cred.Types.cap_fsetid)
          && st.Types.st_kind = Types.Reg
          && st.Types.st_mode land (Types.s_isuid lor Types.s_isgid) <> 0
          && sa.Types.sa_mode = None
        then Ok { sa with Types.sa_mode = Some (st.Types.st_mode land 0o1777) }
        else Ok sa
  in
  let* resp = rt t (ctx_of cred) (Protocol.Setattr (ino, sa)) in
  match resp with
  | Protocol.R_attr st ->
      invalidate_attr t ino;
      (* a truncation sets the size outright *)
      Option.iter (Hashtbl.replace t.sizes ino) sa.Types.sa_size;
      let st = cache_attr t st in
      (* truncation invalidates cached pages beyond the new end *)
      if sa.Types.sa_size <> None then invalidate_pages t ino;
      Ok st
  | _ -> Error Errno.EIO

let readlink t ino =
  match rt t Protocol.root_ctx (Protocol.Readlink ino) with
  | Ok (Protocol.R_readlink s) -> Ok s
  | Ok _ -> Error Errno.EIO
  | Error e -> Error e

(* NFS-style post-op parent attributes: the driver is the backing tree's
   sole mutator, so after a name-changing operation it knows the parent's
   new attributes without asking — update the cached copy in place and the
   next permission check needs no GETATTR round trip.  Fast path only: with
   [attr_timeout_ns = 0] (the paper's configuration) the cached attr is
   dropped and re-fetched, exactly as before.  [dentries] is the change in
   the parent's entry count (a directory's size is [(entries + 2) * 32],
   see [Inode.size]; the aggressive differential property stats directories
   to keep this in sync), [dnlink] the change in its link count. *)
let touch_parent_attr t parent ~dentries ~dnlink =
  if t.opts.Opts.attr_timeout_ns <= 0 then invalidate_attr t parent
  else
    match Hashtbl.find_opt t.attrs parent with
    | None -> ()
    | Some (st, exp) ->
        let now = Clock.now_ns t.clock in
        Hashtbl.replace t.attrs parent
          ( { st with
              Types.st_size = st.Types.st_size + (32 * dentries);
              st_nlink = st.Types.st_nlink + dnlink;
              st_mtime = now;
              st_ctime = now;
            },
            exp )

let entry_req t cred req =
  let* resp = rt t (ctx_of cred) req in
  match resp with
  | Protocol.R_entry (ino, st) ->
      let st = cache_attr t st in
      bump_nlookup t ino;
      Ok st
  | _ -> Error Errno.EIO

let mknod t cred parent name ~kind ~mode =
  with_dirop t parent @@ fun () ->
  let* () = check_perm t cred parent (Types.w_ok lor Types.x_ok) in
  let* st = entry_req t cred (Protocol.Mknod { parent; name; kind; mode }) in
  put_entry t parent name st.Types.st_ino;
  drop_neg t parent name;
  touch_parent_attr t parent ~dentries:1 ~dnlink:0;
  Ok st

let mkdir t cred parent name ~mode =
  with_dirop t parent @@ fun () ->
  let* () = check_perm t cred parent (Types.w_ok lor Types.x_ok) in
  let* st = entry_req t cred (Protocol.Mkdir { parent; name; mode }) in
  put_entry t parent name st.Types.st_ino;
  drop_neg t parent name;
  touch_parent_attr t parent ~dentries:1 ~dnlink:1;
  Ok st

let symlink t cred parent name ~target =
  with_dirop t parent @@ fun () ->
  let* () = check_perm t cred parent (Types.w_ok lor Types.x_ok) in
  let* st = entry_req t cred (Protocol.Symlink { parent; name; target }) in
  put_entry t parent name st.Types.st_ino;
  drop_neg t parent name;
  touch_parent_attr t parent ~dentries:1 ~dnlink:0;
  Ok st

let child_ino t cred parent name =
  match cached_entry t parent name with
  | Some ino -> Ok ino
  | None ->
      let* ino, _ = lookup t cred parent name in
      Ok ino

let unlink t cred parent name =
  with_dirop t parent @@ fun () ->
  let* ino = child_ino t cred parent name in
  let* () = check_delete t cred parent ino in
  let* resp = rt t (ctx_of cred) (Protocol.Unlink { parent; name }) in
  match resp with
  | Protocol.R_ok ->
      drop_entry t parent name;
      (* the name is now known absent: a create-after-unlink (postmark's
         churn) need not pay a failed LOOKUP first *)
      put_neg t parent name;
      invalidate_attr t ino;
      touch_parent_attr t parent ~dentries:(-1) ~dnlink:0;
      (* dirty pages of a deleted file are dropped, never written *)
      drop_unlinked_pages t ino;
      if not (ino_referenced t ino) then queue_forget t ino;
      Ok ()
  | _ -> Error Errno.EIO

let rmdir t cred parent name =
  with_dirop t parent @@ fun () ->
  let* ino = child_ino t cred parent name in
  let* () = check_delete t cred parent ino in
  let* resp = rt t (ctx_of cred) (Protocol.Rmdir { parent; name }) in
  match resp with
  | Protocol.R_ok ->
      drop_entry t parent name;
      put_neg t parent name;
      invalidate_attr t ino;
      touch_parent_attr t parent ~dentries:(-1) ~dnlink:(-1);
      if not (ino_referenced t ino) then queue_forget t ino;
      Ok ()
  | _ -> Error Errno.EIO

let rename t cred src_parent src_name dst_parent dst_name =
  with_dirop2 t src_parent dst_parent @@ fun () ->
  let* src_ino = child_ino t cred src_parent src_name in
  let* () = check_delete t cred src_parent src_ino in
  let* () = check_perm t cred dst_parent (Types.w_ok lor Types.x_ok) in
  let* resp =
    rt t (ctx_of cred) (Protocol.Rename { src_parent; src_name; dst_parent; dst_name })
  in
  match resp with
  (* the server reports which inode (if any) the rename displaced; the
     dentry cache alone cannot — the target's entry may have expired while
     its attrs, cached under another hardlink's name, live on *)
  | Protocol.R_renamed replaced ->
      (* the displaced inode, from both vantage points: the server's path
         map may know it under another hardlink's name, while our dentry
         table (expired entries included) may remember who sat at dst.
         Invalidating a wrong guess is harmless; missing the right one
         leaves a stale nlink behind. *)
      let dentry_hint =
        match Hashtbl.find_opt t.entries (dst_parent, dst_name) with
        | Some (ino, _) -> Some ino
        | None -> None
      in
      drop_entry t src_parent src_name;
      drop_entry t dst_parent dst_name;
      put_neg t src_parent src_name;
      drop_neg t dst_parent dst_name;
      invalidate_attr t src_parent;
      invalidate_attr t dst_parent;
      (* ctime of the moved inode changes; nlink of the replaced one drops *)
      invalidate_attr t src_ino;
      let doom r_ino =
        if r_ino <> src_ino then begin
          invalidate_attr t r_ino;
          drop_unlinked_pages t r_ino;
          if not (ino_referenced t r_ino) then queue_forget t r_ino
        end
      in
      (match replaced with Some r -> doom r | None -> ());
      (match dentry_hint with
      | Some c when replaced <> Some c -> doom c
      | _ -> ());
      put_entry t dst_parent dst_name src_ino;
      Ok ()
  | _ -> Error Errno.EIO

let link t cred ~src ~dir ~name =
  with_dirop t dir @@ fun () ->
  let* () = check_perm t cred dir (Types.w_ok lor Types.x_ok) in
  let* st = entry_req t cred (Protocol.Link { src; parent = dir; name }) in
  put_entry t dir name st.Types.st_ino;
  drop_neg t dir name;
  touch_parent_attr t dir ~dentries:1 ~dnlink:0;
  invalidate_attr t src;
  Ok st

let alloc_handle t ~ino ~server_fh ~readable ~writable ~append ~sync =
  let fh = t.next_fh in
  t.next_fh <- fh + 1;
  Hashtbl.replace t.handles fh
    { dh_ino = ino; dh_server_fh = server_fh; dh_readable = readable; dh_writable = writable; dh_append = append; dh_sync = sync; dh_open = true; dh_grant = None };
  if writable then Hashtbl.replace t.wb_fhs ino server_fh;
  fh

let open_ t cred ino flags =
  (* mmap and direct I/O are mutually exclusive in FUSE; CNTR chose mmap
     (generic/391 fails through CntrFS). *)
  if List.mem Types.O_DIRECT flags then Error Errno.EINVAL
  else
    let want =
      (if Types.flag_readable flags then Types.r_ok else 0)
      lor if Types.flag_writable flags then Types.w_ok else 0
    in
    let* () = check_perm t cred ino want in
    let* resp =
      rt t (ctx_of cred)
        (Protocol.Open { ino; flags; want_pt = t.opts.Opts.passthrough > 0 })
    in
    let finish server_fh grant =
      (* Without FOPEN_KEEP_CACHE every open invalidates the inode's
         cached pages — the Figure 3(a) ablation. *)
      if not t.opts.Opts.keep_cache then begin
        flush_dirty t ino;
        invalidate_pages t ino
      end;
      if List.mem Types.O_TRUNC flags && Types.flag_writable flags then begin
        Hashtbl.replace t.sizes ino 0;
        invalidate_attr t ino;
        invalidate_pages t ino
      end;
      let fh =
        alloc_handle t ~ino ~server_fh ~readable:(Types.flag_readable flags)
          ~writable:(Types.flag_writable flags)
          ~append:(List.mem Types.O_APPEND flags)
          ~sync:(List.mem Types.O_SYNC flags)
      in
      (match grant with
      | Some g ->
          (* the grant coexists with the page cache: cached pages stay
             authoritative for the ranges they hold (unflushed dirty data
             only ever lives there), and the capability serves what the
             cache doesn't — misses fill from the backing file with no
             round trip, write-through writes land on it directly *)
          (match Hashtbl.find_opt t.handles fh with
          | Some h -> h.dh_grant <- Some g
          | None -> ());
          pt_incr t (fun c -> c.ptm_grants)
      | None -> ());
      Ok fh
    in
    match resp with
    | Protocol.R_open server_fh -> finish server_fh None
    | Protocol.R_open_pt (server_fh, g) -> finish server_fh (Some g)
    | _ -> Error Errno.EIO

let create_file t cred parent name ~mode flags =
  if List.mem Types.O_DIRECT flags then Error Errno.EINVAL
  else begin
  with_dirop t parent @@ fun () ->
  let* () = check_perm t cred parent (Types.w_ok lor Types.x_ok) in
  let* resp = rt t (ctx_of cred) (Protocol.Create { parent; name; mode; flags }) in
  match resp with
  | Protocol.R_create (ino, st, server_fh) ->
      put_entry t parent name ino;
      drop_neg t parent name;
      let st = cache_attr t st in
      bump_nlookup t ino;
      touch_parent_attr t parent ~dentries:1 ~dnlink:0;
      (* a file the driver itself just created cannot carry
         security.capability: seed the known-absent cache so the first
         write skips its GETXATTR round trip *)
      if t.opts.Opts.attr_timeout_ns > 0 then
        Hashtbl.replace t.capneg ino (expiry_of t t.opts.Opts.attr_timeout_ns);
      let fh =
        alloc_handle t ~ino ~server_fh ~readable:(Types.flag_readable flags)
          ~writable:(Types.flag_writable flags)
          ~append:(List.mem Types.O_APPEND flags)
          ~sync:(List.mem Types.O_SYNC flags)
      in
      Ok (st, fh)
  | _ -> Error Errno.EIO
  end

let handle t fh =
  match Hashtbl.find_opt t.handles fh with
  | Some h when h.dh_open -> Ok h
  | _ -> Error Errno.EBADF

(* Passthrough read, uncached mode (no FOPEN_KEEP_CACHE): straight into
   the backing VFS through the grant's capability — no FUSE request.  The
   backing file is authoritative, so any dirty pages another (ungranted)
   handle left behind flush first; the only driver-side cost is the copy
   out to userspace (the backing I/O itself is charged inside the grant,
   on the server's proc). *)
let pt_read t h g ~off ~len =
  let ino = h.dh_ino in
  if Page_cache.dirty_count t.pcache ino > 0 then flush_dirty t ino;
  if len <= 0 then Ok ""
  else
    match g.Protocol.g_read ~off ~len with
    | Ok data ->
        pt_incr t (fun c -> c.ptm_reads);
        Clock.consume_int t.clock (Cost.copy_cost (String.length data));
        Ok data
    | Error e -> Error e

(* Passthrough page fill: the grant reads the miss run straight out of the
   backing VFS and installs the pages — no FUSE round trip, no server
   worker wakeup.  The backing I/O is charged on the server's proc inside
   the grant; installing into the cache is one memcpy.  Pages already
   cached are never clobbered (they may hold dirty data newer than the
   backing copy — same rule as [fetch_pages]). *)
let pt_fetch_pages t g ~ino ~first ~last =
  let ps = Cost.page_size in
  let fresh = uncached t ~ino ~first ~pages:(last - first + 1) in
  match g.Protocol.g_read ~off:(first * ps) ~len:(Array.length fresh * ps) with
  | Error e -> Error e
  | Ok data ->
      pt_incr t (fun c -> c.ptm_reads);
      Clock.consume_int t.clock (Cost.mem_cost (String.length data));
      install t ~ino ~first ~fresh data;
      Ok ()

let read t fh ~off ~len =
  let* h = handle t fh in
  if not h.dh_readable then Error Errno.EBADF
  else begin
  let ino = h.dh_ino in
  let granted = pt_live t h in
  match granted with
  | Some g when not t.opts.Opts.keep_cache -> pt_read t h g ~off ~len
  | _ ->
  begin
  let* size =
    match Hashtbl.find_opt t.sizes ino with
    | Some s -> Ok s
    | None ->
        let* st = getattr t ino in
        Ok st.Types.st_size
  in
  if off >= size || len <= 0 then Ok ""
  else if not t.opts.Opts.keep_cache then begin
    (* without FOPEN_KEEP_CACHE the cache is invalidated at every open and
       cannot be shared: model as uncached — every read is a round trip *)
    let len = min len (size - off) in
    let chunk = min len t.opts.Opts.max_read in
    let buf = Buffer.create len in
    let rec fetch pos =
      if pos >= len then Ok ()
      else
        let* resp =
          rt t ~splice:t.opts.Opts.splice_read (ctx_of Types.root_cred)
            (Protocol.Read { fh = h.dh_server_fh; off = off + pos; len = min chunk (len - pos) })
        in
        match resp with
        | Protocol.R_data d ->
            Buffer.add_string buf d;
            if d = "" then Ok () else fetch (pos + String.length d)
        | _ -> Error Errno.EIO
    in
    let* () = fetch 0 in
    Clock.consume_int t.clock (Cost.copy_cost len);
    Ok (Buffer.contents buf)
  end
  else begin
    let len = min len (size - off) in
    let ps = Cost.page_size in
    let first = off / ps and last = (off + len - 1) / ps in
    let last_file_page = (size - 1) / ps in
    (* classify pages, fetch misses in contiguous runs; the kernel's
       readahead extends each miss run to a full window, so sequential
       4 KiB reads become 128 KiB FUSE requests *)
    let readahead_pages = t.opts.Opts.max_read / ps in
    let miss_run_start = ref (-1) in
    let result = ref (Ok ()) in
    let flush_run upto =
      if !miss_run_start >= 0 && !result = Ok () then begin
        let ra_end =
          if t.opts.Opts.async_read then
            min last_file_page (!miss_run_start + readahead_pages - 1)
          else upto
        in
        (result :=
           (* with a live grant the miss run fills from the backing file
              directly; otherwise it's READ round trips with readahead *)
           match granted with
           | Some g -> pt_fetch_pages t g ~ino ~first:!miss_run_start ~last:(max upto ra_end)
           | None ->
               fetch_pages t (ctx_of Types.root_cred) ~server_fh:h.dh_server_fh ~ino
                 ~first:!miss_run_start ~last:(max upto ra_end));
        miss_run_start := -1
      end
      else miss_run_start := -1
    in
    for page = first to last do
      if !result = Ok () then
        if Page_cache.mem t.pcache ~ino ~page then begin
          flush_run (page - 1);
          ignore (Page_cache.touch t.pcache ~ino ~page ~dirty:false);
          Clock.consume_int t.clock (Cost.mem_cost ps)
        end
        else if !miss_run_start < 0 then miss_run_start := page
    done;
    flush_run last;
    let* () = !result in
    (* copy out to userspace *)
    Clock.consume_int t.clock (Cost.copy_cost len);
    Ok (Fdata.read (store t ino) ~off ~len)
  end
  end
  end

let write t cred fh ~off data =
  let* h = handle t fh in
  if not h.dh_writable then Error Errno.EBADF
  else begin
    let ino = h.dh_ino in
    let len = String.length data in
    let off = if h.dh_append then size_of t ino else off in
    (* copy in from userspace *)
    Clock.consume_int t.clock (Cost.copy_cost len);
    let granted = pt_live t h in
    (* The kernel must check security.capability on every write; FUSE
       cannot cache the xattr, so each write() costs a GETXATTR round trip
       (the Apache/IOzone-write overhead of §5.2.2).  With the metadata
       fast path on, a known-absent capability is cached for the attr TTL
       (as the real kernel does with an inode flag), invalidated by any
       SETXATTR/REMOVEXATTR on the inode.  A live grant skips the probe
       entirely: the inode was vetted at open time and any xattr change
       on it revokes the grant server-side. *)
    (match granted with
    | Some _ -> ()
    | None -> (
        match Hashtbl.find_opt t.capneg ino with
        | Some exp when not (expired t exp) ->
            Repro_obs.Metrics.incr t.m_xattr_neg_hits
        | _ -> (
            Hashtbl.remove t.capneg ino;
            match rt t (ctx_of cred) (Protocol.Getxattr (ino, "security.capability")) with
            | Error e
              when t.opts.Opts.attr_timeout_ns > 0
                   && (e = Errno.ENODATA || e = Errno.ENOTSUP) ->
                Hashtbl.replace t.capneg ino (expiry_of t t.opts.Opts.attr_timeout_ns)
            | _ -> ())));
    (* file_remove_privs: the kernel strips setuid/setgid via SETATTR *)
    let* () =
      if cred.Types.cap_fsetid then Ok ()
      else
        let* st = getattr t ino in
        if st.Types.st_mode land (Types.s_isuid lor Types.s_isgid) = 0 then Ok ()
        else
          let sa = { Types.setattr_none with Types.sa_mode = Some (st.Types.st_mode land 0o1777) } in
          let* resp = rt t Protocol.root_ctx (Protocol.Setattr (ino, sa)) in
          match resp with
          | Protocol.R_attr st' ->
              invalidate_attr t ino;
              ignore (cache_attr t st');
              Ok ()
          | _ -> Error Errno.EIO
    in
    (* with the writeback cache the kernel owns size and mtime *)
    let update_local_attr ~new_size =
      (match Hashtbl.find_opt t.attrs ino with
      | Some (st, exp) ->
          Hashtbl.replace t.attrs ino
            ( { st with Types.st_size = max st.Types.st_size new_size; st_mtime = Clock.now_ns t.clock },
              exp )
      | None -> ());
      if new_size > size_of t ino then Hashtbl.replace t.sizes ino new_size
    in
    let writeback_mode = t.opts.Opts.writeback && not h.dh_sync in
    (* The grant replaces the synchronous write-through round trip only.
       In writeback mode dirty pages batch in the page cache and flush in
       the background — cheaper than any synchronous backing write — and
       routing some writes around the flusher would reorder them against
       pending dirty data, so writeback-mode writes stay on the cache.
       Re-check liveness: a remove-privs SETATTR above revokes the grant
       on the server (inode mutation), in which case this write rides the
       round-trip path like any other. *)
    match
      (match (writeback_mode, granted) with
      | false, Some _ -> pt_live t h
      | _ -> None)
    with
    | Some g -> (
        (* passthrough write: the payload goes straight to the backing
           file.  Dirty pages from an earlier ungranted writer flush
           first (the backing copy must not go backwards); cached clean
           pages are patched in place, as on the write-through path. *)
        if Page_cache.dirty_count t.pcache ino > 0 then flush_dirty t ino;
        match g.Protocol.g_write (ctx_of cred) ~off data with
        | Ok n ->
            pt_incr t (fun c -> c.ptm_writes);
            patch_cached t ino ~off data ~pos:0 ~len:n;
            update_local_attr ~new_size:(off + n);
            Ok n
        | Error e -> Error e)
    | None ->
    if writeback_mode then begin
      let ps = Cost.page_size in
      let size = size_of t ino in
      let first = off / ps and last = (off + len - 1) / ps in
      (* read-modify-write: boundary pages that partially overlap existing
         data must be fetched first *)
      let need_fetch page =
        (not (Page_cache.mem t.pcache ~ino ~page))
        && page * ps < size
        && ((page = first && off mod ps <> 0)
           || (page = last && (off + len) mod ps <> 0 && off + len < size))
      in
      let fetch page =
        fetch_pages t (ctx_of cred) ~server_fh:h.dh_server_fh ~ino ~first:page ~last:page
      in
      let* () = if need_fetch first then fetch first else Ok () in
      let* () = if last <> first && need_fetch last then fetch last else Ok () in
      (* modify page data and dirty the cache.  Inserting a page can evict
         an earlier one of this write, so the size grows before each page
         is cached (an evicted page is written back in full), and a
         boundary page found uncached here is fetched again.  If that
         fetch fails after earlier pages are stored, the write ends short
         at them. *)
      let rec put pos =
        if pos >= len then Ok len
        else begin
          let abs = off + pos in
          let page = abs / ps in
          let poff = abs mod ps in
          let n = min (ps - poff) (len - pos) in
          let ready =
            if Page_cache.mem t.pcache ~ino ~page then Ok ()
            else if need_fetch page then fetch page
            else begin
              (* a fresh page: zeros around the write *)
              let d = store t ino in
              Fdata.zero d ~off:(page * ps) ~len:poff;
              Fdata.zero d ~off:(abs + n) ~len:(ps - poff - n);
              Ok ()
            end
          in
          match ready with
          | Error _ when pos > 0 -> Ok pos
          | Error e -> Error e
          | Ok () ->
              if abs + n > size_of t ino then Hashtbl.replace t.sizes ino (abs + n);
              Fdata.write_sub (store t ino) ~off:abs data ~pos ~len:n;
              ignore (Page_cache.touch t.pcache ~ino ~page ~dirty:true);
              put (pos + n)
        end
      in
      let* written = put 0 in
      update_local_attr ~new_size:(off + written);
      if Page_cache.dirty_count t.pcache ino >= writeback_limit_pages then flush_dirty t ino
      else begin
        (* the dirty expiry flushes in the background *)
        let now = Clock.now_ns t.clock in
        if Int64.sub now t.last_wb_flush_ns > wb_flush_interval_ns then begin
          t.last_wb_flush_ns <- now;
          t.conn.Conn.background <- true;
          Page_cache.flush_all t.pcache;
          t.conn.Conn.background <- false
        end
      end;
      Ok written
    end
    else begin
      (* write-through: one WRITE request per max_write chunk *)
      let rec send pos =
        if pos >= len then Ok len
        else begin
          let n = min t.opts.Opts.max_write (len - pos) in
          let* resp =
            rt t ~splice:t.opts.Opts.splice_write (ctx_of cred)
              (Protocol.Write
                 { fh = h.dh_server_fh; off = off + pos; data = String.sub data pos n })
          in
          match resp with
          | Protocol.R_written _ ->
              (* keep cached pages coherent *)
              patch_cached t ino ~off:(off + pos) data ~pos ~len:n;
              update_local_attr ~new_size:(off + pos + n);
              send (pos + n)
          | _ -> Error Errno.EIO
        end
      in
      send 0
    end
  end

let flush t fh =
  let* h = handle t fh in
  flush_dirty t h.dh_ino;
  match rt t Protocol.root_ctx (Protocol.Flush h.dh_server_fh) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let release t fh =
  match Hashtbl.find_opt t.handles fh with
  | None -> ()
  | Some h ->
      if h.dh_open then begin
        h.dh_open <- false;
        (* a grant dies with its handle; the server drops its slot when
           the RELEASE lands (normal end of life, not a revocation) *)
        h.dh_grant <- None;
        Hashtbl.remove t.handles fh;
        if h.dh_writable then begin
          flush_dirty t h.dh_ino;
          (* another writable handle may still reference the ino *)
          let other =
            Hashtbl.fold
              (fun _ o acc ->
                if o.dh_open && o.dh_ino = h.dh_ino && o.dh_writable then Some o else acc)
              t.handles None
          in
          match other with
          | Some o ->
              (* later writeback must not go to the server fh released below *)
              if Hashtbl.find_opt t.wb_fhs h.dh_ino = Some h.dh_server_fh then
                Hashtbl.replace t.wb_fhs h.dh_ino o.dh_server_fh
          | None ->
              Hashtbl.remove t.wb_fhs h.dh_ino;
              (* the pages of an unlinked file are flushed: drop them *)
              if Hashtbl.mem t.unlinked h.dh_ino then begin
                Hashtbl.remove t.unlinked h.dh_ino;
                discard_pages t h.dh_ino
              end
        end;
        (* RELEASE is asynchronous in FUSE: a one-way background message *)
        Conn.post t.conn Protocol.root_ctx (Protocol.Release h.dh_server_fh)
      end

let fsync t fh =
  let* h = handle t fh in
  flush_dirty t h.dh_ino;
  match rt t Protocol.root_ctx (Protocol.Fsync h.dh_server_fh) with
  | Ok _ -> Ok ()
  | Error e -> Error e

let fallocate t fh ~off ~len =
  let* h = handle t fh in
  let* resp = rt t Protocol.root_ctx (Protocol.Fallocate { fh = h.dh_server_fh; off; len }) in
  match resp with
  | Protocol.R_ok ->
      if off + len > size_of t h.dh_ino then Hashtbl.replace t.sizes h.dh_ino (off + len);
      invalidate_attr t h.dh_ino;
      Ok ()
  | _ -> Error Errno.EIO

let readdir t cred ino =
  with_dirop t ino @@ fun () ->
  let* () = check_perm t cred ino Types.r_ok in
  if t.opts.Opts.readdirplus then
    (* READDIRPLUS: one batched round trip returns every entry *with* its
       attr, prefilling the dentry/attr caches so the per-entry LOOKUPs a
       directory walk would otherwise issue (§5.2.2's compilebench tax)
       never hit the wire. *)
    match rt t (ctx_of cred) (Protocol.Readdirplus ino) with
    | Ok (Protocol.R_direntplus l) ->
        List.iter
          (fun ((de : Types.dirent), st_opt, entry_valid, attr_valid) ->
            match st_opt with
            | Some st when de.Types.d_name <> "." && de.Types.d_name <> ".." ->
                Repro_obs.Metrics.incr t.m_rdp_entries;
                let child = st.Types.st_ino in
                put_entry t ino de.Types.d_name child
                  ~valid_ns:
                    (if entry_valid > 0 then entry_valid
                     else t.opts.Opts.entry_timeout_ns);
                drop_neg t ino de.Types.d_name;
                ignore
                  (cache_attr t st
                     ~valid_ns:
                       (if attr_valid > 0 then attr_valid
                        else t.opts.Opts.attr_timeout_ns));
                bump_nlookup t child
            | _ -> ())
          l;
        Ok (List.map (fun (de, _, _, _) -> de) l)
    | Ok _ -> Error Errno.EIO
    | Error e -> Error e
  else
    match rt t (ctx_of cred) (Protocol.Readdir ino) with
    | Ok (Protocol.R_dirents l) -> Ok l
    | Ok _ -> Error Errno.EIO
    | Error e -> Error e

(* default_permissions does not cover xattrs: the driver gates them the
   way the VFS does (trusted.* needs privilege; others need ownership). *)
let xattr_change_allowed t cred ino name =
  let* st = getattr t ino in
  let is_trusted = String.length name >= 7 && String.sub name 0 7 = "trusted" in
  if is_trusted then
    if cred.Types.cap_dac_override then Ok () else Error Errno.EPERM
  else if cred.Types.cap_dac_override || cred.Types.uid = st.Types.st_uid then Ok ()
  else Error Errno.EPERM

let setxattr t cred ino name value =
  let* () = xattr_change_allowed t cred ino name in
  Hashtbl.remove t.capneg ino;
  match rt t (ctx_of cred) (Protocol.Setxattr (ino, name, value)) with
  | Ok Protocol.R_ok -> Ok ()
  | Ok _ -> Error Errno.EIO
  | Error e -> Error e

let getxattr t ino name =
  match rt t Protocol.root_ctx (Protocol.Getxattr (ino, name)) with
  | Ok (Protocol.R_xattr v) -> Ok v
  | Ok _ -> Error Errno.EIO
  | Error e -> Error e

let listxattr t ino =
  match rt t Protocol.root_ctx (Protocol.Listxattr ino) with
  | Ok (Protocol.R_xattr_names l) -> Ok l
  | Ok _ -> Error Errno.EIO
  | Error e -> Error e

let removexattr t cred ino name =
  let* () = xattr_change_allowed t cred ino name in
  Hashtbl.remove t.capneg ino;
  match rt t (ctx_of cred) (Protocol.Removexattr (ino, name)) with
  | Ok Protocol.R_ok -> Ok ()
  | Ok _ -> Error Errno.EIO
  | Error e -> Error e

let statfs t () =
  match rt t Protocol.root_ctx Protocol.Statfs with
  | Ok (Protocol.R_statfs s) -> s
  | _ -> { Types.f_fsname = "cntrfs"; f_bsize = 4096; f_blocks = 0; f_bfree = 0; f_files = 0 }

(* --- supervised-session recovery --------------------------------------- *)

(* The driver's live inode map: (ino, path relative to the server root,
   nlookup) for every inode reachable through the dentry cache from the
   root (ino 1).  After a server crash this is what survives — the mount,
   the caches, the handles — and what a relaunched server must re-learn so
   the driver's ino space stays valid (Session.recover).  Depth-first,
   children in name order, so the replay is deterministic. *)
let ino_paths t =
  let children = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (parent, name) (ino, _expiry) ->
      Hashtbl.replace children parent
        ((name, ino) :: Option.value ~default:[] (Hashtbl.find_opt children parent)))
    t.entries;
  let acc = ref [] in
  let visited = Hashtbl.create 64 in
  let rec walk ino path =
    if not (Hashtbl.mem visited ino) then begin
      Hashtbl.replace visited ino ();
      if ino <> 1 then begin
        let n = Option.value ~default:1 (Hashtbl.find_opt t.nlookup ino) in
        acc := (ino, path, n) :: !acc
      end;
      match Hashtbl.find_opt children ino with
      | None -> ()
      | Some kids ->
          List.iter
            (fun (name, child) ->
              walk child (if path = "" then name else path ^ "/" ^ name))
            (List.sort compare kids)
    end
  in
  walk 1 "";
  List.rev !acc

(* The CntrFS server was relaunched (same mount, fresh process): its file
   handles died with the old process.  Reopen every open driver handle
   against the new server and rebuild the writeback fh map; handles whose
   inode did not survive (unlinked-but-open files) are marked dead and
   fail with EBADF from now on. *)
let on_server_restart t =
  Hashtbl.reset t.wb_fhs;
  (* live grants died with the old server's backing fds: revoke them all
     (driver-side — the crashed server never got to flip the flags) and
     reopen without asking for new ones, so post-recovery I/O is plain
     round trips; a fresh open may earn a grant again *)
  Hashtbl.iter (fun _ h -> pt_revoke_local t h) t.handles;
  let hs = Hashtbl.fold (fun fh h acc -> (fh, h) :: acc) t.handles [] in
  List.iter
    (fun (_, h) ->
      if h.dh_open then begin
        let flags =
          (if h.dh_readable && h.dh_writable then [ Types.O_RDWR ]
           else if h.dh_writable then [ Types.O_WRONLY ]
           else [ Types.O_RDONLY ])
          @ (if h.dh_append then [ Types.O_APPEND ] else [])
          @ if h.dh_sync then [ Types.O_SYNC ] else []
        in
        match rt t Protocol.root_ctx (Protocol.Open { ino = h.dh_ino; flags; want_pt = false }) with
        | Ok (Protocol.R_open server_fh) ->
            h.dh_server_fh <- server_fh;
            if h.dh_writable then Hashtbl.replace t.wb_fhs h.dh_ino server_fh
        | _ -> h.dh_open <- false
      end)
    (List.sort (fun (a, _) (b, _) -> compare a b) hs)

let ops t : Fsops.t = {
  fs_name = "cntrfs";
  fs_id = t.fs_id;
  root = 1;
  lookup = lookup t;
  forget = queue_forget t;
  getattr = driver_getattr t;
  setattr = setattr t;
  readlink = readlink t;
  mknod = mknod t;
  mkdir = mkdir t;
  unlink = unlink t;
  rmdir = rmdir t;
  symlink = symlink t;
  rename = rename t;
  link = link t;
  open_ = open_ t;
  create = create_file t;
  read = read t;
  write = write t;
  flush = flush t;
  release = release t;
  fsync = fsync t;
  fallocate = fallocate t;
  readdir = readdir t;
  setxattr = setxattr t;
  getxattr = getxattr t;
  listxattr = listxattr t;
  removexattr = removexattr t;
  statfs = statfs t;
  (* CntrFS inodes are not persistent, hence not exportable — generic/426. *)
  export_handle = (fun _ -> Error Errno.ENOTSUP);
  open_by_handle = (fun _ -> Error Errno.ENOTSUP);
  supports_mmap = (fun _ -> true);
  supports_direct_io = false;
}
