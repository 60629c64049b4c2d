(* Tests for the VFS substrate: sparse file data, the page cache, the
   native filesystem's POSIX semantics, permissions and ACLs. *)

open Repro_util
open Repro_vfs

let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let errno = Alcotest.testable Errno.pp ( = )

let check_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> Alcotest.check errno "errno" expected e

let ok = Errno.ok_exn

(* --- Fdata --------------------------------------------------------------- *)

let test_fdata_basic () =
  let d = Fdata.create () in
  check_i "empty" 0 (Fdata.size d);
  check_i "write" 5 (Fdata.write d ~off:0 "hello");
  check_s "read" "hello" (Fdata.read d ~off:0 ~len:100);
  check_s "partial" "ell" (Fdata.read d ~off:1 ~len:3);
  check_s "past eof" "" (Fdata.read d ~off:10 ~len:5)

let test_fdata_sparse () =
  let d = Fdata.create () in
  let far = 10 * 1024 * 1024 in
  ignore (Fdata.write d ~off:far "x");
  check_i "sparse size" (far + 1) (Fdata.size d);
  check_s "hole reads zero" (String.make 4 '\000') (Fdata.read d ~off:1000 ~len:4);
  check_b "allocation bounded" true (Fdata.allocated d < 2 * Fdata.chunk_size)

let test_fdata_truncate () =
  let d = Fdata.create () in
  ignore (Fdata.write d ~off:0 (String.make 100_000 'a'));
  Fdata.truncate d 10;
  check_i "shrunk" 10 (Fdata.size d);
  check_s "kept" (String.make 10 'a') (Fdata.read d ~off:0 ~len:10);
  Fdata.truncate d 20;
  check_s "regrown zeros" (String.make 10 'a' ^ String.make 10 '\000') (Fdata.read d ~off:0 ~len:20);
  (* Shrink then regrow across the old data region: must read zeros. *)
  ignore (Fdata.write d ~off:0 (String.make 200 'b'));
  Fdata.truncate d 50;
  Fdata.truncate d 200;
  check_s "zeros after regrow" (String.make 150 '\000') (Fdata.read d ~off:50 ~len:150)

let test_fdata_cross_chunk () =
  let d = Fdata.create () in
  let off = Fdata.chunk_size - 3 in
  ignore (Fdata.write d ~off "abcdef");
  check_s "crosses boundary" "abcdef" (Fdata.read d ~off ~len:6)

(* Random mutations and reads spanning up to eight chunks, compared
   against a flat-bytes reference model.  A store shares buffers both
   ways: a read of exactly a chunk's buffer returns it, a whole string
   written at a chunk's start becomes it, and every whole chunk of a
   padded write holds the process-wide pad of its fill byte.  So every
   string a read returned must still equal the model's bytes at the time
   of the read once the trace is done, and every string a write was given
   must still hold its bytes: a mutation through a shared buffer shows up
   there. *)
type fop =
  | F_write of int * int * int (* offset, length, salt *)
  | F_write_sub of int * int * int * int (* offset, source position, length, salt *)
  | F_write_padded of int * int * int * char (* offset, header length, length, fill *)
  | F_zero of int * int
  | F_truncate of int
  | F_read of int * int

let pp_fop = function
  | F_write (o, l, s) -> Printf.sprintf "write off=%d len=%d salt=%d" o l s
  | F_write_sub (o, p, l, s) -> Printf.sprintf "write_sub off=%d pos=%d len=%d salt=%d" o p l s
  | F_write_padded (o, h, l, c) ->
      Printf.sprintf "write_padded off=%d header=%d len=%d fill=%c" o h l c
  | F_zero (o, l) -> Printf.sprintf "zero off=%d len=%d" o l
  | F_truncate n -> Printf.sprintf "truncate %d" n
  | F_read (o, l) -> Printf.sprintf "read off=%d len=%d" o l

let pattern salt len = String.init len (fun i -> Char.chr (97 + ((i + salt) mod 26)))

let gen_fop =
  let cs = Fdata.chunk_size in
  let span = 4 * cs in
  QCheck.Gen.(
    let off = int_range 0 span in
    let len = frequency [ (3, int_range 1 200); (1, int_range 1 (cs + 5000)) ] in
    (* lengths a chunk's buffer often has: adopted strings and pages *)
    let short = frequency [ (2, int_range 1 200); (2, oneofl [ 4096; 4097; 8192; cs - 1; cs ]) ] in
    let salt = int_range 0 25 in
    let k = int_range 0 3 in
    frequency
      [
        (4, map3 (fun o l s -> F_write (o, l, s)) off len salt);
        (* writes that end a chunk *)
        (3, map3 (fun k l s -> F_write (((k + 1) * cs) - l, l, s)) k (int_range 1 cs) salt);
        (* whole strings at a chunk's start *)
        (3, map3 (fun k l s -> F_write (k * cs, l, s)) k short salt);
        (2, map3 (fun o (p, l) s -> F_write_sub (o, p, l, s)) off (pair (int_range 0 50) len) salt);
        ( 3,
          map3
            (fun o (h, pad) c -> F_write_padded (o, h, h + pad, c))
            (oneof [ off; map (fun k -> k * cs) k ])
            (pair (int_range 0 30) (int_range 0 ((3 * cs) + 7)))
            (oneofl [ 'D'; 'x'; 'q' ]) );
        (2, map2 (fun o l -> F_zero (o, l)) off len);
        (1, map (fun n -> F_truncate n) (int_range 0 (span + cs)));
        (3, map2 (fun o l -> F_read (o, l)) off len);
        (* whole-chunk reads, and reads of exactly a short buffer *)
        (4, map (fun k -> F_read (k * cs, cs)) k);
        (3, map2 (fun k l -> F_read (k * cs, l)) k short);
      ])

let prop_fdata_model =
  QCheck.Test.make ~name:"fdata matches flat model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_fop ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_fop))
    (fun ops ->
      let cs = Fdata.chunk_size in
      let d = Fdata.create () in
      let model = Bytes.make (8 * cs) '\000' in
      let size = ref 0 in
      let chunks = Hashtbl.create 8 in
      let reads = ref [] in
      (* each string a write was given, with a copy of its bytes *)
      let given = ref [] in
      let give s = given := (s, Bytes.to_string (Bytes.of_string s)) :: !given in
      let extend off len = size := max !size (off + len) in
      let written off len =
        for idx = off / cs to (off + len - 1) / cs do
          Hashtbl.replace chunks idx ()
        done
      in
      List.iter
        (function
          | F_write (off, len, salt) ->
              let data = pattern salt len in
              give data;
              ignore (Fdata.write d ~off data);
              Bytes.blit_string data 0 model off len;
              written off len;
              extend off len
          | F_write_sub (off, pos, len, salt) ->
              let src = pattern salt (pos + len + 7) in
              give src;
              Fdata.write_sub d ~off src ~pos ~len;
              Bytes.blit_string src pos model off len;
              written off len;
              extend off len
          | F_write_padded (off, hl, len, fill) ->
              let header = pattern hl hl in
              give header;
              Fdata.write_padded d ~off header ~len fill;
              Bytes.blit_string header 0 model off hl;
              Bytes.fill model (off + hl) (len - hl) fill;
              if len > 0 then written off len;
              extend off len
          | F_zero (off, len) ->
              Fdata.zero d ~off ~len;
              Bytes.fill model off len '\000';
              extend off len
          | F_truncate n ->
              Fdata.truncate d n;
              if n < !size then begin
                Bytes.fill model n (!size - n) '\000';
                Hashtbl.filter_map_inplace
                  (fun idx () -> if n = 0 || idx > (n - 1) / cs then None else Some ())
                  chunks
              end;
              size := n
          | F_read (off, len) ->
              let expected =
                if off >= !size then "" else Bytes.sub_string model off (min len (!size - off))
              in
              reads := (Fdata.read d ~off ~len, expected) :: !reads)
        ops;
      List.for_all (fun (got, expected) -> got = expected) !reads
      && List.for_all (fun (s, copy) -> s = copy) !given
      && Fdata.size d = !size
      && Fdata.read d ~off:0 ~len:!size = Bytes.sub_string model 0 !size
      && Fdata.allocated d = Hashtbl.length chunks * cs)

(* --- Page cache ---------------------------------------------------------- *)

let mk_cache ?(limit = 16 * 4096) () =
  let budget = Mem_budget.create ~limit_bytes:limit in
  (Page_cache.create ~metrics:(Repro_obs.Metrics.create ()) ~name:"test" ~budget, budget)

let test_cache_hit_miss () =
  let metrics = Repro_obs.Metrics.create () in
  let c =
    Page_cache.create ~metrics ~name:"test" ~budget:(Mem_budget.create ~limit_bytes:(16 * 4096))
  in
  check_b "first is miss" true (Page_cache.touch c ~ino:1 ~page:0 ~dirty:false = `Miss);
  check_b "second is hit" true (Page_cache.touch c ~ino:1 ~page:0 ~dirty:false = `Hit);
  check_i "hits" 1 (Repro_obs.Metrics.counter_value metrics "vfs.page_cache.test.hits");
  check_i "misses" 1 (Repro_obs.Metrics.counter_value metrics "vfs.page_cache.test.misses")

let test_cache_eviction_lru () =
  let c, budget = mk_cache ~limit:(4 * 4096) () in
  for p = 0 to 3 do
    ignore (Page_cache.touch c ~ino:1 ~page:p ~dirty:false)
  done;
  (* touch page 0 to make it most recent, then insert page 4: page 1 is LRU *)
  ignore (Page_cache.touch c ~ino:1 ~page:0 ~dirty:false);
  ignore (Page_cache.touch c ~ino:1 ~page:4 ~dirty:false);
  check_b "page 0 kept" true (Page_cache.mem c ~ino:1 ~page:0);
  check_b "page 1 evicted" false (Page_cache.mem c ~ino:1 ~page:1);
  check_b "budget respected" true (Mem_budget.used budget <= 4 * 4096)

let test_cache_flush_runs () =
  let c, _ = mk_cache () in
  let flushes = ref [] in
  Page_cache.set_on_flush c (fun ~ino:_ ~page ~pages -> flushes := (page, pages) :: !flushes);
  List.iter (fun p -> ignore (Page_cache.touch c ~ino:1 ~page:p ~dirty:true)) [ 0; 1; 2; 5; 6; 9 ];
  Page_cache.flush_inode c 1;
  let runs = List.sort compare !flushes in
  Alcotest.(check (list (pair int int))) "contiguous runs" [ (0, 3); (5, 2); (9, 1) ] runs;
  check_i "no dirty left" 0 (Page_cache.dirty_count c 1)

let test_cache_discard_drops_dirty () =
  let c, _ = mk_cache () in
  let flushed = ref 0 in
  Page_cache.set_on_flush c (fun ~ino:_ ~page:_ ~pages -> flushed := !flushed + pages);
  ignore (Page_cache.touch c ~ino:7 ~page:0 ~dirty:true);
  ignore (Page_cache.touch c ~ino:7 ~page:1 ~dirty:true);
  Page_cache.discard_inode c 7;
  check_i "nothing flushed" 0 !flushed;
  check_b "pages gone" false (Page_cache.mem c ~ino:7 ~page:0)

let test_cache_dirty_eviction_writes_back () =
  let c, _ = mk_cache ~limit:(2 * 4096) () in
  let flushed = ref 0 in
  Page_cache.set_on_flush c (fun ~ino:_ ~page:_ ~pages -> flushed := !flushed + pages);
  for p = 0 to 5 do
    ignore (Page_cache.touch c ~ino:1 ~page:p ~dirty:true)
  done;
  check_b "dirty evictions flushed" true (!flushed >= 4)

(* Read-after-write coherence under random traffic: every dirty page is
   either still cached or was flushed exactly once. *)
let prop_cache_flush_accounting =
  QCheck.Test.make ~name:"dirty pages flushed exactly once" ~count:50
    QCheck.(small_list (pair (int_range 0 30) bool))
    (fun ops ->
      let c, _ = mk_cache ~limit:(8 * 4096) () in
      let flushed = Hashtbl.create 16 in
      Page_cache.set_on_flush c (fun ~ino:_ ~page ~pages ->
          for p = page to page + pages - 1 do
            Hashtbl.replace flushed p (1 + Option.value ~default:0 (Hashtbl.find_opt flushed p))
          done);
      let dirtied = Hashtbl.create 16 in
      List.iter
        (fun (page, dirty) ->
          ignore (Page_cache.touch c ~ino:1 ~page ~dirty);
          if dirty then Hashtbl.replace dirtied page ())
        ops;
      Page_cache.flush_inode c 1;
      (* No page is flushed more times than it was dirtied (bounded by ops
         count), and nothing remains dirty. *)
      Page_cache.dirty_count c 1 = 0)

(* --- Nativefs ------------------------------------------------------------ *)

let mkfs () =
  let clock = Clock.create () in
  let fs = Nativefs.create ~clock Store.Ram () in
  let ops = Nativefs.ops fs in
  (* world-writable root so unprivileged fixtures can create files *)
  ignore
    (Errno.ok_exn
       (ops.Fsops.setattr Types.root_cred ops.Fsops.root
          { Types.setattr_none with Types.sa_mode = Some 0o777 }));
  ops

let root_cred = Types.root_cred
let alice = Types.user_cred ~uid:1000 ~gid:1000
let bob = Types.user_cred ~uid:1001 ~gid:1001

let test_fs_create_read_write () =
  let ops = mkfs () in
  let st, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  check_i "new file empty" 0 st.Types.st_size;
  check_i "write" 5 (ok (ops.Fsops.write root_cred fh ~off:0 "hello"));
  check_s "read back" "hello" (ok (ops.Fsops.read fh ~off:0 ~len:10));
  ops.Fsops.release fh;
  check_err Errno.EBADF (ops.Fsops.read fh ~off:0 ~len:1)

let test_fs_lookup_and_dirs () =
  let ops = mkfs () in
  let st = ok (ops.Fsops.mkdir root_cred ops.Fsops.root "d" ~mode:0o755) in
  let ino, _ = ok (ops.Fsops.lookup root_cred ops.Fsops.root "d") in
  check_i "lookup finds" st.Types.st_ino ino;
  check_err Errno.ENOENT (ops.Fsops.lookup root_cred ops.Fsops.root "missing");
  check_err Errno.EEXIST (ops.Fsops.mkdir root_cred ops.Fsops.root "d" ~mode:0o755);
  (* ".." of a subdir is the parent *)
  let up, _ = ok (ops.Fsops.lookup root_cred ino "..") in
  check_i "dotdot" ops.Fsops.root up;
  let entries = ok (ops.Fsops.readdir root_cred ops.Fsops.root) in
  check_b "readdir has . .. d" true
    (List.map (fun e -> e.Types.d_name) entries = [ "."; ".."; "d" ])

let test_fs_nlink_accounting () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  let st0 = ok (ops.Fsops.getattr root) in
  check_i "root nlink 2" 2 st0.Types.st_nlink;
  ignore (ok (ops.Fsops.mkdir root_cred root "a" ~mode:0o755));
  let st1 = ok (ops.Fsops.getattr root) in
  check_i "after mkdir" 3 st1.Types.st_nlink;
  let fst_, fh = ok (ops.Fsops.create root_cred root "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  ignore (ok (ops.Fsops.link root_cred ~src:fst_.Types.st_ino ~dir:root ~name:"f2"));
  let stf = ok (ops.Fsops.getattr fst_.Types.st_ino) in
  check_i "hardlink nlink" 2 stf.Types.st_nlink;
  ok (ops.Fsops.unlink root_cred root "f");
  let stf = ok (ops.Fsops.getattr fst_.Types.st_ino) in
  check_i "after unlink" 1 stf.Types.st_nlink;
  (* data reachable through second link *)
  let _, st2 = ok (ops.Fsops.lookup root_cred root "f2") in
  check_i "same inode" fst_.Types.st_ino st2.Types.st_ino;
  ok (ops.Fsops.unlink root_cred root "f2");
  check_err Errno.ENOENT (ops.Fsops.getattr fst_.Types.st_ino)

let test_fs_unlinked_open_file_survives () =
  let ops = mkfs () in
  let _, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "tmp" ~mode:0o600 [ Types.O_RDWR ]) in
  check_i "write" 3 (ok (ops.Fsops.write root_cred fh ~off:0 "abc"));
  ok (ops.Fsops.unlink root_cred ops.Fsops.root "tmp");
  (* Orphan: still readable through the open handle. *)
  check_s "still readable" "abc" (ok (ops.Fsops.read fh ~off:0 ~len:3));
  ops.Fsops.release fh

let test_fs_rename_semantics () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  ignore (ok (ops.Fsops.mkdir root_cred root "d1" ~mode:0o755));
  ignore (ok (ops.Fsops.mkdir root_cred root "d2" ~mode:0o755));
  let d1, _ = ok (ops.Fsops.lookup root_cred root "d1") in
  let d2, _ = ok (ops.Fsops.lookup root_cred root "d2") in
  let _, fh = ok (ops.Fsops.create root_cred d1 "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  ok (ops.Fsops.rename root_cred d1 "f" d2 "g");
  check_err Errno.ENOENT (ops.Fsops.lookup root_cred d1 "f");
  let _ = ok (ops.Fsops.lookup root_cred d2 "g") in
  (* move dir into its own subtree is EINVAL *)
  ignore (ok (ops.Fsops.mkdir root_cred d1 "sub" ~mode:0o755));
  check_err Errno.EINVAL (ops.Fsops.rename root_cred root "d1" d1 "oops");
  let sub, _ = ok (ops.Fsops.lookup root_cred d1 "sub") in
  check_err Errno.EINVAL (ops.Fsops.rename root_cred root "d1" sub "oops");
  (* replacing a non-empty dir fails *)
  ignore (ok (ops.Fsops.mkdir root_cred d2 "sub2" ~mode:0o755));
  check_err Errno.ENOTEMPTY (ops.Fsops.rename root_cred d1 "sub" root "d2");
  (* file over file replaces *)
  let _, fh = ok (ops.Fsops.create root_cred root "x" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  let _, fh = ok (ops.Fsops.create root_cred root "y" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  ok (ops.Fsops.rename root_cred root "x" root "y");
  check_err Errno.ENOENT (ops.Fsops.lookup root_cred root "x");
  (* dir nlink updated when dir moves across parents *)
  ok (ops.Fsops.rename root_cred d1 "sub" root "sub");
  let st1 = ok (ops.Fsops.getattr d1) in
  check_i "d1 lost subdir" 2 st1.Types.st_nlink

let test_fs_permissions () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  ignore (ok (ops.Fsops.mkdir root_cred root "priv" ~mode:0o700));
  let priv, _ = ok (ops.Fsops.lookup root_cred root "priv") in
  (* alice cannot look inside root-owned 0700 dir *)
  check_err Errno.EACCES (ops.Fsops.lookup alice priv "anything");
  check_err Errno.EACCES (ops.Fsops.create alice priv "f" ~mode:0o644 [ Types.O_WRONLY ]);
  (* a 0644 root file is readable but not writable by alice *)
  let st, fh = ok (ops.Fsops.create root_cred root "pub" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  let _ = ok (ops.Fsops.open_ alice st.Types.st_ino [ Types.O_RDONLY ]) in
  check_err Errno.EACCES (ops.Fsops.open_ alice st.Types.st_ino [ Types.O_WRONLY ]);
  (* chmod by non-owner fails *)
  check_err Errno.EPERM
    (ops.Fsops.setattr alice st.Types.st_ino { Types.setattr_none with Types.sa_mode = Some 0o777 })

let test_fs_sticky_bit () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  ignore (ok (ops.Fsops.mkdir root_cred root "tmp" ~mode:0o1777));
  let tmp, _ = ok (ops.Fsops.lookup root_cred root "tmp") in
  let _, fh = ok (ops.Fsops.create alice tmp "af" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  (* bob cannot delete alice's file from a sticky dir *)
  check_err Errno.EPERM (ops.Fsops.unlink bob tmp "af");
  (* alice can *)
  ok (ops.Fsops.unlink alice tmp "af")

let test_fs_setgid_inheritance () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  ignore (ok (ops.Fsops.mkdir root_cred root "shared" ~mode:0o2775));
  let d, _ = ok (ops.Fsops.lookup root_cred root "shared") in
  (ok (ops.Fsops.setattr root_cred d { Types.setattr_none with Types.sa_gid = Some 500 })
  |> fun (_ : Types.stat) -> ());
  let st, fh = ok (ops.Fsops.create root_cred d "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  check_i "file inherits gid" 500 st.Types.st_gid;
  let std = ok (ops.Fsops.mkdir root_cred d "sub" ~mode:0o755) in
  check_b "subdir inherits setgid" true (std.Types.st_mode land Types.s_isgid <> 0);
  check_i "subdir inherits gid" 500 std.Types.st_gid

let test_fs_chmod_clears_setgid () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  (* file owned by alice, group 2000 (alice is NOT in 2000) *)
  let st, fh = ok (ops.Fsops.create alice root "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  ignore (ok (ops.Fsops.setattr root_cred st.Types.st_ino { Types.setattr_none with Types.sa_gid = Some 2000 }));
  (* alice chmods with setgid: bit must be silently cleared *)
  let st' = ok (ops.Fsops.setattr alice st.Types.st_ino { Types.setattr_none with Types.sa_mode = Some 0o2755 }) in
  check_b "setgid cleared" true (st'.Types.st_mode land Types.s_isgid = 0);
  (* root (CAP_FSETID) keeps it *)
  let st'' = ok (ops.Fsops.setattr root_cred st.Types.st_ino { Types.setattr_none with Types.sa_mode = Some 0o2755 }) in
  check_b "root keeps setgid" true (st''.Types.st_mode land Types.s_isgid <> 0)

let test_fs_write_clears_suid () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  let st, fh = ok (ops.Fsops.create alice root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  ignore (ok (ops.Fsops.setattr alice st.Types.st_ino { Types.setattr_none with Types.sa_mode = Some 0o4755 }));
  ignore (ok (ops.Fsops.write alice fh ~off:0 "data"));
  ops.Fsops.release fh;
  let st' = ok (ops.Fsops.getattr st.Types.st_ino) in
  check_b "suid stripped by write" true (st'.Types.st_mode land Types.s_isuid = 0)

let test_fs_rlimit_fsize () =
  let ops = mkfs () in
  let limited = { alice with Types.rlimit_fsize = Some 10 } in
  let _, fh = ok (ops.Fsops.create limited ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  check_i "within limit" 5 (ok (ops.Fsops.write limited fh ~off:0 "aaaaa"));
  check_err Errno.EFBIG (ops.Fsops.write limited fh ~off:8 "bbbbb");
  (* the same write without the limit (e.g. replayed by a FUSE server as
     root) succeeds — the CntrFS xfstests #228 failure mode *)
  check_i "server-side replay ignores limit" 5 (ok (ops.Fsops.write root_cred fh ~off:8 "bbbbb"));
  ops.Fsops.release fh

let test_fs_xattr () =
  let ops = mkfs () in
  let st, fh = ok (ops.Fsops.create alice ops.Fsops.root "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  let ino = st.Types.st_ino in
  ok (ops.Fsops.setxattr alice ino "user.comment" "hi");
  check_s "getxattr" "hi" (ok (ops.Fsops.getxattr ino "user.comment"));
  check_err Errno.ENODATA (ops.Fsops.getxattr ino "user.missing");
  Alcotest.(check (list string)) "list" [ "user.comment" ] (ok (ops.Fsops.listxattr ino));
  (* bob (not owner) cannot set, nor set trusted.* *)
  check_err Errno.EPERM (ops.Fsops.setxattr bob ino "user.evil" "x");
  check_err Errno.EPERM (ops.Fsops.setxattr alice ino "trusted.overlay" "x");
  ok (ops.Fsops.removexattr alice ino "user.comment");
  check_err Errno.ENODATA (ops.Fsops.removexattr alice ino "user.comment")

let test_fs_symlink () =
  let ops = mkfs () in
  let root = ops.Fsops.root in
  let st = ok (ops.Fsops.symlink root_cred root "lnk" ~target:"/some/where") in
  check_s "readlink" "/some/where" (ok (ops.Fsops.readlink st.Types.st_ino));
  check_b "kind" true (st.Types.st_kind = Types.Symlink);
  check_i "size is target length" (String.length "/some/where") st.Types.st_size;
  check_err Errno.EINVAL (ops.Fsops.readlink root)

let test_fs_truncate_and_fallocate () =
  let ops = mkfs () in
  let _, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  ignore (ok (ops.Fsops.write root_cred fh ~off:0 "hello world"));
  ok (ops.Fsops.fallocate fh ~off:0 ~len:100);
  let st = ok (ops.Fsops.getattr (ok (ops.Fsops.lookup root_cred ops.Fsops.root "f") |> fst)) in
  check_i "fallocate extended" 100 st.Types.st_size;
  ops.Fsops.release fh

let test_fs_acl_check () =
  let ops = mkfs () in
  let st, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o600 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  let ino = st.Types.st_ino in
  (* mode 0600 root-owned: alice denied *)
  check_err Errno.EACCES (ops.Fsops.open_ alice ino [ Types.O_RDONLY ]);
  (* grant alice read via ACL *)
  ok (ops.Fsops.setxattr root_cred ino "system.posix_acl_access" "u::rw-,u:1000:r--,g::---,m::r--,o::---");
  let fh = ok (ops.Fsops.open_ alice ino [ Types.O_RDONLY ]) in
  ops.Fsops.release fh;
  (* mask can revoke it *)
  ok (ops.Fsops.setxattr root_cred ino "system.posix_acl_access" "u::rw-,u:1000:r--,g::---,m::---,o::---");
  check_err Errno.EACCES (ops.Fsops.open_ alice ino [ Types.O_RDONLY ])

let test_fs_handles_exportable () =
  let ops = mkfs () in
  let st, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_WRONLY ]) in
  ops.Fsops.release fh;
  let h = ok (ops.Fsops.export_handle st.Types.st_ino) in
  check_i "open_by_handle round trip" st.Types.st_ino (ok (ops.Fsops.open_by_handle h));
  check_b "mmap supported" true (ops.Fsops.supports_mmap 0);
  check_b "direct io supported" true ops.Fsops.supports_direct_io

let test_fs_readonly () =
  let clock = Clock.create () in
  let fs = Nativefs.create ~name:"ro" ~readonly:true ~clock Store.Ram () in
  let ops = Nativefs.ops fs in
  check_err Errno.EROFS (ops.Fsops.mkdir root_cred ops.Fsops.root "d" ~mode:0o755);
  check_err Errno.EROFS (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_WRONLY ])

(* --- disk-backed costs --------------------------------------------------- *)

(* The store counts its device I/O on [metrics]. *)
let mk_ssd_fs ?metrics ?(limit = 64 * 4096) ?(flush_pages = 16) () =
  let clock = Clock.create () in
  let budget = Mem_budget.create ~limit_bytes:limit in
  let cache = Page_cache.create ~metrics:(Repro_obs.Metrics.create ()) ~name:"ext4" ~budget in
  let fs =
    Nativefs.create ?metrics ~name:"ext4" ~clock
      (Store.Ssd { cache; flush_pages })
      ()
  in
  (Nativefs.ops fs, fs, clock, cache)

let test_ssd_costs_cached_reread_cheaper () =
  let ops, _fs, clock, _ = mk_ssd_fs () in
  let _, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  let data = String.make (16 * 4096) 'x' in
  ignore (ok (ops.Fsops.write root_cred fh ~off:0 data));
  (* Drop cache to force a cold read. *)
  Store.invalidate (Nativefs.store _fs) ~ino:(ok (ops.Fsops.lookup root_cred ops.Fsops.root "f") |> fst);
  let t0 = Repro_util.Clock.now_ns clock in
  ignore (ok (ops.Fsops.read fh ~off:0 ~len:(16 * 4096)));
  let cold = Int64.sub (Repro_util.Clock.now_ns clock) t0 in
  let t1 = Repro_util.Clock.now_ns clock in
  ignore (ok (ops.Fsops.read fh ~off:0 ~len:(16 * 4096)));
  let warm = Int64.sub (Repro_util.Clock.now_ns clock) t1 in
  check_b "cold read slower than warm" true (Int64.to_int cold > 3 * Int64.to_int warm);
  ops.Fsops.release fh

let test_ssd_delete_before_flush_avoids_io () =
  let metrics = Repro_obs.Metrics.create () in
  let ops, _, _, _ = mk_ssd_fs ~metrics ~flush_pages:1000 () in
  let _, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  ignore (ok (ops.Fsops.write root_cred fh ~off:0 (String.make 8192 'x')));
  ops.Fsops.release fh;
  ok (ops.Fsops.unlink root_cred ops.Fsops.root "f");
  check_i "no disk writes for deleted dirty file" 0
    (Repro_obs.Metrics.counter_value metrics "vfs.disk.write_ios")

let test_ssd_fsync_forces_io () =
  let metrics = Repro_obs.Metrics.create () in
  let ops, _, _, _ = mk_ssd_fs ~metrics ~flush_pages:1000 () in
  let _, fh = ok (ops.Fsops.create root_cred ops.Fsops.root "f" ~mode:0o644 [ Types.O_RDWR ]) in
  ignore (ok (ops.Fsops.write root_cred fh ~off:0 (String.make 8192 'x')));
  ok (ops.Fsops.fsync fh);
  check_b "fsync wrote" true (Repro_obs.Metrics.counter_value metrics "vfs.disk.write_ios" > 0);
  ops.Fsops.release fh

(* --- Perm / ACL parsing --------------------------------------------------- *)

let test_acl_parse_roundtrip () =
  let text = "u::rwx,u:1000:r-x,g::r--,m::rwx,o::---" in
  match Perm.parse text with
  | None -> Alcotest.fail "parse failed"
  | Some entries -> check_s "roundtrip" text (Perm.serialize entries)

let test_acl_reject_malformed () =
  check_b "bad perm" true (Perm.parse "u::rwz" = None);
  check_b "empty" true (Perm.parse "" = None);
  check_b "garbage" true (Perm.parse "hello" = None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "vfs"
    [
      ( "fdata",
        [
          Alcotest.test_case "basic" `Quick test_fdata_basic;
          Alcotest.test_case "sparse" `Quick test_fdata_sparse;
          Alcotest.test_case "truncate" `Quick test_fdata_truncate;
          Alcotest.test_case "cross chunk" `Quick test_fdata_cross_chunk;
        ] );
      qsuite "fdata-props" [ prop_fdata_model ];
      ( "page-cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction_lru;
          Alcotest.test_case "flush runs" `Quick test_cache_flush_runs;
          Alcotest.test_case "discard drops dirty" `Quick test_cache_discard_drops_dirty;
          Alcotest.test_case "dirty eviction writes back" `Quick test_cache_dirty_eviction_writes_back;
        ] );
      qsuite "cache-props" [ prop_cache_flush_accounting ];
      ( "nativefs",
        [
          Alcotest.test_case "create/read/write" `Quick test_fs_create_read_write;
          Alcotest.test_case "lookup & dirs" `Quick test_fs_lookup_and_dirs;
          Alcotest.test_case "nlink accounting" `Quick test_fs_nlink_accounting;
          Alcotest.test_case "unlinked open file" `Quick test_fs_unlinked_open_file_survives;
          Alcotest.test_case "rename semantics" `Quick test_fs_rename_semantics;
          Alcotest.test_case "permissions" `Quick test_fs_permissions;
          Alcotest.test_case "sticky bit" `Quick test_fs_sticky_bit;
          Alcotest.test_case "setgid inheritance" `Quick test_fs_setgid_inheritance;
          Alcotest.test_case "chmod clears setgid" `Quick test_fs_chmod_clears_setgid;
          Alcotest.test_case "write clears suid" `Quick test_fs_write_clears_suid;
          Alcotest.test_case "rlimit fsize" `Quick test_fs_rlimit_fsize;
          Alcotest.test_case "xattr" `Quick test_fs_xattr;
          Alcotest.test_case "symlink" `Quick test_fs_symlink;
          Alcotest.test_case "truncate/fallocate" `Quick test_fs_truncate_and_fallocate;
          Alcotest.test_case "acl check" `Quick test_fs_acl_check;
          Alcotest.test_case "exportable handles" `Quick test_fs_handles_exportable;
          Alcotest.test_case "readonly" `Quick test_fs_readonly;
        ] );
      ( "ssd-costs",
        [
          Alcotest.test_case "cached reread cheaper" `Quick test_ssd_costs_cached_reread_cheaper;
          Alcotest.test_case "delete before flush" `Quick test_ssd_delete_before_flush_avoids_io;
          Alcotest.test_case "fsync forces io" `Quick test_ssd_fsync_forces_io;
        ] );
      ( "acl",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_acl_parse_roundtrip;
          Alcotest.test_case "reject malformed" `Quick test_acl_reject_malformed;
        ] );
    ]
