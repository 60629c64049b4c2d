(* Sparse file contents, stored as fixed-size chunks so that large sparse
   files only pay for the regions actually touched.

   A chunk's buffer starts at the length its first write needs, rounded up
   to a 4 KiB page, and at least doubles (up to the chunk size) when a later
   write reaches past it; bytes past the buffer read as zeros.  A read of
   one whole, fully allocated chunk returns the chunk's buffer itself and
   marks the chunk lent: the next mutation of a lent chunk copies it first,
   so a string once returned never changes. *)

let chunk_bits = 16 (* 64 KiB chunks *)
let chunk_size = 1 lsl chunk_bits

type chunk = { mutable bytes : Bytes.t; mutable lent : bool }

type t = {
  chunks : (int, chunk) Hashtbl.t;
  mutable size : int;
}

let create () = { chunks = Hashtbl.create 8; size = 0 }

let size t = t.size

let chunk_of_offset off = off lsr chunk_bits
let offset_in_chunk off = off land (chunk_size - 1)
let round_to_page n =
  let ps = Repro_util.Cost.page_size in
  (n + ps - 1) land lnot (ps - 1)

(* [c]'s buffer, copied first if a read lent it out. *)
let own c =
  if c.lent then begin
    c.bytes <- Bytes.copy c.bytes;
    c.lent <- false
  end;
  c.bytes

(* A private buffer for chunk [idx] holding at least its first [need]
   bytes. *)
let writable t idx ~need =
  match Hashtbl.find_opt t.chunks idx with
  | None ->
      let bytes = Bytes.make (round_to_page need) '\000' in
      Hashtbl.replace t.chunks idx { bytes; lent = false };
      bytes
  | Some c ->
      let have = Bytes.length c.bytes in
      if need <= have then own c
      else begin
        let cap = min chunk_size (max (round_to_page need) (2 * have)) in
        let bytes = Bytes.extend c.bytes 0 (cap - have) in
        Bytes.fill bytes have (cap - have) '\000';
        c.bytes <- bytes;
        c.lent <- false;
        bytes
      end

(* Apply [f chunk_index offset_in_chunk pos n] to each chunk-sized piece
   [pos, pos + n) of the range [0, len) starting at file offset [off]. *)
let iter_pieces ~off ~len f =
  let rec go pos =
    if pos < len then begin
      let abs = off + pos in
      let coff = offset_in_chunk abs in
      let n = min (chunk_size - coff) (len - pos) in
      f (chunk_of_offset abs) coff pos n;
      go (pos + n)
    end
  in
  go 0

let copy_out t ~off ~len =
  let buf = Bytes.make len '\000' in
  iter_pieces ~off ~len (fun idx coff pos n ->
      match Hashtbl.find_opt t.chunks idx with
      | Some c ->
          let avail = min n (Bytes.length c.bytes - coff) in
          if avail > 0 then Bytes.blit c.bytes coff buf pos avail
      | None -> () (* hole: already zeroed *));
  Bytes.unsafe_to_string buf

(* Read up to [len] bytes at [off]; short reads happen at EOF. *)
let read t ~off ~len =
  let len = min len (t.size - off) in
  if len <= 0 then ""
  else if len = chunk_size && offset_in_chunk off = 0 then
    match Hashtbl.find_opt t.chunks (chunk_of_offset off) with
    | Some c when Bytes.length c.bytes = chunk_size ->
        c.lent <- true;
        Bytes.unsafe_to_string c.bytes
    | _ -> copy_out t ~off ~len
  else copy_out t ~off ~len

let grow t ~off ~len = if off + len > t.size then t.size <- off + len

(* Write [s.[pos .. pos + len - 1]] at [off], growing the file as needed. *)
let write_sub t ~off s ~pos ~len =
  iter_pieces ~off ~len (fun idx coff p n ->
      Bytes.blit_string s (pos + p) (writable t idx ~need:(coff + n)) coff n);
  grow t ~off ~len

let write t ~off data =
  let len = String.length data in
  write_sub t ~off data ~pos:0 ~len;
  len

(* Holes and bytes past a chunk's buffer already read as zeros, so only
   the allocated bytes in range are filled. *)
let zero t ~off ~len =
  iter_pieces ~off ~len (fun idx coff _ n ->
      match Hashtbl.find_opt t.chunks idx with
      | Some c when coff < Bytes.length c.bytes ->
          Bytes.fill (own c) coff (min n (Bytes.length c.bytes - coff)) '\000'
      | _ -> ());
  grow t ~off ~len

let truncate t new_size =
  if new_size < t.size then begin
    (* Drop whole chunks past the new end and zero the tail of the boundary
       chunk so a later re-extension reads zeros. *)
    let boundary = chunk_of_offset (max 0 (new_size - 1)) in
    let keep = offset_in_chunk new_size in
    Hashtbl.filter_map_inplace
      (fun idx c ->
        if new_size = 0 || idx > boundary then None
        else begin
          let have = Bytes.length c.bytes in
          if idx = boundary && keep > 0 && keep < have then
            Bytes.fill (own c) keep (have - keep) '\000';
          Some c
        end)
      t.chunks
  end;
  t.size <- new_size

(* Bytes of heap charged for memory accounting / statfs: whole logical
   chunks, however short their buffers. *)
let allocated t = Hashtbl.length t.chunks * chunk_size
