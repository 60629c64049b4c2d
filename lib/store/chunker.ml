(* Content-defined chunking (gear rolling hash, FastCDC-style min/avg/max
   bounds).  Chunk boundaries depend only on the bytes, not on the
   container, so identical runs of bytes inside different blobs always cut
   into identical chunks — the property the dedup store is built on.

   Two details matter for the rest of the system:

   - The rolling hash is NOT reset at cut points, so the cut decision at
     byte [p] depends only on the last [mask_bits] bytes (each byte's gear
     value is shifted left once per subsequent byte, so it leaves the low
     [mask_bits] bits after [mask_bits] steps).  A single-byte edit can
     therefore only perturb cuts in a bounded window, and chunk streams
     re-synchronize — the qcheck property tests pin this.

   - Cut positions are prefix-stable: the cuts of [s] within [0, n) equal
     the cuts of any extension of [s] within [0, n).  [chunks_prefixed_uniform]
     exploits this to chunk descriptor-backed content (a short header
     followed by megabytes of one repeated pad byte) without materializing
     it: beyond the settling window the hash is constant, so cuts become
     periodic and the tail is emitted analytically. *)

open Repro_util

type params = {
  min_size : int; (* no cut before this many bytes into a chunk *)
  mask_bits : int; (* cut when the low mask_bits bits of the hash are zero *)
  max_size : int; (* forced cut at this size *)
}

let default_params = { min_size = 4096; mask_bits = 13; max_size = 65536 }

let () =
  assert (default_params.min_size < default_params.max_size)

type chunk = { digest : string; size : int }

(* Deterministic gear table: one SplitMix64 draw per byte value. *)
let gear =
  lazy
    (let rng = Rng.create ~seed:0x6765_6172 in
     Array.init 256 (fun _ -> Int64.to_int (Rng.next_int64 rng) land max_int))

let validate p =
  if p.min_size <= 0 || p.max_size <= p.min_size || p.mask_bits <= 0 then
    invalid_arg "Chunker: need 0 < min_size < max_size and mask_bits > 0"

(* Exclusive end offsets of every chunk of [s]; the final offset is
   [String.length s].  Empty string -> []. *)
let cut_points ?(params = default_params) s =
  validate params;
  let g = Lazy.force gear in
  let cutmask = (1 lsl params.mask_bits) - 1 in
  let n = String.length s in
  let cuts = ref [] in
  let start = ref 0 in
  let h = ref 0 in
  for i = 0 to n - 1 do
    h := ((!h lsl 1) + g.(Char.code (String.unsafe_get s i))) land max_int;
    let pos = i + 1 in
    if
      (pos - !start >= params.min_size && !h land cutmask = 0)
      || pos - !start = params.max_size
    then begin
      cuts := pos :: !cuts;
      start := pos
    end
  done;
  if n > 0 && !start < n then cuts := n :: !cuts;
  List.rev !cuts

let split ?params s =
  let cuts = cut_points ?params s in
  let chunks, _ =
    List.fold_left (fun (acc, prev) cut -> (String.sub s prev (cut - prev) :: acc, cut)) ([], 0) cuts
  in
  List.rev chunks

let chunk_of_bytes b = { digest = Digest.string b; size = String.length b }

let chunks_of_string ?params s = List.map chunk_of_bytes (split ?params s)

(* [chunks_prefixed_uniform ~prefix ~fill ~total] == [chunks_of_string
   (prefix ^ String.make (total - length prefix) fill)], read off a cut
   skeleton of the infinite blob [prefix ^ fill fill fill ...].

   After the rolling window (mask_bits bytes) has passed the prefix, the
   hash is a constant H(fill): either H qualifies at every position (cuts
   every min_size) or never (forced cuts every max_size).  We chunk a
   sample long enough to reach that steady state once per
   (params, prefix, fill) and keep only its cut offsets up to the last
   steady cut c2 and their chunks.  Cuts are prefix-stable, so the cuts of
   any blob of that family are the skeleton's cuts below [total], then
   c2 + k * period, then [total] itself. *)
type skeleton = {
  cuts : int array; (* ascending exclusive chunk ends; the last one is c2 *)
  heads : chunk array; (* heads.(i) ends at cuts.(i) *)
  period : int;
  body : chunk; (* [period] fill bytes: every whole chunk past c2 *)
}

(* Never holds the sample itself: the Top-50 alone has dozens of distinct
   binary headers, and a 256 KiB sample per header shows up in the heap. *)
let skeletons : (params * string * char, skeleton) Hashtbl.t = Hashtbl.create 64

let skeleton params ~prefix ~fill =
  let key = (params, prefix, fill) in
  match Hashtbl.find_opt skeletons key with
  | Some sk -> sk
  | None ->
      let plen = String.length prefix in
      let sample = prefix ^ String.make ((4 * params.max_size) + params.mask_bits) fill in
      let slen = String.length sample in
      let cuts = List.filter (fun c -> c < slen) (cut_points ~params sample) in
      (* last three cuts are deep in the uniform region: equal spacing *)
      let rec last3 = function
        | [ a; b; c ] -> (a, b, c)
        | _ :: tl -> last3 tl
        | [] -> assert false
      in
      let c0, c1, c2 = last3 cuts in
      let period = c2 - c1 in
      assert (c1 - c0 = period && c2 > plen + params.mask_bits);
      let cuts = Array.of_list (List.filter (fun c -> c <= c2) cuts) in
      let heads =
        Array.mapi
          (fun i c ->
            let prev = if i = 0 then 0 else cuts.(i - 1) in
            { digest = Digest.substring sample prev (c - prev); size = c - prev })
          cuts
      in
      (* no chunk exceeds max_size and the sample runs 4 * max_size fill
         bytes past the prefix, so [c1, c2) is [period] fill bytes *)
      let sk = { cuts; heads; period; body = heads.(Array.length heads - 1) } in
      Hashtbl.replace skeletons key sk;
      sk

(* Scratch space for a blob's final partial chunk (at most max_size
   bytes), shared by every call so no call allocates its bytes. *)
let scratch = ref Bytes.empty

(* The chunk of bytes [start, stop) of [prefix ^ fill fill ...]. *)
let partial_chunk ~prefix ~fill start stop =
  let len = stop - start in
  if Bytes.length !scratch < len then scratch := Bytes.create len;
  let b = !scratch in
  let from_prefix = max 0 (String.length prefix - start) in
  if from_prefix > 0 then Bytes.blit_string prefix start b 0 from_prefix;
  Bytes.fill b from_prefix (len - from_prefix) fill;
  { digest = Digest.subbytes b 0 len; size = len }

let chunks_prefixed_uniform ?(params = default_params) ~prefix ~fill ~total () =
  validate params;
  if total < String.length prefix then
    invalid_arg "Chunker.chunks_prefixed_uniform: total < prefix";
  let sk = skeleton params ~prefix ~fill in
  let nh = Array.length sk.cuts in
  let c2 = sk.cuts.(nh - 1) in
  (* the i-th cut of the infinite blob and the chunk ending there *)
  let cut i = if i < nh then sk.cuts.(i) else c2 + ((i - nh + 1) * sk.period) in
  let chunk i = if i < nh then sk.heads.(i) else sk.body in
  let rec go i prev acc =
    let c = cut i in
    if c <= total then go (i + 1) c (chunk i :: acc)
    else if prev < total then List.rev (partial_chunk ~prefix ~fill prev total :: acc)
    else List.rev acc
  in
  go 0 0 []

let manifest_bytes chunks = List.fold_left (fun acc c -> acc + c.size) 0 chunks
