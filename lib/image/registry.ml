(* An image registry with a network cost model, rebuilt on the
   content-addressed dedup store (lib/store).

   Pushing an image registers every layer's chunk manifest in the
   registry-side store; pulling transfers only the chunks missing from the
   pulling host's store.  The cost model is chunk-granular: a layer whose
   chunks are all already on the host costs nothing — not even the
   per-layer round-trip latency — so shared base layers and shared chunk
   runs both make deployments cheaper (the paper's §1 motivation, download
   = 92 % of deployment [52], now visible at registry scale). *)

open Repro_util
module Store = Repro_store.Store

type t = {
  clock : Clock.t;
  images : (string, Image.t) Hashtbl.t; (* "name:tag" *)
  (* network model *)
  bandwidth_bytes_per_s : float;
  latency_ns_per_layer : int;
  (* the registry's content store (everything pushed) *)
  store : Store.t;
  (* the pulling host's chunk store (the "layer cache" of old, now
     chunk-granular) *)
  host : Store.t;
}

let create ?metrics ~clock ?(bandwidth_mb_per_s = 125.0) ?(latency_ms_per_layer = 20) () = {
  clock;
  images = Hashtbl.create 64;
  bandwidth_bytes_per_s = bandwidth_mb_per_s *. 1024. *. 1024.;
  latency_ns_per_layer = latency_ms_per_layer * 1_000_000;
  store = Store.create ?metrics ~prefix:"store" ();
  host = Store.create ?metrics ~prefix:"store.host" ();
}

let store t = t.store
let host_store t = t.host

let push t image =
  Hashtbl.replace t.images (Image.ref_ image) image;
  List.iter
    (fun (layer : Layer.t) ->
      (* layer ids are content addresses: a known id re-registers its
         cached manifest (refcount bump) without re-walking the entries *)
      let manifest =
        match Store.manifest t.store layer.Layer.id with
        | Some m -> m
        | None -> Blobs.layer_chunks layer
      in
      Store.add t.store ~key:layer.Layer.id manifest)
    image.Image.layers

let find t ref_ = Hashtbl.find_opt t.images ref_

(* Pull an image: for each layer missing from the host store, transfer the
   chunks the host doesn't already hold, charging network time on the
   virtual clock.  Layers already present — or whose chunks are all
   present under other layers — transfer nothing and are free: the
   per-layer latency is charged only for layers that actually move bytes.
   Returns the image and the bytes actually transferred. *)
let pull t ref_ =
  match find t ref_ with
  | None -> Error `Not_found
  | Some image ->
      let transferred = ref 0 in
      List.iter
        (fun (layer : Layer.t) ->
          if not (Store.mem t.host layer.Layer.id) then begin
            let manifest =
              match Store.manifest t.store layer.Layer.id with
              | Some m -> m
              | None -> Blobs.layer_chunks layer (* pulled without a push; still well-defined *)
            in
            let missing = Store.missing t.host manifest in
            let bytes = Repro_store.Chunker.manifest_bytes missing in
            Store.add t.host ~key:layer.Layer.id manifest;
            if bytes > 0 then begin
              transferred := !transferred + bytes;
              let ns =
                t.latency_ns_per_layer
                + int_of_float (float_of_int bytes /. t.bandwidth_bytes_per_s *. 1e9)
              in
              Clock.consume_int t.clock ns
            end
          end)
        image.Image.layers;
      Ok (image, !transferred)

let drop_cache t = Store.reset t.host
