(** An image registry with a chunk-granular network cost model, built on
    the content-addressed dedup store ({!Repro_store.Store}): pulls
    transfer only the chunks missing from the pulling host's store, so
    shared base layers — and shared byte runs inside otherwise-distinct
    layers — dedup, and slim images deploy faster (the paper's §1
    motivation). *)

open Repro_util

type t

(** [create ~clock ()] — bandwidth defaults to 125 MB/s with 20 ms of
    latency per transferring layer.  With [metrics], the registry store
    registers [store.*] and the host store [store.host.*] (chunk counts,
    logical/physical bytes, dedup ratio, gc). *)
val create :
  ?metrics:Repro_obs.Metrics.t ->
  clock:Clock.t ->
  ?bandwidth_mb_per_s:float ->
  ?latency_ms_per_layer:int ->
  unit ->
  t

(** The registry-side content store (everything pushed). *)
val store : t -> Repro_store.Store.t

(** The pulling host's chunk store. *)
val host_store : t -> Repro_store.Store.t

(** Register the image and every layer's chunk manifest.  Layer ids are
    content addresses: a known id bumps refcounts without re-walking the
    entries. *)
val push : t -> Image.t -> unit

val find : t -> string -> Image.t option

(** Pull by "name:tag": transfers the chunks missing from the host store,
    charging network time on the virtual clock.  Layers that move no bytes
    are free — no per-layer latency for cached (or fully chunk-deduped)
    layers.  Returns the image and the bytes transferred. *)
val pull : t -> string -> (Image.t * int, [ `Not_found ]) result

(** Empty the host's chunk store (cold-pull measurements). *)
val drop_cache : t -> unit
