(** Content descriptors -> chunk manifests for the dedup store.  Results
    are memoized process-wide (chunking is a pure function of the rendered
    bytes).  [Filler]/[Binary] descriptors take the analytic
    prefix-plus-uniform path and are never rendered: each costs its chunk
    count plus one digest of at most [max_size] pad bytes, after one
    settling sample per distinct header and pad byte. *)

(** Chunks of the rendered content. *)
val content_chunks : Content.t -> Repro_store.Chunker.chunk list

(** A layer's manifest: entry chunks in entry order (dirs and whiteouts
    carry no bytes; symlinks carry their target). *)
val layer_chunks : Layer.t -> Repro_store.Chunker.chunk list
