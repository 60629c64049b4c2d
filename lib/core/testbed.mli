(** The fully-assembled simulated machine CNTR operates on: a
    {!Repro_runtime.World} plus CNTR's own pieces — the toolbox programs,
    the /dev/fuse device, and a published "fat" debug-tools image. *)

type t = Repro_runtime.World.t

(** Build a world with programs registered, /dev/fuse installed and the
    debug image published. *)
val create : unit -> t

(** [attach world name] — {!Attach.attach} wired to the world's kernel,
    engines and memory budget.  [config] defaults to
    {!Attach.Config.default}. *)
val attach :
  t ->
  ?config:Attach.Config.t ->
  string ->
  (Attach.session, Repro_util.Errno.t) result

(** [with_session world name f] — {!Attach.with_session} wired to the
    world's kernel, engines and memory budget, with the default config. *)
val with_session :
  t ->
  string ->
  (Attach.session -> 'a) ->
  ('a, Repro_util.Errno.t) result
