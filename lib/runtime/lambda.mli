(** Serverless functions (the paper's §6 future work): a lambda platform
    whose instances are sealed micro-containers (runtime + handler, no
    shell, no tools) under a dedicated engine — so CNTR can attach to a
    warm instance and debug it like any container. *)

open Repro_os

type func = {
  fn_name : string;
  fn_handler : string;  (** registered program implementing the handler *)
  fn_image : Repro_image.Image.t;
  mutable fn_instances : Container.t list;  (** warm instances *)
  mutable fn_invocations : int;
}

type t

(** Create a platform (registers the bootstrap program, creates the
    "lambda" engine). *)
val create : kernel:Kernel.t -> t

(** The platform's engine — include it in the engine list passed to
    {!Repro_cntr.Attach.attach} to make instances attachable. *)
val engine : t -> Engine.t

(** Deploy a function whose handler is the registered program [handler],
    shipped as a 256 KiB code bundle. *)
val deploy : t -> name:string -> handler:string -> func

(** Invoke the function: reuses a warm instance or cold-starts one.
    Returns (handler exit code, whether this was a cold start, instance). *)
val invoke :
  t -> string -> payload:string -> (int * bool * Container.t, Repro_util.Errno.t) result

(** (invocations so far, warm instances) for a function. *)
val stats : t -> string -> int * int
