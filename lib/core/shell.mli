(** The interactive shell CNTR starts inside the nested namespace (step #4):
    a small POSIX-ish interpreter with quoting, PATH resolution, output
    redirection and builtins ([cd], [export], [exit], [true], [false]). *)

open Repro_os

(** Split a command line into tokens; double quotes group words. *)
val tokenize : string -> string list

type redirect = No_redirect | Truncate of string | Append of string

(** Strip a trailing [> file] / [>> file] redirection from a token list. *)
val parse_redirect : string list -> string list * redirect

(** Resolve a command name to an executable path: absolute/relative names
    are checked for the x bit, bare names searched along [$PATH]. *)
val resolve_binary : Kernel.t -> Proc.t -> string -> (string, Repro_util.Errno.t) result

(** Evaluate one command line as [proc]: `a | b | c` pipelines, a trailing
    [>]/[>>] redirect, $VAR expansion, builtins.  Output goes to the
    process's fd 1 (or the redirect target).  Returns the exit code of the
    last stage; [Error] only for infrastructure failures. *)
val eval : Kernel.t -> Proc.t -> string -> (int, Repro_util.Errno.t) result

(** Evaluate a script line by line, stopping at the first hard error. *)
val eval_script : Kernel.t -> Proc.t -> string -> (int, Repro_util.Errno.t) result
