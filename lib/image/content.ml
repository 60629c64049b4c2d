(* File contents in image layers.  Catalogue images carry megabytes of
   ballast; content descriptors keep layers cheap until materialization,
   which writes a pad without building it. *)

open Repro_os

type t =
  | Literal of string
  | Binary of { prog : string; size : int } (* executable: #!BIN header + pad *)
  | Filler of int (* incompressible data of the given size *)

let header = function
  | Literal s -> s
  | Binary { prog; _ } -> Binfmt.bin_prefix ^ prog ^ "\n"
  | Filler _ -> ""

let fill = function Literal _ -> '\000' | Binary _ -> 'x' | Filler _ -> 'D'

let size = function
  | Literal s -> String.length s
  | Binary { size; prog } -> max size (String.length Binfmt.bin_prefix + String.length prog + 1)
  | Filler n -> n

let render c =
  let h = header c in
  h ^ String.make (size c - String.length h) (fill c)
