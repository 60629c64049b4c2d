(** JSON-RPC 2.0 messages for the cntrd control plane: typed
    requests/responses, the standard and cntrd-specific error codes, and
    [Content-Length]-delimited framing for the wire transport.

    Protocol identity: ["cntrd/1.0"] (reported by [daemon.info]).  The wire
    format is the LSP-style base protocol — a [Content-Length: N\r\n\r\n]
    header followed by exactly [N] bytes of one JSON-RPC message. *)

open Repro_util

(** Request ids may be numbers or strings (JSON-RPC §4). *)
type id = I of int | S of string

val id_json : id -> Jsonx.t
val id_of_json : Jsonx.t -> id option

type request = {
  r_id : id option;  (** [None] for notifications. *)
  r_method : string;
  r_params : Jsonx.t;  (** [Null] when absent. *)
}

type rerror = { e_code : int; e_message : string; e_data : Jsonx.t option }

type response = {
  p_id : id option;  (** [None] only for protocol-level error replies. *)
  p_result : (Jsonx.t, rerror) result;
}

type message = Request of request | Response of response

(** {1 Error codes} *)

val parse_error : int  (** -32700 *)

val invalid_request : int  (** -32600 *)

val method_not_found : int  (** -32601 *)

val invalid_params : int  (** -32602 *)

val internal_error : int  (** -32603 *)

val cancelled : int  (** -32800, request cancelled via [$/cancel] *)

val attach_failed : int  (** -32000, cntrd: attach engine/fs failure *)

val admission_rejected : int  (** -32001, cntrd: queue or quota exhausted *)

val no_session : int  (** -32002, cntrd: unknown session id *)

val fault_injected : int  (** -32004, cntrd: ctrl-site fault fired *)

val overloaded : int
(** -32005, cntrd: the connection's inbound queue is full — the request
    was refused before dispatch.  Back off and resubmit once earlier
    replies have been drained. *)

val error : ?data:Jsonx.t -> int -> string -> rerror

(** {1 Encoding} *)

val request_json : request -> Jsonx.t
val response_json : response -> Jsonx.t
val encode_request : request -> string
val encode_response : response -> string

(** Parse + classify raw text. *)
val decode : string -> (message, rerror) result

(** {1 Batch envelopes}

    JSON-RPC 2.0 §6: a frame whose top-level document is an array is a
    batch.  Each element is validated independently — one malformed
    element yields a per-element error entry in the reply array without
    poisoning its well-formed neighbours.  The reply array preserves
    request order; notifications contribute no entry, and an all-
    notification batch produces no reply frame at all. *)

type incoming =
  | Single of (message, rerror) result
  | Batch of (message, rerror) result list  (** non-empty *)

(** Classify one frame as a single message or a batch.  [Error] is a
    text-level failure (parse error, or the empty-array batch the spec
    rejects) answered with one id-null error response. *)
val decode_incoming : string -> (incoming, rerror) result

(** One array envelope holding [rs] in order. *)
val encode_requests : request list -> string

(** One array envelope holding [ps] in order (the batch reply). *)
val encode_responses : response list -> string

(** {1 Framing} *)

(** Wrap a payload in a [Content-Length] header. *)
val frame : string -> string

(** Incremental deframer: feed arbitrary byte chunks, pull complete
    payloads.  Raises nothing; a malformed header surfaces as
    [`Garbage] from {!next}. *)
type reader

val reader : unit -> reader
val feed : reader -> string -> unit
val next : reader -> [ `Frame of string | `Garbage of string | `More ]
