(* JSON-RPC 2.0 codec + Content-Length framing.  The codec is strict on the
   envelope ("jsonrpc":"2.0", method a string, id an int/string) and lax on
   params, which each method validates itself. *)

open Repro_util

type id = I of int | S of string

let id_json = function I n -> Jsonx.Int n | S s -> Jsonx.Str s

let id_of_json = function
  | Jsonx.Int n -> Some (I n)
  | Jsonx.Str s -> Some (S s)
  | _ -> None

type request = { r_id : id option; r_method : string; r_params : Jsonx.t }
type rerror = { e_code : int; e_message : string; e_data : Jsonx.t option }
type response = { p_id : id option; p_result : (Jsonx.t, rerror) result }
type message = Request of request | Response of response

let parse_error = -32700
let invalid_request = -32600
let method_not_found = -32601
let invalid_params = -32602
let internal_error = -32603
let cancelled = -32800
let attach_failed = -32000
let admission_rejected = -32001
let no_session = -32002
let fault_injected = -32004
let overloaded = -32005

let error ?data code msg = { e_code = code; e_message = msg; e_data = data }

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let request_json r =
  let base = [ ("jsonrpc", Jsonx.Str "2.0") ] in
  let base = match r.r_id with Some id -> base @ [ ("id", id_json id) ] | None -> base in
  let base = base @ [ ("method", Jsonx.Str r.r_method) ] in
  let base =
    match r.r_params with Jsonx.Null -> base | p -> base @ [ ("params", p) ]
  in
  Jsonx.Obj base

let error_json e =
  let fields = [ ("code", Jsonx.Int e.e_code); ("message", Jsonx.Str e.e_message) ] in
  let fields = match e.e_data with Some d -> fields @ [ ("data", d) ] | None -> fields in
  Jsonx.Obj fields

let response_json p =
  let id = match p.p_id with Some id -> id_json id | None -> Jsonx.Null in
  let payload =
    match p.p_result with
    | Ok v -> ("result", v)
    | Error e -> ("error", error_json e)
  in
  Jsonx.Obj [ ("jsonrpc", Jsonx.Str "2.0"); ("id", id); payload ]

let encode_request r = Jsonx.to_string (request_json r)
let encode_response p = Jsonx.to_string (response_json p)

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

let error_of_json v =
  match (Jsonx.field_int v "code", Jsonx.field_str v "message") with
  | Some code, Some msg -> Some { e_code = code; e_message = msg; e_data = Jsonx.mem v "data" }
  | _ -> None

let of_json v =
  match v with
  | Jsonx.Obj _ -> (
      if Jsonx.field_str v "jsonrpc" <> Some "2.0" then
        Error (error invalid_request "missing jsonrpc version")
      else
        let id =
          match Jsonx.mem v "id" with
          | None | Some Jsonx.Null -> Ok None
          | Some j -> (
              match id_of_json j with
              | Some id -> Ok (Some id)
              | None -> Error (error invalid_request "id must be a number or string"))
        in
        match id with
        | Error e -> Error e
        | Ok id -> (
            match Jsonx.mem v "method" with
            | Some (Jsonx.Str m) ->
                let params =
                  match Jsonx.mem v "params" with Some p -> p | None -> Jsonx.Null
                in
                Ok (Request { r_id = id; r_method = m; r_params = params })
            | Some _ -> Error (error invalid_request "method must be a string")
            | None -> (
                (* no method: a response — exactly one of result/error *)
                match (Jsonx.mem v "result", Jsonx.mem v "error") with
                | Some r, None -> Ok (Response { p_id = id; p_result = Ok r })
                | None, Some e -> (
                    match error_of_json e with
                    | Some e -> Ok (Response { p_id = id; p_result = Error e })
                    | None -> Error (error invalid_request "malformed error object"))
                | _ -> Error (error invalid_request "expected method, result or error"))))
  | _ -> Error (error invalid_request "message must be an object")

let decode text =
  match Jsonx.parse text with
  | Error msg -> Error (error parse_error ("parse error: " ^ msg))
  | Ok v -> of_json v

(* ------------------------------------------------------------------ *)
(* Batch envelopes (JSON-RPC 2.0 §6)                                  *)
(* ------------------------------------------------------------------ *)

type incoming =
  | Single of (message, rerror) result
  | Batch of (message, rerror) result list

let decode_incoming text =
  match Jsonx.parse text with
  | Error msg -> Error (error parse_error ("parse error: " ^ msg))
  | Ok (Jsonx.List []) -> Error (error invalid_request "empty batch")
  | Ok (Jsonx.List elems) -> Ok (Batch (List.map of_json elems))
  | Ok v -> Ok (Single (of_json v))

let encode_requests rs = Jsonx.to_string (Jsonx.List (List.map request_json rs))
let encode_responses ps = Jsonx.to_string (Jsonx.List (List.map response_json ps))

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

let frame payload =
  Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length payload) payload

type reader = { mutable buf : Buffer.t }

let reader () = { buf = Buffer.create 256 }
let feed r chunk = Buffer.add_string r.buf chunk

let find_sub hay needle from =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = if i + nl > hl then None else if String.sub hay i nl = needle then Some i else go (i + 1) in
  go from

let next r =
  let data = Buffer.contents r.buf in
  match find_sub data "\r\n\r\n" 0 with
  | None ->
      (* a buffer that can no longer start a valid header is garbage *)
      if String.length data > 0 && not (String.length data <= 256) then (
        r.buf <- Buffer.create 256;
        `Garbage data)
      else `More
  | Some hdr_end -> (
      let header = String.sub data 0 hdr_end in
      let body_start = hdr_end + 4 in
      let len =
        (* accept multiple header lines; only Content-Length matters *)
        String.split_on_char '\n' header
        |> List.fold_left
             (fun acc line ->
               let line = String.trim line in
               let prefix = "content-length:" in
               let low = String.lowercase_ascii line in
               if String.length low >= String.length prefix
                  && String.sub low 0 (String.length prefix) = prefix
               then
                 int_of_string_opt
                   (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
               else acc)
             None
      in
      match len with
      | None | Some 0 ->
          r.buf <- Buffer.create 256;
          Buffer.add_substring r.buf data body_start (String.length data - body_start);
          `Garbage header
      | Some len ->
          if String.length data - body_start < len then `More
          else begin
            let payload = String.sub data body_start len in
            let rest_start = body_start + len in
            r.buf <- Buffer.create 256;
            Buffer.add_substring r.buf data rest_start (String.length data - rest_start);
            `Frame payload
          end)
