(* Unix-domain stream sockets.  A listener holds a backlog of pending
   connections; an established connection is a pair of endpoints, each
   owning the byte queue it reads from.  Address binding (socket files in a
   filesystem) is managed by the kernel — connections through a CntrFS
   mount fail to resolve the binding because the FUSE inode differs from
   the underlying one, which is exactly why CNTR needs its socket proxy
   (§3.2.4 of the paper).

   Half-close ([shutdown_write]) and abortive close ([abort], the
   SO_LINGER-0 RST path) exist for the forwarding plane: EOF must
   propagate per direction independently, and an injected connection
   crash must surface as a bounded ECONNRESET, never a hang. *)

open Repro_util

type endpoint = {
  recv_q : Pipe.t; (* bytes we read *)
  peer_q : Pipe.t; (* bytes the peer reads (we write here) *)
  mutable ep_open : bool;
  mutable ep_wr_closed : bool; (* shutdown(SHUT_WR) performed *)
  mutable ep_reset : bool; (* connection aborted: reads/writes ECONNRESET *)
  mutable ep_peer : endpoint option;
}

type listener = {
  backlog : endpoint Queue.t; (* server-side endpoints awaiting accept *)
  l_backlog_max : int;
  mutable l_open : bool;
  mutable l_wakers : (unit -> unit) list;
}

let default_backlog = 128

let listen ?(backlog = default_backlog) () =
  {
    backlog = Queue.create ();
    l_backlog_max = max 1 backlog;
    l_open = true;
    l_wakers = [];
  }

let add_listener_waker l f = l.l_wakers <- f :: l.l_wakers
let wake_listener l = List.iter (fun f -> f ()) (List.rev l.l_wakers)

(* Create a connected endpoint pair (client, server). *)
let pair () =
  let a_to_b = Pipe.create () and b_to_a = Pipe.create () in
  let a =
    { recv_q = b_to_a; peer_q = a_to_b; ep_open = true;
      ep_wr_closed = false; ep_reset = false; ep_peer = None }
  in
  let b =
    { recv_q = a_to_b; peer_q = b_to_a; ep_open = true;
      ep_wr_closed = false; ep_reset = false; ep_peer = None }
  in
  a.ep_peer <- Some b;
  b.ep_peer <- Some a;
  (a, b)

(* Client connects: enqueue the server endpoint on the listener's backlog
   and hand the client endpoint back.  A full backlog refuses the
   connection, as Linux does once the SYN queue overflows. *)
let connect listener =
  if not listener.l_open then Error Errno.ECONNREFUSED
  else if Queue.length listener.backlog >= listener.l_backlog_max then
    Error Errno.ECONNREFUSED
  else begin
    let client, server = pair () in
    Queue.push server listener.backlog;
    wake_listener listener;
    Ok client
  end

let accept listener =
  if not listener.l_open then Error Errno.EINVAL
  else if Queue.is_empty listener.backlog then Error Errno.EAGAIN
  else Ok (Queue.pop listener.backlog)

let send ep data =
  if ep.ep_reset then Error Errno.ECONNRESET
  else if (not ep.ep_open) || ep.ep_wr_closed then Error Errno.EPIPE
  else Pipe.write ep.peer_q data

let recv ep ~len =
  if ep.ep_reset then Error Errno.ECONNRESET
  else if not ep.ep_open then Error Errno.EBADF
  else Pipe.read ep.recv_q ~len

(* shutdown(SHUT_WR): the peer drains what is queued, then reads EOF.  Our
   read side stays usable. *)
let shutdown_write ep =
  if ep.ep_open && not ep.ep_wr_closed then begin
    ep.ep_wr_closed <- true;
    Pipe.close_writer ep.peer_q
  end

let close_endpoint ep =
  if ep.ep_open then begin
    ep.ep_open <- false;
    (* Peer sees EOF on its queue and EPIPE on writes. *)
    if not ep.ep_wr_closed then begin
      ep.ep_wr_closed <- true;
      Pipe.close_writer ep.peer_q
    end;
    Pipe.close_reader ep.recv_q
  end

(* Abortive close (RST): both ends observe ECONNRESET immediately; queued
   bytes are discarded.  The pipe closes double as waker broadcasts, so
   watching epolls re-evaluate readiness. *)
let abort ep =
  let reset e =
    if not e.ep_reset then begin
      e.ep_reset <- true;
      if e.ep_open then begin
        e.ep_open <- false;
        if not e.ep_wr_closed then begin
          e.ep_wr_closed <- true;
          Pipe.close_writer e.peer_q
        end;
        Pipe.close_reader e.recv_q
      end
    end
  in
  (match ep.ep_peer with Some p -> reset p | None -> ());
  reset ep

let close_listener l =
  if l.l_open then begin
    l.l_open <- false;
    wake_listener l
  end

(* Writable room toward the peer, or why not — splice uses this to clamp
   what it pulls from the source so partial sinks never lose bytes. *)
let send_capacity ep =
  if ep.ep_reset then Error Errno.ECONNRESET
  else if (not ep.ep_open) || ep.ep_wr_closed || not (Pipe.has_readers ep.peer_q) then
    Error Errno.EPIPE
  else Ok (Pipe.room ep.peer_q)

let readable ep = ep.ep_reset || Pipe.readable ep.recv_q
let available ep = Pipe.available ep.recv_q
let writable ep = ep.ep_open && (not ep.ep_wr_closed) && (not ep.ep_reset) && Pipe.writable ep.peer_q
let pending listener = Queue.length listener.backlog

(* Waitqueue hook: state changes in either direction's pipe may flip this
   endpoint's readiness. *)
let add_waker ep f =
  Pipe.add_waker ep.recv_q f;
  Pipe.add_waker ep.peer_q f
