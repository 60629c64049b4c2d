(* Minimal epoll: an interest set of fd numbers with readiness probes.  The
   simulation is single-threaded, so [wait] simply reports which registered
   fds are currently ready (level-triggered), while [wait_edge] reports
   only false->true readiness transitions since the previous [wait_edge] —
   the EPOLLET contract: a partially drained fd stays ready and is NOT
   reported again until it empties and refills.

   [set_notify] installs the wakeup callback the kernel wires to the
   watched objects' waitqueues (pipe/socket wakers), so a reactor can park
   until something actually changes instead of busy polling. *)

type interest = { want_in : bool; want_out : bool }

type probes = {
  p_readable : unit -> bool;
  p_writable : unit -> bool;
}

type event = { ev_fd : int; ev_in : bool; ev_out : bool }

type t = {
  watched : (int, interest * probes) Hashtbl.t;
  seen : (int, bool * bool) Hashtbl.t; (* readiness at the last wait_edge *)
  mutable notify : (unit -> unit) option;
}

let create () = { watched = Hashtbl.create 8; seen = Hashtbl.create 8; notify = None }

let add t ~fd ~interest ~probes =
  Hashtbl.replace t.watched fd (interest, probes);
  (* (Re-)arming resets edge state: the next wait_edge reports current
     readiness as a fresh transition, as EPOLL_CTL_MOD does. *)
  Hashtbl.remove t.seen fd

(* EPOLL_CTL_MOD-style re-arm without touching probes or waitqueues: the
   next wait_edge sees current readiness as a fresh transition.  Pumps call
   this before parking so a readiness flap between two wait_edge samples
   cannot be lost. *)
let rearm t ~fd = Hashtbl.remove t.seen fd

let remove t ~fd =
  Hashtbl.remove t.watched fd;
  Hashtbl.remove t.seen fd

let set_notify t f = t.notify <- f

let fire_notify t = match t.notify with Some f -> f () | None -> ()

(* Poll all registered fds; returns ready events (level-triggered). *)
let wait t =
  Hashtbl.fold
    (fun fd (interest, probes) acc ->
      let ev_in = interest.want_in && probes.p_readable () in
      let ev_out = interest.want_out && probes.p_writable () in
      if ev_in || ev_out then { ev_fd = fd; ev_in; ev_out } :: acc else acc)
    t.watched []
  |> List.sort (fun a b -> compare a.ev_fd b.ev_fd)

(* Edge-triggered poll: report only fds whose readiness turned on since the
   last [wait_edge]. *)
let wait_edge t =
  Hashtbl.fold
    (fun fd (interest, probes) acc ->
      let cur_in = interest.want_in && probes.p_readable () in
      let cur_out = interest.want_out && probes.p_writable () in
      let old_in, old_out =
        match Hashtbl.find_opt t.seen fd with Some s -> s | None -> (false, false)
      in
      Hashtbl.replace t.seen fd (cur_in, cur_out);
      let ev_in = cur_in && not old_in in
      let ev_out = cur_out && not old_out in
      if ev_in || ev_out then { ev_fd = fd; ev_in; ev_out } :: acc else acc)
    t.watched []
  |> List.sort (fun a b -> compare a.ev_fd b.ev_fd)
