(* Linux capabilities (the subset the simulation enforces).  CNTR captures a
   container's capability set from /proc and applies it to the nested
   namespace so tools run with exactly the container's privileges. *)

type cap =
  | CAP_CHOWN
  | CAP_DAC_OVERRIDE
  | CAP_FOWNER
  | CAP_FSETID
  | CAP_KILL
  | CAP_SETGID
  | CAP_SETUID
  | CAP_NET_ADMIN
  | CAP_NET_BIND_SERVICE
  | CAP_SYS_CHROOT
  | CAP_SYS_PTRACE
  | CAP_SYS_ADMIN
  | CAP_MKNOD
  | CAP_SYS_RESOURCE
  | CAP_AUDIT_WRITE

let all_caps = [
  CAP_CHOWN; CAP_DAC_OVERRIDE; CAP_FOWNER; CAP_FSETID; CAP_KILL; CAP_SETGID;
  CAP_SETUID; CAP_NET_ADMIN; CAP_NET_BIND_SERVICE; CAP_SYS_CHROOT;
  CAP_SYS_PTRACE; CAP_SYS_ADMIN; CAP_MKNOD; CAP_SYS_RESOURCE; CAP_AUDIT_WRITE;
]

(* Kernel bit position, as in /proc's CapEff. *)
let bit = function
  | CAP_CHOWN -> 0
  | CAP_DAC_OVERRIDE -> 1
  | CAP_FOWNER -> 3
  | CAP_FSETID -> 4
  | CAP_KILL -> 5
  | CAP_SETGID -> 6
  | CAP_SETUID -> 7
  | CAP_NET_BIND_SERVICE -> 10
  | CAP_NET_ADMIN -> 12
  | CAP_SYS_CHROOT -> 18
  | CAP_SYS_PTRACE -> 19
  | CAP_SYS_ADMIN -> 21
  | CAP_MKNOD -> 27
  | CAP_SYS_RESOURCE -> 24
  | CAP_AUDIT_WRITE -> 29

module Set = struct
  type t = int (* bitmask *)

  let empty = 0
  let full = List.fold_left (fun acc c -> acc lor (1 lsl bit c)) 0 all_caps
  let mem c t = t land (1 lsl bit c) <> 0
  let add c t = t lor (1 lsl bit c)
  let of_list = List.fold_left (fun acc c -> add c acc) empty
  let to_hex t = Printf.sprintf "%016x" t
  let of_hex s = int_of_string ("0x" ^ s)
  let equal (a : t) b = a = b

  (* Docker's default capability bounding set for unprivileged containers. *)
  let docker_default =
    of_list
      [
        CAP_CHOWN; CAP_DAC_OVERRIDE; CAP_FOWNER; CAP_FSETID; CAP_KILL;
        CAP_SETGID; CAP_SETUID; CAP_NET_BIND_SERVICE; CAP_SYS_CHROOT;
        CAP_MKNOD; CAP_AUDIT_WRITE;
      ]
end
