(** The Phoronix disk-suite workloads (§5.2, Figure 2): 13 generators in 20
    benchmark configurations.  Each [w_paper] is the overhead the paper
    reports; sizes are scaled ~1:1000 (constants documented inline). *)

open Bench_env

val compilebench_read : workload

val iozone_read : workload
val postmark : workload

(** The 20 Figure-2 rows, in the paper's order. *)
val figure2 : workload list
