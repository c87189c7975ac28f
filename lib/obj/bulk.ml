(* Shared bulk-buffer channels between domain pairs, plus the dynamic
   "a bulk transfer is in flight" scope that lets data sources hand pages
   over by reference instead of charging a private copy.  See bulk.mli. *)

let enabled_flag = ref true
let enabled () = !enabled_flag

let with_enabled on f =
  let saved = !enabled_flag in
  enabled_flag := on;
  Fun.protect ~finally:(fun () -> enabled_flag := saved) f

(* Channels are symmetric: one mapping serves both transfer directions.
   The key packs the ordered id pair into one int (ids stay far below
   2^31), so the per-call [established] test allocates no tuple. *)
let channels : (int, unit) Hashtbl.t = Hashtbl.create 64

let channel_key a b =
  let ia = Sdomain.id a and ib = Sdomain.id b in
  if ia <= ib then (ia lsl 31) lor ib else (ib lsl 31) lor ia

let established a b = Hashtbl.mem channels (channel_key a b)
let establish a b = Hashtbl.replace channels (channel_key a b) ()

(* Depth of nested cross-domain data calls.  While positive, payload
   copies at data *sources* are elided: the source writes straight into
   the bulk buffer the boundary will charge for. *)
let scope_depth = ref 0
let in_scope () = !scope_depth > 0
let enter_scope () = incr scope_depth
let exit_scope () = decr scope_depth

(* The scope depth tracks the current task's call chain, not the whole
   machine: another interleaved task must not see a transfer in flight
   (it would skip its own source copy).  Task-local, like the current
   domain in [Door]. *)
let () = Sp_sched.register_tls scope_depth
