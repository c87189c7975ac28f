type snapshot = {
  cross_domain_calls : int;
  local_calls : int;
  kernel_calls : int;
  page_faults : int;
  page_ins : int;
  page_outs : int;
  disk_reads : int;
  disk_writes : int;
  net_messages : int;
  net_bytes : int;
  coherency_actions : int;
  attr_fetches : int;
  faults_injected : int;
  net_retries : int;
  checksum_failures : int;
  integrity_repairs : int;
  bulk_handoffs : int;
  bulk_copies : int;
  bulk_setups : int;
  readahead_hits : int;
  readahead_wasted : int;
  name_cache_hits : int;
  name_cache_misses : int;
  name_cache_negative_hits : int;
  queue_ns : int;
  avail_shed : int;
  avail_retried : int;
  avail_failed : int;
  avail_degraded : int;
}

(* The live counters are one [int array], bumped in place: an increment
   sits on every door crossing and must not allocate.  Slot [i] holds the
   [i]th [snapshot] field; [names], [to_array] and [of_array] are the one
   place that order is written down, and everything generic over the
   counters (snapshot, diff, add, pp) goes through them. *)
let names =
  [| "cross_domain_calls"; "local_calls"; "kernel_calls"; "page_faults"; "page_ins";
     "page_outs"; "disk_reads"; "disk_writes"; "net_messages"; "net_bytes";
     "coherency_actions"; "attr_fetches"; "faults_injected"; "net_retries";
     "checksum_failures"; "integrity_repairs"; "bulk_handoffs"; "bulk_copies";
     "bulk_setups"; "readahead_hits"; "readahead_wasted"; "name_cache_hits";
     "name_cache_misses"; "name_cache_negative_hits"; "queue_ns"; "avail_shed";
     "avail_retried"; "avail_failed"; "avail_degraded" |]

let to_array s =
  [| s.cross_domain_calls; s.local_calls; s.kernel_calls; s.page_faults; s.page_ins;
     s.page_outs; s.disk_reads; s.disk_writes; s.net_messages; s.net_bytes;
     s.coherency_actions; s.attr_fetches; s.faults_injected; s.net_retries;
     s.checksum_failures; s.integrity_repairs; s.bulk_handoffs; s.bulk_copies;
     s.bulk_setups; s.readahead_hits; s.readahead_wasted; s.name_cache_hits;
     s.name_cache_misses; s.name_cache_negative_hits; s.queue_ns; s.avail_shed;
     s.avail_retried; s.avail_failed; s.avail_degraded |]

let of_array a =
  {
    cross_domain_calls = a.(0); local_calls = a.(1); kernel_calls = a.(2);
    page_faults = a.(3); page_ins = a.(4); page_outs = a.(5); disk_reads = a.(6);
    disk_writes = a.(7); net_messages = a.(8); net_bytes = a.(9);
    coherency_actions = a.(10); attr_fetches = a.(11); faults_injected = a.(12);
    net_retries = a.(13); checksum_failures = a.(14); integrity_repairs = a.(15);
    bulk_handoffs = a.(16); bulk_copies = a.(17); bulk_setups = a.(18);
    readahead_hits = a.(19); readahead_wasted = a.(20); name_cache_hits = a.(21);
    name_cache_misses = a.(22); name_cache_negative_hits = a.(23); queue_ns = a.(24);
    avail_shed = a.(25); avail_retried = a.(26); avail_failed = a.(27);
    avail_degraded = a.(28);
  }

let counters = Array.make (Array.length names) 0
let get i = counters.(i)
let add_to i n = counters.(i) <- counters.(i) + n
let bump i = add_to i 1

let net_messages () = get 8
let queue_ns () = get 24

let incr_cross_domain_calls () = bump 0
let incr_local_calls () = bump 1
let incr_kernel_calls () = bump 2
let incr_page_faults () = bump 3
let incr_page_ins () = bump 4
let incr_page_outs () = bump 5
let incr_disk_reads () = bump 6
let incr_disk_writes () = bump 7
let incr_net_messages () = bump 8
let add_net_bytes n = add_to 9 n
let incr_coherency_actions () = bump 10
let incr_attr_fetches () = bump 11
let incr_faults_injected () = bump 12
let incr_net_retries () = bump 13
let incr_checksum_failures () = bump 14
let incr_integrity_repairs () = bump 15
let incr_bulk_handoffs () = bump 16
let incr_bulk_copies () = bump 17
let incr_bulk_setups () = bump 18
let incr_readahead_hits () = bump 19
let incr_readahead_wasted () = bump 20
let incr_name_cache_hits () = bump 21
let incr_name_cache_misses () = bump 22
let incr_name_cache_negative_hits () = bump 23
let add_queue_ns n = add_to 24 n
let incr_avail_shed () = bump 25
let incr_avail_retried () = bump 26
let incr_avail_failed () = bump 27
let incr_avail_degraded () = bump 28

(* A fresh record each time: spans keep snapshots, so a snapshot must
   never see later increments. *)
let snapshot () = of_array counters
let zero = of_array (Array.make (Array.length names) 0)

let map2 f a b =
  let a = to_array a and b = to_array b in
  of_array (Array.mapi (fun i x -> f x b.(i)) a)

let diff ~before ~after = map2 ( - ) after before
let add a b = map2 ( + ) a b
let reset () = Array.fill counters 0 (Array.length counters) 0

let pp ppf s =
  Format.fprintf ppf "@[<hov>";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_space ppf ();
      Format.fprintf ppf "%s=%d" names.(i) v)
    (to_array s);
  Format.fprintf ppf "@]"
