type t = {
  local_call_ns : int;
  cross_domain_call_ns : int;
  kernel_call_ns : int;
  page_fault_ns : int;
  copy_per_byte_ns : int;
  cpu_op_ns : int;
  open_state_ns : int;
  disk_seek_ns : int;
  disk_rotate_ns : int;
  disk_per_block_ns : int;
  net_rtt_ns : int;
  net_per_byte_ns : int;
  bulk_setup_ns : int;
  bulk_call_ns : int;
  readahead_max_pages : int;
  commit_delay_ns : int;
}

(* Calibrated against Table 2/3 of the paper: cached 4KB read/write ~0.16ms,
   uncached (disk-bound) ~13.7ms, cross-domain open overhead ~100%, SunOS
   open 127us.  A 4400 RPM disk revolves in 13.6ms. *)
let paper_1993 =
  {
    local_call_ns = 2_000;
    cross_domain_call_ns = 120_000;
    kernel_call_ns = 15_000;
    page_fault_ns = 25_000;
    copy_per_byte_ns = 25;
    cpu_op_ns = 25;
    open_state_ns = 73_000;
    disk_seek_ns = 5_000_000;
    disk_rotate_ns = 6_800_000;
    disk_per_block_ns = 1_900_000;
    net_rtt_ns = 2_000_000;
    net_per_byte_ns = 800;
    bulk_setup_ns = 150_000;
    bulk_call_ns = 40_000;
    readahead_max_pages = 32;
    (* Well under one disk access (~13.7ms seek+rotate+transfer): a
       leader's wait costs a fraction of the commit it amortises. *)
    commit_delay_ns = 2_000_000;
  }

let model = ref paper_1993
let current () = !model

let with_model m f =
  let saved = !model in
  model := m;
  Fun.protect ~finally:(fun () -> model := saved) f
