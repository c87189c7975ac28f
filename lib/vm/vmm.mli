(** Per-node virtual memory manager.

    The VMM handles mapping, sharing and caching of local memory, depending
    on external pagers for backing store (paper §3.3.1).  It is the primary
    cache manager in the system: when a memory object is mapped, the VMM
    binds to it, and the returned cache rights' key unifies equivalent
    memory objects so that their pages are cached once.

    Pages stay cached after unmap (that is the point of a page cache); the
    pager remains responsible for their coherency through the cache object
    the VMM implements for each channel.

    Page data crosses the pager interface without copies (the ownership
    rules of {!Vm_types}): a one-page [page_in] result becomes the page,
    and writeback lends the page's own buffer, which the VMM then never
    mutates — a write to a page whose buffer is out goes to a copy. *)

type t

(** A memory object mapped into an address space. *)
type mapping

(** [create ~node name] makes the VMM of machine [node].  Its serving
    domain is the nucleus domain of that node. *)
val create : node:string -> string -> t

val domain : t -> Sp_obj.Sdomain.t

(** The VMM's cache-manager identity (handed to memory-object binds). *)
val manager : t -> Vm_types.cache_manager

(** Map a memory object.  Performs a kernel call and a bind on the memory
    object. *)
val map : t -> Vm_types.memory_object -> mapping

(** Drop the mapping (pages stay cached; dirty pages are pushed to the
    pager with [sync] first so no updates are lost if the entry is later
    evicted). *)
val unmap : mapping -> unit

(** [read m ~pos ~len] copies bytes out of the mapping, faulting pages in
    read-only as needed.  Reading beyond the pager's data yields the bytes
    the pager returns (zero-filled). *)
val read : mapping -> pos:int -> len:int -> bytes

(** [write m ~pos data] copies bytes into the mapping, faulting pages in
    read-write (upgrading read-only pages) as needed.  Does not change the
    memory object's length — file layers do that explicitly. *)
val write : mapping -> pos:int -> bytes -> unit

(** Push dirty pages to the pager ([sync]: data retained in current mode).
    With clustered writeback (the default) contiguous dirty pages coalesce
    into one extent per run and the whole batch crosses to the pager in a
    single vectored [sync_v]. *)
val msync : mapping -> unit

(** Enable/disable clustered writeback (on by default).  Off restores the
    one-[sync]-per-dirty-page behaviour. *)
val set_clustered : t -> bool -> unit

(** Number of pages currently cached under the mapping's cache key. *)
val cached_pages : mapping -> int

(** Indices of the pages cached under the mapping's cache key, ascending. *)
val resident_pages : mapping -> int list

(** Write back and drop every cached page of every entry (used to simulate
    memory pressure / cold caches in benchmarks). *)
val drop_caches : t -> unit

(** Number of distinct cache entries (≈ bound channels) the VMM holds. *)
val entry_count : t -> int

(** {1 Read-ahead (paper §8)}

    The paper's open problem: "allow a cache manager to convey to the
    pager the maximum and minimum amount of data required during a
    page-in; the pager is then given the opportunity to return more data
    than strictly needed."  When a read fault continues a sequential run,
    the VMM requests extra pages in the same page-in; whatever the pager
    actually returns beyond the faulting page is populated read-only and
    marked prefetched.

    By default the window is {e adaptive} and per entry: it starts at two
    pages, doubles each time the run continues (up to
    {!Sp_sim.Cost_model.t.readahead_max_pages} — 0 under the [fast] model,
    so tests see no read-ahead) and collapses to zero on a non-sequential
    fault.  First-touch of a prefetched page counts
    [Sp_sim.Metrics.readahead_hits]; a prefetched page retired untouched
    counts [readahead_wasted]. *)

(** Set a manual read-ahead window in pages, overriding the adaptive one
    (0 restores adaptive behaviour; the default). *)
val set_readahead : t -> pages:int -> unit

(** Enable/disable the adaptive window (on by default; only consulted when
    no manual window is set). *)
val set_adaptive : t -> bool -> unit

(** {1 Memory pressure}

    Real VMMs cache under a physical-memory budget.  With a capacity set,
    inserting a page beyond the budget evicts the least-recently-used
    cached page first (pushing it to its pager with [sync] if dirty).
    Eviction, hits and the resident count are O(1): the VMM keeps its
    pages on one recency ring rather than scanning them. *)

(** Bound the page cache to [pages] pages ([None] = unbounded, the
    default).  Raises [Invalid_argument] on a non-positive bound. *)
val set_capacity : t -> pages:int option -> unit

(** Total pages currently cached across all entries (O(1)). *)
val total_cached_pages : t -> int

(** Pages evicted so far. *)
val evictions : t -> int

(** {1 Crash reconciliation}

    When a pager reconnects for a key already bound to a pager in a
    {e different} domain, the previous serving incarnation crashed.  The
    VMM reconciles the stale pages per their MRSW state — clean pages
    are dropped (next fault refetches from the restarted layer), dirty
    unsynced pages are reported lost exactly like an unsynced machine
    crash — and the entry starts fresh under the new incarnation. *)

(** [(clean_dropped, dirty_lost)] page totals across all reconciles. *)
val reconciled : t -> int * int
