(** Background checksum scrubber for SFS volumes.

    Walks every checksum-covered block of a formatted device on the
    simulated clock, reads it back, and compares the device's sum of it
    against the {!Sp_sfs.Csum} region — the proactive counterpart to the
    read-path verification in [Journal.read].  Latent bit rot in rarely-read blocks is found before
    the redundancy needed to repair it is gone.

    Like {!Sp_sfs.Fsck}, the scrubber reads the raw device: run it on a
    synced or unmounted volume.  With [repair_with] (e.g.
    {!from_device} on a mirror twin) a bad block whose replacement
    matches the recorded checksum is rewritten in place; each repair
    bumps [Metrics.integrity_repairs] and emits a ["scrub.repair"] trace
    instant. *)

type report = {
  sr_scanned : int;  (** covered blocks read and verified *)
  sr_bad : int;  (** blocks whose contents did not match *)
  sr_repaired : int;  (** bad blocks rewritten from [repair_with] *)
  sr_ns : int;  (** simulated time the scrub took *)
}

(** Fetch candidate replacement blocks from another device (a mirror
    twin), with that device's sum of them ({!Sp_blockdev.Disk.sum});
    [None] when that device fails the read. *)
val from_device : Sp_blockdev.Disk.t -> int -> (bytes * int) option

(** Scrub the device.  Each covered block is read and its device sum
    compared with the recorded checksum; no block is folded here.
    [repair_with n] supplies replacement bytes for bad block [n] and
    their full-block fold; a replacement is applied only if that fold
    matches the recorded checksum.  A volume without a checksum region
    reports zero blocks scanned. *)
val run : ?repair_with:(int -> (bytes * int) option) -> Sp_blockdev.Disk.t -> report
