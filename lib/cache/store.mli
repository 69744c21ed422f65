(** Content-addressed on-disk result cache.

    Each entry is one file under [DIR/objects/ab/cdef...] — the key (an
    MD5 hex digest of the producing stage's canonical input encoding,
    see {!Bistpath_core.Flow.Stage}) sharded on its first two hex
    characters. An entry carries a one-line header

    {v bistpath-cache 1 <stage> <payload-md5> <payload-length> v}

    followed by the raw payload bytes; {!find} re-digests the payload
    and treats any mismatch — wrong magic, wrong stage, wrong length,
    wrong digest — as a miss, deleting the corrupt file. A damaged or
    concurrently-GC'd cache can therefore cost recomputation but never
    an exception.

    Writes go through {!Bistpath_util.Atomic_io.write_file}
    (tmp + fsync + rename), so concurrent readers observe either the
    previous entry or the complete new one, never a torn file: one
    writer and any number of readers can share a cache directory. Two
    writers racing on the same key both write the same bytes (keys are
    content hashes of deterministic pipelines), so last-rename-wins is
    harmless.

    Eviction is LRU-ish on file mtimes: {!find} touches the entry it
    serves, and {!gc} removes oldest-mtime entries until the total
    payload volume fits the cap. A store opened with [max_mb] self-GCs
    after any {!put} that overflows the cap.

    Fault injection: {!find} and {!put} probe the [cache.io] site
    ({!Bistpath_resilience.Inject}); an injected (or real) [Sys_error]
    on either path degrades to a miss / skipped write.

    Telemetry (see the registry in {!Bistpath_telemetry.Telemetry}):
    [cache.store], [cache.corrupt], [cache.evicted], [cache.io_errors].
    The hit/miss pair is counted by the consumer ({!Bistpath_core.Flow}
    and the CLI/service artifact paths), which knows the stage. *)

type t

val open_ : ?max_mb:int -> dir:string -> unit -> t
(** Create (or reuse) the cache rooted at [dir], creating [dir] and
    [dir/objects] as needed. [max_mb] caps the total payload volume;
    omitted = unbounded. Raises [Sys_error] when the directory cannot
    be created — callers degrade to running uncached. *)

val find : t -> stage:string -> key:string -> string option
(** Payload stored under [key], or [None] on a missing, corrupt
    (deleted on sight) or unreadable entry. Touches the entry's mtime
    on a hit. *)

val put : t -> stage:string -> key:string -> string -> unit
(** Store a payload. Best-effort: I/O failures are counted
    ([cache.io_errors]) and swallowed — a read-only or full disk makes
    the cache cold, not the pipeline dead. *)

type stats = {
  entries : int;
  bytes : int;  (** total entry bytes on disk (header + payload) *)
}

val stats : t -> stats

val gc : t -> max_bytes:int -> int
(** Evict oldest-mtime entries until the payload volume is within
    [max_bytes]; returns the number of entries removed. *)

val clear : t -> int
(** Remove every entry; returns the number removed. *)
