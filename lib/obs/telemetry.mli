(** Per-domain lock-free telemetry: sharded counters and latency
    histograms merged on read.

    Each domain touching a {!t} owns a [Domain.DLS] shard of named
    monotonic counters and {!Histogram} latency histograms.  {!incr} and
    {!record_ns} run entirely on the caller's shard — no lock, no
    contended cache line — so writer domains scale linearly where a
    mutex-guarded recorder serializes.  The per-shard mutex guards only
    slot {e creation} (first use of a name in a shard) and the reader's
    slot listing, never a hot-path bump.

    The read side merges shard values on demand.  Value reads are racy
    by design: single-word (never torn) and monotone, so every snapshot
    is a consistent lower bound, and totals are exact as soon as writers
    quiesce or a happens-before edge exists (e.g. [Domain.join] in
    tests, the accept loop's synchronization in the server).
    {!snapshot} stamps each merge with a monotonically increasing epoch;
    {!Snapshot.delta} subtracts two snapshots into the window between
    their epochs — HEALTH's burn-rate windows are built on this. *)

type t

val create : unit -> t
(** A fresh telemetry instance with its own shard set.  Instances are
    independent: two servers in one process never share counters. *)

val incr : ?by:int -> t -> string -> unit
(** Bump a named counter on the calling domain's shard (created at zero
    on first use).  Lock-free after the slot exists. *)

val record_ns : t -> string -> int -> unit
(** Record one latency sample (ns) into the named histogram on the
    calling domain's shard.  Zero-allocation after the slot exists. *)

(** {2 Handle API — the allocation-free hot path}

    {!incr} and {!record_ns} probe a string-keyed hashtable, which boxes
    the [find_opt] result — one minor allocation per bump.  Callers on a
    strict zero-allocation budget (the server's warm request path)
    register their slot names once at startup and bump through integer
    handles instead: the hot path indexes a per-shard flat array — a
    bounds check plus an int add or a {!Histogram.record}, nothing
    allocated, no optional arguments (which would box).  Handle slots
    merge into {!snapshot} / {!get} / {!hist_merged} under their
    registered names exactly like string-keyed slots; a name may be used
    through both APIs and the values add. *)

type counter_handle
type hist_handle

val counter_handle : t -> string -> counter_handle
(** Register (or look up) the named counter's handle.  Idempotent —
    the same name always yields the same handle.  Takes the registry
    lock; call at startup, not per request. *)

val hist_handle : t -> string -> hist_handle
(** Same, for a named histogram. *)

val hincr : t -> counter_handle -> unit
(** Bump the handle's counter on the calling domain's shard.  Allocates
    nothing once the shard's slot array covers the handle (first use
    grows it). *)

val hincr_by : t -> counter_handle -> int -> unit
(** [hincr] by an arbitrary amount (a plain argument — no option
    boxing). *)

val hrecord : t -> hist_handle -> int -> unit
(** Record one sample (ns) into the handle's histogram on the calling
    domain's shard.  Allocation-free once the slot array covers the
    handle. *)

val observe_qerror : t -> string -> est:float -> truth:float -> unit
(** Record one (estimate, truth) accuracy observation into the named
    {!Qerror} table on the calling domain's shard.  Lock-free after the
    slot exists: the shard-local table has no lock and only the owner
    domain writes it. *)

val qerror_shard : t -> string -> Qerror.t
(** The calling domain's shard-local q-error table for [name] (created
    empty on first use).  Writes through the returned handle land in
    this domain's shard and are visible to {!qerrors_merged}. *)

val get : t -> string -> int
(** Merged value of a counter across all shards; 0 when never bumped. *)

val hist_merged : t -> string -> Histogram.t
(** Merged copy of a named histogram across all shards; empty when never
    recorded. *)

val qerror_merged : t -> string -> Qerror.t
(** Fresh merged copy of the named q-error table across all shards;
    empty when never observed.  Reads of unquiesced shards are racy but
    never torn. *)

val qerrors_merged : t -> (string * Qerror.t) list
(** Every observed q-error table name with its merged copy, sorted. *)

val n_shards : t -> int
(** Shards created so far (= domains that have written). *)

type snapshot = {
  epoch : int;  (** monotonically increasing per {!snapshot} call *)
  counters : (string * int) list;  (** merged, sorted by name *)
  hists : (string * Histogram.t) list;  (** merged copies, sorted *)
}

val snapshot : t -> snapshot
(** Merge every shard into one consistent-lower-bound snapshot.  Never
    blocks writers: only the rare slot-creation path shares the shard
    lock with this. *)

module Snapshot : sig
  val find_counter : snapshot -> string -> int
  val find_hist : snapshot -> string -> Histogram.t option

  val delta : prev:snapshot -> snapshot -> snapshot
  (** The window between two snapshots of the same instance: per-counter
      differences and bucket-wise histogram differences.  Slots absent
      from [prev] count from zero. *)
end
