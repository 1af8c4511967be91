(** Rolling q-error histograms — the accuracy health signal.

    The q-error of an estimate [e] against ground truth [t] is the
    multiplicative miss factor [max (e'/t') (t'/e')] with
    [e' = max e 1.] and [t' = max t 1.] (the standard clamp: below one
    row the ratio is meaningless).  q-error is always [>= 1]; 1 means
    exact.

    Observations land in a fixed log-scale histogram (64 buckets,
    geometric with ratio [sqrt 2], so bucket 63 reaches 2^32) plus exact
    running sum / max, mirroring the latency histogram in
    [Serve.Metrics].  A table has no lock: writes must come from one
    owner domain, as in the per-domain telemetry shards, and merged
    copies are local to the reader.  Readers from other domains via
    [merge_into] see racy-but-never-torn values — every field is an
    immediate int or an unboxed float slot, so a stale read is possible
    but a corrupt one is not. *)

type t

val create : unit -> t

val n_buckets : int
val bucket_ratio : float

val value : est:float -> truth:float -> float
(** The q-error of one (estimate, truth) pair. *)

val observe : t -> est:float -> truth:float -> unit
val record : t -> float -> unit
(** Record an already-computed q-error (must be [>= 1]; clamped). *)

val count : t -> int
val mean : t -> float
(** Exact mean of observed q-errors; [nan] when empty. *)

val worst : t -> float
(** Exact maximum; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.9]: upper edge of the bucket holding the p-quantile
    observation — same upper-edge quantization as
    [Serve.Metrics.percentile_us].  [nan] when empty. *)

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_q : float;
}

val summarize : t -> summary

val buckets : t -> (float * int) array
(** [(upper edge, cumulative count)] per bucket, Prometheus-ready. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into t] adds [t]'s histogram, count, sum and max into
    [into].  A source another domain is writing yields a
    racy-but-never-torn contribution, matching [Obs.Telemetry] merge
    semantics. *)

val of_pairs : (float * float) list -> t
(** Build from [(truth, estimate)] pairs, e.g. a workload evaluation. *)
