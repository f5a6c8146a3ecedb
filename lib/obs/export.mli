(** Exposition formats for the telemetry layer: OpenMetrics text and
    newline-delimited JSON windows.

    {b OpenMetrics} ({!to_openmetrics}) renders a cumulative
    {!Metrics.snapshot} in the standard text exposition format: one
    [# TYPE] line per family, samples as [name{labels} value], histograms
    as cumulative [_bucket{le=...}] series ending in [le="+Inf"] plus
    [_sum]/[_count], and a final [# EOF]. Label values are escaped
    (backslash, quote, newline) and label order is the registry's sorted
    order, so output is byte-deterministic for a given snapshot. Counters
    follow the [_total] convention: a counter named [x_total] exposes
    family [x] with sample [x_total]. The runtime atomically rewrites one
    such file per window ({!write_atomic}), so a scraper never reads a
    torn exposition.

    {!validate} is the matching format checker (used by tests and the CI
    smoke): it re-parses an exposition, checking name/label syntax, escape
    validity, [# TYPE] declarations, bucket cumulativity, the [+Inf]/
    [_count] agreement, and the [# EOF] terminator.

    {b JSONL} ({!window_to_jsonl}) renders one {!Timeseries.window} as one
    line of JSON — tail-able while a run is live; windowed p50/p95/p99 and
    overflow are precomputed per histogram so downstream readers get
    quantiles without re-deriving them from buckets. *)

val to_openmetrics : Metrics.snapshot -> string

val validate : string -> (unit, string) result
(** Check a text exposition for OpenMetrics well-formedness (syntax,
    types, bucket cumulativity, terminator). [Error] carries a message
    with the offending line number. *)

val window_to_json : Timeseries.window -> Mdbs_util.Json.t

val window_to_jsonl : Timeseries.window -> string
(** {!window_to_json} rendered compactly on a single line (no trailing
    newline). *)

val write_atomic : path:string -> string -> unit
(** Write via a temp file in the same directory then rename over [path],
    so concurrent readers see either the old or the new content, never a
    prefix. *)
