(** Self-contained HTML reports rendered from a decision-journal file.

    [hlts report] reads a {!Hlts_obs.journal_sink} JSONL file with
    {!read_file} and writes {!to_html}'s output. The renderer
    uses only what is in the file — canonical decision lines (the
    [{"j":...}] prefix) for the merge trajectory and the
    testability-balance table, span begin/end lines for the per-phase
    breakdown, [wspan]/[gauge] lines for pool-utilization and
    queue-depth lanes, ["res.*"] / ["*.workers_*"] gauge lines for the
    memory/GC panel, and the [run.meta] instant for run metadata —
    and the HTML it emits embeds all styling and charts inline (CSS +
    SVG), no external assets. Unparseable lines are counted and
    skipped, never fatal, so a report can be rendered from a journal
    truncated by a crash. *)

type t
(** Parsed journal, accumulated and ready to render. *)

val parse : string list -> t
(** [parse lines] folds the journal lines, in file order, into a
    report model. Tolerant: malformed lines are skipped and counted. *)

val read_file : string -> (t, string) result
(** [read_file f] is {!parse} over the complete lines of [f]
    ({!Top.read_lines}); a torn trailing fragment counts as skipped.
    [Error] only when the file cannot be opened. *)

val to_html : t -> string
(** Render the complete HTML document. *)

val iterations : t -> int
(** Number of [Iter_begin] decisions seen (for CLI feedback/tests). *)

val decisions : t -> int
(** Total decision lines decoded. *)

val skipped : t -> int
(** Lines that failed to parse or decode. *)

val serve_html :
  file:string -> final:bool -> skipped:int -> Top.access list -> string
(** [hlts report --serve]: render a [serve --access-log] file (parsed
    with {!Top.read_access_file}) as a service report — latency
    timeline split by cache hit/miss, bucketed request-rate and
    hit-rate charts, and a per-op latency-percentile table. Same
    inline-asset and tolerance story as {!to_html}. *)
