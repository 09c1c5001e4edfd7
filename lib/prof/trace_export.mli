(** Chrome trace-event export ([trace.json]).

    Renders a recorded event stream and profiler timeline samples in the
    Trace Event Format understood by [chrome://tracing] and Perfetto's
    legacy-JSON importer ({{:https://ui.perfetto.dev} ui.perfetto.dev} →
    "Open trace file"). Two processes separate the two clocks: pid 1
    carries {!Fortress_obs.Event.Span_finished} spans in {e virtual}
    time, one thread lane per node (span attr ["node"], else the span
    name's prefix before the first ['.']) plus an ["events"] lane of
    [`Info]-level instants; pid 2 carries {!Profiler} wall-clock samples,
    one lane per phase scope.

    When the stream carries causal message spans (a [net.deliver] whose
    parent is a [net.send], as opened by the network layer under
    {!Fortress_sim.Engine.attach_causal}), each such edge additionally
    renders as a flow arrow (["ph":"s"]/["ph":"f"] pair bound by the
    deliver span's id) from the sender's lane to the receiver's lane.
    Streams without causal spans produce no flow events, so existing
    artifacts are unchanged. *)

val make :
  ?scale:float -> ?samples:Profiler.sample list -> (float * Fortress_obs.Event.t) list ->
  Fortress_obs.Json.t
(** [make events] builds the trace document
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] from timestamped
    events (as captured by {!Fortress_obs.Sink.memory}). [scale] converts
    virtual time units to trace microseconds (default [1e6]: one virtual
    unit renders as a second). [samples] adds profiler lanes (wall-clock
    seconds, scaled to microseconds). Lane ids are assigned in first-seen
    order, so the same stream always yields the same document. *)

val keeps : Fortress_obs.Event.t -> bool
(** The events {!make} reads: finished spans and [`Info] milestones. A
    capture that keeps only these yields the same document. *)

val write : path:string -> Fortress_obs.Json.t -> unit
(** Stream the document to [path] through {!Fortress_obs.Json.output}
    (trailing newline), closing the file even on error. *)
