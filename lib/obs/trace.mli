(** Structured event tracing in the Chrome [trace_event] format,
    emitted as JSONL: one complete event object per line, no enclosing
    array.  Perfetto and chrome://tracing both accept the stream (the
    trace-event spec requires readers to tolerate an unterminated
    array; a strict-array consumer can wrap the lines with
    [jq -s '{traceEvents:.}']).

    Timestamps are {e simulated} CPU cycles reported in the format's
    microsecond field, so traces are deterministic and the timeline
    shows simulated time, not wall-clock.  Each run writes into a
    private {!buffer} (its own [pid]); buffers flush to the shared
    {!sink} under a mutex, so domain-parallel runs interleave whole
    events, never partial lines. *)

type sink

type buffer

(** [open_sink ~path] opens (truncates) the trace file. *)
val open_sink : path:string -> sink

(** [buffer sink] allocates a private event buffer with a fresh
    process id (thread-safe). *)
val buffer : sink -> buffer

(** [duration_begin buf ~ts ~tid name] / [duration_end buf ~ts ~tid
    name] bracket a span on thread [tid] ([ph:"B"]/[ph:"E"]). *)
val duration_begin : buffer -> ts:int -> tid:int -> ?cat:string -> string -> unit

val duration_end : buffer -> ts:int -> tid:int -> ?cat:string -> string -> unit

(** [instant buf ~ts ~tid name] emits a thread-scoped instant event
    ([ph:"i"]), with optional argument payload. *)
val instant : buffer -> ts:int -> tid:int -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit

(** [counter buf ~ts ~tid ~args name] emits a counter sample
    ([ph:"C"]); [args] must be a flat numeric dictionary — each key
    becomes a series on the counter track [name] in Perfetto. *)
val counter : buffer -> ts:int -> tid:int -> ?cat:string -> args:(string * Json.t) list -> string -> unit

(** [process_name buf name] / [thread_name buf ~tid name] emit the
    metadata events viewers use to label timeline rows. *)
val process_name : buffer -> string -> unit

val thread_name : buffer -> tid:int -> string -> unit

(** [flush buf] appends the buffered events to the sink (one mutexed
    write) and empties the buffer. *)
val flush : buffer -> unit

(** [close sink] flushes the channel and closes the file.  Buffers
    still holding events must be flushed first; closing twice is
    harmless. *)
val close : sink -> unit
