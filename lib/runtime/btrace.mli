(** Binary reference traces: record a runs-engine run as a stream of
    simulation events (run-coalesced records in the
    {!Pcolor_comp.Walker} encoding), replay it later through
    {!Pcolor_memsim.Machine.consume_runs} and the engine's own phase
    bracket and barrier — byte-identical counters, O(batch) memory in
    both directions.

    Writer and reader speak format v3 only, and a v1 or v2 tape is
    refused with {!Bad_version}.  A v3 run record is one varint
    [count lsl 2 lor explicit lsl 1 lor has_pf].  Each slot's address
    word is predicted as the previous record's, advanced by
    [(innermost stride × previous count) lsl 1], and the prediction
    restarts from zero at every run section.  Only an [explicit]
    record (one that breaks the prediction) carries a zigzag residual
    per slot, and only a [has_pf] record carries its prefetch words.

    Replay honors the observability context in the setup: metrics,
    phase spans and instants, attribution and the cycle-epoch timeline
    all reproduce, so a taped run yields the same artifact sections and
    the same Chrome trace as a live run. *)

(** Trace self-description, embedded after the magic/version preamble
    so a replay can rebuild the identical kernel, machine and window
    plan.  [policy] is the {!Run.policy_name} label. *)
type header = {
  bench : string;
  machine : string;
  n_cpus : int;
  scale : int;
  policy : string;
  prefetch : bool;
  seed : int;
  cap : int;
  provenance : string;  (** free-form, e.g. [git describe] at record time *)
}

(** {2 Errors}

    Every malformed-input path raises {!Error} — never a bare
    [Failure], and never silently-garbage counters. *)

type corruption =
  | Bad_magic of string  (** the file doesn't start with the trace magic *)
  | Bad_version of { found : int; expected : int }
      (** [found] outside the supported range; [expected] is the newest
          supported version *)
  | Truncated of string  (** unexpected EOF; payload names the region *)
  | Corrupt of string  (** structurally invalid content *)

exception Error of corruption

(** [corruption_message c] renders [c] for diagnostics. *)
val corruption_message : corruption -> string

(** Reader and writer move bytes between the channel and the codec in
    chunks of this many bytes, one channel call per chunk. *)
val chunk_bytes : int

(** {2 Recording} *)

type writer

(** [create_writer oc h] writes the preamble and header to [oc] and
    returns a writer.  The caller owns the channel. *)
val create_writer : out_channel -> header -> writer

(** [recorder w] is the hook set to pass to {!Run.run} (or
    {!Engine.create}); requires the runs engine. *)
val recorder : writer -> Engine.recorder

(** [finish w] terminates the tape (END marker), hands the writer's
    buffered bytes to the channel and flushes it.  Until then up to
    {!chunk_bytes} of the tape sit in the writer, not the channel (so
    [pos_out] is only the tape size after [finish]).  Idempotent; does
    not close the channel. *)
val finish : writer -> unit

(** {2 Replay} *)

type reader

(** [open_reader ic] checks the preamble and decodes the header.
    Raises {!Error} ([Bad_magic], [Bad_version] or [Truncated]) on a
    foreign, incompatible or cut-short file, and [Corrupt] on a header
    naming fewer than one CPU, a scale that is not a positive power of
    two or a window cap below one.

    The reader owns [ic] from here on: it reads ahead in whole chunks,
    past the END marker if the channel holds more, so the channel's
    position is unspecified and the caller must not read from it again
    (closing it stays the caller's job). *)
val open_reader : in_channel -> reader

(** [open_string tape] is {!open_reader} over a tape held in memory. *)
val open_string : string -> reader

val header : reader -> header

(** [decode r rc] streams the event tape into [rc] — the inverse of
    {!recorder}: decoding a tape into a writer's recorder reproduces it
    byte for byte.  Batches are handed over in a reused buffer, valid
    only for the duration of the call.  Raises {!Error} on a corrupt or
    truncated tape (also when [rc] raises [Invalid_argument] or
    [Failure]). *)
val decode : reader -> Engine.recorder -> unit

(** [replay r ~setup] consumes the event tape against a fresh
    kernel/machine/engine built by {!Run.build} from [setup] (construct
    it from {!header} — the recorded run's setup) and returns
    {!Run.finish}'s outcome with counters byte-identical to the
    recorded run.  The reference stream is never
    materialized: batches stream from disk straight into the consume
    loop.  The outcome carries the same metrics/attribution sections a
    live run would produce under the same observability context.
    Raises {!Error} on a corrupt or truncated tape, when [setup]'s
    machine has a different CPU count than the header names, or
    ({!Corrupt}) when [setup]'s policy is a dynamic-recoloring one,
    whose page moves the tape does not hold. *)
val replay : reader -> setup:Run.setup -> Run.outcome
