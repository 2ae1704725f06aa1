(** Numeric diff of two run artifacts ([pcolor diff] and the CI bench
    regression gate): pairs numeric leaves by dotted path, classifies
    each delta by the metric's good direction (inferred from the key
    name), and flags moves past a relative threshold as regressions.
    Provenance/identity fields are skipped; rankings are skipped
    except in exact mode. *)

type direction = Increase_bad | Decrease_bad | Neutral

type entry = {
  path : string;  (** dotted path of the numeric leaf, e.g. ["report.mcpi"] *)
  a : float;
  b : float;
  delta : float;  (** [b - a] *)
  rel : float;  (** [|delta| / |a|]; infinite when [a = 0] and [b <> 0] *)
  direction : direction;
  regression : bool;  (** moved in the bad direction past the threshold *)
}

type t = {
  entries : entry list;  (** numeric leaves present in both, tree order *)
  only_in_a : string list;
  only_in_b : string list;
  label_changes : (string * string * string) list;  (** path, old, new *)
}

(** [direction_of path] infers the metric's good direction from its key
    name; unknown names are [Neutral] (reported, never a regression). *)
val direction_of : string -> direction

(** [diff ?threshold ?exact ?ignore a b] pairs the two trees' leaves;
    [threshold] (default 0) is the relative bad-direction move that
    counts as a regression; [exact] (default false) pairs the rankings
    ([top_pairs], [top_frames], [top_sets], [pages]) element by element
    instead of skipping them; [ignore] adds object keys to the built-in
    skip set (e.g. [["timeline"]]). *)
val diff :
  ?threshold:float -> ?exact:bool -> ?ignore:string list ->
  Pcolor_obs.Json.t -> Pcolor_obs.Json.t -> t

(** [regressions d] is the flagged subset of [d.entries]. *)
val regressions : t -> entry list

(** [changed d] is every paired leaf whose value moved. *)
val changed : t -> entry list

(** [render d] is a human-readable diff table (worst relative move
    first; [!!] marks regressions); rows beyond the first 40 are
    summarized, never silently dropped. *)
val render : t -> string
