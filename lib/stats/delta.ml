(** Numeric diff of two run artifacts ([pcolor diff], and the CI bench
    regression gate).

    Walks two parsed JSON trees in parallel, pairing numeric leaves by
    dotted path, and classifies each delta by the metric's "good"
    direction, inferred from the key name: miss counts, cycle counts and
    fault counts should not grow; throughput and honored-hint counts
    should not shrink.  Provenance and similar identity-only fields are
    skipped — two runs of the same experiment on different days must
    diff clean. *)

module J = Pcolor_obs.Json

type direction = Increase_bad | Decrease_bad | Neutral

type entry = {
  path : string;  (* dotted path of the numeric leaf, e.g. "report.mcpi" *)
  a : float;
  b : float;
  delta : float;  (* b - a *)
  rel : float;  (* |delta| / |a|; infinite when a = 0 and b <> 0 *)
  direction : direction;
  regression : bool;  (* moved in the bad direction past the threshold *)
}

type t = {
  entries : entry list;  (* numeric leaves present in both, in tree order *)
  only_in_a : string list;
  only_in_b : string list;
  label_changes : (string * string * string) list;  (* path, a, b *)
}

(* Identity / environment fields: differing values are expected between
   any two runs and mean nothing for regression detection. *)
let identity_key = function
  | "provenance" | "timestamp" | "hostname" | "git" | "jobs" | "seed" | "config_hash" -> true
  | _ -> false

(* The attribution hot lists and the per-page decision listing are
   rankings: when two runs differ, row N names a different entity in
   each and leaf-by-leaf pairing is noise, so the threshold mode skips
   them (aggregate first, see [Explain.per_array_rollup]).  Every
   ranking is sorted into a total order, so identical runs list
   identical rows and the exact mode compares them element by
   element. *)
let ranking_key = function "top_pairs" | "top_frames" | "top_sets" | "pages" -> true | _ -> false

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(** [direction_of path] infers the metric's good direction from its key
    name; unknown names are [Neutral] (reported, never a regression). *)
let direction_of path =
  let decrease_bad = [ "refs_per_sec"; "speedup"; "hits_honored"; "hints_honored"; "pf_useful" ] in
  let increase_bad =
    [
      "miss"; "mcpi"; "cycles"; "fault"; "seconds"; "fallback"; "stall"; "tlb"; "recolor";
      "pf_dropped"; "occupancy"; "by_class";
      (* per-class miss counts keyed by the class name alone
         (per-array rollups) *)
      "cold"; "capacity"; "conflict"; "sharing";
    ]
  in
  if List.exists (fun n -> contains ~needle:n path) decrease_bad then Decrease_bad
  else if List.exists (fun n -> contains ~needle:n path) increase_bad then Increase_bad
  else Neutral

let number = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

let join path key = if path = "" then key else path ^ "." ^ key

(** [diff ?threshold ?exact ?ignore a b] pairs the two trees' leaves.
    A numeric leaf regresses when it moves in its bad direction by more
    than [threshold] relative to the old value (default 0.0: any bad
    move counts).  [exact] (default false) also pairs the rankings.
    [ignore] adds object keys to the built-in skip set — e.g.
    [["timeline"]] to compare a sampled run against an unsampled
    baseline. *)
let diff ?(threshold = 0.0) ?(exact = false) ?(ignore = []) a b =
  let skip_key k = identity_key k || ((not exact) && ranking_key k) || List.mem k ignore in
  let entries = ref [] in
  let only_a = ref [] in
  let only_b = ref [] in
  let labels = ref [] in
  let leaf path va vb =
    match (number va, number vb) with
    | Some fa, Some fb ->
      let delta = fb -. fa in
      let rel =
        if delta = 0.0 then 0.0
        else if fa = 0.0 then infinity
        else Float.abs delta /. Float.abs fa
      in
      let direction = direction_of path in
      let bad_move =
        match direction with
        | Increase_bad -> delta > 0.0
        | Decrease_bad -> delta < 0.0
        | Neutral -> false
      in
      entries := { path; a = fa; b = fb; delta; rel; direction; regression = bad_move && rel > threshold } :: !entries
    | _ ->
      let str = function
        | J.Str s -> Some s
        | J.Bool bv -> Some (string_of_bool bv)
        | J.Null -> Some "null"
        | _ -> None
      in
      (match (str va, str vb) with
      | Some sa, Some sb when sa <> sb -> labels := (path, sa, sb) :: !labels
      | _ -> ())
  in
  let rec walk path va vb =
    match (va, vb) with
    | J.Obj ka, J.Obj kb ->
      List.iter
        (fun (k, v) ->
          if not (skip_key k) then
            match List.assoc_opt k kb with
            | Some v' -> walk (join path k) v v'
            | None -> only_a := join path k :: !only_a)
        ka;
      List.iter
        (fun (k, _) ->
          if (not (skip_key k)) && not (List.mem_assoc k ka) then
            only_b := join path k :: !only_b)
        kb
    | J.Arr la, J.Arr lb ->
      let n = min (List.length la) (List.length lb) in
      List.iteri
        (fun i v -> if i < n then walk (join path (string_of_int i)) v (List.nth lb i))
        la;
      if List.length la <> List.length lb then
        labels :=
          ( join path "length",
            string_of_int (List.length la),
            string_of_int (List.length lb) )
          :: !labels
    | _ -> leaf path va vb
  in
  walk "" a b;
  {
    entries = List.rev !entries;
    only_in_a = List.rev !only_a;
    only_in_b = List.rev !only_b;
    label_changes = List.rev !labels;
  }

(** [regressions d] / [changed d] filter the paired leaves. *)
let regressions d = List.filter (fun e -> e.regression) d.entries

let changed d = List.filter (fun e -> e.delta <> 0.0) d.entries

(* Changed leaves [render] lists before summarizing the rest. *)
let max_rows = 40

(** [render d] is the human-readable diff table: changed leaves (worst
    relative move first), then structural notes.  Rows beyond
    [max_rows] are summarized, not silently dropped. *)
let render d =
  let buf = Buffer.create 1024 in
  let changed = changed d in
  let dir_glyph e =
    match (e.direction, e.regression) with
    | Neutral, _ -> "  "
    | _, true -> "!!"
    | Increase_bad, false -> if e.delta > 0.0 then " ~" else " +"
    | Decrease_bad, false -> if e.delta < 0.0 then " ~" else " +"
  in
  if changed = [] then Buffer.add_string buf "no numeric changes\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-44s %14s %14s %10s\n" "path" "old" "new" "rel");
    let sorted = List.stable_sort (fun x y -> compare y.rel x.rel) changed in
    List.iteri
      (fun i e ->
        if i < max_rows then
          Buffer.add_string buf
            (Printf.sprintf "%s %-41s %14.6g %14.6g %9.2f%%\n" (dir_glyph e) e.path e.a e.b
               (if Float.is_finite e.rel then 100.0 *. e.rel else Float.infinity)))
      sorted;
    if List.length sorted > max_rows then
      Buffer.add_string buf
        (Printf.sprintf "   ... %d more changed values not shown\n"
           (List.length sorted - max_rows))
  end;
  List.iter
    (fun (p, sa, sb) -> Buffer.add_string buf (Printf.sprintf " * %s: %S -> %S\n" p sa sb))
    d.label_changes;
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf " - only in old: %s\n" p)) d.only_in_a;
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf " + only in new: %s\n" p)) d.only_in_b;
  Buffer.contents buf
