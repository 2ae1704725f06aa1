(* v2: artifacts gained the "attribution" and "coloring_decisions"
   sections (both optional).
   v3: mix artifacts ("mix"/"aggregate"/"per_job" sections, pcolor
   mix) join the run artifacts; attribution may span several address
   spaces.
   v4: optional "timeline" section (cycle-epoch delta rows + context-
   switch events, --timeline); replay artifacts carry the same
   sections as live runs. *)
let schema_version = 4

type t = {
  timestamp : string;
  hostname : string;
  git : string option;
  scale : int option;
  jobs : int option;
  seed : int option;
  config_hash : string option;
}

let iso8601_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Files a bench or perf run writes into the tree it measures: the perf
   ledger and the root-level BENCH_*.json artifacts.  Changes to them
   alone leave the stamp clean, so the first [perf ingest] at a commit
   does not mark every later one -dirty. *)
let bench_output path =
  path = "PERF_LEDGER.jsonl"
  || (String.starts_with ~prefix:"BENCH_" path
     && Filename.check_suffix path ".json"
     && not (String.contains path '/'))

(* [git status --porcelain] line: two status letters, a space, the path
   relative to the repository root ("old -> new" for a rename). *)
let dirty_of_status lines =
  List.exists
    (fun line ->
      let n = String.length line in
      n > 3
      &&
      let path = String.sub line 3 (n - 3) in
      let paths =
        match String.split_on_char ' ' path with
        | [ a; "->"; b ] -> [ a; b ]
        | _ -> [ path ]
      in
      not (List.for_all bench_output paths))
    lines

(* [command_lines cmd] is [cmd]'s stdout lines, or [None] when it fails. *)
let command_lines cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some lines | _ -> None

(* Best effort: the artifact must never fail because git is absent or
   the binary runs from an exported tarball. *)
let git_describe () =
  try
    match command_lines "git describe --always" with
    | Some (rev :: _) when rev <> "" -> (
      match command_lines "git status --porcelain --untracked-files=no" with
      | Some status when dirty_of_status status -> Some (rev ^ "-dirty")
      | Some _ -> Some rev
      | None -> None)
    | _ -> None
  with _ -> None

let hash_value v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let collect ?scale ?jobs ?seed ?config_hash () =
  {
    timestamp = iso8601_now ();
    hostname = (try Unix.gethostname () with _ -> "unknown");
    git = git_describe ();
    scale;
    jobs;
    seed;
    config_hash;
  }

let to_json t =
  let opt_int name = function None -> [] | Some v -> [ (name, Json.Int v) ] in
  let opt_str name = function None -> [] | Some v -> [ (name, Json.Str v) ] in
  Json.Obj
    ([ ("schema_version", Json.Int schema_version); ("timestamp", Json.Str t.timestamp); ("hostname", Json.Str t.hostname) ]
    @ opt_str "git" t.git @ opt_int "scale" t.scale @ opt_int "jobs" t.jobs @ opt_int "seed" t.seed
    @ opt_str "config_hash" t.config_hash)
